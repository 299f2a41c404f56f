"""service_mixed: open-loop HTTP load on a ``python -m repro serve`` process.

The server runs in its own process with default service settings; this
process is the single load generator.  It sends on a schedule of evenly
spaced due times through at most ``nproc`` persistent connections, and
times every request from its *due* time, so a stall also charges the
requests queued behind it.  Requests alternate ``/v1/differentiate``
(with ``preview_sizes``) and ``/v1/explore``; their queries come from a
seeded stream of mostly first-seen keyword combinations.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time

from . import inputs
from .report import MIN_SAMPLES, Outcome, percentile, proc_rss_mb, unit_of
from .spans import layer_metrics, sum_counters, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Table 3 queries explored one by one on the fresh server (cold pass)
COLD_QUERIES = 20
#: (rate in requests/s, requests) per open-loop step; the middle one is
#: the reference step.  On two cores the server completes ~12 requests/s
#: of this stream when driven closed loop.
RATE_STEPS = ((4.0, 8), (8.0, MIN_SAMPLES), (12.0, 24))
REFERENCE_STEP = 1
#: a step is sustained when its p90 latency (from due time) is within
#: this limit and its last quarter was sent no later than this behind
#: schedule (no growing backlog)
LATENCY_LIMIT_S = 1.0
EVENT_POLL_S = 1.0


class Server:
    """One ``repro serve`` subprocess on a free loopback port."""

    def __init__(self, traced_dump: str | None = None):
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (os.path.join(ROOT, "src"),
                                   os.environ.get("PYTHONPATH")) if p))
        args = ["--facts", str(inputs.SERVICE_FACTS), "serve", "--port", "0"]
        if traced_dump is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable,
                       os.path.join(ROOT, "perfbench", "serve_traced.py"),
                       traced_dump, *args]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 120)
            line = self.process.stdout.readline() if ready else ""
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split("http://", 1)[1].split()[0]
                            .rsplit(":", 1)[1])
            # keep draining stdout so the server can never block on it
            threading.Thread(target=self.process.stdout.read,
                             daemon=True).start()
            deadline = started + 120.0
            while self.get("/v1/healthz")[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def get(self, path: str):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        except OSError:
            return None, None
        finally:
            connection.close()

    def rss_mb(self) -> tuple[float, float]:
        return proc_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait for the exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class Client:
    """Sends requests over persistent connections and checks replies."""

    def __init__(self, port: int, outcome: Outcome, expected: dict):
        self.port = port
        self.outcome = outcome
        self.expected = expected  # Table 3 query -> top interpretation
        self.lock = threading.Lock()

    def connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)

    def send(self, connection, endpoint: str, query: str):
        """``(sent, done, request id)``; failures are recorded."""
        body = {"query": query}
        if endpoint == "differentiate":
            body["preview_sizes"] = True
        sent = time.perf_counter()
        try:
            connection.request("POST", f"/v1/{endpoint}", json.dumps(body),
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = json.loads(response.read())
            status = response.status
        except (OSError, http.client.HTTPException, ValueError) as exc:
            connection.close()
            with self.lock:
                self.outcome.op(False, query, f"{endpoint} {exc!r}")
            return sent, time.perf_counter(), None
        done = time.perf_counter()
        problem = None
        if status != 200:
            problem = f"{endpoint} HTTP {status}"
        elif payload.get("partial"):
            problem = f"{endpoint} partial result"
        elif query in self.expected:
            top = (payload["interpretations"][0]["interpretation"]
                   if endpoint == "differentiate"
                   else payload["interpretation"])
            if top != self.expected[query]:
                problem = f"{endpoint} top interpretation differs"
        with self.lock:
            self.outcome.op(problem is None, query, problem or "")
        return sent, done, payload.get("request_id")


def _open_loop(client: Client, requests, rate: float) -> list[tuple]:
    """Send ``requests`` at evenly spaced due times; returns
    ``(endpoint, due, sent, done, request id)`` per request."""
    start = time.perf_counter() + 0.05
    jobs = [(start + i / rate, endpoint, query)
            for i, (endpoint, query) in enumerate(requests)]
    results: list[tuple] = []
    cursor = iter(jobs)
    lock = threading.Lock()

    def worker():
        connection = client.connect()
        try:
            while True:
                with lock:
                    job = next(cursor, None)
                if job is None:
                    return
                due, endpoint, query = job
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent, done, request_id = client.send(connection, endpoint,
                                                     query)
                with lock:
                    results.append((endpoint, due, sent, done, request_id))
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(results, key=lambda r: r[1])


def _closed_loop(client: Client, queries):
    """One caller sending keyword queries (differentiate, then explore)
    back to back.  Returns per-endpoint latencies and keyword queries
    completed per second."""
    latencies: dict[str, list[float]] = {"differentiate": [],
                                         "explore": []}
    connection = client.connect()
    try:
        for query in queries:
            for endpoint in ("differentiate", "explore"):
                sent, done, _ = client.send(connection, endpoint, query)
                latencies[endpoint].append(done - sent)
    finally:
        connection.close()
    busy = sum(latencies["differentiate"]) + sum(latencies["explore"])
    return latencies, len(queries) / busy


def _cold_pass(client: Client, queries) -> float:
    """Sequential ``/v1/explore`` of every Table 3 query on a fresh
    server; returns the summed latency."""
    connection = client.connect()
    try:
        total = 0.0
        for query in queries:
            sent, done, _ = client.send(connection, "explore", query)
            total += done - sent
        return total
    finally:
        connection.close()


class _EventPoller:
    """Collects ``finished`` events from /v1/eventz (deduplicated)."""

    def __init__(self, server: Server):
        self.server = server
        self.finished: dict[str, dict] = {}
        self.shed = 0
        self.seen: set[int] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def poll(self) -> None:
        status, body = self.server.get("/v1/eventz?n=512")
        if status != 200:
            return
        for event in body.get("events", []):
            if event.get("seq") in self.seen:
                continue
            self.seen.add(event.get("seq"))
            if event.get("kind") == "finished":
                self.finished[event["request_id"]] = event
            elif event.get("kind") == "shed":
                self.shed += 1

    def _run(self) -> None:
        while not self._stop.wait(EVENT_POLL_S):
            self.poll()

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        self.poll()


def _step_summary(results, rate: float) -> dict:
    latencies = [done - due for _, due, _, done, _ in results]
    quarter = results[-max(1, len(results) // 4):]
    return {
        "rate": rate,
        "p50": percentile(latencies, 0.5),
        "p90": percentile(latencies, 0.9),
        "late_tail": max(sent - due for _, due, sent, _, _ in quarter),
        "achieved": len(results) / (results[-1][3] - results[0][1]),
    }


def _expected_tops(table3):
    """Top interpretation of each Table 3 query from an in-process
    session over the same warehouse the server builds."""
    from repro import KdapSession
    from repro.datasets import build_aw_online

    schema = build_aw_online(num_facts=inputs.SERVICE_FACTS)
    with KdapSession(schema) as session:
        expected = {}
        for query in table3:
            ranked = session.differentiate(query, limit=1)
            if ranked:
                expected[query] = ranked[0].interpretation.describe()
    return schema, expected


def run(seed: int, trace: bool) -> Outcome:
    """One service_mixed run.  Its phases are sized by request counts
    (see the module constants), not by ``--seconds``."""
    from repro.datasets import AW_ONLINE_QUERIES

    outcome = Outcome("service_mixed")
    table3 = [q.text for q in AW_ONLINE_QUERIES]
    schema, expected = _expected_tops(table3)
    pool = inputs.service_pool(schema, table3)
    stream = inputs.service_stream(schema, table3, seed)
    cold = table3[:COLD_QUERIES]
    dump = os.path.join(ROOT, ".perfbench", "spans-service_mixed.json")
    servers: list[Server] = []
    sent_queries: list[str] = []
    steps, by_step = [], []
    try:
        if trace:
            os.makedirs(os.path.dirname(dump), exist_ok=True)
            servers.append(Server())
            untraced_s = _cold_pass(Client(servers[0].port, Outcome("-"),
                                           expected), cold)
            servers[0].stop()
            servers.append(Server(traced_dump=dump))
        else:
            for _ in range(SETUP_REPEATS):
                if servers:
                    servers[-1].stop()
                servers.append(Server())
        server = servers[-1]
        outcome.metric("setup_s",
                       percentile([s.ready_s for s in servers], 0.5), "s")
        client = Client(server.port, outcome, expected)
        poller = _EventPoller(server) if trace else None
        cold_s = _cold_pass(client, cold)
        sent_queries.extend(pool)
        latencies, queries_per_s = _closed_loop(client, pool)
        for index, (rate, count) in enumerate(RATE_STEPS):
            requests = [next(stream) for _ in range(count)]
            sent_queries.extend(query for _, query in requests)
            by_step.append(_open_loop(client, requests, rate))
            steps.append(_step_summary(by_step[-1], rate))
            if index == 0:
                rss_after_first = server.rss_mb()[0]
        rss_now, rss_peak = server.rss_mb()
        statz = None
        if poller is not None:
            poller.close()
            statz = server.get("/v1/statz")[1]
    finally:
        for each in servers:
            each.stop()

    ref = steps[REFERENCE_STEP]
    sustained = [s for s in steps if s["p90"] <= LATENCY_LIMIT_S
                 and s["late_tail"] <= LATENCY_LIMIT_S]
    for step in steps:
        outcome.note(f"step {step['rate']:g}/s: p50 {step['p50']:.4f} s, "
                     f"p90 {step['p90']:.4f} s, achieved "
                     f"{step['achieved']:.3f}/s, late tail "
                     f"{step['late_tail']:.3f} s")
    outcome.note(f"reference step {ref['rate']:g}/s; latency limit "
                 f"{LATENCY_LIMIT_S:g} s; {CONNECTIONS} connections; "
                 f"{len(latencies['explore'])} closed-loop queries")
    if trace:
        _traced_metrics(outcome, dump, servers[-1].ready_s, untraced_s,
                        cold_s, by_step[REFERENCE_STEP], poller, statz,
                        sent_queries)
        return outcome
    outcome.metric("cold_pass_s", cold_s, "s")
    for op, values in latencies.items():
        outcome.metric(f"{op}_p50_s", percentile(values, 0.5), "s")
        outcome.metric(f"{op}_p90_s", percentile(values, 0.9), "s")
    outcome.metric("queries_per_s", queries_per_s, "1/s")
    outcome.metric("peak_rss_mb", rss_peak, "MB")
    outcome.metric("request_p50_s", ref["p50"], "s")
    outcome.metric("request_p90_s", ref["p90"], "s")
    outcome.metric("sustained_rps",
                   sustained[-1]["achieved"] if sustained else 0.0, "1/s")
    outcome.metric("rss_growth_mb", rss_now - rss_after_first, "MB")
    lateness = [sent - due for results in by_step
                for _, due, sent, _, _ in results]
    outcome.metric("loadgen.lateness_p90_s", percentile(lateness, 0.9), "s")
    return outcome


def _traced_metrics(outcome: Outcome, dump: str, ready_s: float,
                    untraced_s: float, traced_s: float, reference, poller,
                    statz, sent_queries) -> None:
    with open(dump, encoding="utf-8") as handle:
        data = json.load(handle)
    rows = data["spans"]
    totals = sum_counters(data["counters"])
    for name, value in layer_metrics(summarize(rows), totals).items():
        outcome.metric(name, value, unit_of(name))
    warehouse_s = sum(end - start for name, start, end, *_ in rows
                      if name == "setup.warehouse")
    outcome.metric("setup.warehouse_s", warehouse_s, "s")
    outcome.metric("setup.session_s", ready_s - warehouse_s, "s")
    outcome.metric("loadgen.repeat_share", inputs.repeat_share(sent_queries),
                   "ratio")
    outcome.metric("trace.overhead_ratio", traced_s / untraced_s, "ratio")
    waits, server_s, transport = [], [], []
    for _endpoint, _due, sent, done, request_id in reference:
        event = poller.finished.get(request_id)
        if event is None:
            continue
        waits.append(event["queue_wait_ms"] / 1000.0)
        server_s.append(event["elapsed_ms"] / 1000.0)
        transport.append((done - sent) - waits[-1] - server_s[-1])
    outcome.note(f"{len(waits)} of {len(reference)} reference requests "
                 f"joined to server events")
    if waits:
        outcome.metric("service.queue_wait_p50_s", percentile(waits, 0.5),
                       "s")
        outcome.metric("service.queue_wait_p90_s", percentile(waits, 0.9),
                       "s")
        outcome.metric("service.server_p50_s", percentile(server_s, 0.5),
                       "s")
        outcome.metric("service.server_p90_s", percentile(server_s, 0.9),
                       "s")
        outcome.metric("service.transport_p50_s",
                       percentile(transport, 0.5), "s")
    shed = sum(value for name, value in
               (statz or {}).get("service", {}).get("counters", {}).items()
               if "shed" in name)
    outcome.metric("service.shed", max(shed, poller.shed), "count")
    if data["absent"]:
        outcome.note(f"absent boundaries: {', '.join(data['absent'])}")


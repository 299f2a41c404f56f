"""In-process workloads: one closed-loop caller of ``KdapSession``.

aw_paper_queries and scale_facets run one cold pass over their query
set and then warm passes; scale_appends appends a batch of fact rows
before every query of one long-lived session.  Only public entry points
with default settings are used: the warehouse builders,
``KdapSession(schema)``, ``differentiate``/``explore`` and
``Table.load_columns``.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import time

from . import inputs
from .checks import FactOracle, combined_digest, result_digest
from .report import MIN_SAMPLES, Outcome, peak_rss_mb, percentile, unit_of
from .spans import SpanRecorder, counter_delta, counter_totals, \
    layer_metrics, summarize

SETUP_REPEATS = 3
#: a warm phase stops at the first pass boundary after ``seconds`` with
#: enough samples, and in any case after this many times ``seconds``
MAX_STRETCH = 4.0


def _setup(build, outcome: Outcome, each=None):
    """Build warehouse + session SETUP_REPEATS times and keep the last.
    ``each(schema, session, last)`` runs after every timed set-up."""
    from repro import KdapSession

    warehouse_s, session_s, total_s = [], [], []
    for repeat in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        schema = build()
        built = time.perf_counter()
        session = KdapSession(schema)
        ready = time.perf_counter()
        warehouse_s.append(built - started)
        session_s.append(ready - built)
        total_s.append(ready - started)
        last = repeat == SETUP_REPEATS - 1
        if each is not None:
            each(schema, session, last)
        if not last:
            session.close()
            schema = session = None
    outcome.metric("setup_s", percentile(total_s, 0.5), "s")
    return (schema, session, percentile(warehouse_s, 0.5),
            percentile(session_s, 0.5))


class _Loop:
    """Runs keyword queries and keeps latencies, digests and failures."""

    def __init__(self, session, outcome: Outcome, preview: bool = False,
                 oracle: FactOracle | None = None, before=None):
        self.session = session
        self.outcome = outcome
        self.preview = preview
        self.oracle = oracle
        self.before = before  # called with each query before it runs
        self.request = None  # the query in flight, for span request ids
        self.history: list[str] = []  # every query of the run
        self.reset()

    def reset(self) -> None:
        self.differentiate_s: list[float] = []
        self.explore_s: list[float] = []
        self.queries: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(self.differentiate_s) + sum(self.explore_s)

    def run(self, query: str, expect: str | None = None) -> str | None:
        """One keyword query: a differentiate and an explore operation.
        Returns the result digest, or None when an operation failed;
        ``expect`` is the digest the result must reproduce."""
        if self.before is not None:
            self.before(query)
        self.request = f"q{len(self.history)}:{query}"
        self.queries.append(query)
        self.history.append(query)
        op = self.outcome.op
        try:
            started = time.perf_counter()
            ranked = self.session.differentiate(
                query, limit=10, preview_sizes=self.preview)
            ranked_at = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - a raise is a failed op
            op(False, query, f"differentiate raised {exc!r}")
            return None
        if not ranked:
            op(False, query, "no interpretation")
            return None
        try:
            result = self.session.explore(ranked[0])
            done = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - a raise is a failed op
            op(False, query, f"explore raised {exc!r}")
            return None
        self.differentiate_s.append(ranked_at - started)
        self.explore_s.append(done - ranked_at)
        previewed = not self.preview \
            or ranked[0].subspace_size == len(result.subspace)
        ok = op(previewed, query, "preview size != explored subspace size")
        problem = self.oracle.check(ranked[0], result) \
            if self.oracle is not None else None
        digest = result_digest(ranked, result)
        if problem is None and expect is not None and digest != expect:
            problem = "result differs from the cold pass"
        ok = op(problem is None, query, f"explore: {problem}") and ok
        return digest if ok else None


def _passes(queries, rng):
    """Endless passes over ``queries``, each in a fresh seeded order."""
    while True:
        yield inputs.shuffled(queries, rng)


def _done(loop: _Loop, started: float, seconds: float) -> bool:
    """A warm phase ends once ``seconds`` have passed with MIN_SAMPLES
    explores, and in any case after MAX_STRETCH times ``seconds``."""
    elapsed = time.perf_counter() - started
    return (elapsed >= seconds and len(loop.explore_s) >= MIN_SAMPLES) \
        or elapsed >= MAX_STRETCH * seconds


def _pass(loop: _Loop, order, cold: dict | None) -> None:
    """One pass; the first result of each query fills ``cold``, later
    ones must reproduce it."""
    for query in order:
        expect = cold.get(query) if cold is not None else None
        digest = loop.run(query, expect)
        if cold is not None and expect is None and digest is not None:
            cold[query] = digest


def _latency_metrics(outcome: Outcome, loop: _Loop) -> None:
    if len(loop.explore_s) < MIN_SAMPLES:
        outcome.note(f"only {len(loop.explore_s)} explore samples "
                     f"(< {MIN_SAMPLES}): p90 has < 10 beyond it")
    outcome.metric("differentiate_p50_s",
                   percentile(loop.differentiate_s, 0.5), "s")
    outcome.metric("differentiate_p90_s",
                   percentile(loop.differentiate_s, 0.9), "s")
    outcome.metric("explore_p50_s", percentile(loop.explore_s, 0.5), "s")
    outcome.metric("explore_p90_s", percentile(loop.explore_s, 0.9), "s")
    outcome.metric("queries_per_s", len(loop.explore_s) / loop.busy_s,
                   "1/s")


def _traced(loop: _Loop, outcome: Outcome, engine, passes, cold,
            warehouse_s: float, session_s: float) -> None:
    """Traced run: the cold pass traced, two warm passes untraced, then
    the second of them again traced.  Per-layer metrics cover the two
    traced passes; the overhead compares the last two passes."""
    recorder = SpanRecorder(request_id=lambda: loop.request)

    def traced_pass(order, delta):
        before = counter_totals(engine)
        recorder.install()
        try:
            _pass(loop, order, cold)
        finally:
            recorder.uninstall()
        return counter_delta(counter_totals(engine), before, delta)

    delta = traced_pass(next(passes), None)
    _pass(loop, next(passes), cold)  # settles views admitted after misses
    warm = next(passes)
    loop.reset()
    _pass(loop, warm, cold)
    untraced_s = loop.busy_s
    loop.reset()
    delta = traced_pass(warm, delta)
    rows = recorder.dump(_span_path(outcome.workload))
    for name, value in layer_metrics(summarize(rows), delta).items():
        outcome.metric(name, value, unit_of(name))
    outcome.metric("setup.warehouse_s", warehouse_s, "s")
    outcome.metric("setup.session_s", session_s, "s")
    outcome.metric("loadgen.repeat_share",
                   inputs.repeat_share(loop.history), "ratio")
    outcome.metric("trace.overhead_ratio", loop.busy_s / untraced_s,
                   "ratio")
    if recorder.absent:
        outcome.note(f"absent boundaries: {', '.join(recorder.absent)}")


def _span_path(workload: str) -> str:
    os.makedirs(".perfbench", exist_ok=True)
    return os.path.join(".perfbench", f"spans-{workload}.json")


def run_fixed_set(workload: str, seed: int, seconds: float,
                  trace: bool) -> Outcome:
    """aw_paper_queries or scale_facets.  Every set-up is followed by a
    cold pass in the same order; ``cold_pass_s`` is their median, and
    each cold pass must reproduce the first one's results."""
    from repro.datasets import AW_ONLINE_QUERIES, build_aw_online, \
        build_scale

    outcome = Outcome(workload)
    if workload == "aw_paper_queries":
        def build():
            return build_aw_online(num_facts=inputs.AW_FACTS)
    else:
        def build():
            return build_scale(num_facts=inputs.SCALE_FACTS)
    rng = random.Random(f"{workload}-order-{seed}")
    inputs_of: dict = {}  # made from the first warehouse built
    cold: dict[str, str] = {}
    cold_s: list[float] = []

    def cold_pass(schema, session, last) -> None:
        if not inputs_of:
            oracle = (FactOracle(schema) if workload == "scale_facets"
                      else None)
            queries = ([q.text for q in AW_ONLINE_QUERIES] if oracle is None
                       else inputs.scale_queries(schema, oracle))
            passes = _passes(queries, rng)
            inputs_of.update(oracle=oracle, queries=queries, passes=passes,
                             order=next(passes))
        if trace and last:
            return  # the traced run traces this one
        loop = _Loop(session, outcome, oracle=inputs_of["oracle"])
        _pass(loop, inputs_of["order"], cold)
        cold_s.append(loop.busy_s)

    schema, session, warehouse_s, session_s = _setup(build, outcome,
                                                     cold_pass)
    loop = _Loop(session, outcome, oracle=inputs_of["oracle"])
    passes = inputs_of["passes"]
    outcome.note(f"{len(inputs_of['queries'])} queries; "
                 f"{schema.num_fact_rows} fact rows")
    if trace:
        _traced(loop, outcome, session.engine,
                itertools.chain([inputs_of["order"]], passes), cold,
                warehouse_s, session_s)
    else:
        outcome.metric("cold_pass_s", percentile(cold_s, 0.5), "s")
        loop.oracle = None  # warm results are checked against cold digests
        started = time.perf_counter()
        while not _done(loop, started, seconds):
            _pass(loop, next(passes), cold)
        outcome.note(f"{len(loop.explore_s)} warm explores")
        _latency_metrics(outcome, loop)
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.note("output digest "
                 + combined_digest(cold[q] for q in sorted(cold)))
    session.close()
    return outcome


def run_appends(seed: int, seconds: float, trace: bool) -> Outcome:
    """scale_appends: an append batch before every query."""
    from repro.datasets import build_scale

    outcome = Outcome("scale_appends")
    schema, session, warehouse_s, session_s = _setup(
        lambda: build_scale(num_facts=inputs.SCALE_FACTS), outcome)
    oracle = FactOracle(schema)
    queries = inputs.scale_queries(schema, oracle)
    fact = schema.database.table(schema.fact_table)
    batches = inputs.append_batches(schema, seed)
    append_s: list[float] = []

    def append(query: str) -> None:
        batch = next(batches)
        try:
            started = time.perf_counter()
            fact.load_columns(batch)
            append_s.append(time.perf_counter() - started)
        except Exception as exc:  # noqa: BLE001 - a raise is a failed op
            outcome.op(False, query, f"append raised {exc!r}")
            return
        outcome.op()
        oracle.extend(batch)

    loop = _Loop(session, outcome, preview=True, oracle=oracle,
                 before=append)
    passes = _passes(queries, random.Random(f"scale_appends-order-{seed}"))
    first: dict[str, str] = {}
    if trace:
        _traced(loop, outcome, session.engine, passes, None, warehouse_s,
                session_s)
    else:
        for query in next(passes):
            first[query] = loop.run(query) or "-"
        outcome.metric("cold_pass_s", loop.busy_s, "s")
        loop.reset()
        started = time.perf_counter()
        for query in itertools.chain.from_iterable(passes):
            loop.run(query)
            if _done(loop, started, seconds):
                break
        _latency_metrics(outcome, loop)
        outcome.metric("append_p50_s", percentile(append_s, 0.5), "s")
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
        outcome.note("output digest (first pass) "
                     + combined_digest(first[q] for q in sorted(first)))
    outcome.note(f"{len(queries)} queries; {schema.num_fact_rows} fact "
                 f"rows at end ({inputs.APPEND_ROWS} appended per query)")
    session.close()
    return outcome

"""Out-of-program tracing: wrappers around public layer boundaries.

The benchmark times each layer without touching ``src/``: it replaces a
boundary function (or method) with a wrapper wherever callers look it up
— on its class, or in every loaded ``repro`` module that imported the
function by name.  Each call records one span ``[layer, start, end,
parent, request id, count]`` in memory; spans are written out only when
the run ends.  A boundary that a later commit removed is reported as
absent and its metrics read 0; the run does not fail.

Self time is a span's duration minus the part of its interval covered by
its child spans, so a layer's figure excludes the layers it calls.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import sys
import time

#: (layer, module, qualified name, count) — ``count`` maps the call's
#: arguments to a work count recorded on the span (None: no count).
BOUNDARIES = (
    ("session.differentiate", "repro.core.session",
     "KdapSession.differentiate", None),
    ("session.explore", "repro.core.session", "KdapSession.explore", None),
    ("textindex.search", "repro.textindex.index",
     "AttributeTextIndex.search", None),
    ("core.interpret", "repro.core.interpret", "interpret_query", None),
    ("core.rank", "repro.core.interpret", "rank_interpretations",
     lambda args, kwargs: len(args[0])),
    ("core.facets", "repro.core.facets", "build_facets", None),
    ("core.attribute_ranking", "repro.core.attribute_ranking",
     "rank_groupby_attributes", None),
    ("core.numerical_series", "repro.core.attribute_ranking",
     "numerical_series", None),
    ("core.bucketing", "repro.core.bucketing", "bucket_series", None),
    ("core.instance_ranking", "repro.core.instance_ranking",
     "rank_instances_batch", None),
    ("core.annealing", "repro.core.annealing", "anneal_splits", None),
    ("core.annealing", "repro.core.annealing", "merge_series", None),
    ("plan.evaluate", "repro.plan.engine", "QueryEngine.evaluate", None),
    ("plan.aggregate", "repro.plan.engine",
     "QueryEngine.subspace_aggregate", None),
    ("plan.aggregate", "repro.plan.engine",
     "QueryEngine.subspace_partition_aggregates", None),
    ("plan.aggregate", "repro.plan.engine",
     "QueryEngine.multi_partition_aggregates", None),
    ("plan.aggregate", "repro.plan.engine",
     "QueryEngine.pivot_aggregates", None),
    ("plan.semijoin", "repro.plan.engine", "QueryEngine.semijoin_rows",
     None),
    ("materialize.answer", "repro.warehouse.materialize",
     "MaterializationTier.answer", None),
    ("setup.warehouse", "repro.datasets.adventureworks", "build_aw_online",
     None),
    ("setup.warehouse", "repro.datasets.scale", "build_scale", None),
)

#: Modules imported before patching, so that every module which binds a
#: boundary function by name already holds the original to be replaced.
PRELOAD = ("repro.cli", "repro.service", "repro.core", "repro.datasets",
           "repro.plan.engine", "repro.warehouse.materialize")

_NAME, _START, _END, _PARENT, _REQUEST, _COUNT = range(6)


class SpanRecorder:
    """Installs the boundary wrappers and keeps every span in memory."""

    def __init__(self, request_id=None):
        # ``request_id`` is a zero-argument callable naming the request
        # the current call belongs to (None when there is none)
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._request_id = request_id or (lambda: None)
        self._current = contextvars.ContextVar("perfbench_span",
                                               default=None)
        self._patches: list[tuple[object, str, object, object]] = []
        self._resolved = False

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _resolve(self) -> None:
        for name in PRELOAD:
            try:
                importlib.import_module(name)
            except ImportError:
                pass
        seen: dict[int, object] = {}
        for layer, module_name, qualname, count in BOUNDARIES:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            wrapper = seen.get(id(original))
            if wrapper is None:
                wrapper = seen[id(original)] = self._wrap(layer, original,
                                                          count)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, wrapper))
                continue
            # a function: patch it wherever a repro module bound it
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") \
                        and getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original, wrapper))
        self._resolved = True

    def install(self) -> None:
        if not self._resolved:
            self._resolve()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, layer: str, fn, count):
        current = self._current
        spans = self.spans
        request_id = self._request_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.get()
            if parent is not None and parent[_NAME] == layer:
                # re-entry into the same layer is part of the outer span
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, parent, request_id(),
                    count(args, kwargs) if count is not None else 0]
            token = current.set(span)
            span[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                current.reset(token)
                spans.append(span)

        return wrapper

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def rows(self) -> list[list]:
        """Spans as ``[layer, start, end, parent index, request, count]``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [[s[_NAME], s[_START], s[_END],
                 index[id(s[_PARENT])] if s[_PARENT] is not None else None,
                 s[_REQUEST], s[_COUNT]]
                for s in self.spans]

    def dump(self, path: str, extra: dict | None = None) -> list[list]:
        """Write every span plus ``extra``; returns the span rows."""
        rows = self.rows()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"absent": self.absent, "spans": rows,
                       **(extra or {})}, handle)
        return rows


def _covered(intervals: list[tuple[float, float]], low: float,
             high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(rows: list[list]) -> dict:
    """Per-layer self time, call counts and work counts from span rows
    (the :meth:`SpanRecorder.dump` form: parent is an index or None)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _request, _count in rows:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    evaluate: dict[str, list] = {}
    explore_wall = explore_self = 0.0
    for i, (name, start, end, parent, _request, count) in enumerate(rows):
        own = (end - start) - _covered(children.get(i, []), start, end)
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + count
        if name == "session.explore":
            explore_wall += end - start
            explore_self += own
        elif name == "plan.evaluate":
            caller = rows[parent][0] if parent is not None else None
            kind = {"session.explore": "subspace",
                    "core.facets": "rollup"}.get(caller, "other")
            slot = evaluate.setdefault(kind, [0.0, 0])
            slot[0] += own
            slot[1] += 1
    return {"self_s": self_s, "calls": calls, "counts": counts,
            "evaluate": evaluate, "explore_wall_s": explore_wall,
            "explore_unattributed_s": explore_self}


def counter_totals(engine) -> dict:
    """Plan/relational/materialize counters of one engine, read through
    its public accessors (plan cache stats, operator counters, tier)."""
    ops = engine.counters.as_dict()
    cache = engine.cache_stats
    tier = getattr(engine, "tier", None)
    return {
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "rows": sum(op["rows"] for op in ops.values()),
        "batches": sum(op["batches"] for op in ops.values()),
        "chunks_scanned": sum(op["chunks_scanned"] for op in ops.values()),
        "chunks_skipped": sum(op["chunks_skipped"] for op in ops.values()),
        "tier": tier.snapshot() if tier is not None else {},
        "tier_id": id(tier) if tier is not None else None,
    }


def counter_delta(after: dict, before: dict,
                  base: dict | None = None) -> dict:
    """``base + (after - before)`` for the additive counters; the tier's
    view count is a level, taken from ``after``."""
    base = base or {"tier": {}}
    out = {key: base.get(key, 0) + after[key] - before[key]
           for key in after if key not in ("tier", "tier_id")}
    out["tier"] = {
        key: value if key == "views" else
        base["tier"].get(key, 0) + value - before["tier"].get(key, 0)
        for key, value in after["tier"].items() if isinstance(value, int)}
    return out


def sum_counters(snapshots) -> dict:
    """Totals over several engines' :func:`counter_totals`; a tier that
    several engines share is counted once."""
    out: dict = {"tier": {}}
    tiers: set = set()
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if key not in ("tier", "tier_id"):
                out[key] = out.get(key, 0) + value
        if snapshot["tier_id"] not in tiers:
            tiers.add(snapshot["tier_id"])
            for key, value in snapshot["tier"].items():
                if isinstance(value, int):
                    out["tier"][key] = out["tier"].get(key, 0) + value
    return out


def layer_metrics(summary: dict, counters: dict) -> dict:
    """The per-layer metric set from a span summary and counter deltas."""
    self_s, calls, counts = (summary["self_s"], summary["calls"],
                             summary["counts"])
    evaluate = summary["evaluate"]
    tier = counters.get("tier", {})
    lookups = counters["cache_hits"] + counters["cache_misses"]
    chunks = counters["chunks_scanned"] + counters["chunks_skipped"]
    answered = tier.get("hits", 0)  # exact hits and roll-ups alike
    answer_base = answered + tier.get("misses", 0)
    explore_wall = summary["explore_wall_s"]
    return {
        "textindex.search_s": self_s.get("textindex.search", 0.0),
        "textindex.searches": calls.get("textindex.search", 0),
        "core.interpret_s": self_s.get("core.interpret", 0.0),
        "core.rank_s": self_s.get("core.rank", 0.0),
        "core.interpretations": counts.get("core.rank", 0),
        "core.facets_s": self_s.get("core.facets", 0.0),
        "core.attribute_ranking_s": self_s.get("core.attribute_ranking",
                                               0.0),
        "core.numerical_series_s": self_s.get("core.numerical_series",
                                              0.0),
        "core.bucketing_s": self_s.get("core.bucketing", 0.0),
        "core.instance_ranking_s": self_s.get("core.instance_ranking", 0.0),
        "core.annealing_s": self_s.get("core.annealing", 0.0),
        "plan.evaluate_s": self_s.get("plan.evaluate", 0.0),
        "plan.evaluations": calls.get("plan.evaluate", 0),
        "plan.evaluate_subspace_s": evaluate.get("subspace", [0.0, 0])[0],
        "plan.evaluations_subspace": evaluate.get("subspace", [0.0, 0])[1],
        "plan.evaluate_rollup_s": evaluate.get("rollup", [0.0, 0])[0],
        "plan.evaluations_rollup": evaluate.get("rollup", [0.0, 0])[1],
        "plan.aggregate_s": self_s.get("plan.aggregate", 0.0),
        "plan.aggregates": calls.get("plan.aggregate", 0),
        "plan.semijoin_s": self_s.get("plan.semijoin", 0.0),
        "plan.semijoins": calls.get("plan.semijoin", 0),
        "plan.cache_hit_ratio": (counters["cache_hits"] / lookups
                                 if lookups else 0.0),
        "plan.cache_lookups": lookups,
        "plan.cache_evictions": counters["cache_evictions"],
        "plan.rows_scanned": counters["rows"],
        "relational.chunks_scanned": counters["chunks_scanned"],
        "relational.chunk_skip_ratio": (counters["chunks_skipped"] / chunks
                                        if chunks else 0.0),
        "relational.rows_per_batch": (counters["rows"] / counters["batches"]
                                      if counters["batches"] else 0.0),
        "materialize.answer_s": self_s.get("materialize.answer", 0.0),
        "materialize.answer_ratio": (answered / answer_base
                                     if answer_base else 0.0),
        "materialize.answer_lookups": answer_base,
        "materialize.refreshed_rows": tier.get("refreshed_rows", 0),
        "materialize.rebuilds": tier.get("rebuilds", 0),
        "materialize.views": tier.get("views", 0),
        "trace.unattributed_share": (summary["explore_unattributed_s"]
                                     / explore_wall if explore_wall
                                     else 0.0),
    }

"""Shared result bookkeeping: percentiles, failures, memory, output."""

from __future__ import annotations

import json
import resource

#: p90 is reported only from runs holding at least this many samples,
#: so that ten or more samples lie beyond it.
MIN_SAMPLES = 100


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_rss_mb(pid: int) -> tuple[float, float]:
    """``(current, peak)`` RSS of another process, from /proc."""
    fields = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(rest.split()[0]) / 1024.0
    return fields["VmRSS"], fields["VmHWM"]


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


class Outcome:
    """Operations attempted/failed, failure reasons, report lines."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list[str]] = {}
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []

    def op(self, ok: bool = True, what: str = "", why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.setdefault(why, []).append(what)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def note(self, line: str) -> None:
        self.notes.append(line)

    def emit(self, names) -> None:
        """Print the human report, then the one-line JSON result holding
        exactly the metrics in ``names``."""
        print(f"== {self.workload}")
        for line in self.notes:
            print(f"   {line}")
        for name, (value, unit) in self.metrics.items():
            print(f"   {name:34s} {value:>16.6f} {unit}")
        error_rate = self.failed / self.attempted if self.attempted else 0.0
        print(f"   {'error_rate':34s} {error_rate:>16.6f} ratio "
              f"({self.failed} of {self.attempted} operations)")
        for why, items in sorted(self.failures.items()):
            counts: dict[str, int] = {}
            for item in items:
                counts[item] = counts.get(item, 0) + 1
            listed = ", ".join(f"{q!r} x{n}" for q, n in
                               sorted(counts.items()))
            print(f"   FAILED {len(items)}: {why}: {listed}")
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        print(json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name][0],
                               "unit": self.metrics[name][1]}
                        for name in names},
        }))

"""Run ``repro serve`` with the benchmark's boundary wrappers installed.

Usage: ``python perfbench/serve_traced.py DUMP.json <repro CLI args>``.
The spans (tagged with the service's ambient request id) and the plan,
relational and materialize counters of every worker session stay in
memory until the server has drained after SIGTERM; then they are written
to ``DUMP.json`` for the benchmark to read.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    dump, args = argv[0], argv[1:]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.spans import SpanRecorder, counter_totals
    from repro.cli import main as repro_main
    from repro.core.session import KdapSession

    try:
        from repro.obs.tracer import current_request_id
    except ImportError:
        current_request_id = None
    recorder = SpanRecorder(request_id=current_request_id)
    sessions: list = []
    construct = KdapSession.__init__

    def init(self, *a, **kw):
        construct(self, *a, **kw)
        sessions.append(self)

    KdapSession.__init__ = init
    recorder.install()
    code = repro_main(args)
    recorder.uninstall()
    recorder.dump(dump, {"counters": [counter_totals(s.engine)
                                      for s in sessions]})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

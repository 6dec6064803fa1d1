"""Checks of the span recorder in ``tracer.py``.

    python3 benchmarks/selfcheck.py

Exits 0 when every check passes.  ``run.py --trace 1`` runs the same
checks and counts a failure as a failed operation.

- Self-time arithmetic on a synthetic nested call, timed by a fake clock
  so that every expected duration is exact: a span's self time is its
  duration minus that of its direct children only, spans record their
  parent, and an exception closes its span.
- Instrumenting the real package reports a missing name as absent, routes
  calls through the recorder, and puts every original attribute back
  even when the traced code raises.
"""

from __future__ import annotations

import sys

import workloads
from tracer import CHAIN_SPAN, FUNCTIONS, SpanRecorder, bindings, instrumented, rebound


class _Probe(Exception):
    pass


def _synthetic() -> list[str]:
    now = [0.0]

    def tick(seconds: float):
        now[0] += seconds

    rec = SpanRecorder(clock=lambda: now[0])

    def leaf():
        tick(2.0)

    def mid():
        tick(1.0)
        leaf_w()
        tick(3.0)
        leaf_w()
        tick(4.0)

    def outer():
        tick(0.5)
        mid_w()
        tick(0.25)

    def raiser():
        tick(1.0)
        raise _Probe

    leaf_w = rec.wrap("leaf", leaf)
    mid_w = rec.wrap("mid", mid)
    outer_w = rec.wrap("outer", outer)
    chain_w = rec.wrap(CHAIN_SPAN, outer, label=lambda args, kwargs: "spgd/bonnet_price")
    raiser_w = rec.wrap("raiser", raiser)

    outer_w()
    leaf_w()
    try:
        raiser_w()
    except _Probe:
        pass
    chain_w()

    problems = []
    expected = {
        # name: (calls, total, self)
        "outer": (1, 12.75, 0.75),
        "mid": (2, 24.0, 16.0),
        "leaf": (5, 10.0, 10.0),
        "raiser": (1, 1.0, 1.0),
        CHAIN_SPAN: (1, 12.75, 0.75),
    }
    table = rec.table()
    for name, (calls, total, own) in expected.items():
        got = table.get(name)
        if got is None or (got.calls, got.total_s, got.self_s) != (calls, total, own):
            problems.append(f"{name}: expected calls/total/self {calls}/{total}/{own}, got {got}")
    parents = [rec.names[p] if p >= 0 else None for p in rec.parents]
    if parents != [None, "outer", "mid", "mid", None, None, None, CHAIN_SPAN, "mid", "mid"]:
        problems.append(f"parents recorded as {parents}")
    by_parent = rec.self_by_parent("leaf")
    if by_parent != {"mid": 8.0, "<root>": 2.0}:
        problems.append(f"leaf self time by parent {by_parent}")
    chains = rec.chains()
    if chains != [-1, -1, -1, -1, -1, -1, 6, 6, 6, 6]:
        problems.append(f"enclosing chain spans {chains}")
    if rec.labels[6] != "spgd/bonnet_price":
        problems.append(f"chain label {rec.labels[6]!r}")
    if rec._open:
        problems.append(f"spans left open: {rec._open}")
    return problems


def _restoration() -> list[str]:
    problems = []
    optimizers = workloads.optimizers
    before = bindings()
    rec = SpanRecorder()
    missing = ("geometry", "no_such_function")
    try:
        with instrumented(rec, functions=FUNCTIONS + (missing,)) as absent:
            if "geometry.no_such_function" not in absent:
                problems.append(f"missing name not reported absent: {absent}")
            if optimizers.run is before[("bwvi.optimizers", "run")]:
                problems.append("optimizers.run was not wrapped")
            optimizers.entropy(workloads.bwvi.GaussianVariational.isotropic(2))
            raise _Probe
    except _Probe:
        pass
    changed = rebound(before, bindings())
    if changed:
        problems.append("not restored: " + ", ".join(changed))
    if rec.names != ["geometry.GaussianVariational", "geometry.entropy"]:
        problems.append(f"spans recorded while instrumented: {rec.names}")
    return problems


def check_recorder() -> list[str]:
    """Every problem found; empty when the recorder is sound."""
    return _synthetic() + _restoration()


if __name__ == "__main__":
    found = check_recorder()
    for problem in found:
        print(problem)
    print("span recorder self-check " + ("failed" if found else "passed"))
    sys.exit(1 if found else 0)

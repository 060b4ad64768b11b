#!/usr/bin/env python3
"""One-shot ladder report: the fixed verify_gorenstein_ann rungs of the
ROADMAP north star, each timed once untraced and once traced, with the
per-layer split from the benchmark's tracer.  Not a gated workload.

    python3 perfbench/ladder.py > ladder.json

Rungs: the d=2, k=10 worked example and the d=3 fixed p at k=5..8.
``wall_s`` is the untraced wall clock; ``scaled_s`` is the same time at the
reference host speed used by run.py.  ``traced_s`` and the per-layer
seconds are scaled the same way, with calibration loops around the traced
call.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import apolar  # noqa: E402
import tracer  # noqa: E402
from run import calibration_loop, host_scale  # noqa: E402

D2_P = "y^6 + x^3*y^3 + x^5*y"
D3_P = "x1^3*x2^2*x3 + x1*x2^4*x3 + x1^2*x2*x3^3 + x2^3*x3^3"


RUNGS = [("d2-k10", apolar.Context(("x", "y")), D2_P, 10)] + [
    (f"d3-k{k}", apolar.Context.of_dim(3), D3_P, k) for k in range(5, 9)
]


def measure(ctx, text: str, k: int) -> dict:
    def spec():
        return apolar.GorensteinSpec(k, apolar.parse_polynomial(text, ctx))

    def calibration():
        return statistics.median(calibration_loop() for _ in range(5))

    fresh = spec()
    before = calibration()
    t = time.perf_counter()
    ok = apolar.verify_gorenstein_ann(fresh)
    wall_s = time.perf_counter() - t
    scaled_s = wall_s * host_scale(before, calibration())

    traced = spec()
    tr = tracer.Tracer()
    before = calibration()
    tr.install()
    tr.op = 0
    try:
        t = time.perf_counter()
        traced_ok = apolar.verify_gorenstein_ann(traced)
        traced_s = time.perf_counter() - t
    finally:
        tr.op = None
        tr.uninstall()
    scale = host_scale(before, calibration())
    tr.close_op(scale)
    layers = {
        name: {"calls": st.calls, "self_s": st.self_s, "busy_s": st.busy_s, **st.counts}
        for name, st in sorted(tr.stats.items())
    }
    return {
        "verified": ok and traced_ok,
        "dim": fresh.colon_ideal().dimension(),
        "wall_s": wall_s,
        "scaled_s": scaled_s,
        "traced_s": traced_s * scale,
        "layers": layers,
    }


def main() -> int:
    report = {}
    for name, ctx, text, k in RUNGS:
        report[name] = measure(ctx, text, k)
        print(f"{name}: {report[name]['wall_s']:.3f} s", file=sys.stderr)
    print(json.dumps(report, indent=1))
    return 0 if all(r["verified"] for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark for apolar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0 (end to end, no wrappers installed): set-up, then a closed loop,
one op at a time in this process, until S seconds have passed and at least
MIN_OPS ops ran.  Reports ops_per_s, op_p50_ms, op_p90_ms, setup_s and
peak_rss_mb.  Times are wall clock scaled to a reference host speed with a
calibration loop timed between ops (see calibration_loop); the unscaled
figures go to standard error.

--trace 1 (per layer): set-up, then each of the first TRACE_OPS inputs of
the seed twice, untraced and with the tracer's wrappers installed; reports
the per-layer metrics listed in BENCHMARK.json, summed over the traced ops
and host-scaled like the end-to-end times, the exponents cache counts of
set-up, and trace.overhead_ratio.  Spans are written to perfbench/out/.

Set-up is importing apolar, generating the warm-up inputs and running the
REFERENCE_OPS warm-up ops, which fill the lru_caches in apolar.exponents.
The warm-up outputs are checked against a recorded digest on every run.
See perfbench/README.md for the workloads and the noise controls.
"""

from __future__ import annotations

import argparse
import gc
from collections import Counter
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_OPS = 100  # keeps at least ten samples beyond the 90th percentile
TAIL = 0.90
TRACE_OPS = 30
SETUP_SAMPLES = 7  # this process plus SETUP_SAMPLES - 1 fresh interpreters
CHILD_TIMEOUT_S = 60
# Host-speed reference: end-to-end times are reported as they would read on
# a host where calibration_loop() takes this long.
CALIBRATION_REF_S = 0.004
# lru_caches in apolar.exponents, read through cache_info() rather than
# wrapped.
CACHES = ("monomials_of_degree", "box_monomials_of_degree")


_CALIBRATION_MATRIX = [
    [Fraction((7 * r + 3 * c) % 13 - 6, 1 + (r * c) % 4) for c in range(12)]
    for r in range(10)
]


def calibration_loop() -> float:
    """Seconds taken by a fixed Gauss-Jordan elimination over small
    rationals, written here and independent of apolar.

    The host this runs on slows every process by up to 2x for seconds to
    minutes at a time (other tenants); an op and a calibration loop timed
    next to it slow together, so their ratio stays within a few per cent.
    """
    t = time.perf_counter()
    rows = [list(row) for row in _CALIBRATION_MATRIX]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return time.perf_counter() - t


def host_scale(before: float, after: float) -> float:
    """Factor taking a wall time measured between two calibration loops to
    the reference host speed."""
    return 2 * CALIBRATION_REF_S / (before + after)


def cache_counts() -> Counter:
    """Hits and misses of the exponents caches so far in this interpreter;
    none before apolar is imported."""
    out = Counter()
    exponents = sys.modules.get("apolar.exponents")
    if exponents is not None:
        for cache in CACHES:
            info = getattr(exponents, cache).cache_info()
            out[f"exponents.{cache}.hits"] = info.hits
            out[f"exponents.{cache}.misses"] = info.misses
    return out


def setup(workload_name: str):
    """Import, generate the warm-up inputs and run them.

    Returns the host-scaled and the raw elapsed time, the workload, the
    warm-up (input, output) pairs and the exponents cache counts set-up
    added.  A calibration loop brackets the import and each warm-up op,
    since the host's speed changes within a set-up.  In a fresh interpreter
    the set-up pays every cache miss of the run: the timed ops stay in its
    size class.
    """
    caches = cache_counts()
    raw = scaled = 0.0

    def lap():
        nonlocal raw, scaled, start, before
        elapsed = time.perf_counter() - start
        after = calibration_loop()
        raw += elapsed
        scaled += elapsed * host_scale(before, after)
        before = after
        start = time.perf_counter()

    before = calibration_loop()
    start = time.perf_counter()
    import workloads  # imports apolar

    lap()
    wl = workloads.WORKLOADS[workload_name]
    warm = []
    for i in range(workloads.REFERENCE_OPS):
        x = workloads.input_for(wl, workloads.REFERENCE_SEED, i)
        warm.append((x, wl.op(x)))
        lap()
    caches = cache_counts() - caches
    return scaled, raw, wl, warm, caches


def check_reference(wl, warm) -> int:
    """Failures among the warm-up ops: each op's own check, then the digest
    of their canonical outputs, which a single changed byte fails."""
    import workloads

    failed = sum(not wl.check(x, out) for x, out in warm)
    got = workloads.digest([wl.canonical(x, out) for x, out in warm])
    want = workloads.REFERENCE_DIGESTS[wl.name]
    if got != want:
        print(f"reference digest mismatch for {wl.name}: got {got}, want {want}",
              file=sys.stderr)
        failed = len(warm)
    return failed


def run_op(wl, x):
    """Time one op; returns (seconds, passed).  The check runs after the
    clock stops."""
    gc.collect()
    t = time.perf_counter()
    try:
        out = wl.op(x)
    except Exception:
        elapsed = time.perf_counter() - t
        traceback.print_exc()
        return elapsed, False
    elapsed = time.perf_counter() - t
    try:
        return elapsed, bool(wl.check(x, out))
    except Exception:
        traceback.print_exc()
        return elapsed, False


def timed_loop(wl, seed: int, seconds: float):
    """Returns each op's raw and host-scaled time and the passed count; a
    calibration loop runs between consecutive ops."""
    import workloads

    raw, scaled, passed = [], [], 0
    before = calibration_loop()
    begin = time.perf_counter()
    while len(raw) < MIN_OPS or time.perf_counter() - begin < seconds:
        x = workloads.input_for(wl, seed, len(raw))
        elapsed, ok = run_op(wl, x)
        after = calibration_loop()
        raw.append(elapsed)
        scaled.append(elapsed * host_scale(before, after))
        passed += ok
        before = after
    return raw, scaled, passed


def setup_probe_samples(workload: str) -> list[tuple[float, float]]:
    """(scaled, raw) set-up times from fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        scaled, raw = proc.stdout.split()[-2:]
        samples.append((float(scaled), float(raw)))
    return samples


def end_to_end(wl, seed: int, seconds: float, own_setup: tuple[float, float]):
    import tracer

    before = tracer.snapshot()
    raw, scaled, passed = timed_loop(wl, seed, seconds)
    unpatched = tracer.unchanged_since(before)
    setups = [own_setup] + setup_probe_samples(wl.name)
    tail = math.ceil(TAIL * len(raw)) - 1

    def summary(times, setup_times):
        ordered = sorted(times)
        return {
            "ops_per_s": (passed / sum(times), "1/s"),
            "op_p50_ms": (1000 * statistics.median(ordered), "ms"),
            "op_p90_ms": (1000 * ordered[tail], "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
        }

    metrics = summary(scaled, [s for s, _ in setups])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    unscaled = summary(raw, [r for _, r in setups])
    print(
        f"{wl.name}: {len(raw)} ops, {len(raw) - passed} failed, "
        f"{len(raw) - tail - 1} samples beyond p90; unscaled wall clock "
        + ", ".join(f"{k} {v:.4g}" for k, (v, _) in unscaled.items())
        + f"; host speed {sum(scaled) / sum(raw):.3f} of reference",
        file=sys.stderr,
    )
    return len(raw), len(raw) - passed, unpatched, metrics


def per_layer(wl, seed: int, setup_caches: Counter, n_ops: int = TRACE_OPS):
    """Each of the first n_ops inputs runs untraced, then again on fresh
    objects with the wrappers installed; alternating keeps slow drifts of
    the machine out of the overhead ratio.  A calibration loop runs between
    consecutive ops, and every op's times are host-scaled as in
    timed_loop."""
    import tracer
    import workloads

    unpatched = tracer.snapshot()
    tr = tracer.Tracer()
    plain_s = traced_s = 0.0
    passed = 0
    before = calibration_loop()
    for i in range(n_ops):
        elapsed, ok = run_op(wl, workloads.input_for(wl, seed, i))
        after = calibration_loop()
        plain_s += elapsed * host_scale(before, after)
        passed += ok
        before = after
        x = workloads.input_for(wl, seed, i)
        tr.install()
        tr.op = i
        try:
            elapsed, ok = run_op(wl, x)
        finally:
            tr.op = None
            tr.uninstall()
        after = calibration_loop()
        scale = host_scale(before, after)
        tr.close_op(scale)
        traced_s += elapsed * scale
        passed += ok
        before = after
    restored = tracer.unchanged_since(unpatched)

    found = tr.metrics()
    found.update(setup_caches)
    found["trace.overhead_ratio"] = plain_s / traced_s  # traced over untraced ops/s
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: (found.get(m["name"], 0), m["unit"]) for m in spec}
    attempted = 2 * n_ops
    return attempted, attempted - passed, restored, metrics, tr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this interpreter's set-up time and exit")
    args = parser.parse_args(argv)

    setup_s, setup_raw_s, wl, warm, caches = setup(args.workload)
    import apolar

    if Path(apolar.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"apolar was imported from {apolar.__file__}, not from {ROOT / 'src'}")
    if args.setup_only:
        print(setup_s, setup_raw_s)
        return 0
    ref_failed = check_reference(wl, warm)
    gc.collect()
    gc.freeze()

    if args.trace:
        attempted, failed, clean, metrics, tr = per_layer(wl, args.seed, caches)
        tr.write_spans(HERE / "out" / f"spans-{wl.name}-seed{args.seed}.jsonl")
    else:
        attempted, failed, clean, metrics = end_to_end(
            wl, args.seed, args.seconds, (setup_s, setup_raw_s)
        )
    if not clean:
        print("apolar attributes differ from their originals after the run", file=sys.stderr)
    failed += ref_failed
    result = {
        "correct": failed == 0 and clean,
        "attempted": attempted + len(warm),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

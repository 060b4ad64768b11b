"""The benchmark's own test: two traced runs with the same seed give the
same count for every count metric, in interpreters with different hash
seeds, and leave every apolar attribute as they found it.  Each workload
runs in a fresh interpreter, as in the benchmark, so set-up pays the
exponents cache misses.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OPS = 2
SEED = 5

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
_, _, wl, _, caches = run.setup(sys.argv[2])
attempted, failed, restored, metrics, _ = run.per_layer(wl, int(sys.argv[3]), caches, int(sys.argv[4]))
print(json.dumps({"attempted": attempted, "failed": failed, "restored": restored,
                  "metrics": {k: v for k, (v, unit) in metrics.items()}}))
"""


def _traced(hash_seed: str) -> dict:
    out = {}
    for workload in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]:
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(HERE), workload["name"], str(SEED), str(OPS)],
            cwd=HERE.parent, env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=300, check=True,
        )
        out[workload["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_traced_counts_repeat_exactly():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    counts = [m["name"] for m in spec if m["unit"] in ("count", "bit")]
    first, second = _traced("1"), _traced("2")
    assert first.keys() == second.keys()
    for workload, run in first.items():
        again = second[workload]
        assert run["failed"] == again["failed"] == 0
        assert run["restored"] and again["restored"]
        for name in counts:
            assert run["metrics"][name] == again["metrics"][name], (workload, name)
    # A misspelt metric name, or one that cannot move, reads 0 everywhere.
    for m in spec:
        assert any(run["metrics"][m["name"]] for run in first.values()), m["name"]

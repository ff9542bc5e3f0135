"""The benchmark's result line stays a valid result.

``benchmarks/run.py`` ends with ``print(json.dumps(result))``, and that line
must parse as strict JSON: a non-finite metric would be written as a bare
``NaN`` or ``Infinity``.  Each workload runs traced on tiny budgets in a
fresh interpreter, because importing ``run`` pins the BLAS threads through
environment variables before numpy is loaded.  curve-raw's tiny grid is
widened to two points there, so that its traced spans overlap as the
points of a curve run side by side.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tiny_traced_results_are_finite_correct_json():
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(BENCHMARKS)!r})\n"
            "import run\n"
            "run.TINY_GRID = '16:17:1'\n"
            "run._import_cskfde()\n"
            "for name in run.WORKLOADS:\n"
            "    result, _ = run.execute(name, 2, 0, True, tiny=True)\n"
            "    print(json.dumps({'workload': name, **result}))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=600)
    results = [json.loads(line) for line in out.stdout.splitlines()]
    assert {"table-fde", "curve-raw", "dense-4096"} <= \
        {r["workload"] for r in results}
    for result in results:
        name = result.pop("workload")
        json.dumps(result, allow_nan=False)
        bad = [k for k, m in result["metrics"].items()
               if not math.isfinite(m["value"])]
        assert not bad, f"{name}: not finite: {bad}"
        assert result["correct"], f"{name}: {result['failed']} ops failed"
        if name == "curve-raw":  # each entry measured both tiny points
            assert result["metrics"]["harness.points_per_entry"]["value"] == 2

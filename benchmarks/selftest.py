"""Self-test of the benchmark on tiny budgets (about a minute).

Run from the root of a checkout:

    python3 benchmarks/selftest.py

For every workload it checks that
- the untraced and the traced result list exactly the metrics named in
  BENCHMARK.json, each with its unit, and every operation passed;
- harness.points_per_entry and harness.bits_per_entry repeat exactly
  across two traced runs;
- switching tracing on leaves every output byte unchanged.
Exits 1 and lists the problems if any check fails.
"""

import json
import math
import sys

import run

SEED = 2
COUNTS = ("harness.points_per_entry", "harness.bits_per_entry")


def _units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


def check_workload(name, spec) -> list:
    problems = []
    plain, plain_out = run.execute(name, SEED, 0, False, tiny=True)
    traced = [run.execute(name, SEED, 0, True, tiny=True) for _ in range(2)]
    for label, result, wanted in (("untraced", plain, spec["end_to_end"]),
                                  ("traced", traced[0][0], spec["per_layer"])):
        if _units(result) != {m["name"]: m["unit"] for m in wanted}:
            problems.append(f"{label} metrics or units differ from "
                            "BENCHMARK.json")
        if not result["correct"]:
            problems.append(f"{label}: {result['failed']} operations failed")
        bad = [k for k, m in result["metrics"].items()
               if not math.isfinite(m["value"])]
        if bad:
            problems.append(f"{label}: not finite: {bad}")
    for key in COUNTS:
        values = [r["metrics"][key]["value"] for r, _ in traced]
        if values[0] != values[1]:
            problems.append(f"{key} differs between traced runs: {values}")
    for op, text in plain_out.items():
        if traced[0][1][op] != text:
            problems.append(f"{op}: output changes with tracing on")
    return [f"{name}: {p}" for p in problems]


def main() -> int:
    run._import_cskfde()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in run.WORKLOADS:
        problems += check_workload(name, spec)
    for p in problems:
        print(p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Write reference.json: every workload's outputs at the reference seed.

Run from the root of a checkout:

    python3 benchmarks/make_reference.py

The benchmark compares each run's outputs with this file, so regenerate it
only in a change that moves the simulator's results on purpose, and say why.
"""

import collections
import json

import run


def main():
    run._import_cskfde()
    outputs = {}
    unchecked = collections.defaultdict(lambda: None)
    for name, workload in run.WORKLOADS.items():
        sims = run.setup(workload.configs)
        for op in workload.make_ops(run.REFERENCE_SEED, False, sims, unchecked):
            ok, out = op.run()
            if not ok:
                raise SystemExit(f"{name}/{op.name} failed")
            outputs[f"{name}/{op.name}"] = out
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump({"seed": run.REFERENCE_SEED, "outputs": outputs}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

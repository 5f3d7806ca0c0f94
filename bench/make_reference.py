"""Regenerate reference.json: the checked values of every workload variant.

Usage (from the repository root):
    python3 bench/make_reference.py [WORKLOAD ...]

Runs each named workload (default: all) in-process at its benchmark size for
every stored input variant and records the values the checker compares.
Run it only on a commit whose results are trusted, and again whenever a
workload's size or scenario changes.
"""

import json
import os
import sys
import tempfile

import workloads

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {"workloads": {}}
    for name in names:
        variants = []
        for v in range(workloads.VARIANTS):
            with tempfile.TemporaryDirectory(dir=workloads.WORK_DIR) as tmp:
                out = workloads.run_inprocess(name, v, tmp)
                verdicts, values = workloads.extract(name, out)
            bad = [k for k, ok in verdicts.items() if not ok]
            if bad:
                print(f"{name} variant {v}: not converged: {bad}", file=sys.stderr)
                return 1
            variants.append(values)
            print(f"{name} variant {v}: {len(values)} values", flush=True)
        reference["workloads"][name] = {
            "flags": workloads.WORKLOADS[name]["flags"], "variants": variants}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

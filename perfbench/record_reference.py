"""Record the reference artifact values that runs with the default seed are
checked against.

    python3 perfbench/record_reference.py

Run from the root of a source checkout.  Makes one pass over every workload
with seed 0 and writes ``perfbench/reference.json``.  Re-record only when a
change to the program is meant to change its numbers, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads
import checks
import workloads

REFERENCE_SEED = 0


def main() -> int:
    sys.path.insert(0, run.SRC)
    os.chdir(run.ROOT)
    reference = {"seed": REFERENCE_SEED, "workloads": {}}
    for workload in workloads.NAMES:
        run_dir = os.path.join(run.WORK, f"{workload}-seed{REFERENCE_SEED}")  # as a run names it
        out_root = os.path.join(run_dir, "out")
        try:
            calls = run.setup(workload, REFERENCE_SEED, run_dir, [])
            result = run.run_pass(calls, out_root, traced=False)
            if result.failed:
                raise RuntimeError(f"{workload}: calls failed: {sorted(result.failed)}")
            reference["workloads"][workload] = {
                relpath: checks.reference_entry(out_root, relpath, digest)
                for relpath, digest in result.prints.items()
            }
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        print(f"{workload}: {len(reference['workloads'][workload])} artifacts")
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

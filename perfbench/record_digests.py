"""Record the first-pass output digests of each workload into digests.json.

Run from the root of a checkout, once the library's output is known good:

    python3 perfbench/record_digests.py SEED [SEED ...]

A seed is recorded only if every certificate of its pass re-checks; a run
on a recorded seed then fails any task whose output digest changed.
"""
from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main(seeds: list[int]) -> int:
    run._prepare_path()
    path = os.path.join(run.BENCH, "digests.json")
    data = {}
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            data = json.load(fh)
    for workload in run.WORKLOADS:
        for seed in seeds:
            out = run.Outcome()
            run.run_pass(run.build_tasks(workload, seed), out)
            if out.failed:
                print(f"{workload} seed {seed}: {out.failed} failed, not recorded",
                      file=sys.stderr)
                for line in out.failures:
                    print("  " + line, file=sys.stderr)
                return 1
            data.setdefault(workload, {})[str(seed)] = out.digests
            print(f"{workload} seed {seed}: {run.pass_digest(out.digests)}")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [run.DEFAULT_SEED,
                                                      run.HELDOUT_SEED]))

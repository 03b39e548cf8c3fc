#!/usr/bin/env python3
"""Record ``reference.json``: the default seed's outputs at the current commit.

    python3 perfbench/reference.py [--workload NAME ...]

Runs each workload once with the default seed, checks its invariants, and
pins the values ``checks.snapshot`` selects. Re-record only on purpose: the
file is what later commits are compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import OUT_ROOT, Bench
from checks import REFERENCE_PATH, load_reference, snapshot
from workloads import DEFAULT_SEED, WORKLOADS, config_text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    reference = load_reference()
    for name in args.workload or sorted(WORKLOADS):
        w = WORKLOADS[name]
        work_dir = OUT_ROOT / f"reference-{name}-{os.getpid()}"
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            (work_dir / "config.cfg").write_text(config_text(w, DEFAULT_SEED))
            bench = Bench(w, DEFAULT_SEED, work_dir)
            bench.reference = None
            inv = bench.invoke(traced=False)
            if inv.problems:
                print(f"{name}: not recorded: {inv.problems}", file=sys.stderr)
                return 1
            reference[name] = snapshot(w, bench.out)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(f"{name}: recorded ({inv.wall_s:.2f} s)")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record reference.json: every workload's outputs at the default seed.

    python3 bench/record_reference.py

Run it only on a commit whose outputs are known good; the benchmark compares
later commits against what this writes.  Outputs must pass their invariant
checks before they are recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
from run import RUNS_DIR, BENCH_DIR, import_fiq, run_sequence
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    fiq = import_fiq()
    work = RUNS_DIR / "record-reference"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    reference = {}
    try:
        for name, workload in WORKLOADS.items():
            commands = workload.commands(DEFAULT_SEED, work / "inputs")
            _, outcomes = run_sequence(fiq, commands, work / name)
            problems = [p for c, o in zip(commands, outcomes) for p in checks.check(c, o)]
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            reference[name] = {c.label: checks.reference_entry(o) for c, o in zip(commands, outcomes)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

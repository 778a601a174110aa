"""Digest every output of a fixed set of fiq commands, to compare two checkouts byte for byte.

    python tools/output_digests.py SRC_DIR > digests.txt

Each command runs as ``python -m fiq.cli`` on the fiq under SRC_DIR/src, with
its own --out directory.  One line is printed per command: its label, its exit
code, and the sha256 of its exit code, stdout, stderr and every file it wrote.
Run it on two checkouts and ``diff`` the two outputs.

The command set is taken from this checkout, so both runs see the same argv:

- the commands of tests/test_golden.py and the 11 presets, at seeds 1 and 2
  and --threads 1 and 2;
- the commands of every bench/workloads.py workload (the k=11 spec included),
  at seeds 1 and 2;
- a few edge cases: sampled arith on the last 64-bit streams, exact arith
  without --seed on a model that carries its own, and measure runs whose
  statistics are summed over several sampling batches (a partial last one,
  many pooled windows, a non-stationary model, a non-dyadic majority bias) or
  over one batch of 300 rows, prefix histograms at read length d that are
  sparse or full, and sampled bits at thresholds on either side of 2^33;
- a few malformed inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from test_golden import COMMANDS as GOLDEN  # noqa: E402
from workloads import PRESETS, WORKLOADS  # noqa: E402

SEEDS = ("1", "2")
MAJORITY_K3 = json.dumps({"type": "majority", "k": 3})
INDEPENDENT_BIASED = json.dumps({"type": "independent", "pv": {"prefix": ["3/4", "1/3", "3/4"], "tail": "half"}})
SAMPLE = ["sample", "--model", MAJORITY_K3, "--depth", "4", "--samples", "5"]
ARITH = ["arith", "--model", MAJORITY_K3, "--depth", "4"]
LAST_STREAMS = 200_000  # three batches of sampled prefix counts at k=3, d=12
EDGES = {
    "arith-sample-last-streams": ["arith", "--mode", "sample", "--model", MAJORITY_K3, "--constant", "3",
                                  "--depth", "12", "--samples", str(LAST_STREAMS), "--seed", "1",
                                  "--stream", str((1 << 64) - LAST_STREAMS)],
    "arith-exact-document-seed": ["arith", "--model", json.dumps({"type": "majority", "k": 3, "seed": 5}),
                                  "--constant", "3", "--depth", "6"],
    # k=3, d=24: 40 320 rows a batch, so 150 001 rows are three full batches and a partial one; 9 windows of 16 bits
    "measure-batches-pooled-windows": ["measure", "--model", MAJORITY_K3, "--depth", "24", "--samples", "150001",
                                       "--blocks", "16", "--seed", "1"],
    "measure-batches-independent": ["measure", "--model", INDEPENDENT_BIASED, "--depth", "20",
                                    "--samples", "120001", "--seed", "1"],
    "measure-one-batch-300-rows": ["measure", "--model", MAJORITY_K3, "--depth", "16", "--samples", "300",
                                   "--blocks", "12", "--seed", "1"],
    # prefix histograms at read length d: sparse in 2^20 bins, and with all 4096 bins nonzero
    "arith-sample-sparse-depth-20": ["arith", "--mode", "sample", "--model", MAJORITY_K3, "--constant", "3",
                                     "--depth", "20", "--samples", "300", "--seed", "1"],
    "measure-independent-every-bin": ["measure", "--model", INDEPENDENT_BIASED, "--depth", "12",
                                      "--samples", "400000", "--seed", "1"],
    # thresholds at 2^33 (the last xorshift skipped) and 2^32 (kept), 0, 2^64 and two others, over 26 chunks
    "sample-threshold-boundaries": ["sample", "--model", json.dumps({"type": "independent", "pv": {
        "prefix": ["1/2147483648", "1/4294967296", "0", "1", "1/3", "3/4"], "tail": "half"}}),
        "--depth", "24", "--samples", "70000", "--seed", "1"],
    # a non-dyadic majority bias, whose every source bit takes the whole mix, over three batches (the last partial)
    "measure-majority-third-batches": ["measure", "--model", json.dumps({"type": "majority", "k": 3, "bias": "1/3"}),
                                       "--depth", "16", "--samples", "150001", "--seed", "1"],
}
MALFORMED = {
    "no-subcommand": [],
    "seed-not-a-number": [*SAMPLE, "--seed", "x"],
    "seed-negative": [*SAMPLE, "--seed", "-1"],
    "seed-2^64": [*SAMPLE, "--seed", str(1 << 64)],
    "seed-underscore": [*SAMPLE, "--seed", "1_0"],
    "stream-negative": [*SAMPLE, "--seed", "1", "--stream", "-1"],
    "model-missing": ["sample", "--depth", "4", "--samples", "5", "--seed", "1"],
    "model-file-missing": ["sample", "--model", "no-such-model.json", "--depth", "4", "--samples", "5",
                           "--seed", "1"],
    "model-field-missing": ["sample", "--model", '{"type": "majority"}', "--depth", "4", "--samples", "5",
                            "--seed", "1"],
    "model-seed-2^64-overridden": ["sample", "--model", json.dumps({"type": "majority", "k": 3, "seed": 1 << 64}),
                                   "--depth", "4", "--samples", "5", "--seed", "1"],
    "constant-zero-denominator": [*ARITH, "--constant", "3/0"],
    "constant-malformed": [*ARITH, "--constant", "abc"],
    "constant-underscore": [*ARITH, "--constant", "1_0"],
    "constant-fullwidth-digit": [*ARITH, "--constant", "\uff13"],
    "depth-zero": ["sample", "--model", MAJORITY_K3, "--depth", "0", "--samples", "5", "--seed", "1"],
    "threads-zero": [*SAMPLE, "--seed", "1", "--threads", "0"],
    "depth-and-threads-zero": ["sample", "--model", MAJORITY_K3, "--depth", "0", "--samples", "5", "--seed", "1",
                               "--threads", "0"],
    "experiment-no-preset-or-spec": ["experiment", "units", "--seed", "1"],
}


def command_set(input_dir: Path) -> dict[str, list[str]]:
    """Label -> argv of every command; argv holds no --out."""
    commands = {}
    for seed in SEEDS:
        for threads in ("1", "2"):
            common = ["--seed", seed, "--threads", threads]
            for label, argv in GOLDEN.items():
                commands[f"golden:{label}:seed{seed}:threads{threads}"] = [*argv, *common]
            for kind, preset in PRESETS:
                commands[f"preset:{kind}:{preset}:seed{seed}:threads{threads}"] = [
                    "experiment", kind, "--preset", preset, *common]
        for name, workload in WORKLOADS.items():
            for command in workload.commands(int(seed), input_dir):
                commands[f"bench:{name}:{command.label}:seed{seed}"] = list(command.argv)
    commands.update({f"edge:{label}": argv for label, argv in EDGES.items()})
    commands.update({f"malformed:{label}": argv for label, argv in MALFORMED.items()})
    return commands


def digest(src: Path, work: Path, label: str, argv: list[str]) -> str:
    """The command's line: label, exit code, and sha256 of exit code, stdout, stderr and every file written."""
    out = Path("out") / label.replace(":", "_")
    env = {**os.environ, "PYTHONPATH": str(src / "src")}
    env.pop("FIQ_OUTPUT_DIR", None)
    # an empty argv is the no-subcommand case: --out alone would be a different error
    proc = subprocess.run([sys.executable, "-m", "fiq.cli", *argv, *(["--out", str(out)] if argv else [])],
                          cwd=work, env=env, capture_output=True)
    parts = [str(proc.returncode).encode(), proc.stdout, proc.stderr]
    written = work / out
    for path in sorted(p for p in written.rglob("*") if p.is_file()):
        parts += [path.relative_to(written).as_posix().encode(), path.read_bytes()]
    h = hashlib.sha256()
    for part in parts:
        h.update(b"%d:" % len(part) + part)
    return f"{label} exit={proc.returncode} {h.hexdigest()}"


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "fiq" / "cli.py").is_file():
        print("usage: python tools/output_digests.py SRC_DIR  (a checkout with src/fiq)", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        os.chdir(work)  # input files and --out directories are relative, so no argv or stdout names tmp
        (work / "inputs").mkdir()
        commands = command_set(Path("inputs"))
        with ThreadPoolExecutor(max_workers=2) as pool:
            for line in pool.map(lambda item: digest(src, work, *item), commands.items()):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

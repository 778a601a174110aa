"""Benchmark of the fiq CLI: one workload per run, checked outputs, optional tracing.

    python3 bench/run.py --workload measure --seed 1 --seconds 30 --trace 0

The process imports fiq from the checkout's src/ and calls fiq.cli.main(argv)
in-process, one command after another in a closed loop with one caller and
``--threads 1``, repeating the workload's command sequence for --seconds
(at least once, and never starting one that would end past that).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json; with --trace 1 they are its
per_layer metrics, from sequences run under the tracer alternating with
untraced ones.  Run files (outputs, then a result record with provenance and
spans) go to .bench_runs/ in the checkout.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

# One caller and --threads 1: numeric libraries stay single-threaded too.  This
# must happen before numpy is first imported, so it precedes the imports below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
from tracer import COMPUTED_COUNTS, RATES, Tracer, median_values  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = ROOT / ".bench_runs"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 7
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import fiq.cli; print(fiq.__file__, flush=True)"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _under(path: str, directory: Path) -> bool:
    return Path(path).resolve().is_relative_to(directory.resolve())


def import_fiq():
    """Import fiq from the checkout's src/, refusing any other copy."""
    if not (SRC / "fiq" / "__init__.py").is_file():
        raise BenchError(f"no fiq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fiq
    import fiq.cli

    if not _under(fiq.__file__, SRC):
        raise BenchError(f"imported fiq from {fiq.__file__}, not from {SRC}")
    return fiq


def time_setup() -> float:
    """Seconds from starting a fresh interpreter until it has imported fiq.cli."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line or not _under(line, SRC):
        raise BenchError(f"set-up interpreter exited {proc.returncode} having imported fiq from {line!r}")
    return elapsed


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(fiq) -> dict:
    import numpy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "fiq").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "fiq_file": fiq.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
    }


def run_sequence(fiq, commands, seq_dir: Path):
    """Run every command once; returns the summed main() seconds and each Outcome."""
    wall = 0.0
    outcomes = []
    for cmd in commands:
        outdir = seq_dir / cmd.label
        outdir.mkdir(parents=True)
        argv = [*cmd.argv, "--out", str(outdir)]
        error = None
        start = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                rc = fiq.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc, error = None, traceback.format_exc()
        wall += time.perf_counter() - start
        outcomes.append(checks.Outcome(rc, checks.read_outputs(outdir), error))
    shutil.rmtree(seq_dir)
    return wall, outcomes


class Tally:
    """Operations attempted and failed, check problems and claim counts of one run."""

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.attempted = self.failed = 0
        self.claims = self.claims_failed = 0
        self.problems: list[str] = []
        self._first: dict = {}    # label -> digest of the first sequence's outcome
        self._checked: dict = {}  # digest -> problems; identical bytes are checked once

    def add(self, commands, outcomes, sequence: int, traced: bool) -> None:
        for cmd, outcome in zip(commands, outcomes):
            self.attempted += 1
            digest = outcome.digest()
            if digest not in self._checked:
                ref = self.reference[cmd.label] if self.reference else None
                self._checked[digest] = checks.check(cmd, outcome, ref)
            found = list(self._checked[digest])
            if digest != self._first.setdefault(cmd.label, digest):
                found.append(f"{cmd.label}: outputs differ from the first sequence's"
                             f" ({'traced' if traced else 'untraced'} sequence {sequence})")
            if found:
                self.failed += 1
                self.problems.extend(found)
            elif sequence == 0 and cmd.subcommand == "experiment":
                n, bad = checks.claim_counts(outcome)
                self.claims += n
                self.claims_failed += bad


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns the result line and the record written beside it."""
    fiq = import_fiq()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(fiq)}
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True), flush=True)

    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((BENCH_DIR / "reference.json").read_text())[workload.name]
    tally = Tally(reference)

    setup = [time_setup() for _ in range(SETUP_REPEATS)]

    run_dir = RUNS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    input_dir = run_dir / "inputs"
    input_dir.mkdir(parents=True)
    walls: dict[bool, list[float]] = {False: [], True: []}
    layer_runs, spans = [], None
    try:
        commands = workload.commands(args.seed, input_dir)
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            # Traced runs alternate u, t, u, t...; the first sequence also warms the process.
            traced = args.trace == 1 and i % 2 == 1
            seq_start = time.perf_counter()
            seq_dir = run_dir / f"seq{i}"
            if traced:
                tracer = Tracer()
                with tracer.installed():
                    wall, outcomes = run_sequence(fiq, commands, seq_dir)
                layer_runs.append(tracer.values())
                spans = spans or tracer.spans_jsonable()
            else:
                wall, outcomes = run_sequence(fiq, commands, seq_dir)
            walls[traced].append(wall)
            tally.add(commands, outcomes, i, traced)
            i += 1
            now = time.perf_counter()
            # Stop before a sequence that would end past the deadline.
            if now + (now - seq_start) > deadline and (args.trace == 0 or i >= 3):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = tally.problems
    values = {"error_rate": tally.failed / tally.attempted}
    if args.trace:
        missing = sorted(name for name in workload.active if not any(r[f"{name}.calls"] for r in layer_runs))
        if missing:
            raise BenchError(f"traced functions never fired on {workload.name}: {', '.join(missing)}")
        layer, unsteady = median_values(layer_runs)
        problems += [f"count {k} differs between traced sequences" for k in unsteady]
        values.update(layer)
        values.update({
            "experiments.claims": tally.claims,
            "experiments.claims_failed": tally.claims_failed,
            "trace.overhead_s": median(walls[True]) - median(walls[False][1:]),
        })
        metric_specs = spec["per_layer"]
        record["spans_first_traced_sequence"] = spans
        record["computed_from_call_arguments"] = [k for k, _ in COMPUTED_COUNTS.values()] + list(RATES)
    else:
        values.update({
            "setup_s": median(setup),
            "wall_s": median(walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        metric_specs = spec["end_to_end"]

    unknown = [m["name"] for m in metric_specs if m["name"] not in values]
    if unknown:
        raise BenchError(f"no value for metrics {unknown}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    result = {"correct": not problems, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record.update({"setup_s_all": setup, "wall_s_untraced": walls[False], "wall_s_traced": walls[True],
                   "claims": tally.claims, "claims_failed": tally.claims_failed,
                   "problems": problems[:50], "result": result})
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer")

    try:
        result, record = run(args)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    for problem in record["problems"][:10]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    out = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

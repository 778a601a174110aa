"""Command-line entry point: sample, measure, arith and experiment subcommands.

Every output document embeds the fully resolved configuration and seed, so a
run can be reproduced byte for byte from its own output.  Files are written
atomically (temp file + rename) into --out, FIQ_OUTPUT_DIR, or the current
directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import FiqError
from .estimators import MIN_MI_SAMPLES, correlation_report, info_report
from .experiments import RUNNERS, ExperimentSpec, preset_spec
from .arithmetic import digit_law, sampled_prefix_counts, scale_fiq_truncated, scaled_digit_table
from .models import MAX_BLOCK_LENGTH, count_rows, model_from_json, sample_batches, sample_matrix
from .randombits import check_u64
from .rational import format_rational, parse_rational

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2


def _write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, doc: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"
    _write_atomic(path, text.encode())


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue().encode())


def _outdir(args) -> Path:
    return Path(args.out or os.environ.get("FIQ_OUTPUT_DIR", "."))


def _load_model(args, default_seed: int | None = None):
    """The model of --model: inline JSON if it starts with "{", else a path to a JSON file.

    --seed and --stream override the document's own; ``default_seed`` stands in when neither gives a seed.
    """
    text = args.model.strip()
    doc = json.loads(text if text.startswith("{") else Path(text).read_text())
    seed = args.seed if args.seed is not None or (isinstance(doc, dict) and "seed" in doc) else default_seed
    return model_from_json(doc, seed=seed, stream=args.stream)


def _u64_arg(flag: str):
    """argparse type of a 64-bit unsigned flag: ASCII decimal digits only, so argv spells the value outputs echo."""
    def parse(value: str) -> int:
        try:
            if value.isascii() and value.isdigit():
                return check_u64(int(value), flag)
        except ValueError:  # past 64 bits, or too many digits for int()
            pass
        raise argparse.ArgumentTypeError(f"{flag} must be a 64-bit unsigned integer, got {value!r}")
    return parse


def _add_model_flags(p: argparse.ArgumentParser, need_seed: bool = True) -> None:
    p.add_argument("--model", required=True, help="model JSON file or inline JSON")
    p.add_argument("--seed", type=_u64_arg("seed"), required=need_seed,
                   help="64-bit seed (explicit; there is no time-based default)")
    p.add_argument("--stream", type=_u64_arg("stream"), default=None, help="base stream id")


def _check_at_least_one(args, *flags: str) -> None:
    """Reject any of these integer flags below 1, naming it, before any work."""
    for flag in flags:
        value = getattr(args, flag)
        if value < 1:
            raise FiqError(f"--{flag} must be >= 1, got {value}")


def cmd_sample(args) -> int:
    _check_at_least_one(args, "depth", "samples")
    model = _load_model(args)
    out = _outdir(args) / "samples.csv"
    header = (",".join(f"bit_{j + 1}" for j in range(args.depth)) + "\n").encode()
    # The whole file in one buffer; each row is d (digit, comma) byte pairs, the last comma a newline.
    data = np.zeros(len(header) + 2 * args.depth * args.samples, dtype=np.uint8)
    data[:len(header)] = np.frombuffer(header, dtype=np.uint8)
    body = data[len(header):].reshape(args.samples, 2 * args.depth)
    sample_matrix(model, args.depth, args.samples, out=body[:, 0::2].T)  # each bit in its pair's low byte
    pairs = body.view("<u2")
    pairs += ord("0") | ord(",") << 8
    pairs[:, -1] -= (ord(",") - ord("\n")) << 8
    _write_atomic(out, data)
    print(out)
    return EXIT_OK


def cmd_measure(args) -> int:
    _check_at_least_one(args, "blocks", "depth", "samples")
    if args.depth > 1 and args.samples < MIN_MI_SAMPLES:  # correlation_report estimates every pair's MI
        raise FiqError(f"--samples must be >= {MIN_MI_SAMPLES} for pairwise MI when --depth > 1, "
                       f"got {args.samples}")
    model = _load_model(args)
    s = count_rows(sample_batches(model, args.depth, args.samples), args.depth, model.stationary,
                   min(args.depth, MAX_BLOCK_LENGTH))
    info = info_report(s, l_max=args.blocks)
    corr = correlation_report(s)
    doc = {
        "config": {
            "command": "measure",
            "model": model.to_json(),
            "depth": args.depth,
            "samples": args.samples,
            "seed": args.seed,
            "blocks": len(info.block_entropies),  # --blocks clamped to depth and MAX_BLOCK_LENGTH
        },
        "info_report": dataclasses.asdict(info),
        "correlation_report": dataclasses.asdict(corr),
    }
    outdir = _outdir(args)
    _write_json(outdir / "report.json", doc)
    if args.mi_csv:
        mi = corr.mi_matrix.tolist()
        header = ["row", *(f"col_{j}" for j in range(len(mi)))]
        _write_csv(outdir / "mi_matrix.csv", header, [[i, *line] for i, line in enumerate(mi)])
    print(outdir / "report.json")
    return EXIT_OK


def cmd_arith(args) -> int:
    constant = parse_rational(args.constant)
    _check_at_least_one(args, "depth", *(["samples"] if args.mode == "sample" else []))
    model = _load_model(args, default_seed=0)
    if args.mode == "exact":
        table, weights, total = scale_fiq_truncated(model, constant, args.depth)
    else:
        if args.seed is None:
            raise FiqError("--seed is required in sample mode")
        table = scaled_digit_table(constant, args.depth)  # checks the depth bound before sampling
        weights, total = sampled_prefix_counts(model, args.depth, args.samples), args.samples
    law = digit_law(table, weights)
    del table, weights  # 2^depth entries each: not held while the entries and JSON text are built
    entries = []
    for entry, w in law.items():
        cell, n = entry or (0, 0)  # an undetermined entry has no digits
        entries.append({
            "int": None if entry is None else cell >> n,
            "frac": bin(cell & ((1 << n) - 1) | 1 << n)[3:],  # the n digits, leading zeros kept
            "prob": format_rational(Fraction(w, total)) if args.mode == "exact" else w / total,
        })
    entries.sort(key=lambda e: (e["int"] is None, e["int"], e["frac"]))
    doc = {
        "config": {
            "command": "arith",
            "model": model.to_json(),
            "constant": format_rational(constant),
            "depth": args.depth,
            "mode": args.mode,
            "samples": args.samples if args.mode == "sample" else None,
            "seed": args.seed,
        },
        "digits_distribution": entries,
    }
    out = _outdir(args) / "arith.json"
    _write_json(out, doc)
    print(out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    if (args.preset is None) == (args.spec is None):
        raise FiqError("give exactly one of --preset or --spec")
    if args.preset is not None:
        spec = preset_spec(args.kind, args.preset, seed=args.seed)
    else:
        spec = ExperimentSpec.from_json(json.loads(Path(args.spec).read_text()), seed=args.seed)
    verdict = RUNNERS[args.kind](spec)
    outdir = _outdir(args)
    for name, rows in verdict.tables.items():
        _write_csv(outdir / f"{name}.csv", list(rows[0]), [[row[key] for key in rows[0]] for row in rows])
    _write_json(outdir / "verdict.json", verdict.to_jsonable())
    for claim in verdict.claims:
        mark = "PASS" if claim.passed else "FAIL"
        print(f"[{mark}] {claim.statement}")
    print(outdir / "verdict.json")
    return EXIT_OK if verdict.passed else EXIT_CLAIM_FAILED


class _Parser(argparse.ArgumentParser):
    """A usage error is one line on stderr, ``fiq: error: <message>``, and exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"fiq: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fiq",
        description="Finite information quantities: sampling, measurement, "
                    "digit arithmetic and reproducible experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=None, help="output directory")
    shared.add_argument("--threads", type=int, default=1,
                        help="must be >= 1; sampling runs in one thread, and the value never changes output")

    p = sub.add_parser("sample", parents=[shared], help="draw realizations and dump them as CSV")
    _add_model_flags(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("measure", parents=[shared], help="information and correlation reports")
    _add_model_flags(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--blocks", type=int, default=8, help="maximum block length")
    p.add_argument("--mi-csv", action="store_true", help="also write the MI matrix as CSV")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("arith", parents=[shared], help="determined digits of a scaled quantity")
    _add_model_flags(p, need_seed=False)
    p.add_argument("--constant", required=True, help='rational "p/q"')
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "sample"), default="exact")
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_arith)

    p = sub.add_parser("experiment", parents=[shared], help="run a canned experiment and emit a verdict")
    p.add_argument("kind", choices=tuple(RUNNERS))
    p.add_argument("--preset", default=None)
    p.add_argument("--spec", default=None, help="experiment spec JSON file")
    p.add_argument("--seed", type=_u64_arg("seed"), required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_at_least_one(args, "threads")
        return args.func(args)
    except (FiqError, ValueError, OSError, MemoryError) as exc:
        print(f"fiq: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

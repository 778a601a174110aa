"""Correctness checks on the files each fiq command writes.

Every seed gets invariant checks (shapes, value ranges, internal
consistency).  At the default seed the outputs are also compared with
reference.json, recorded from the code the benchmark was defined on:
BYTE_EXACT files by digest, every other file value by value, with strings,
integers and booleans (claim statements, pass flags, exact rationals) equal
and floats (estimator fields) equal within RTOL/ATOL, so a reordered
summation that is numerically equal still passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import Command

RTOL = 1e-9
ATOL = 1e-12
BYTE_EXACT = frozenset({"samples.csv", "arith.json"})
# Sampled column frequencies must lie this many binomial sigmas from the propensity.
FREQUENCY_SIGMAS = 8.0
MAX_PROBLEMS = 5


@dataclass
class Outcome:
    """What one fiq command did: exit code (None if it raised) and the files it wrote."""

    rc: int | None
    files: dict[str, bytes]
    error: str | None = None

    def digest(self) -> tuple:
        return (self.rc, tuple((n, hashlib.sha256(d).hexdigest()) for n, d in sorted(self.files.items())))


def read_outputs(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


def check(cmd: Command, outcome: Outcome, reference: dict | None = None) -> list[str]:
    """Problems with one operation; empty when it succeeded.

    An operation fails when it raises, exits with any code but 0 (or 1 from
    an experiment with a well-formed verdict), or writes output that fails
    its check.  A failed claim is a verdict, not a failure.
    """
    if outcome.error is not None:
        return [f"{cmd.label}: raised\n{outcome.error}"]
    checker = {
        "sample": _check_sample,
        "measure": _check_measure,
        "arith": _check_arith,
        "experiment": _check_experiment,
    }[cmd.subcommand]
    try:
        problems = checker(cmd, outcome)
        if reference is not None:
            problems += compare_reference(reference, outcome)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems = [f"malformed output: {type(exc).__name__}: {exc}"]
    return [f"{cmd.label}: {p}" for p in problems[:MAX_PROBLEMS]]


def claim_counts(outcome: Outcome) -> tuple[int, int]:
    """(claims, failed claims) in an experiment's verdict.json."""
    claims = json.loads(outcome.files["verdict.json"])["claims"]
    return len(claims), sum(not c["pass"] for c in claims)


# ---------------------------------------------------------------------------
# invariants


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _expect_files(problems: list[str], outcome: Outcome, names: set[str]) -> bool:
    _expect(problems, set(outcome.files) == names,
            f"wrote {sorted(outcome.files)}, expected {sorted(names)}")
    return names <= set(outcome.files)


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= ATOL + RTOL * abs(a)


def _expected_propensities(model: dict, depth: int) -> list[float] | None:
    """Per-position propensities of an independent-bits model with a half tail."""
    if model.get("type") != "independent" or model["pv"].get("tail", "half") != "half":
        return None
    prefix = [float(Fraction(q)) for q in model["pv"].get("prefix", [])]
    return (prefix + [0.5] * depth)[:depth]


def _check_sample(cmd: Command, outcome: Outcome) -> list[str]:
    problems: list[str] = []
    _expect(problems, outcome.rc == 0, f"exit code {outcome.rc}")
    if not _expect_files(problems, outcome, {"samples.csv"}):
        return problems
    data = outcome.files["samples.csv"]
    d, n = int(cmd.option("--depth")), int(cmd.option("--samples"))
    header = (",".join(f"bit_{j}" for j in range(1, d + 1)) + "\n").encode()
    body = data[len(header):]
    if not data.startswith(header) or len(body) != n * 2 * d:
        return problems + [f"samples.csv is not a {n} x {d} table with header bit_1..bit_{d}"]
    grid = np.frombuffer(body, dtype=np.uint8).reshape(n, 2 * d)
    digits, seps = grid[:, 0::2], grid[:, 1::2]
    _expect(problems, bool(np.all(seps[:, :-1] == ord(","))) and bool(np.all(seps[:, -1] == ord("\n"))),
            "samples.csv rows are not comma separated bits")
    _expect(problems, bool(np.all((digits == ord("0")) | (digits == ord("1")))),
            "samples.csv holds values outside {0, 1}")
    expected = _expected_propensities(json.loads(cmd.option("--model")), d)
    if expected is not None and not problems:
        freqs = (digits == ord("1")).mean(axis=0)
        for j, (f, q) in enumerate(zip(freqs, expected), start=1):
            _expect(problems, abs(f - q) <= FREQUENCY_SIGMAS * math.sqrt(q * (1 - q) / n),
                    f"bit_{j} frequency {f:.5f} is far from its propensity {q:.5f}")
    return problems


def _check_measure(cmd: Command, outcome: Outcome) -> list[str]:
    problems: list[str] = []
    _expect(problems, outcome.rc == 0, f"exit code {outcome.rc}")
    mi_csv = "--mi-csv" in cmd.argv
    if not _expect_files(problems, outcome, {"report.json"} | ({"mi_matrix.csv"} if mi_csv else set())):
        return problems
    doc = json.loads(outcome.files["report.json"])
    d, n, blocks = (int(cmd.option(f)) for f in ("--depth", "--samples", "--blocks"))
    config = doc["config"]
    _expect(problems, (config["command"], config["depth"], config["samples"], config["seed"], config["blocks"])
            == ("measure", d, n, int(cmd.option("--seed")), blocks), "config does not echo the command")

    corr = doc["correlation_report"]
    mi = np.array(corr["mi_matrix"], dtype=float)
    marg = np.array(corr["marginals"], dtype=float)
    _expect(problems, mi.shape == (d, d) and marg.shape == (d,), "MI matrix or marginals have the wrong shape")
    if problems:
        return problems
    _expect(problems, bool(np.all(np.isfinite(mi))), "MI matrix is not finite")
    _expect(problems, bool(np.all(np.abs(mi - mi.T) <= ATOL)), "MI matrix is not symmetric")
    _expect(problems, bool(np.all(mi >= -ATOL)), "MI matrix has negative entries")
    _expect(problems, bool(np.all(np.diag(mi) <= 1 + ATOL)), "marginal entropies exceed one bit")
    _expect(problems, bool(np.all((marg >= 0) & (marg <= 1))), "marginals outside [0, 1]")
    _expect(problems, corr["n_samples"] == n, "n_samples does not echo --samples")
    _expect(problems, _close(corr["noise_floor"], 3.0 / (2.0 * n * math.log(2.0))), "noise floor is not 3/(2N ln 2)")

    info = doc["info_report"]
    terms = info["per_bit_terms"]
    _expect(problems, len(terms) == d and all(-ATOL <= t <= 1 + ATOL for t in terms),
            "per-bit terms are not d values in [0, 1]")
    _expect(problems, _close(info["total"], math.fsum(terms)), "total is not the sum of the per-bit terms")
    hs = info["block_entropies"]
    n_blocks = min(blocks, d, 16)  # 16 is fiq's block-length cap, estimators.MAX_BLOCK_LENGTH
    _expect(problems, len(hs) == n_blocks and all(0 <= h <= L + 1 for L, h in enumerate(hs, start=1)),
            f"block entropies are not {n_blocks} values with 0 <= H_L <= L + 1")
    if len(hs) >= 2:
        _expect(problems, _close(info["entropy_rate_estimate"], hs[-1] - hs[-2]),
                "entropy rate is not H_L - H_(L-1)")

    if mi_csv:
        rows = _csv_rows(outcome.files["mi_matrix.csv"])
        _expect(problems, rows[0] == ["row"] + [f"col_{j}" for j in range(d)] and len(rows) == d + 1,
                "mi_matrix.csv has the wrong header or row count")
        if not problems:
            table = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
            _expect(problems, bool(np.all(np.abs(table - mi) <= ATOL + RTOL * np.abs(mi))),
                    "mi_matrix.csv differs from the report's MI matrix")
    return problems


def _check_arith(cmd: Command, outcome: Outcome) -> list[str]:
    problems: list[str] = []
    _expect(problems, outcome.rc == 0, f"exit code {outcome.rc}")
    if not _expect_files(problems, outcome, {"arith.json"}):
        return problems
    doc = json.loads(outcome.files["arith.json"])
    n = int(cmd.option("--samples"))
    config = doc["config"]
    _expect(problems, (config["command"], config["mode"], config["depth"], config["samples"], config["seed"])
            == ("arith", "sample", int(cmd.option("--depth")), n, int(cmd.option("--seed"))),
            "config does not echo the command")
    _expect(problems, Fraction(config["constant"]) == Fraction(cmd.option("--constant")),
            "constant does not echo --constant")
    entries = doc["digits_distribution"]
    keys = [(e["int"] is None, -1 if e["int"] is None else e["int"], e["frac"]) for e in entries]
    _expect(problems, keys == sorted(set(keys)), "entries are not sorted and unique")
    total = 0
    for e in entries:
        count = e["prob"] * n
        ok = (
            0 < e["prob"] <= 1 and abs(count - round(count)) <= 1e-6
            and re.fullmatch("[01]*", e["frac"]) is not None
            and (e["int"] is not None or e["frac"] == "")
        )
        _expect(problems, ok, f"bad entry {e}")
        total += round(count)
    _expect(problems, total == n, f"sample-mode probabilities cover {total} of {n} samples")
    return problems


def _check_experiment(cmd: Command, outcome: Outcome) -> list[str]:
    problems: list[str] = []
    if "verdict.json" not in outcome.files:
        return [f"exit code {outcome.rc} and no verdict.json"]
    doc = json.loads(outcome.files["verdict.json"])
    _expect(problems, set(doc) == {"experiment", "config", "claims", "pass", "artifacts"},
            f"verdict.json has keys {sorted(doc)}")
    claims = doc["claims"]
    well_formed = bool(claims) and all(
        isinstance(c["statement"], str) and isinstance(c["pass"], bool) for c in claims
    )
    _expect(problems, well_formed, "claims are not a non-empty list of statements with pass flags")
    passed = all(c["pass"] for c in claims)
    _expect(problems, doc["pass"] is passed, "verdict pass flag disagrees with its claims")
    _expect(problems, outcome.rc == (0 if passed else 1),
            f"exit code {outcome.rc} for a verdict that {'passed' if passed else 'failed'}")
    artifacts = doc["artifacts"]
    _expect(problems, sorted(artifacts) == sorted(outcome.files) and "verdict.json" in artifacts,
            f"artifacts {artifacts} do not match the files written {sorted(outcome.files)}")
    if cmd.option("--preset") is not None:
        name = f"{cmd.argv[1]}:{cmd.option('--preset')}"
        _expect(problems, doc["experiment"] == name, f"experiment is {doc['experiment']!r}, expected {name!r}")
    _expect(problems, doc["config"]["seed"] == int(cmd.option("--seed")), "config does not echo --seed")
    for table in (a for a in artifacts if a.endswith(".csv") and a in outcome.files):
        rows = _csv_rows(outcome.files[table])
        _expect(problems, len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows),
                f"{table} is not a table with a header and rows")
        cells = [_cell(x) for r in rows[1:] for x in r]
        _expect(problems, all(math.isfinite(x) for x in cells if isinstance(x, float)),
                f"{table} holds non-finite numbers")
    return problems


# ---------------------------------------------------------------------------
# reference comparison


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _cell(text: str):
    """A CSV cell as int, float or string, so numbers compare by value."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def file_representation(name: str, data: bytes) -> dict:
    """How reference.json stores one output file."""
    if name in BYTE_EXACT:
        return {"sha256": hashlib.sha256(data).hexdigest()}
    if name.endswith(".json"):
        return {"json": json.loads(data)}
    if name.endswith(".csv"):
        return {"csv": [[_cell(x) for x in row] for row in _csv_rows(data)]}
    return {"sha256": hashlib.sha256(data).hexdigest()}


def reference_entry(outcome: Outcome) -> dict:
    return {"exit": outcome.rc,
            "files": {name: file_representation(name, data) for name, data in sorted(outcome.files.items())}}


def compare_reference(reference: dict, outcome: Outcome) -> list[str]:
    problems: list[str] = []
    _expect(problems, outcome.rc == reference["exit"],
            f"exit code {outcome.rc}, reference {reference['exit']}")
    if not _expect_files(problems, outcome, set(reference["files"])):
        return problems
    for name, ref in reference["files"].items():
        got = file_representation(name, outcome.files[name])
        (kind,) = ref  # "sha256", "json" or "csv"
        if kind == "sha256":
            _expect(problems, got == ref, f"{name} differs from the reference bytes")
        else:
            problems += compare_values(ref[kind], got[kind], name)
    return problems


def compare_values(ref, got, where: str) -> list[str]:
    """Differences between two JSON-like values; floats within RTOL/ATOL, everything else equal."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} differ from the reference {sorted(ref)}"]
        return [p for k in ref for p in compare_values(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)}, reference {len(ref)}"]
        return [p for i, (r, g) in enumerate(zip(ref, got)) for p in compare_values(r, g, f"{where}[{i}]")]
    if type(ref) is float and type(got) is float:
        return [] if _close(ref, got) else [f"{where}: {got!r}, reference {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{where}: {got!r}, reference {ref!r}"]
    return []

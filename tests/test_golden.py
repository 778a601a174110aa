"""Pinned outputs of a fixed set of fiq commands at seed 1.

Every output file is compared with ``golden_seed1.json``: ``samples.csv`` and
``arith.json`` by sha256, JSON documents and CSV tables parsed, with floats
equal to a relative 1e-12.  The reference is written by running this file as
a script (``PYTHONPATH=src python tests/test_golden.py``), which keeps every
recorded entry that still matches and writes only new or changed ones; re-record
it only for an output change that is intended and noted in CHANGES.md.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

from fiq.cli import main

GOLDEN = Path(__file__).with_name("golden_seed1.json")
SEED = "1"
REL = 1e-12

MAJORITY_K3 = json.dumps({"type": "majority", "k": 3})
BIASED = json.dumps({"type": "independent",
                     "pv": {"prefix": ["3/4", "1/3", "3/4"], "tail": "half"}})
CONSTANT_COLUMNS = json.dumps({"type": "independent",
                               "pv": {"prefix": ["1", "3/4", "0", "1/3"], "tail": "half"}})
EDGE_PROPENSITIES = json.dumps({"type": "independent",
                                "pv": {"prefix": ["1", "0", "1/3", "3/4"], "tail": "half"}})
MAJORITY_K5_THIRD = json.dumps({"type": "majority", "k": 5, "bias": "1/3"})
BIASED_X3 = json.dumps({"type": "independent", "pv": {"prefix": ["3/4", "3/4"], "tail": "half"}})
UNIFORM = json.dumps({"type": "independent", "pv": {"prefix": [], "tail": "half"}})

COMMANDS = {
    "units-biased-x3": ["experiment", "units", "--preset", "biased-x3"],
    "units-biased-yards-to-meters": ["experiment", "units", "--preset", "biased-yards-to-meters"],
    "units-biased-half-shift-control": ["experiment", "units", "--preset", "biased-half-shift-control"],
    "majority-k3": ["experiment", "majority", "--preset", "k3"],
    "units-majority-k3-x3": ["experiment", "units-majority", "--preset", "k3-x3"],
    "arith-exact": ["arith", "--model", BIASED, "--constant", "1143/1250", "--depth", "10"],
    "arith-exact-biased-x3": ["arith", "--mode", "exact", "--model", BIASED_X3, "--constant", "3",
                              "--depth", "12"],
    "arith-exact-majority-k3": ["arith", "--mode", "exact", "--model", MAJORITY_K3, "--constant", "3",
                                "--depth", "12"],
    "arith-exact-majority-k5-third": ["arith", "--mode", "exact", "--model", MAJORITY_K5_THIRD,
                                      "--constant", "1143/1250", "--depth", "10"],
    # integer-part-only entries (int 0 and int 2, no fraction digit) and an undetermined one
    "arith-exact-uniform-x3": ["arith", "--mode", "exact", "--model", UNIFORM, "--constant", "3",
                               "--depth", "2"],
    # fraction digits with leading zeros ("00", "000", "01")
    "arith-exact-uniform-yards": ["arith", "--mode", "exact", "--model", UNIFORM, "--constant", "1143/1250",
                                  "--depth", "3"],
    "arith-sample": ["arith", "--mode", "sample", "--model", MAJORITY_K3, "--constant", "3",
                     "--depth", "10", "--samples", "20000"],
    "measure": ["measure", "--model", MAJORITY_K3, "--depth", "8", "--samples", "5000",
                "--blocks", "4", "--mi-csv"],
    "measure-majority-k3-pooled": ["measure", "--model", MAJORITY_K3, "--depth", "16",
                                   "--samples", "20000", "--blocks", "12", "--mi-csv"],
    "measure-constant-columns": ["measure", "--model", CONSTANT_COLUMNS, "--depth", "8",
                                 "--samples", "5000", "--blocks", "8", "--mi-csv"],
    "sample": ["sample", "--model", BIASED, "--depth", "6", "--samples", "200"],
    "sample-majority-k3": ["sample", "--model", MAJORITY_K3, "--depth", "12", "--samples", "500",
                           "--threads", "2"],
    "sample-majority-k3-chunks": ["sample", "--model", MAJORITY_K3, "--depth", "16",
                                  "--samples", "50000", "--threads", "2"],
    "sample-independent-edges": ["sample", "--model", EDGE_PROPENSITIES, "--depth", "8",
                                 "--samples", "20000"],
    "sample-majority-k5-third": ["sample", "--model", MAJORITY_K5_THIRD, "--depth", "12",
                                 "--samples", "10000", "--threads", "2"],
}

HASHED = {"samples.csv", "arith.json"}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _digest(path: Path):
    data = path.read_bytes()
    if path.name in HASHED:
        return {"sha256": hashlib.sha256(data).hexdigest()}
    if path.suffix == ".json":
        return {"json": json.loads(data)}
    rows = list(csv.reader(io.StringIO(data.decode())))
    return {"csv": [[_cell(c) for c in row] for row in rows]}


def run_commands(out: Path) -> dict:
    """Run every command into its own directory; digest of each file written."""
    result = {}
    for label, argv in COMMANDS.items():
        outdir = out / label
        code = main([*argv, "--seed", SEED, "--out", str(outdir)])
        files = {p.name: _digest(p) for p in sorted(outdir.iterdir())}
        result[label] = {"exit": code, "files": files}
    return result


def _mismatches(ref, got, where="") -> list[str]:
    """Paths where ``got`` differs from ``ref``; floats may differ by REL."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [m for k in ref for m in _mismatches(ref[k], got[k], f"{where}/{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [m for i, (r, g) in enumerate(zip(ref, got)) for m in _mismatches(r, g, f"{where}[{i}]")]
    if type(ref) is float and type(got) is float:
        same = math.isclose(ref, got, rel_tol=REL, abs_tol=0.0)
    else:
        same = type(ref) is type(got) and ref == got
    return [] if same else [f"{where}: {got!r} != {ref!r}"]


def test_outputs_match_golden(tmp_path):
    ref = json.loads(GOLDEN.read_text())
    got = run_commands(tmp_path)
    assert set(got) == set(ref)
    for label in ref:
        problems = _mismatches(ref[label], got[label], label)
        assert not problems, "\n".join(problems[:10])


def merge_recorded(recorded: dict, got: dict) -> tuple[dict, list[str]]:
    """Every command's recorded entry where it still matches within REL, else its new one; and those labels.

    Entries of commands no longer run are dropped, so a re-recording churns only what changed.
    """
    changed = [label for label in got if label not in recorded or _mismatches(recorded[label], got[label])]
    return {label: got[label] if label in changed else recorded[label] for label in got}, changed


def test_merge_keeps_entries_that_still_match():
    recorded = {"same": {"v": 1.0}, "close": {"v": 0.14887610087317427}, "moved": {"v": 2.0},
                "gone": {"v": 3.0}}
    got = {"same": {"v": 1.0}, "close": {"v": 0.14887610087317382}, "moved": {"v": 2.5},
           "new": {"v": 4.0}}
    merged, changed = merge_recorded(recorded, got)
    assert merged == {"same": {"v": 1.0}, "close": {"v": 0.14887610087317427}, "moved": {"v": 2.5},
                      "new": {"v": 4.0}}
    assert changed == ["moved", "new"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digests = run_commands(Path(tmp))
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    merged, changed = merge_recorded(recorded, digests)
    GOLDEN.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}; new or changed: {', '.join(changed) or 'none'}")

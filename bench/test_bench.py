"""Self-tests of the benchmark: the checker catches corrupted outputs, and the
tracer is transparent.  Run with ``python3 -m pytest bench/test_bench.py -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SAMPLE_MODEL, Command  # noqa: E402

fiq = run.import_fiq()

SAMPLE = Command("sample", ("sample", "--model", SAMPLE_MODEL, "--depth", "24", "--samples", "2000",
                            "--seed", "5", "--threads", "1"))
MEASURE = Command("measure", ("measure", "--model", '{"type":"majority","k":3}', "--depth", "8",
                              "--samples", "5000", "--blocks", "4", "--mi-csv", "--seed", "5", "--threads", "1"))
VERDICT = Command("majority-k3", ("experiment", "majority", "--preset", "k3", "--seed", "5", "--threads", "1"))


def execute(cmd: Command, tmp_path: Path) -> checks.Outcome:
    _, (outcome,) = run.run_sequence(fiq, [cmd], tmp_path / "seq")
    return outcome


def corrupted(outcome: checks.Outcome, name: str, data: bytes) -> checks.Outcome:
    return checks.Outcome(outcome.rc, {**outcome.files, name: data}, outcome.error)


def test_checker_accepts_real_outputs(tmp_path):
    for cmd in (SAMPLE, MEASURE, VERDICT):
        outcome = execute(cmd, tmp_path)
        assert checks.check(cmd, outcome) == []
        assert checks.check(cmd, outcome, checks.reference_entry(outcome)) == []


def test_checker_flags_corrupted_csv(tmp_path):
    outcome = execute(SAMPLE, tmp_path)
    ref = checks.reference_entry(outcome)
    data = outcome.files["samples.csv"]
    body = data.index(b"\n") + 1
    flipped = data[:body] + (b"1" if data[body:body + 1] == b"0" else b"0") + data[body + 1:]
    assert checks.check(SAMPLE, corrupted(outcome, "samples.csv", flipped)) == []  # still a valid sample
    assert checks.check(SAMPLE, corrupted(outcome, "samples.csv", flipped), ref) != []
    not_a_bit = data[:body] + b"2" + data[body + 1:]
    assert checks.check(SAMPLE, corrupted(outcome, "samples.csv", not_a_bit)) != []
    truncated = data[:data.rstrip(b"\n").rindex(b"\n") + 1]
    assert checks.check(SAMPLE, corrupted(outcome, "samples.csv", truncated)) != []
    constant_column = data.replace(b"0,", b"1,", 1).replace(b"\n0,", b"\n1,")
    assert checks.check(SAMPLE, corrupted(outcome, "samples.csv", constant_column)) != []


def test_checker_flags_corrupted_report(tmp_path):
    outcome = execute(MEASURE, tmp_path)
    doc = json.loads(outcome.files["report.json"])
    doc["correlation_report"]["mi_matrix"][0][1] += 0.01
    bad = json.dumps(doc).encode()
    assert checks.check(MEASURE, corrupted(outcome, "report.json", bad)) != []


def test_checker_flags_corrupted_verdict(tmp_path):
    outcome = execute(VERDICT, tmp_path)
    ref = checks.reference_entry(outcome)
    doc = json.loads(outcome.files["verdict.json"])

    def with_verdict(edit) -> checks.Outcome:
        changed = json.loads(json.dumps(doc))
        edit(changed)
        return corrupted(outcome, "verdict.json", json.dumps(changed).encode())

    def flip_claim(d):
        d["claims"][0]["pass"] = not d["claims"][0]["pass"]

    def reword(d):
        d["claims"][0]["statement"] += " (edited)"

    def drop_key(d):
        del d["artifacts"]

    assert checks.check(VERDICT, with_verdict(flip_claim)) != []  # pass flag vs claims vs exit code
    assert checks.check(VERDICT, with_verdict(reword)) == []
    assert checks.check(VERDICT, with_verdict(reword), ref) != []
    assert checks.check(VERDICT, with_verdict(drop_key)) != []
    assert checks.check(VERDICT, checks.Outcome(2, {}, None)) != []


def test_reference_tolerates_only_rounding():
    ref = {"h": [0.1 + 0.2, 1e-14], "n": 3, "s": "3/4"}
    assert checks.compare_values(ref, {"h": [0.3, 0.0], "n": 3, "s": "3/4"}, "x") == []
    assert checks.compare_values(ref, {"h": [0.3 + 1e-6, 0.0], "n": 3, "s": "3/4"}, "x") != []
    assert checks.compare_values(ref, {"h": [0.3, 0.0], "n": 3.0, "s": "3/4"}, "x") != []
    assert checks.compare_values(ref, {"h": [0.3, 0.0], "n": 3, "s": "0.75"}, "x") != []


def test_wrapper_passes_values_and_errors_through():
    tracer = Tracer()
    sentinel = object()

    def inner(x, *, key):
        return (x, key)

    def outer(x, key=None):
        if x is None:
            raise LookupError("boom")
        return traced_inner(x, key=key), sentinel

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    pair, got = traced_outer(sentinel, key=7)
    assert pair == (sentinel, 7) and got is sentinel
    with pytest.raises(LookupError):
        traced_outer(None)
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("outer", -1)]
    assert all(s.end >= s.start for s in tracer.spans)
    totals = tracer.totals()
    assert totals["outer"][0] == 2 and totals["inner"][0] == 1
    assert totals["outer"][2] == pytest.approx(totals["outer"][1] - totals["inner"][1])


def test_tracer_patches_every_binding_and_restores(tmp_path):
    originals = (fiq.models.sample_matrix, dict(fiq.experiments.RUNNERS), fiq.cli.cmd_sample)
    tracer = Tracer()
    with tracer.installed():
        wrapped = fiq.models.sample_matrix
        assert wrapped is not originals[0]
        assert fiq.cli.sample_matrix is wrapped and fiq.experiments.sample_matrix is wrapped
        assert fiq.sample_matrix is wrapped
        assert all(fiq.experiments.RUNNERS[k] is not v for k, v in originals[1].items())
        traced = execute(SAMPLE, tmp_path)
    assert fiq.models.sample_matrix is originals[0] and fiq.cli.sample_matrix is originals[0]
    assert fiq.experiments.RUNNERS == originals[1] and fiq.cli.cmd_sample is originals[2]

    assert traced.digest() == execute(SAMPLE, tmp_path).digest()
    values = tracer.values()
    assert values["cli.command.calls"] == values["models.sample_matrix.calls"] == 1
    assert values["randombits.uniforms"] == 2000 * 24 == values["models.sample_bits"]
    assert values["cli.bytes_written"] == len(traced.files["samples.csv"])
    assert values["estimators.mi_matrix.calls"] == 0

import json
import subprocess
import sys

import pytest

import fiq.cli
from fiq.cli import main

MAJORITY_MODEL = {"type": "majority", "k": 3, "bias": "1/2"}
BIASED_MODEL = {"type": "independent", "pv": {"prefix": ["3/4", "3/4"], "tail": "half"}}


def run_cli(args, tmp_path):
    return main([*args, "--out", str(tmp_path)])


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MAJORITY_MODEL))
    return str(path)


class TestSample:
    def test_writes_csv(self, tmp_path, model_file):
        code = run_cli(["sample", "--model", model_file, "--depth", "6",
                        "--samples", "20", "--seed", "7"], tmp_path)
        assert code == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "bit_1,bit_2,bit_3,bit_4,bit_5,bit_6"
        assert len(lines) == 21

    def test_seed_is_required(self, tmp_path, model_file, capsys):
        with pytest.raises(SystemExit):
            run_cli(["sample", "--model", model_file, "--depth", "4",
                     "--samples", "5"], tmp_path)


class TestMeasure:
    def test_report_embeds_config(self, tmp_path, model_file):
        code = run_cli(["measure", "--model", model_file, "--depth", "8",
                        "--samples", "2000", "--seed", "5", "--blocks", "4"], tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["seed"] == 5
        assert doc["config"]["model"]["type"] == "majority"
        assert len(doc["info_report"]["per_bit_terms"]) == 8
        assert len(doc["correlation_report"]["mi_matrix"]) == 8

    def test_mi_csv(self, tmp_path, model_file):
        code = run_cli(["measure", "--model", model_file, "--depth", "4",
                        "--samples", "1000", "--seed", "5", "--mi-csv"], tmp_path)
        assert code == 0
        assert (tmp_path / "mi_matrix.csv").exists()

    @pytest.mark.parametrize("depth,blocks", [("1", "8"), ("8", "1")])
    def test_single_block_length(self, tmp_path, model_file, depth, blocks):
        code = run_cli(["measure", "--model", model_file, "--depth", depth,
                        "--samples", "2000", "--seed", "5", "--blocks", blocks], tmp_path)
        assert code == 0
        info = json.loads((tmp_path / "report.json").read_text())["info_report"]
        assert len(info["block_entropies"]) == 1
        assert info["entropy_rate_estimate"] == info["block_entropies"][0]

    def test_rerun_is_byte_identical(self, tmp_path, model_file):
        args = ["measure", "--model", model_file, "--depth", "6",
                "--samples", "3000", "--seed", "11"]
        run_cli(args, tmp_path / "a")
        run_cli(args, tmp_path / "b")
        run_cli([*args, "--threads", "4"], tmp_path / "c")
        a = (tmp_path / "a/report.json").read_bytes()
        assert a == (tmp_path / "b/report.json").read_bytes()
        assert a == (tmp_path / "c/report.json").read_bytes()


class TestArith:
    def test_exact_distribution(self, tmp_path):
        code = run_cli(["arith", "--model", json.dumps(BIASED_MODEL),
                        "--constant", "3", "--depth", "4"], tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "arith.json").read_text())
        from fractions import Fraction

        from fiq.rational import parse_rational

        entries = doc["digits_distribution"]
        assert all(isinstance(e["prob"], str) for e in entries)
        assert sum(parse_rational(e["prob"]) for e in entries) == Fraction(1)

    def test_sample_mode(self, tmp_path):
        code = run_cli(["arith", "--model", json.dumps(BIASED_MODEL),
                        "--constant", "3", "--depth", "6", "--mode", "sample",
                        "--samples", "500", "--seed", "3"], tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "arith.json").read_text())
        assert sum(e["prob"] for e in doc["digits_distribution"]) == pytest.approx(1.0)

    def test_invalid_rational_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["arith", "--model", json.dumps(BIASED_MODEL),
                     "--constant", "3/0", "--depth", "4"], tmp_path)
        assert err.value.code == 2

    def test_exact_mode_rejects_majority_model(self, tmp_path):
        code = run_cli(["arith", "--model", json.dumps(MAJORITY_MODEL),
                        "--constant", "3", "--depth", "4"], tmp_path)
        assert code == 2

    def test_sample_mode_requires_seed(self, tmp_path):
        code = run_cli(["arith", "--model", json.dumps(BIASED_MODEL),
                        "--constant", "3", "--depth", "4", "--mode", "sample"], tmp_path)
        assert code == 2


class TestExperiment:
    def test_preset_passes(self, tmp_path):
        code = run_cli(["experiment", "majority", "--preset", "k3", "--seed", "1"],
                       tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "verdict.json").read_text())
        assert doc["pass"] is True
        assert "verdict.json" in doc["artifacts"]
        for name in doc["artifacts"]:
            assert (tmp_path / name).exists()

    def test_spec_file(self, tmp_path):
        from fiq.experiments import preset_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(preset_spec("units", "uniform-x3-control",
                                                    seed=2).to_json()))
        code = run_cli(["experiment", "units", "--spec", str(spec_path), "--seed", "2"],
                       tmp_path)
        assert code == 0

    def test_unknown_preset_exits_2(self, tmp_path):
        code = run_cli(["experiment", "units", "--preset", "nope", "--seed", "1"],
                       tmp_path)
        assert code == 2

    def test_preset_and_spec_conflict(self, tmp_path):
        code = run_cli(["experiment", "units", "--preset", "biased-x3",
                        "--spec", "x.json", "--seed", "1"], tmp_path)
        assert code == 2

    def test_no_stray_temp_files(self, tmp_path):
        run_cli(["experiment", "units", "--preset", "biased-half-shift-control",
                 "--seed", "1"], tmp_path)
        stray = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert stray == []


class TestMalformedInput:
    @pytest.mark.parametrize("model,field", [
        ({"type": "majority"}, "k"),
        ({"type": "independent"}, "pv"),
    ])
    def test_model_missing_field_exits_2(self, tmp_path, capsys, model, field):
        code = run_cli(["sample", "--model", json.dumps(model), "--depth", "4",
                        "--samples", "5", "--seed", "1"], tmp_path)
        assert code == 2
        assert f"missing required field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("model,field", [
        ({"type": "majority", "k": None}, "k"),
        ({"type": "majority", "k": [3]}, "k"),
        ({"type": "independent", "pv": 3}, "pv"),
        ({"type": "independent", "pv": {"prefix": 3}}, "prefix"),
        ({"type": "majority", "k": 3, "stream": None}, "stream"),
        ({"type": "independent", "pv": {"prefix": [None]}}, "prefix"),
        ({"type": "independent", "pv": {"prefix": ["3/4", [1, 2]]}}, "prefix"),
        ({"type": "majority", "k": 3.5}, "k"),
        ({"type": "majority", "k": True}, "k"),
    ])
    def test_model_bad_value_exits_2(self, tmp_path, capsys, model, field):
        code = run_cli(["sample", "--model", json.dumps(model), "--depth", "4",
                        "--samples", "5", "--seed", "1"], tmp_path)
        assert code == 2
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize("stream,model", [
        ("18446744073709551613", MAJORITY_MODEL),
        ("18446744073709551615", MAJORITY_MODEL),
        (None, {**MAJORITY_MODEL, "stream": 18446744073709551615}),
        (None, {**MAJORITY_MODEL, "stream": 18446744073709551616}),
    ])
    def test_stream_past_64_bits_exits_2(self, tmp_path, capsys, stream, model):
        args = ["sample", "--model", json.dumps(model), "--depth", "4", "--samples", "5",
                "--seed", "1"]
        code = run_cli([*args, "--stream", stream] if stream else args, tmp_path)
        assert code == 2
        assert "64" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    @pytest.mark.parametrize("field", ["name", "model", "depth", "samples"])
    def test_spec_missing_field_exits_2(self, tmp_path, capsys, field):
        from fiq.experiments import preset_spec

        spec = preset_spec("units", "uniform-x3-control", seed=2).to_json()
        del spec[field]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli(["experiment", "units", "--spec", str(spec_path), "--seed", "2"],
                       tmp_path)
        assert code == 2
        assert f"missing required field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("sigma", None),
        ("sigma", "wide"),
        ("sigma", -1),
        ("sigma", 0),
        ("sigma", float("inf")),
        ("sigma", float("nan")),
        ("depth", 12.5),
        ("depth", True),
        ("samples", 1000.5),
    ])
    def test_spec_bad_value_exits_2(self, tmp_path, capsys, field, value):
        from fiq.experiments import preset_spec

        spec = preset_spec("units", "uniform-x3-control", seed=2).to_json()
        spec[field] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli(["experiment", "units", "--spec", str(spec_path), "--seed", "2"],
                       tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert repr(field) in err and len(err.splitlines()) == 1
        assert not (tmp_path / "verdict.json").exists()

    def test_arith_sample_depth_bound_checked_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the depth bound was checked")

        monkeypatch.setattr(fiq.cli, "sample_matrix", no_sampling)
        code = run_cli(["arith", "--mode", "sample", "--model", json.dumps(MAJORITY_MODEL),
                        "--constant", "3", "--depth", "21", "--samples", "1000", "--seed", "1"],
                       tmp_path)
        assert code == 2
        assert "depth 21 exceeds exact enumeration bound 20" in capsys.readouterr().err
        assert not (tmp_path / "arith.json").exists()

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_arith_negative_depth_exits_2(self, tmp_path, capsys, mode):
        model = {"type": "independent", "pv": {"prefix": ["3/4"]}}
        code = run_cli(["arith", "--mode", mode, "--model", json.dumps(model), "--constant", "3",
                        "--depth", "-1", "--seed", "1"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "depth must be >= 0, got -1" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "arith.json").exists()

    @pytest.mark.parametrize("kind,preset", [("units", "uniform-x3-control"),
                                             ("units-majority", "k3-x3")])
    def test_spec_negative_depth_exits_2(self, tmp_path, capsys, kind, preset):
        from fiq.experiments import preset_spec

        spec = {**preset_spec(kind, preset, seed=2).to_json(), "depth": -1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli(["experiment", kind, "--spec", str(spec_path), "--seed", "2"], tmp_path)
        assert code == 2
        assert "depth must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "verdict.json").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        code = run_cli(["sample", "--model", json.dumps(MAJORITY_MODEL), "--depth", "4",
                        "--samples", "5", "--seed", "1", "--threads", threads], tmp_path)
        assert code == 2
        assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    def test_model_file_not_an_object_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text("[3]")
        code = run_cli(["sample", "--model", str(model_path), "--depth", "4",
                        "--samples", "5", "--seed", "1"], tmp_path)
        assert code == 2
        assert "must be a JSON object" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, model_file):
        proc = subprocess.run(
            [sys.executable, "-m", "fiq.cli", "sample", "--model", model_file,
             "--depth", "4", "--samples", "5", "--seed", "1", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "samples.csv").exists()

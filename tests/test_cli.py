import csv
import io
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

import fiq.arithmetic
import fiq.cli
import fiq.experiments
import fiq.models
from fiq.cli import main
from fiq.models import exact_window_joint, model_from_json, sample_matrix
from fiq.rational import format_rational, parse_rational

MAJORITY_MODEL = {"type": "majority", "k": 3, "bias": "1/2"}
BIASED_MODEL = {"type": "independent", "pv": {"prefix": ["3/4", "3/4"], "tail": "half"}}
# certain, impossible and biased bits, then fair ones
MIXED_MODEL = {"type": "independent", "pv": {"prefix": ["1", "0", "3/4", "1/5"], "tail": "half"}}
UNSPECIFIED_TAIL_MODEL = {"type": "independent", "pv": {"prefix": ["3/4"], "tail": "unspecified"}}


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


def csv_writer_bytes(bits):
    """Reference for samples.csv: csv.writer over Python ints, as ``fiq sample`` wrote it before."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"bit_{j + 1}" for j in range(bits.shape[1])])
    writer.writerows(bits.tolist())
    return buf.getvalue().encode()


_shapes = random.Random(14)


class TestSampleBytes:
    @pytest.mark.parametrize("depth,samples", [
        (1, 1), (1, 9), (4, 1), (63, 5),
        *((_shapes.randint(1, 40), _shapes.randint(1, 300)) for _ in range(4)),
        # across sampling chunks (2^16 source bits each): 3 chunks with a partial last one and a
        # 159-byte header, so the body's (digit, comma) pairs sit at odd addresses; 2 chunks of 1 bit
        (24, 6000), (1, 70_000),
    ])
    def test_same_bytes_as_csv_writer(self, tmp_path, depth, samples):
        code = run_cli(["sample", "--model", json.dumps(MIXED_MODEL), "--depth", str(depth),
                        "--samples", str(samples), "--seed", "3"], tmp_path)
        assert code == 0
        bits = sample_matrix(model_from_json(MIXED_MODEL, seed=3), depth, samples)
        assert (tmp_path / "samples.csv").read_bytes() == csv_writer_bytes(bits)

    def test_peak_memory_is_the_file_once(self, tmp_path):
        # the file's bytes once: holding the bits, a CSV body and the joined file besides takes 2.5x the file
        tracemalloc.start()
        try:
            assert run_cli(["sample", "--model", json.dumps(MIXED_MODEL), "--depth", "24", "--samples", "200000",
                            "--seed", "1"], tmp_path) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "samples.csv").stat().st_size
        assert size == 159 + 2 * 24 * 200_000
        assert peak < size + (2 << 20)  # 2 MiB: the header, one chunk's work buffer and small objects

    @pytest.mark.parametrize("step", ["write", "replace"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys, step):
        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if step == "replace":
            monkeypatch.setattr(fiq.cli.os, "replace", disk_full)
        else:
            real_fdopen = os.fdopen

            def fdopen_full(fd, mode):
                fh = real_fdopen(fd, mode)
                fh.write = disk_full
                return fh

            monkeypatch.setattr(fiq.cli.os, "fdopen", fdopen_full)
        out = tmp_path / "out"
        code = run_cli(["sample", "--model", json.dumps(MIXED_MODEL), "--depth", "8",
                        "--samples", "50", "--seed", "3"], out)
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list(out.iterdir()) == []


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
        doc = json.loads((tmp_path / "report.json").read_text())
        info = doc["info_report"]
        assert len(info["block_entropies"]) == 1
        assert info["entropy_rate_estimate"] == info["block_entropies"][0]
        assert doc["config"]["blocks"] == len(info["block_entropies"])

    def test_rerun_is_byte_identical(self, tmp_path, model_file):
        args = ["measure", "--model", model_file, "--depth", "6",
                "--samples", "3000", "--seed", "11"]
        run_cli(args, tmp_path / "a")
        run_cli(args, tmp_path / "b")
        run_cli([*args, "--threads", "4"], tmp_path / "c")
        a = (tmp_path / "a/report.json").read_bytes()
        assert a == (tmp_path / "b/report.json").read_bytes()
        assert a == (tmp_path / "c/report.json").read_bytes()


    def test_peak_memory_does_not_grow_with_samples(self, tmp_path, model_file):
        # the whole sample's bits and int64 codes would add 24 B a row: 43 MB from N = 2e5 to 2e6
        def peak(n):
            tracemalloc.start()
            try:
                assert run_cli(["measure", "--model", model_file, "--depth", "16", "--samples", str(n),
                                "--seed", "1", "--blocks", "12"], tmp_path / str(n)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200_000), peak(2_000_000)
        assert abs(large - small) < 1 << 20  # 1 MiB: the counts and one batch, whatever N is
        assert large < 24 * 200_000  # below the bits and codes of the smaller sample


class TestOneThread:
    @pytest.mark.parametrize("command,outputs", [
        (["sample", "--model", json.dumps(MIXED_MODEL), "--depth", "9", "--samples", "1001"], ["samples.csv"]),
        (["measure", "--model", json.dumps(MAJORITY_MODEL), "--depth", "9", "--samples", "1001", "--mi-csv"],
         ["report.json", "mi_matrix.csv"]),
        (["arith", "--mode", "sample", "--model", json.dumps(MAJORITY_MODEL), "--constant", "3",
          "--depth", "9", "--samples", "1001"], ["arith.json"]),
        (["experiment", "majority", "--preset", "k3"], ["verdict.json", "marginals.csv", "adjacent_joint.csv"]),
    ], ids=["sample", "measure", "arith", "experiment"])
    def test_no_thread_is_started(self, tmp_path, monkeypatch, command, outputs):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 1 << 10)  # every command samples in many chunks
        for threads in ("1", "4"):
            assert run_cli([*command, "--seed", "4", "--threads", threads], tmp_path / threads) == 0
        for name in outputs:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "4" / name).read_bytes()

    def test_import_loads_no_thread_pool(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, fiq.cli; assert 'concurrent.futures' not in sys.modules"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestChunkSize:
    @pytest.mark.parametrize("command,outputs", [
        (["sample", "--model", json.dumps(MIXED_MODEL)], ["samples.csv"]),
        (["measure", "--model", json.dumps(MAJORITY_MODEL), "--mi-csv"], ["report.json", "mi_matrix.csv"]),
        (["arith", "--mode", "sample", "--model", json.dumps(MAJORITY_MODEL), "--constant", "3"], ["arith.json"]),
    ], ids=["sample", "measure", "arith"])
    # batches of 16 chunks, of one, and of three: 1001 rows end in a partial batch
    @pytest.mark.parametrize("batch_chunks", [16, 1, 3])
    def test_chunk_size_does_not_change_output(self, tmp_path, monkeypatch, command, outputs, batch_chunks):
        args = [*command, "--depth", "9", "--samples", "1001", "--seed", "4"]
        assert run_cli(args, tmp_path / "one") == 0  # 1001 rows fit in one chunk
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 64)  # 5 or 7 rows per chunk
        monkeypatch.setattr(fiq.models, "SAMPLE_BATCH_CHUNKS", batch_chunks)
        assert run_cli(args, tmp_path / "many") == 0
        for name in outputs:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "many" / name).read_bytes()


class TestArith:
    def test_exact_distribution(self, tmp_path):
        code = run_cli(["arith", "--model", json.dumps(BIASED_MODEL),
                        "--constant", "3", "--depth", "4"], tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "arith.json").read_text())
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

    @pytest.mark.parametrize("doc_seed,argv_seed,model_seed", [
        (5, [], 5), (None, [], 0), (5, ["--seed", "7"], 7)])
    def test_exact_mode_keeps_the_document_seed(self, tmp_path, doc_seed, argv_seed, model_seed):
        model = {**MAJORITY_MODEL, **({} if doc_seed is None else {"seed": doc_seed})}
        code = run_cli(["arith", "--model", json.dumps(model), "--constant", "3", "--depth", "3", *argv_seed],
                       tmp_path)
        assert code == 0
        config = json.loads((tmp_path / "arith.json").read_text())["config"]
        assert config["model"]["seed"] == model_seed
        assert config["seed"] == (int(argv_seed[1]) if argv_seed else None)

    def test_sample_mode_still_needs_seed_with_a_document_seed(self, tmp_path, capsys):
        code = run_cli(["arith", "--mode", "sample", "--model", json.dumps({**MAJORITY_MODEL, "seed": 5}),
                        "--constant", "3", "--depth", "3"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "fiq: error: --seed is required in sample mode\n"
        assert not (tmp_path / "arith.json").exists()

    def test_invalid_rational_exits_2(self, tmp_path, capsys):
        code = run_cli(["arith", "--model", json.dumps(BIASED_MODEL),
                        "--constant", "3/0", "--depth", "4"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "fiq: error: zero denominator in rational '3/0'\n"
        assert not (tmp_path / "arith.json").exists()

    @pytest.mark.parametrize("constant", ["1", "2"])
    def test_exact_mode_on_majority_model(self, tmp_path, constant):
        # at c = 1 and 2 each entry keeps all of its prefix's bits, so its prob is one window-joint cell
        depth = 6
        code = run_cli(["arith", "--mode", "exact", "--model", json.dumps(MAJORITY_MODEL),
                        "--constant", constant, "--depth", str(depth)], tmp_path)
        assert code == 0
        entries = json.loads((tmp_path / "arith.json").read_text())["digits_distribution"]
        got = {tuple(int(b) for b in (str(e["int"]) + e["frac"])[-depth:]): e["prob"] for e in entries}
        joint = exact_window_joint(3, Fraction(1, 2), range(1, depth + 1))
        assert len(got) == len(entries)
        assert got == {bits: format_rational(p) for bits, p in joint.items() if p}

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
        ({"type": "independent", "pv": {"prefix": ["3/4"], "tial": "unspecified"}}, "tail"),
        ({"type": "independent", "pv": {"prefix": ["3/4"]}}, "tail"),
        ({"type": "independent", "pv": {"tail": "half"}}, "prefix"),
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
        ({"type": "independent", "pv": {"prefix": 3, "tail": "half"}}, "prefix"),
        ({"type": "majority", "k": 3, "stream": None}, "stream"),
        ({"type": "independent", "pv": {"prefix": [None], "tail": "half"}}, "prefix"),
        ({"type": "independent", "pv": {"prefix": ["3/4", [1, 2]], "tail": "half"}}, "prefix"),
        ({"type": "majority", "k": 3.5}, "k"),
        ({"type": "majority", "k": True}, "k"),
        ({"type": "majority", "k": 3, "kk": 5}, "kk"),
        ({"type": "majority", "k": 3, "pv": {"prefix": []}}, "pv"),
        ({"type": "independent", "pv": {"prefix": []}, "bias": "1/3"}, "bias"),
        ({"type": "independent", "pv": {"prefix": ["3/4"], "tail": "half", "bias": "1/3"}}, "bias"),
        ({"type": "independent", "pv": {"prefix": ["3/4"], "tail": "quarter"}}, "tail"),
        ({"type": "independent", "pv": {"prefix": ["3/4"], "tail": [1]}}, "tail"),
        ({"type": "independent", "pv": {"prefix": [0.1], "tail": "half"}}, "prefix"),
        ({"type": "independent", "pv": {"prefix": [True], "tail": "half"}}, "prefix"),
        ({"type": "majority", "k": 3, "bias": None}, "bias"),
        ({"type": "majority", "k": 3, "bias": 0.5}, "bias"),
        ({"type": "majority", "k": 3, "bias": "1/x"}, "bias"),
        ({"type": "majority", "k": 3, "bias": "2"}, "bias"),
        ({"type": "majority", "k": 3, "bias": "-1/2"}, "bias"),
        ({"type": "majority", "k": "3"}, "k"),
        ({"type": "majority", "k": "3", "stream": "2"}, "stream"),
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
        ("depth", 0),
        ("depth", -1),
        ("samples", 1000.5),
        ("sigam", 0.001),
        ("name", None),
        ("name", 3),
        ("constant", 0.5),
        ("constant", 3),
        ("constant", None),
        ("constant", "3/0"),
        ("samples", 0),
        ("samples", -5),
        ("constant", "-3"),
        ("constant", "0"),
        ("depth", "16"),
        ("samples", "1000"),
        ("sigma", "3"),
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
        monkeypatch.setattr(fiq.arithmetic, "sample_batches", no_sampling)
        code = run_cli(["arith", "--mode", "sample", "--model", json.dumps(MAJORITY_MODEL),
                        "--constant", "3", "--depth", "21", "--samples", "1000", "--seed", "1"],
                       tmp_path)
        assert code == 2
        assert "depth 21 exceeds exact enumeration bound 20" in capsys.readouterr().err
        assert not (tmp_path / "arith.json").exists()

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    @pytest.mark.parametrize("depth", ["-1", "0"])
    def test_arith_negative_depth_exits_2(self, tmp_path, capsys, monkeypatch, mode, depth):
        def no_work(*args, **kwargs):
            raise AssertionError("read the model before --depth was checked")

        monkeypatch.setattr(fiq.cli, "model_from_json", no_work)
        model = {"type": "independent", "pv": {"prefix": ["3/4"], "tail": "half"}}
        code = run_cli(["arith", "--mode", mode, "--model", json.dumps(model), "--constant", "3",
                        "--depth", depth, "--seed", "1"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"fiq: error: --depth must be >= 1, got {depth}\n"
        assert not (tmp_path / "arith.json").exists()

    @pytest.mark.parametrize("model,depth,message", [
        (MAJORITY_MODEL, "21", "depth 21 exceeds exact enumeration bound 20"),
        ({"type": "majority", "k": 23}, "3", "enumeration needs 25 source bits, bound is 24"),
        (UNSPECIFIED_TAIL_MODEL, "12", "depth 12 exceeds prefix length 1 with unspecified tail"),
        (UNSPECIFIED_TAIL_MODEL, "21", "depth 21 exceeds exact enumeration bound 20"),
    ])
    def test_arith_exact_invalid_model_exits_2(self, tmp_path, capsys, model, depth, message):
        # the depth bound is checked first, then the model's enumeration span or unspecified tail
        code = run_cli(["arith", "--mode", "exact", "--model", json.dumps(model), "--constant", "3",
                        "--depth", depth], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"fiq: error: {message}\n"
        assert not (tmp_path / "arith.json").exists()

    def test_units_spec_unspecified_tail_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the unspecified tail was checked")

        monkeypatch.setattr(fiq.experiments, "sample_batches", no_sampling)
        monkeypatch.setattr(fiq.arithmetic, "sample_batches", no_sampling)
        spec = {"name": "units:unspecified-tail", "model": UNSPECIFIED_TAIL_MODEL,
                "depth": 12, "samples": 1000, "constant": "3"}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli(["experiment", "units", "--spec", str(spec_path), "--seed", "1"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            "fiq: error: depth 12 exceeds prefix length 1 with unspecified tail\n")
        assert not (tmp_path / "verdict.json").exists()

    @pytest.mark.parametrize("kind,preset", [("units", "uniform-x3-control"),
                                             ("units-majority", "k3-x3")])
    def test_spec_negative_depth_exits_2(self, tmp_path, capsys, kind, preset):
        from fiq.experiments import preset_spec

        spec = {**preset_spec(kind, preset, seed=2).to_json(), "depth": -1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli(["experiment", kind, "--spec", str(spec_path), "--seed", "2"], tmp_path)
        assert code == 2
        assert "experiment spec field 'depth' must be >= 1, got -1" in capsys.readouterr().err
        assert not (tmp_path / "verdict.json").exists()

    @pytest.mark.parametrize("field,value", [("depth", 1), ("bias", "0"), ("bias", "1")])
    def test_majority_study_degenerate_spec_exits_2(self, tmp_path, capsys, field, value):
        from fiq.experiments import preset_spec

        spec = preset_spec("majority", "k3", seed=2).to_json()
        (spec["model"] if field == "bias" else spec)[field] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli(["experiment", "majority", "--spec", str(spec_path), "--seed", "2"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert repr(field) in err and len(err.splitlines()) == 1
        assert not (tmp_path / "verdict.json").exists()

    @pytest.mark.parametrize("command,output", [
        (["sample", "--model", json.dumps(MAJORITY_MODEL), "--depth", "4", "--samples", "5"], "samples.csv"),
        (["measure", "--model", json.dumps(MAJORITY_MODEL), "--depth", "4", "--samples", "500"], "report.json"),
        (["arith", "--mode", "exact", "--model", json.dumps(MAJORITY_MODEL), "--constant", "3",
          "--depth", "4"], "arith.json"),
        (["arith", "--mode", "sample", "--model", json.dumps(MAJORITY_MODEL), "--constant", "3",
          "--depth", "4", "--samples", "5"], "arith.json"),
        (["experiment", "units", "--preset", "biased-x3"], "verdict.json"),
    ])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, monkeypatch, command, output, threads):
        def no_work(*args, **kwargs):
            raise AssertionError("read the model before --threads was checked")

        monkeypatch.setattr(fiq.cli, "model_from_json", no_work)
        monkeypatch.setattr(fiq.cli, "preset_spec", no_work)
        code = run_cli([*command, "--seed", "1", "--threads", threads], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"fiq: error: --threads must be >= 1, got {threads}\n"
        assert not (tmp_path / output).exists()

    @pytest.mark.parametrize("blocks", ["0", "-3"])
    def test_blocks_below_one_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch, blocks):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before --blocks was checked")

        monkeypatch.setattr(fiq.cli, "sample_batches", no_sampling)
        code = run_cli(["measure", "--model", json.dumps(MAJORITY_MODEL), "--depth", "4",
                        "--samples", "500", "--seed", "1", "--blocks", blocks], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"fiq: error: --blocks must be >= 1, got {blocks}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command,output", [
        (["sample"], "samples.csv"),
        (["measure"], "report.json"),
        (["arith", "--mode", "sample", "--constant", "3"], "arith.json"),
    ])
    @pytest.mark.parametrize("depth,samples,message", [
        ("0", "500", "--depth must be >= 1, got 0"),
        ("4", "0", "--samples must be >= 1, got 0"),
        ("4", "-5", "--samples must be >= 1, got -5"),
        ("0", "0", "--depth must be >= 1, got 0"),
    ])
    def test_depth_and_samples_below_one_exit_2_before_sampling(
            self, tmp_path, capsys, monkeypatch, command, output, depth, samples, message):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before --depth and --samples were checked")

        monkeypatch.setattr(fiq.cli, "sample_matrix", no_sampling)
        monkeypatch.setattr(fiq.cli, "sample_batches", no_sampling)
        monkeypatch.setattr(fiq.arithmetic, "sample_batches", no_sampling)
        code = run_cli([*command, "--model", json.dumps(MAJORITY_MODEL), "--depth", depth,
                        "--samples", samples, "--seed", "1"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"fiq: error: {message}\n"
        assert not (tmp_path / output).exists()

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_arith_sample_checks_samples_before_any_work(self, tmp_path, capsys, monkeypatch, samples):
        def no_work(*args, **kwargs):
            raise AssertionError("built the digit table before --samples was checked")

        monkeypatch.setattr(fiq.cli, "scaled_digit_table", no_work)
        monkeypatch.setattr(fiq.cli, "model_from_json", no_work)
        code = run_cli(["arith", "--mode", "sample", "--model", json.dumps(MAJORITY_MODEL), "--constant", "3",
                        "--depth", "20", "--samples", samples, "--seed", "1"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"fiq: error: --samples must be >= 1, got {samples}\n"
        assert not (tmp_path / "arith.json").exists()

    def test_measure_too_few_samples_for_mi_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before --samples was checked against the MI minimum")

        monkeypatch.setattr(fiq.cli, "sample_batches", no_sampling)
        code = run_cli(["measure", "--model", json.dumps(MAJORITY_MODEL), "--depth", "4",
                        "--samples", "99", "--seed", "1"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            "fiq: error: --samples must be >= 100 for pairwise MI when --depth > 1, got 99\n")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("depth,samples", [("1", "50"), ("4", "100")])
    def test_measure_runs_at_the_mi_minimum_and_without_pairs(self, tmp_path, depth, samples):
        code = run_cli(["measure", "--model", json.dumps(MAJORITY_MODEL), "--depth", depth,
                        "--samples", samples, "--seed", "1"], tmp_path)
        assert code == 0
        assert json.loads((tmp_path / "report.json").read_text())["config"]["samples"] == int(samples)

    @pytest.mark.parametrize("message", ["Unable to allocate 3.64 TiB for an array", ""])
    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch, message):
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(fiq.cli, "sample_matrix", out_of_memory)
        code = run_cli(["sample", "--model", json.dumps(MAJORITY_MODEL), "--depth", "4",
                        "--samples", "1000", "--seed", "1"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"fiq: error: {message or 'MemoryError'}\n"
        assert not (tmp_path / "samples.csv").exists()

    def test_unallocatable_file_exits_2(self, tmp_path, capsys):
        # 8 TB of CSV: the file's buffer cannot be allocated, so nothing is sampled or written
        code = run_cli(["sample", "--model", json.dumps(MAJORITY_MODEL), "--depth", "4",
                        "--samples", "1000000000000", "--seed", "1"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("fiq: error: Unable to allocate ") and err.count("\n") == 1 and err.endswith("\n")
        assert not (tmp_path / "samples.csv").exists()

    def test_model_file_not_an_object_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text("[3]")
        code = run_cli(["sample", "--model", str(model_path), "--depth", "4",
                        "--samples", "5", "--seed", "1"], tmp_path)
        assert code == 2
        assert "must be a JSON object" in capsys.readouterr().err


class TestOneLineErrors:
    """Every malformed invocation exits 2 with one stderr line ``fiq: error: <reason>``."""

    SAMPLE_ARGV = ["sample", "--model", json.dumps(MAJORITY_MODEL), "--depth", "4", "--samples", "5"]
    ARITH_ARGV = ["arith", "--model", json.dumps(MAJORITY_MODEL), "--depth", "4"]

    @pytest.mark.parametrize("argv,reason", [
        ([*SAMPLE_ARGV, "--seed", "x"], "seed must be a 64-bit unsigned integer, got 'x'"),
        ([*SAMPLE_ARGV, "--seed", "-1"], "seed must be a 64-bit unsigned integer, got '-1'"),
        ([*SAMPLE_ARGV, "--seed", str(1 << 64)], f"seed must be a 64-bit unsigned integer, got '{1 << 64}'"),
        ([*SAMPLE_ARGV, "--seed", "1_0"], "seed must be a 64-bit unsigned integer, got '1_0'"),
        ([*SAMPLE_ARGV, "--seed", "\u0661"], "seed must be a 64-bit unsigned integer, got '\u0661'"),
        ([*SAMPLE_ARGV, "--seed", " 1"], "seed must be a 64-bit unsigned integer, got ' 1'"),
        ([*SAMPLE_ARGV, "--seed", "9" * 5000], "seed must be a 64-bit unsigned integer, got '999"),
        (["experiment", "units", "--preset", "biased-x3", "--seed", "1_0"],
         "seed must be a 64-bit unsigned integer, got '1_0'"),
        ([*SAMPLE_ARGV, "--seed", "1", "--stream", "-1"], "stream must be a 64-bit unsigned integer, got '-1'"),
        ([*SAMPLE_ARGV, "--seed", "1", "--stream", str(1 << 64)],
         f"stream must be a 64-bit unsigned integer, got '{1 << 64}'"),
        ([*SAMPLE_ARGV, "--seed", "1", "--stream", "1_0"], "stream must be a 64-bit unsigned integer, got '1_0'"),
        (["sample", "--depth", "4", "--samples", "5", "--seed", "1"],
         "the following arguments are required: --model"),
        ([], "the following arguments are required: command"),
        ([*ARITH_ARGV, "--constant", "3/0"], "zero denominator in rational '3/0'"),
        ([*ARITH_ARGV, "--constant", "abc"], "malformed rational 'abc'"),
    ], ids=["seed-x", "seed-negative", "seed-2^64", "seed-underscore", "seed-arabic-indic-digit",
            "seed-leading-space", "seed-5000-digits", "experiment-seed-underscore", "stream-negative",
            "stream-2^64", "stream-underscore", "missing-model", "no-subcommand",
            "constant-zero-denominator", "constant-malformed"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, argv, reason):
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.rstrip("\n")] and err.startswith("fiq: error: ")
        assert reason in err
        for leak in ("usage:", "_seed_arg", "_u64_arg", "stream_id", "parse_rational"):
            assert leak not in err
        assert list(tmp_path.iterdir()) == []


class TestDocumentSeedRange:
    """A model's or spec's own seed and stream are range-checked even when a flag overrides them."""

    @pytest.mark.parametrize("fields,message", [
        ({"seed": 1 << 64, "stream": -2}, f"model field 'seed' must be a 64-bit unsigned integer, got {1 << 64}"),
        ({"seed": -1}, "model field 'seed' must be a 64-bit unsigned integer, got -1"),
        ({"stream": -2}, "model field 'stream' must be a 64-bit unsigned integer, got -2"),
        ({"stream": 1 << 64}, f"model field 'stream' must be a 64-bit unsigned integer, got {1 << 64}"),
    ])
    def test_overridden_model_fields_exit_2(self, tmp_path, capsys, fields, message):
        model = {**MAJORITY_MODEL, **fields}
        code = run_cli(["sample", "--model", json.dumps(model), "--seed", "1", "--stream", "0",
                        "--depth", "2", "--samples", "2"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"fiq: error: {message}\n"
        assert not (tmp_path / "samples.csv").exists()

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_overridden_spec_seed_exits_2(self, tmp_path, capsys, seed):
        spec = {"name": "majority:k3", "model": MAJORITY_MODEL, "depth": 4, "samples": 1000, "seed": seed}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli(["experiment", "majority", "--spec", str(spec_path), "--seed", "1"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"fiq: error: experiment spec field 'seed' must be a 64-bit unsigned integer, got {seed}\n")
        assert not (tmp_path / "verdict.json").exists()

    def test_largest_seed_and_stream_run(self, tmp_path):
        top = (1 << 64) - 1
        model = {**MAJORITY_MODEL, "seed": top, "stream": top - 1}
        assert run_cli(["sample", "--model", json.dumps(model), "--seed", "1", "--stream", "0",
                        "--depth", "2", "--samples", "2"], tmp_path) == 0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, model_file):
        proc = subprocess.run(
            [sys.executable, "-m", "fiq.cli", "sample", "--model", model_file,
             "--depth", "4", "--samples", "5", "--seed", "1", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "samples.csv").exists()

import json
import math
from dataclasses import asdict, replace
from fractions import Fraction

import pytest

import fiq.arithmetic
import fiq.experiments
import fiq.models
from fiq.errors import EnumerationBoundError
from fiq.experiments import (
    PRESETS,
    ExperimentSpec,
    _RecordingSource,
    consumed_source_indices,
    preset_spec,
    run_majority_study,
    run_units_critique,
    run_units_on_majority,
)
from fiq.models import IndependentBitsModel, MajorityVoteModel, count_rows, sample_batches, sample_matrix
from fiq.propensity import PropensityVector
from fiq.randombits import RandomBitSource


def small(spec, samples=5000, depth=None):
    kwargs = {"samples": samples}
    if depth is not None:
        kwargs["depth"] = depth
    return replace(spec, **kwargs)


class TestUnitsCritique:
    def test_biased_times_three_passes(self):
        verdict = run_units_critique(small(preset_spec("units", "biased-x3", seed=1)))
        assert verdict.passed
        exact_claim = verdict.claims[0]
        assert exact_claim.exact_value > 0

    def test_uniform_control_all_independent(self):
        # full preset size: the all-pairs noise-floor check needs the
        # noise floor the presets were calibrated for
        verdict = run_units_critique(preset_spec("units", "uniform-x3-control", seed=1))
        assert verdict.passed
        assert verdict.claims[0].exact_value == 0.0

    def test_power_of_two_is_a_shift_control(self):
        verdict = run_units_critique(
            preset_spec("units", "biased-half-shift-control", seed=1))
        assert verdict.passed
        assert verdict.claims[0].exact_value == 0.0

    def test_rejects_majority_model(self):
        spec = preset_spec("majority", "k3", seed=1)
        spec = replace(spec, constant=Fraction(3))
        with pytest.raises(ValueError):
            run_units_critique(spec)

    def test_rejects_missing_constant(self):
        spec = preset_spec("units", "biased-x3", seed=1)
        with pytest.raises(ValueError):
            run_units_critique(replace(spec, constant=None))


class TestMajorityStudy:
    def test_k3_all_claims(self):
        verdict = run_majority_study(preset_spec("majority", "k3", seed=1))
        assert verdict.passed
        assert len(verdict.claims) == 4
        adjacent = verdict.claims[1]
        assert adjacent.exact_value == pytest.approx(0.75 * math.log2(3) - 1, abs=1e-12)

    def test_k1_degenerates_to_iid(self):
        verdict = run_majority_study(small(preset_spec("majority", "k1-control", seed=1),
                                           samples=20_000, depth=8))
        assert verdict.passed

    def test_k5(self):
        verdict = run_majority_study(small(preset_spec("majority", "k5", seed=1),
                                           samples=20_000, depth=12))
        assert verdict.passed

    def test_meta_marginal_and_cell_bounds(self):
        # a single 3-sigma bounded quantity holds in >= 99% of re-seeded runs
        hits_marginal = 0
        hits_cell = 0
        runs = 100
        n = 2000
        p = 0.375
        for seed in range(runs):
            from fiq.models import sample_matrix

            model = MajorityVoteModel(k=3, source=RandomBitSource(seed=seed))
            s = sample_matrix(model, 2, n)
            f1 = s[:, 0].mean()
            if abs(f1 - 0.5) <= 3 * math.sqrt(0.25 / n):
                hits_marginal += 1
            f00 = ((s[:, 0] == 0) & (s[:, 1] == 0)).mean()
            if abs(f00 - p) <= 3 * math.sqrt(p * (1 - p) / n):
                hits_cell += 1
        assert hits_marginal >= 99
        assert hits_cell >= 99

    def test_disjoint_mi_false_positive_rate(self):
        # the noise floor is 3x the chi-square null mean, so roughly 8% of
        # independent pairs land above it; check the realized rate is in a
        # band around that rather than pretending it is rare
        from fiq.estimators import mi_noise_floor, pairwise_mi

        exceed = 0
        runs = 100
        for seed in range(runs):
            model = MajorityVoteModel(k=3, source=RandomBitSource(seed=seed))
            s = count_rows(sample_batches(model, 5, 2000), 5, model.stationary, 0)
            if pairwise_mi(s, 0, 4) > mi_noise_floor(2000):
                exceed += 1
        assert exceed <= 20

    @pytest.mark.parametrize("k,depth", [(23, 26), (25, 20)])
    def test_enumeration_bound_checked_before_any_work(self, monkeypatch, k, depth):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the enumeration bound was checked")

        monkeypatch.setattr(fiq.experiments, "sample_batches", no_work)
        monkeypatch.setattr(fiq.experiments, "exact_window_joint", no_work)
        spec = ExperimentSpec.from_json({"name": "wide", "model": {"type": "majority", "k": k},
                                         "depth": depth, "samples": 1000}, seed=1)
        with pytest.raises(EnumerationBoundError):
            run_majority_study(spec)


class TestConsumedIndices:
    def test_majority_consumes_window_union(self):
        for k in (1, 3, 5):
            model = MajorityVoteModel(k=k, source=RandomBitSource(seed=2))
            for d in (1, 4, 9):
                assert consumed_source_indices(model, d) == set(range(1, d + k))

    def test_k11_spec_model_at_every_depth(self):
        # the benchmark's k=11 spec: majority k=11, depth 16; claim (iv) asks at every depth up to it
        model = MajorityVoteModel(k=11, source=RandomBitSource(seed=1))
        for d in range(1, 17):
            assert consumed_source_indices(model, d) == set(range(1, d + 11))

    def test_independent_consumes_one_per_bit(self):
        model = IndependentBitsModel(pv=PropensityVector([]),
                                     source=RandomBitSource(seed=2))
        assert consumed_source_indices(model, 7) == set(range(1, 8))

    @pytest.mark.parametrize("model,depth", [
        (MajorityVoteModel(k=5, source=RandomBitSource(seed=2, stream_id=3)), 9),
        (IndependentBitsModel(pv=PropensityVector([]), source=RandomBitSource(seed=2)), 7),
    ])
    def test_chunks_with_a_work_buffer_request_the_same_indices(self, monkeypatch, model, depth):
        # every sample_matrix chunk hands its source the one work buffer; the requests and bits are unchanged
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 4 * model.generating_bits(depth))
        recorder = _RecordingSource(**asdict(model.source))
        bits = sample_matrix(replace(model, source=recorder), depth, 10)
        assert recorder.requests == [(1, model.generating_bits(depth))] * 3
        assert bits.tolist() == sample_matrix(model, depth, 10).tolist()
        assert consumed_source_indices(model, depth) == set(range(1, model.generating_bits(depth) + 1))


class TestUnitsOnMajority:
    def test_k3_times_three_sound(self):
        verdict = run_units_on_majority(preset_spec("units-majority", "k3-x3", seed=1))
        assert verdict.passed
        assert "candidate_measures" in verdict.tables
        assert "output_digit_mi" in verdict.tables

    def test_identity_constant_reproduces_input_bits(self):
        spec = preset_spec("units-majority", "k3-x1-identity", seed=1)
        spec = replace(spec, samples=2000, depth=8)
        verdict = run_units_on_majority(spec)
        assert verdict.passed
        # with c=1 the output digits are exactly the input bits, so the
        # candidate measures coincide between stages up to sampling depth
        stages = {row["stage"]: row for row in verdict.tables["candidate_measures"]}
        assert set(stages) == {"input", "output"}

    def test_depth_bound_checked_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the depth bound was checked")

        monkeypatch.setattr(fiq.experiments, "sample_batches", no_sampling)
        spec = replace(preset_spec("units-majority", "k3-x3", seed=1), depth=21)
        with pytest.raises(EnumerationBoundError):
            run_units_on_majority(spec)

    def test_power_of_two_shift(self):
        spec = preset_spec("units-majority", "k3-x2-shift", seed=1)
        spec = replace(spec, samples=2000, depth=8)
        assert run_units_on_majority(spec).passed

    def test_report_claim_fails_without_output_stage(self):
        # at depth 2 no output digit pair is determined, so only the input
        # stage can be reported
        spec = replace(preset_spec("units-majority", "k3-x3", seed=1), samples=2000, depth=2)
        verdict = run_units_on_majority(spec)
        claim = verdict.claims[-1]
        assert claim.statement == "correlation and candidate-measure reports emitted"
        assert [row["stage"] for row in verdict.tables["candidate_measures"]] == ["input"]
        assert not claim.passed and claim.estimate == 1.0 and claim.threshold == 1.0
        assert not verdict.passed


    @pytest.mark.parametrize("corrupt", [
        lambda cell, n: (cell ^ 1, n),           # the last fraction digit flipped
        lambda cell, n: (cell + (1 << n), n),    # the integer part one higher
        # one digit more than the interval determines: either value is wrong
        lambda cell, n: (2 * cell, n + 1),
        lambda cell, n: (2 * cell + 1, n + 1),
    ])
    def test_soundness_claim_fails_on_one_wrong_digit(self, monkeypatch, corrupt):
        spec = replace(preset_spec("units-majority", "k3-x3", seed=1), samples=2000, depth=6)
        assert run_units_on_majority(spec).claims[0].passed
        model = spec.model
        counts = count_rows(sample_batches(model, spec.depth, spec.samples), spec.depth, model.stationary,
                            spec.depth).first_window
        real = fiq.experiments.scaled_digit_table
        table = real(spec.constant, spec.depth)
        v = next(v for v, entry in enumerate(table) if counts[v] and entry is not None and entry[1])

        def one_wrong_entry(c, depth):
            wrong = real(c, depth)
            wrong[v] = corrupt(*wrong[v])
            return wrong

        monkeypatch.setattr(fiq.experiments, "scaled_digit_table", one_wrong_entry)
        claim = run_units_on_majority(spec).claims[0]
        assert claim.statement == "every emitted digit agrees with exact arithmetic on interior points"
        assert not claim.passed and claim.estimate == 1.0

class TestSpecSerialization:
    def test_round_trip(self):
        spec = preset_spec("units", "biased-x3", seed=5)
        doc = spec.to_json()
        back = ExperimentSpec.from_json(doc)
        assert back.to_json() == doc

    def test_seed_override(self):
        spec = preset_spec("majority", "k3", seed=5)
        back = ExperimentSpec.from_json(spec.to_json(), seed=9)
        assert back.seed == 9
        assert back.model.source.seed == 9

    def test_missing_seed_rejected(self):
        doc = preset_spec("majority", "k3", seed=5).to_json()
        del doc["seed"]
        del doc["model"]["seed"]
        with pytest.raises(ValueError):
            ExperimentSpec.from_json(doc)


class TestDeterminism:
    def test_identical_spec_identical_verdict(self):
        spec = small(preset_spec("majority", "k3", seed=31), samples=3000, depth=8)
        a = run_majority_study(spec).to_jsonable()
        b = run_majority_study(spec).to_jsonable()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_chunk_size_does_not_change_verdict(self, monkeypatch):
        spec = small(preset_spec("units", "biased-x3", seed=31), samples=3000)
        a = run_units_critique(spec).to_jsonable()
        monkeypatch.setattr(fiq.models, "SAMPLE_CHUNK_BITS", 1 << 10)  # 85 rows per chunk: 3000 rows in 36 chunks
        b = run_units_critique(spec).to_jsonable()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestDigitPairJoints:
    def test_excluded_mass_is_small_at_depth_12(self):
        from fiq.arithmetic import digit_pair_joints, leading_digits, scale_fiq_truncated

        model = IndependentBitsModel(pv=PropensityVector(["3/4", "3/4"]),
                                     source=RandomBitSource(seed=1))
        table, weights, denominator = scale_fiq_truncated(model, Fraction(3), 12)
        joints = digit_pair_joints(leading_digits(table, weights), denominator)
        for joint in joints.values():
            assert sum(joint.values()) > Fraction(99, 100)


class TestWorkCounts:
    """Digit tables and exact enumerations each runner builds, counted through wrappers."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"scaled_digit_table": 0, "scale_fiq_truncated": 0}
        for name in calls:
            real = getattr(fiq.arithmetic, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            # scale_fiq_truncated builds its table through the fiq.arithmetic binding
            for module in (fiq.arithmetic, fiq.experiments):
                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("preset", sorted(PRESETS["units"]))
    def test_units_critique_builds_one_table(self, calls, preset):
        run_units_critique(small(preset_spec("units", preset, seed=1), samples=2000))
        assert calls == {"scaled_digit_table": 1, "scale_fiq_truncated": 1}

    @pytest.mark.parametrize("preset", sorted(PRESETS["units-majority"]))
    def test_units_on_majority_builds_one_table(self, calls, preset):
        run_units_on_majority(small(preset_spec("units-majority", preset, seed=1), samples=2000))
        assert calls == {"scaled_digit_table": 1, "scale_fiq_truncated": 0}

"""Executable witnesses of the verdict defects listed under Known defects in ROADMAP.md.

Each test asserts the correct outcome and is a strict xfail: it fails today for
the reason given, and once its ROADMAP item lands it passes, which fails the
suite until the marker is removed.
"""

import pytest

from fiq.experiments import ExperimentSpec, preset_spec, run_majority_study, run_units_critique


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the units rule expects correlation for c = 6 with two 3/4-biased bits, "
    "but the exact law has every designated pair independent (every exact MI is 0)"))
def test_units_two_biased_bits_times_six_passes():
    spec = ExperimentSpec.from_json({
        "name": "units:two-biased-x6",
        "model": {"type": "independent", "pv": {"prefix": ["3/4", "3/4"], "tail": "half"}},
        "depth": 12, "samples": 100_000, "constant": "6",
    }, seed=1)
    verdict = run_units_critique(spec)
    assert verdict.passed, [c.statement for c in verdict.claims if not c.passed]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the marginal and distance-11 claims take a maximum over many z-scores "
    "and raise false alarms; the bench's k=11 spec fails both at seed 1"))
def test_majority_k11_spec_passes_at_seed_1():
    spec = ExperimentSpec.from_json({
        "name": "majority:k11-spec", "model": {"type": "majority", "k": 11},
        "depth": 16, "samples": 100_000,
    }, seed=1)
    verdict = run_majority_study(spec)
    assert verdict.passed, [c.statement for c in verdict.claims if not c.passed]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the cell claim takes the largest |z| over 24 cells against an uncorrected "
    "sigma; biased-yards-to-meters fails it at seed 2 with max z 3.38"))
def test_units_yards_to_meters_passes_at_seed_2():
    verdict = run_units_critique(preset_spec("units", "biased-yards-to-meters", seed=2))
    assert verdict.passed, [c.statement for c in verdict.claims if not c.passed]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: the depth-12 truncated law gives digit pair (1,4) of x3 an exact MI of "
    "1.8e-7 bits, but the truncation-free law has it independent"))
def test_units_times_three_pair_1_4_is_exactly_independent():
    verdict = run_units_critique(preset_spec("units", "biased-x3", seed=1))
    (row,) = [row for row in verdict.tables["digit_pair_mi"] if row["pair"] == "1-4"]
    assert row["exact_independent"], row

"""Every statistical claim can fail: the two claim checks at their boundaries, and one mutation per family.

The binomial-z family (``_z_claim``) and the MI noise-floor family
(``_mi_claim``) are the only statistical checks the runners make.  Each
mutation is injected by ``monkeypatch`` at a name the runner imports, and the
unmutated run passes first, so the flip is the mutation's doing.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

import fiq.experiments
from fiq.estimators import mi_noise_floor
from fiq.experiments import _mi_claim, _z_claim, preset_spec, run_majority_study, run_units_critique


class TestZClaim:
    CELLS = [(Fraction(3, 8), 400), (Fraction(5, 8), 600)]  # counts of N=1000, z = 0.025 / sqrt(15/64000)

    def test_z_exactly_sigma_passes_and_just_above_fails(self):
        z = _z_claim("cells", self.CELLS, 1000, 3.0).estimate
        assert z == pytest.approx(0.025 / math.sqrt(15 / 64000))
        assert _z_claim("cells", self.CELLS, 1000, z).passed
        assert not _z_claim("cells", self.CELLS, 1000, math.nextafter(z, 0.0)).passed

    def test_family_takes_the_largest_z(self):
        one = _z_claim("cells", self.CELLS[:1], 1000, 3.0).estimate
        both = _z_claim("cells", [*self.CELLS, (Fraction(1, 2), 500)], 1000, 3.0).estimate
        assert both == one > 0.0

    @pytest.mark.parametrize("cells", [
        [(Fraction(0), 1), (Fraction(1, 2), 500)],  # an exact-zero cell with one count
        [(Fraction(1), 999), (Fraction(0), 0)],     # an exact-one cell one short
    ])
    def test_exact_zero_or_one_cell_must_match_exactly(self, cells):
        claim = _z_claim("cells", cells, 1000, 3.0, exact_value=0.25)
        assert not claim.passed
        assert claim.estimate == 0.0 and claim.threshold == 3.0 and claim.exact_value == 0.25

    def test_exact_cells_that_match_pass_at_z_zero(self):
        claim = _z_claim("cells", [(Fraction(0), 0), (Fraction(1), 1000)], 1000, 3.0)
        assert claim.passed and claim.estimate == 0.0


class TestMiClaim:
    def test_mi_equal_to_the_floor_is_at_most_not_above(self):
        floor = mi_noise_floor(1000)
        assert floor == 3 / (2 * 1000 * math.log(2))
        at_most = _mi_claim("mi", floor, 1000, above=False)
        above = _mi_claim("mi", floor, 1000, above=True)
        assert at_most.passed and not above.passed
        assert at_most.threshold == above.threshold == floor == at_most.estimate

    def test_above_and_below_the_floor(self):
        floor = mi_noise_floor(1000)
        assert _mi_claim("mi", math.nextafter(floor, 1.0), 1000, above=True).passed
        assert not _mi_claim("mi", math.nextafter(floor, 1.0), 1000, above=False).passed

    @pytest.mark.parametrize("above,mi", [(False, 0.0), (True, 1.0)])
    def test_exact_ok_false_fails(self, above, mi):
        assert _mi_claim("mi", mi, 1000, above=above).passed
        claim = _mi_claim("mi", mi, 1000, above=above, exact_value=0.0, exact_ok=False)
        assert not claim.passed and claim.exact_value == 0.0


def claim(verdict, statement):
    return next(c for c in verdict.claims if c.statement == statement)


class TestRunnerMutations:
    def test_swapped_exact_digit_cells_fail_the_units_cell_claim(self, monkeypatch):
        statement = "Monte Carlo digit-pair cells agree with the exact joint"
        spec = replace(preset_spec("units", "biased-x3", seed=1), samples=20_000)
        assert claim(run_units_critique(spec), statement).passed
        real = fiq.experiments.digit_pair_joints

        def swapped(leading, denominator=None):
            joints = real(leading, denominator)
            if denominator is not None:  # the exact law: swap its least and most likely (1, 2) cells
                joint = joints[(1, 2)]
                low, high = min(joint, key=joint.get), max(joint, key=joint.get)
                assert joint[low] < joint[high]
                joint[low], joint[high] = joint[high], joint[low]
            return joints

        monkeypatch.setattr(fiq.experiments, "digit_pair_joints", swapped)
        mutated = claim(run_units_critique(spec), statement)
        assert not mutated.passed and mutated.estimate > mutated.threshold

    def test_perturbed_adjacent_joint_fails_the_majority_adjacent_claim(self, monkeypatch):
        statement = "adjacent-bit joint matches the exact enumeration (correlated)"
        spec = replace(preset_spec("majority", "k3", seed=1), samples=5000, depth=8)
        assert claim(run_majority_study(spec), statement).passed
        real = fiq.experiments.exact_window_joint

        def perturbed(k, bias, offsets):
            joint = real(k, bias, offsets)
            if list(offsets) == [1, 2]:  # more agreement, the same marginals
                shift = Fraction(1, 16)
                for cell in joint:
                    joint[cell] += shift if cell[0] == cell[1] else -shift
            return joint

        monkeypatch.setattr(fiq.experiments, "exact_window_joint", perturbed)
        verdict = run_majority_study(spec)
        assert not claim(verdict, statement).passed
        assert claim(verdict, "every bit marginal matches the exact window probability").passed

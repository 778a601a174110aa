"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Expected values come from independent oracles computed here: high-precision
closed forms (mpmath), integer-arithmetic digit expansion, and exhaustive
enumeration.  Monte Carlo checks run at pinned seeds with 3-sigma bounds.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np

from fiq.arithmetic import (
    digit_pair_joints,
    leading_digits,
    prefix_to_interval,
    prefix_values,
    scale_by_constant,
    determined_digits,
    scale_fiq_truncated,
)
from fiq.estimators import (
    correlated_info_from_dist,
    entropy_from_dist,
    entropy_rate,
    joint_is_independent,
    mi_from_joint,
    mi_noise_floor,
    pairwise_mi,
)
from fiq.experiments import consumed_source_indices
from fiq.models import (
    BitPrefix,
    IndependentBitsModel,
    MajorityVoteModel,
    exact_window_joint,
    sample_matrix,
)
from fiq.propensity import (
    PropensityVector,
    binary_entropy,
    information_content_independent,
)
from fiq.randombits import RandomBitSource

mpmath.mp.dps = 50

CONSTANTS = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3), Fraction(10),
             Fraction(1143, 1250)]


def report(number, title, budget_s):
    """Context manager printing one acceptance line per criterion."""

    class _Reporter:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.monotonic() - self.t0
            status = "PASS" if exc_type is None else "FAIL"
            print(f"\nACCEPTANCE {number} [{status}] {title} ({elapsed:.2f}s / budget {budget_s}s)")
            if exc_type is None:
                assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"
            return False

    return _Reporter()


def entropy_oracle(q: Fraction):
    if q == 0 or q == 1:
        return mpmath.mpf(0)
    qm = mpmath.mpf(q.numerator) / q.denominator
    return -(qm * mpmath.log(qm, 2) + (1 - qm) * mpmath.log(1 - qm, 2))


def test_criterion_1_entropy_kernel():
    with report(1, "entropy kernel matches high-precision oracle", 1.0):
        assert binary_entropy(Fraction(1, 2)) == 1.0
        assert binary_entropy(Fraction(0)) == 0.0
        assert binary_entropy(Fraction(1)) == 0.0
        rng = random.Random(20240817)
        for _ in range(1000):
            den = rng.randrange(1, 1_000_000)
            num = rng.randrange(0, den + 1)
            q = Fraction(num, den)
            assert abs(binary_entropy(q) - float(entropy_oracle(q))) < 1e-12


def test_criterion_2_independent_measure():
    with report(2, "independent measure equals term-by-term oracle", 1.0):
        rng = random.Random(99)
        for _ in range(100):
            m = rng.randrange(0, 33)
            entries = []
            for _ in range(m):
                den = rng.randrange(1, 1000)
                entries.append(Fraction(rng.randrange(0, den + 1), den))
            pv = PropensityVector(entries)
            oracle = math.fsum(float(1 - entropy_oracle(q)) for q in entries)
            got = information_content_independent(pv).bits
            assert abs(got - oracle) < 1e-12
            assert got >= 0.0
            if all(q == Fraction(1, 2) for q in entries):
                assert got == 0.0
            else:
                assert got > 0.0


def test_criterion_3_majority_statistics():
    with report(3, "majority-vote statistics: enumeration and Monte Carlo", 10.0):
        joint = exact_window_joint(3, Fraction(1, 2), [1, 2])
        assert joint[(0, 0)] + joint[(1, 1)] == Fraction(3, 4)
        mi_exact = mi_from_joint(joint)
        mi_closed = float(mpmath.mpf(3) / 4 * mpmath.log(3, 2) - 1)
        assert abs(mi_exact - mi_closed) < 1e-12

        n, d = 100_000, 16
        model = MajorityVoteModel(k=3, source=RandomBitSource(seed=1))
        s = sample_matrix(model, d, n)
        p_eq = (s.bits[:, 0] == s.bits[:, 1]).mean()
        assert abs(p_eq - 0.75) <= 3 * math.sqrt(0.75 * 0.25 / n)  # ~0.004
        for a in (0, 1):
            for b in (0, 1):
                p = float(joint[(a, b)])
                f = ((s.bits[:, 0] == a) & (s.bits[:, 1] == b)).mean()
                assert abs(f - p) <= 3 * math.sqrt(p * (1 - p) / n)
        for i, j in [(0, 3), (1, 4), (2, 5)]:
            assert joint_is_independent(exact_window_joint(3, Fraction(1, 2), [i + 1, j + 1]))
            assert pairwise_mi(s, i, j) <= mi_noise_floor(n)


def test_criterion_4_arithmetic_soundness():
    with report(4, "digit soundness, exhaustive to depth 10", 60.0):
        for c in CONSTANTS:
            cn, cd = c.numerator, c.denominator
            digit_map = {}
            for d in range(11):
                for v in range(1 << d):
                    x = prefix_to_interval(BitPrefix(tuple(
                        (v >> (d - 1 - i)) & 1 for i in range(d))))
                    dd = determined_digits(scale_by_constant(x, c))
                    digit_map[(d, v)] = dd
                    if dd.integer_part is None:
                        continue
                    # 100 interior points z_i = c*(v + (2i+1)/200)/2^d as
                    # exact integers over denominator cd*2^d*200
                    den = cd * (1 << d) * 200
                    n_frac = len(dd.fraction_bits)
                    for i in range(100):
                        num = cn * (200 * v + 2 * i + 1)
                        int_part, rem = divmod(num, den)
                        assert int_part == dd.integer_part
                        for expected_bit in dd.fraction_bits:
                            rem *= 2
                            bit, rem = divmod(rem, den)
                            assert bit == expected_bit
            # refinement never retracts a determined digit
            for d in range(10):
                for v in range(1 << d):
                    parent = digit_map[(d, v)]
                    if parent.integer_part is None:
                        continue
                    for child_v in (2 * v, 2 * v + 1):
                        child = digit_map[(d + 1, child_v)]
                        assert child.integer_part == parent.integer_part
                        assert child.fraction_bits[:len(parent.fraction_bits)] \
                            == parent.fraction_bits


def test_criterion_5_change_of_units_critique():
    with report(5, "change-of-units critique: exact MI > 0, Monte Carlo agrees", 60.0):
        n, depth = 100_000, 12
        model = IndependentBitsModel(pv=PropensityVector(["3/4", "3/4"]),
                                     source=RandomBitSource(seed=1))
        table, weights, denominator = scale_fiq_truncated(model, Fraction(3), depth)
        joints = digit_pair_joints(leading_digits(table, weights), denominator)
        assert any(not joint_is_independent(j) for j in joints.values())
        assert max(mi_from_joint(j) for j in joints.values()) > 0.0

        s = sample_matrix(model, depth, n)
        # per-prefix digits from the Fraction reference, not from the kernel under test
        table = [determined_digits(scale_by_constant(prefix_to_interval(BitPrefix(tuple(
                     (v >> (depth - 1 - i)) & 1 for i in range(depth)))), Fraction(3)))
                 for v in range(1 << depth)]
        counts = np.bincount(prefix_values(s), minlength=1 << depth)
        for (i, j), exact_joint in joints.items():
            emp = {}
            for v, c in enumerate(counts):
                if not c:
                    continue
                dd = table[v]
                if dd.integer_part is None or len(dd.fraction_bits) < j:
                    continue
                key = (dd.fraction_bits[i - 1], dd.fraction_bits[j - 1])
                emp[key] = emp.get(key, 0) + int(c)
            for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
                p = float(exact_joint.get(cell, Fraction(0)))
                f = emp.get(cell, 0) / n
                if p in (0.0, 1.0):
                    assert f == p
                else:
                    assert abs(f - p) <= 3 * math.sqrt(p * (1 - p) / n)

        # control: uniform quantity scaled by 3 stays digit-independent
        uniform = IndependentBitsModel(pv=PropensityVector([]),
                                       source=RandomBitSource(seed=1))
        utable, uweights, udenominator = scale_fiq_truncated(uniform, Fraction(3), depth)
        ujoints = digit_pair_joints(leading_digits(utable, uweights), udenominator)
        assert all(joint_is_independent(j) for j in ujoints.values())
        us = sample_matrix(uniform, depth, n)
        ucounts = np.bincount(prefix_values(us), minlength=1 << depth)
        floor = mi_noise_floor(n)
        for (i, j) in ujoints:
            emp = {}
            for v, c in enumerate(ucounts):
                if not c:
                    continue
                dd = table[v]
                if dd.integer_part is None or len(dd.fraction_bits) < j:
                    continue
                key = (dd.fraction_bits[i - 1], dd.fraction_bits[j - 1])
                emp[key] = emp.get(key, 0) + int(c)
            assert mi_from_joint(emp) <= floor


def test_criterion_6_finiteness_bookkeeping():
    with report(6, "generating-bit count d+k-1 matches instrumentation", 1.0):
        for k in (1, 3, 5, 7):
            model = MajorityVoteModel(k=k, source=RandomBitSource(seed=5))
            for d in range(1, 65):
                expected = d + k - 1
                assert model.generating_bits(d) == expected
                assert consumed_source_indices(model, d) == set(range(1, expected + 1))


def test_criterion_7_estimator_calibration():
    with report(7, "estimators reproduce closed forms; iid rate = 1", 30.0):
        # exact joints, no sampling
        adjacent = {(0, 0): Fraction(3, 8), (0, 1): Fraction(1, 8),
                    (1, 0): Fraction(1, 8), (1, 1): Fraction(3, 8)}
        h2_closed = float(-2 * (mpmath.mpf("0.375") * mpmath.log(mpmath.mpf("0.375"), 2)
                                + mpmath.mpf("0.125") * mpmath.log(mpmath.mpf("0.125"), 2)))
        mi_closed = float(mpmath.mpf(3) / 4 * mpmath.log(3, 2) - 1)
        assert abs(entropy_from_dist(adjacent) - h2_closed) < 1e-9
        assert abs(mi_from_joint(adjacent) - mi_closed) < 1e-9
        cm = correlated_info_from_dist(adjacent)
        assert abs(cm.per_bit_sum - 0.0) < 1e-9
        assert abs(cm.multi_information - (2 - h2_closed)) < 1e-9

        uniform3 = {(a, b, c): Fraction(1, 8)
                    for a in (0, 1) for b in (0, 1) for c in (0, 1)}
        assert abs(entropy_from_dist(uniform3) - 3.0) < 1e-9
        cm = correlated_info_from_dist(uniform3)
        assert abs(cm.per_bit_sum) < 1e-9 and abs(cm.multi_information) < 1e-9

        deterministic = {(1, 0, 1, 1): Fraction(1)}
        cm = correlated_info_from_dist(deterministic)
        assert abs(cm.per_bit_sum - 4.0) < 1e-9
        assert abs(cm.multi_information - 4.0) < 1e-9

        # sampled i.i.d. fair bits
        model = IndependentBitsModel(pv=PropensityVector([]),
                                     source=RandomBitSource(seed=17))
        s = sample_matrix(model, 16, 100_000)
        assert abs(entropy_rate(s, 8).rate - 1.0) <= 0.02


def run_cli(args, outdir):
    proc = subprocess.run(
        [sys.executable, "-m", "fiq.cli", *args, "--out", str(outdir)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_8_reproducibility(tmp_path):
    with report(8, "CLI runs are byte-identical across reruns and thread counts", 30.0):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"type": "majority", "k": 3, "bias": "1/2"}))

        measure = ["measure", "--model", str(model), "--depth", "12",
                   "--samples", "20000", "--seed", "7"]
        run_cli([*measure, "--threads", "1"], tmp_path / "m1")
        run_cli([*measure, "--threads", "1"], tmp_path / "m2")
        run_cli([*measure, "--threads", "4"], tmp_path / "m4")
        ref = (tmp_path / "m1/report.json").read_bytes()
        assert ref == (tmp_path / "m2/report.json").read_bytes()
        assert ref == (tmp_path / "m4/report.json").read_bytes()

        exp = ["experiment", "majority", "--preset", "k3", "--seed", "7"]
        run_cli([*exp, "--threads", "1"], tmp_path / "e1")
        run_cli([*exp, "--threads", "1"], tmp_path / "e2")
        run_cli([*exp, "--threads", "4"], tmp_path / "e4")
        for name in ("verdict.json", "marginals.csv", "adjacent_joint.csv"):
            ref = (tmp_path / "e1" / name).read_bytes()
            assert ref == (tmp_path / "e2" / name).read_bytes()
            assert ref == (tmp_path / "e4" / name).read_bytes()

        samp = ["sample", "--model", str(model), "--depth", "8",
                "--samples", "1000", "--seed", "7"]
        run_cli([*samp, "--threads", "1"], tmp_path / "s1")
        run_cli([*samp, "--threads", "4"], tmp_path / "s4")
        assert (tmp_path / "s1/samples.csv").read_bytes() \
            == (tmp_path / "s4/samples.csv").read_bytes()

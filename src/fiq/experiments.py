"""Canned, reproducible experiments with exact-enumeration oracles.

Three studies:

* units critique -- scaling an independent-bit quantity by a constant
  couples its output digits unless the constant is a power of two or the
  bits were fair to begin with.  The exact weighted enumeration of all
  truncated prefixes sits beside the Monte Carlo run as the oracle.
* majority study -- the majority-vote construction has fair marginals,
  correlated adjacent bits matching the window enumeration, and a finite
  generating-bit count at every depth.
* units on majority -- scaling a sampled majority-vote quantity emits only
  sound digits, with the candidate information measures reported before and
  after.

Every claim in a verdict carries an exact oracle value or an explicit
statistical bound, and an identical spec (seed included) reproduces the
identical verdict.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Mapping

from .arithmetic import (
    DIGIT_PAIR_POSITIONS,
    digit_pair_joints,
    leading_digits,
    scale_fiq_truncated,
    scaled_digit_table,
)
from .estimators import (
    correlated_info_content,
    correlated_info_from_dist,
    joint_is_independent,
    mi_from_joint,
    mi_noise_floor,
    pairwise_joint_counts,
)
from .jsonfields import json_float, json_int, json_rational, reject_unknown_fields, require_fields
from .models import (
    FiqModel,
    IndependentBitsModel,
    MajorityVoteModel,
    count_rows,
    enumeration_span,
    exact_window_joint,
    model_from_json,
    sample_batches,
    sample_matrix,
)
from .propensity import HALF
from .randombits import RandomBitSource, check_u64
from .rational import format_rational


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully serializable description of one experiment run."""

    name: str
    model: FiqModel
    depth: int
    samples: int
    constant: Fraction | None = None
    sigma: float = 3.0

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"experiment spec field 'sigma' must be positive and finite, got {self.sigma!r}")
        if self.depth < 1:
            raise ValueError(f"experiment spec field 'depth' must be >= 1, got {self.depth}")
        if self.samples < 1:
            raise ValueError(f"experiment spec field 'samples' must be >= 1, got {self.samples}")
        if self.constant is not None and self.constant <= 0:
            raise ValueError(f"experiment spec field 'constant' must be > 0, got {format_rational(self.constant)}")

    @property
    def seed(self) -> int:
        """The seed of the model's bit source; the spec keeps no copy of its own."""
        return self.model.source.seed

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "model": self.model.to_json(),
            "depth": self.depth,
            "samples": self.samples,
            "seed": self.seed,
            "sigma": self.sigma,
        }
        if self.constant is not None:
            doc["constant"] = format_rational(self.constant)
        return doc

    @classmethod
    def from_json(cls, data: Mapping, seed: int | None = None) -> "ExperimentSpec":
        require_fields(data, "experiment spec", "name", "model", "depth", "samples")
        reject_unknown_fields(data, "experiment spec",
                              "name", "model", "depth", "samples", "seed", "sigma", "constant")
        if not isinstance(data["name"], str):
            raise ValueError(f"experiment spec field 'name' must be a string, got {data['name']!r}")
        what = "experiment spec field 'seed'"
        doc_seed = check_u64(json_int(data["seed"], what), what) if "seed" in data else None
        return cls(
            name=data["name"],
            model=model_from_json(data["model"], seed=seed if seed is not None else doc_seed),
            depth=json_int(data["depth"], "experiment spec field 'depth'"),
            samples=json_int(data["samples"], "experiment spec field 'samples'"),
            constant=json_rational(data["constant"], "experiment spec field 'constant'")
            if "constant" in data else None,
            sigma=json_float(data.get("sigma", 3.0), "experiment spec field 'sigma'"),
        )


@dataclass(frozen=True)
class Claim:
    statement: str
    passed: bool
    exact_value: float | None = None
    estimate: float | None = None
    threshold: float | None = None

    def to_jsonable(self) -> dict:
        doc = asdict(self)
        doc["pass"] = doc.pop("passed")
        return doc


@dataclass
class ExperimentVerdict:
    name: str
    config: dict
    claims: list[Claim]
    tables: dict[str, list[dict]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_jsonable(self) -> dict:
        return {
            "experiment": self.name,
            "config": self.config,
            "claims": [c.to_jsonable() for c in self.claims],
            "pass": self.passed,
            "artifacts": [*(f"{name}.csv" for name in self.tables), "verdict.json"],
        }


def _is_power_of_two(c: Fraction) -> bool:
    n, d = c.numerator, c.denominator
    return n & (n - 1) == 0 and d & (d - 1) == 0


_BIT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _z_claim(statement: str, cells, n: int, sigma: float, exact_value: float | None = None) -> Claim:
    """The largest binomial z of count/n against its exact probability over a family of cells, at most sigma.

    ``cells`` holds (exact probability, count) pairs.  A cell of exact
    probability 0 or 1 has no z-score: its count must match exactly, or the
    claim fails whatever the z.
    """
    worst, exact_ok = 0.0, True
    for p, count in cells:
        p, f = float(p), count / n
        if p == 0.0 or p == 1.0:
            exact_ok = exact_ok and f == p
        else:
            worst = max(worst, abs(f - p) / math.sqrt(p * (1.0 - p) / n))
    return Claim(statement, passed=exact_ok and worst <= sigma,
                 exact_value=exact_value, estimate=worst, threshold=sigma)


def _mi_claim(statement: str, mi: float, n: int, above: bool,
              exact_value: float | None = None, exact_ok: bool = True) -> Claim:
    """An empirical MI above the noise floor 3/(2N ln 2), or at most it; ``exact_ok`` False fails it."""
    floor = mi_noise_floor(n)
    return Claim(statement, passed=exact_ok and (mi > floor if above else mi <= floor),
                 exact_value=exact_value, estimate=mi, threshold=floor)


def run_units_critique(spec: ExperimentSpec) -> ExperimentVerdict:
    """Change-of-units study on an independent-bit model.

    With at least one biased prefix bit and a constant that is not a power
    of two, exact enumeration must show correlated output digits; otherwise
    the run is a control and every designated pair must be exactly
    independent.  Monte Carlo must agree with the exact joint cell by cell.
    """
    model = spec.model
    if not isinstance(model, IndependentBitsModel):
        raise ValueError("units critique requires an independent-bit model")
    if spec.constant is None:
        raise ValueError("units critique requires a positive rational constant")
    c = spec.constant
    biased = any(q != HALF for q in model.pv.prefix)
    expect_correlation = biased and not _is_power_of_two(c)

    table, weights, denominator = scale_fiq_truncated(model, c, spec.depth)
    exact_joints = digit_pair_joints(leading_digits(table, weights), denominator)
    exact_mi = {pair: mi_from_joint(j) for pair, j in exact_joints.items()}
    exact_indep = {pair: joint_is_independent(j) for pair, j in exact_joints.items()}
    claims = [Claim(
        statement="exact enumeration: at least one designated digit pair is correlated"
        if expect_correlation else
        "exact enumeration: all designated digit pairs are independent (control)",
        passed=all(exact_indep.values()) != expect_correlation,
        exact_value=max(exact_mi.values()),
        threshold=0.0,
    )]

    sample = count_rows(sample_batches(model, spec.depth, spec.samples), spec.depth, model.stationary, spec.depth)
    count_joints = digit_pair_joints(leading_digits(table, sample.first_window.tolist()))

    claims.append(_z_claim(
        "Monte Carlo digit-pair cells agree with the exact joint",
        [(exact.get(cell, 0), count_joints[pair].get(cell, 0))
         for pair, exact in exact_joints.items() for cell in _BIT_PAIRS],
        spec.samples, spec.sigma,
    ))

    emp_mi = {pair: mi_from_joint(j) for pair, j in count_joints.items()}
    if expect_correlation:
        target = max(exact_mi, key=lambda p: exact_mi[p])
        claims.append(_mi_claim(f"empirical MI of pair {target} exceeds the noise floor",
                                emp_mi[target], spec.samples, above=True, exact_value=exact_mi[target]))
    else:
        claims.append(_mi_claim("empirical thresholded MI is zero for every designated pair (control)",
                                max(emp_mi.values()), spec.samples, above=False))

    tables = {
        "digit_pair_mi": [
            {
                "pair": f"{i}-{j}",
                "exact_mi_bits": exact_mi[(i, j)],
                "empirical_mi_bits": emp_mi[(i, j)],
                "exact_independent": exact_indep[(i, j)],
            }
            for (i, j) in exact_joints
        ],
    }
    return ExperimentVerdict(name=spec.name, config=spec.to_json(), claims=claims, tables=tables)


class _RecordingSource(RandomBitSource):
    """Bit source that records every (first, count) uniform request."""

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "requests", [])

    def uniforms(self, stream_ids, first, count, work=None):
        self.requests.append((first, count))
        return super().uniforms(stream_ids, first, count, work)


def consumed_source_indices(model: FiqModel, depth: int) -> set[int]:
    """Source bit indices requested by ``sample_matrix`` when it draws one row to ``depth``."""
    recorder = _RecordingSource(**asdict(model.source))
    sample_matrix(replace(model, source=recorder), depth, 1)
    consumed: set[int] = set()
    for first, count in recorder.requests:
        consumed.update(range(first, first + count))
    return consumed


def run_majority_study(spec: ExperimentSpec) -> ExperimentVerdict:
    """Marginals, adjacent-bit correlation and finiteness of the majority model."""
    model = spec.model
    if not isinstance(model, MajorityVoteModel):
        raise ValueError("majority study requires a majority-vote model")
    k = model.k
    bias = model.bias
    if spec.depth < 2:  # claim (ii) compares bits 1 and 2
        raise ValueError(f"experiment spec field 'depth' must be >= 2 for this study, got {spec.depth}")
    if not 0 < bias < 1:  # constant source bits leave every z-score undefined
        raise ValueError(f"model field 'bias' must be in (0, 1) for this study, got '{bias}'")
    enumeration_span(k, [1, 1 + k] if spec.depth > k + 1 else [1, 2])  # widest joint, before any work
    # read length 0: no claim reads a window
    sample = count_rows(sample_batches(model, spec.depth, spec.samples), spec.depth, model.stationary, 0)
    n = spec.samples
    claims: list[Claim] = []

    # (i) every marginal matches the exact window probability
    p1 = float(exact_window_joint(k, bias, [1])[(1,)])
    ones = sample.pair_counts.diagonal().tolist()
    claims.append(_z_claim("every bit marginal matches the exact window probability",
                           [(p1, count) for count in ones], n, spec.sigma, exact_value=p1))

    # (ii) adjacent-bit joint matches the exact enumeration
    adj_exact = exact_window_joint(k, bias, [1, 2])
    adj_counts = pairwise_joint_counts(sample, 0, 1)
    adj_mi_emp = mi_from_joint(adj_counts)
    cells = _z_claim("", [(adj_exact[cell], adj_counts[cell]) for cell in _BIT_PAIRS], n, spec.sigma)
    # correlated (k > 1): the cells agree and the MI clears the floor; i.i.d. (k = 1): exact and
    # empirical independence.  The claim keeps the MI estimate and the sigma threshold.
    mi = _mi_claim("", adj_mi_emp, n, above=k > 1, exact_ok=k > 1 or joint_is_independent(adj_exact))
    claims.append(Claim(
        statement="adjacent-bit joint matches the exact enumeration (correlated)" if k > 1 else
        "k=1 degenerates to i.i.d.: adjacent bits independent",
        passed=mi.passed and (cells.passed or k == 1),
        exact_value=mi_from_joint(adj_exact),
        estimate=adj_mi_emp,
        threshold=spec.sigma,
    ))

    # (iii) bits at distance >= k are exactly and empirically independent
    if spec.depth > k + 1:
        far_exact = exact_window_joint(k, bias, [1, 1 + k])
        claims.append(_mi_claim(f"bits at distance {k} are independent (disjoint windows)",
                                mi_from_joint(pairwise_joint_counts(sample, 0, k)), n, above=False,
                                exact_value=0.0, exact_ok=joint_is_independent(far_exact)))

    # (iv) finite generating-bit count at every depth, against instrumentation
    count_ok = True
    for d in range(1, spec.depth + 1):
        expected = d + k - 1
        if model.generating_bits(d) != expected:
            count_ok = False
        consumed = consumed_source_indices(model, d)
        if consumed != set(range(1, expected + 1)):
            count_ok = False
    claims.append(Claim(
        statement="generating-bit count is d+k-1 and matches consumed source indices",
        passed=count_ok,
        exact_value=float(spec.depth + k - 1),
        estimate=float(spec.depth + k - 1) if count_ok else -1.0,
        threshold=0.0,
    ))

    tables = {
        "marginals": [
            {"position": i + 1, "frequency": count / n, "exact": p1}
            for i, count in enumerate(ones)
        ],
        "adjacent_joint": [
            {"cell": f"{a}{b}", "exact": float(adj_exact[(a, b)]), "count": adj_counts[(a, b)]}
            for a in (0, 1) for b in (0, 1)
        ],
    }
    return ExperimentVerdict(name=spec.name, config=spec.to_json(), claims=claims, tables=tables)


def run_units_on_majority(spec: ExperimentSpec) -> ExperimentVerdict:
    """Scale sampled majority-vote quantities and audit every emitted digit.

    Soundness oracle: for each realized prefix, the whole scaled interval
    must lie, in exact integer arithmetic, inside the digit cell its table
    entry emits; any prefix that leaves its cell fails the run.  Candidate
    information measures are reported for the input bits and the output
    digits.
    """
    model = spec.model
    if not isinstance(model, MajorityVoteModel):
        raise ValueError("this study requires a majority-vote model")
    if spec.constant is None:
        raise ValueError("a positive rational constant is required")
    c = spec.constant
    table = scaled_digit_table(c, spec.depth)  # checks the depth bound before sampling
    sample = count_rows(sample_batches(model, spec.depth, spec.samples), spec.depth, model.stationary,
                        spec.depth)
    counts = sample.first_window.tolist()  # the first window at read length d is the prefix

    # soundness: the whole scaled interval of every realized prefix value lies
    # in its emitted digit cell, checked exactly from the table entry alone:
    # c [v, v + 1) / 2^d within [cell, cell + 1) / 2^n, n the emitted fraction digits
    p, q = c.numerator, c.denominator
    sound = True
    for v, count in enumerate(counts):
        if not count or table[v] is None:
            continue
        cell, n = table[v]
        if not ((cell * q) << spec.depth <= (p * v) << n
                and (p * (v + 1)) << n <= ((cell + 1) * q) << spec.depth):
            sound = False
    claims = [Claim(
        statement="every emitted digit agrees with exact arithmetic on interior points",
        passed=sound,
        exact_value=0.0,
        estimate=0.0 if sound else 1.0,
        threshold=0.0,
    )]

    # correlation structure and candidate measures before/after scaling
    d_in = min(spec.depth, 8)
    before = correlated_info_content(sample, d_in)
    leading = leading_digits(table, counts)
    count_joints = digit_pair_joints(leading)
    floor = mi_noise_floor(spec.samples)
    out_mi = {pair: mi_from_joint(j) for pair, j in count_joints.items()}
    tables = {
        "candidate_measures": [
            {"stage": "input", **asdict(before)},
        ],
        "output_digit_mi": [
            {"pair": f"{i}-{j}", "empirical_mi_bits": out_mi[(i, j)], "noise_floor": floor}
            for (i, j) in out_mi
        ],
    }
    # output-digit joint over all the designated positions: the keys that determine the last one
    out_counts = {key: w for key, w in leading.items() if len(key) == max(DIGIT_PAIR_POSITIONS)}
    if out_counts:
        after = correlated_info_from_dist(out_counts)
        tables["candidate_measures"].append({"stage": "output", **asdict(after)})

    stages = float(len(tables["candidate_measures"]))
    claims.append(Claim(
        statement="correlation and candidate-measure reports emitted",
        passed=stages > 1.0,  # both the input and the output stage
        estimate=stages,
        threshold=1.0,
    ))
    return ExperimentVerdict(name=spec.name, config=spec.to_json(), claims=claims, tables=tables)


# ---------------------------------------------------------------------------
# presets: spec documents of the --spec file shape, less the name and the seed

PRESETS: dict[str, dict[str, dict]] = {
    "units": {
        "biased-x3": {
            "model": {"type": "independent", "pv": {"prefix": ["3/4", "3/4"], "tail": "half"}},
            "depth": 12, "samples": 100_000, "constant": "3",
        },
        # three biased bits: with only two, 10*Q = 5*b1 + (2+1/2)*b2 + uniform
        # noise, which leaves the output digits exactly pairwise independent
        "biased-x10": {
            "model": {"type": "independent", "pv": {"prefix": ["3/4", "3/4", "3/4"], "tail": "half"}},
            "depth": 12, "samples": 100_000, "constant": "10",
        },
        "biased-yards-to-meters": {
            "model": {"type": "independent", "pv": {"prefix": ["3/4", "3/4"], "tail": "half"}},
            "depth": 12, "samples": 100_000, "constant": "1143/1250",
        },
        "uniform-x3-control": {
            "model": {"type": "independent", "pv": {"prefix": [], "tail": "half"}},
            "depth": 12, "samples": 100_000, "constant": "3",
        },
        "biased-half-shift-control": {
            "model": {"type": "independent", "pv": {"prefix": ["3/4"], "tail": "half"}},
            "depth": 12, "samples": 100_000, "constant": "1/2",
        },
    },
    "majority": {
        "k1-control": {"model": {"type": "majority", "k": 1}, "depth": 16, "samples": 100_000},
        "k3": {"model": {"type": "majority", "k": 3}, "depth": 16, "samples": 100_000},
        "k5": {"model": {"type": "majority", "k": 5}, "depth": 16, "samples": 100_000},
    },
    "units-majority": {
        "k3-x3": {"model": {"type": "majority", "k": 3},
                  "depth": 12, "samples": 10_000, "constant": "3"},
        "k3-x1-identity": {"model": {"type": "majority", "k": 3},
                           "depth": 12, "samples": 10_000, "constant": "1"},
        "k3-x2-shift": {"model": {"type": "majority", "k": 3},
                        "depth": 12, "samples": 10_000, "constant": "2"},
    },
}


def preset_spec(kind: str, name: str, seed: int) -> ExperimentSpec:
    """Build a named preset through ``ExperimentSpec.from_json``; the caller supplies the seed."""
    if kind not in PRESETS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    if name not in PRESETS[kind]:
        raise ValueError(f"unknown {kind} preset {name!r}; choose from {sorted(PRESETS[kind])}")
    return ExperimentSpec.from_json({"name": f"{kind}:{name}", **PRESETS[kind][name]}, seed=seed)


RUNNERS = {
    "units": run_units_critique,
    "majority": run_majority_study,
    "units-majority": run_units_on_majority,
}

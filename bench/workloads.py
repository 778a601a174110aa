"""The benchmark's workloads: fiq command sequences generated from a seed.

Each workload is a fixed list of CLI commands whose sizes are part of the
workload's definition.  The benchmark seed becomes every command's ``--seed``;
fiq sees nothing but the generated argv.  ``active`` names the traced
functions that must fire on the workload (see NOTES.md for the layer map).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

MAJORITY_K3 = json.dumps({"type": "majority", "k": 3})

# Biased explicit prefix with a fair tail; the only heavy user of the
# independent-bits sampling path.
SAMPLE_PROPENSITIES = ("3/4", "1/3", "3/4", "1/5", "3/4", "3/4", "2/3", "3/4")
SAMPLE_MODEL = json.dumps(
    {"type": "independent", "pv": {"prefix": list(SAMPLE_PROPENSITIES), "tail": "half"}}
)

PRESETS = (
    ("units", "biased-x3"),
    ("units", "biased-x10"),
    ("units", "biased-yards-to-meters"),
    ("units", "uniform-x3-control"),
    ("units", "biased-half-shift-control"),
    ("majority", "k1-control"),
    ("majority", "k3"),
    ("majority", "k5"),
    ("units-majority", "k3-x3"),
    ("units-majority", "k3-x1-identity"),
    ("units-majority", "k3-x2-shift"),
)

K11_SPEC = {
    "name": "majority:k11-spec",
    "model": {"type": "majority", "k": 11},
    "depth": 16,
    "samples": 100_000,
}


@dataclass(frozen=True)
class Command:
    """One fiq invocation; ``label`` is unique in its workload and names its output directory."""

    label: str
    argv: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def option(self, flag: str) -> str | None:
        """Value following ``flag`` in the argv, or None."""
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    active: frozenset[str]

    def commands(self, seed: int, input_dir: Path) -> list[Command]:
        """The workload's command sequence at ``seed``; input files go to ``input_dir``."""
        common = ("--seed", str(seed), "--threads", "1")
        if self.name == "measure":
            return [Command("measure", (
                "measure", "--model", MAJORITY_K3, "--depth", "16", "--samples", "1000000",
                "--blocks", "12", "--mi-csv", *common))]
        if self.name == "arith-sample":
            return [Command("arith", (
                "arith", "--mode", "sample", "--model", MAJORITY_K3, "--constant", "3",
                "--depth", "12", "--samples", "2000000", *common))]
        if self.name == "sample-csv":
            return [Command("sample", (
                "sample", "--model", SAMPLE_MODEL, "--depth", "24", "--samples", "200000",
                *common))]
        if self.name == "presets":
            cmds = [
                Command(f"{kind}-{preset}", ("experiment", kind, "--preset", preset, *common))
                for kind, preset in PRESETS
            ]
            spec_path = input_dir / "k11_spec.json"
            spec_path.write_text(json.dumps(K11_SPEC, sort_keys=True))
            cmds.append(Command("majority-k11-spec", (
                "experiment", "majority", "--spec", str(spec_path), *common)))
            return cmds
        raise ValueError(f"unknown workload {self.name!r}")


_SAMPLING = {"randombits.uniform64_grid", "models.sample_matrix", "cli.command", "cli.write"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "measure",
            "estimators do most of the work (block entropy, MI matrix); arithmetic is idle and output is tiny",
            frozenset(_SAMPLING | {
                "estimators.mi_matrix", "estimators.pairwise_mi", "estimators.block_entropy",
                "estimators.info_report", "estimators.correlation_report",
            }),
        ),
        Workload(
            "arith-sample",
            "bit source and majority sampling dominate; arithmetic is a table lookup and estimators are idle",
            frozenset(_SAMPLING | {"arithmetic.scaled_digit_table", "arithmetic.prefix_values"}),
        ),
        Workload(
            "sample-csv",
            "CLI row building and CSV writing dominate; the only write-heavy and independent-bits workload",
            frozenset(_SAMPLING),
        ),
        Workload(
            "presets",
            "all 11 presets plus a k=11 spec: experiment runners and exact enumeration, many short operations",
            frozenset(_SAMPLING | {
                "models.exact_window_joint", "arithmetic.scaled_digit_table",
                "arithmetic.scale_fiq_truncated", "arithmetic.prefix_values",
                "estimators.block_entropy", "estimators.correlated_info_content",
                "experiments.runner", "experiments.consumed_source_indices",
            }),
        ),
    )
}

"""The benchmark's tracer reaches what it names: every TRACED binding resolves, and the sampled prefix lookup
fires as ``arithmetic.prefix_values`` on the commands whose workloads require that span."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import fiq.arithmetic
import fiq.cli
import fiq.models

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import TRACED, Tracer  # noqa: E402

ARITH_SAMPLE = ["arith", "--mode", "sample", "--model", json.dumps({"type": "majority", "k": 3}), "--constant", "3",
                "--depth", "8", "--samples", "2000"]
UNITS = ["experiment", "units", "--preset", "uniform-x3-control"]


def test_every_traced_function_resolves():
    for _, module, attr in TRACED:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"


@pytest.mark.parametrize("argv", [ARITH_SAMPLE, UNITS], ids=["arith-sample", "units"])
def test_sampled_prefix_lookup_fires_as_arithmetic_prefix_values(tmp_path, argv):
    tracer = Tracer()
    with tracer.installed():
        assert fiq.cli.main([*argv, "--seed", "1", "--out", str(tmp_path)]) == 0
    values = tracer.values()
    assert values["arithmetic.prefix_values.calls"] >= 1
    assert values["models.sample_matrix.calls"] >= 1
    # the originals are back, and the arithmetic binding is the models function the sampling loop calls
    assert fiq.arithmetic.prefix_values is fiq.models.prefix_values
    assert fiq.models.prefix_values.__module__ == "fiq.models" and not hasattr(fiq.models.prefix_values, "__wrapped__")

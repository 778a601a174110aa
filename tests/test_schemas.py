"""The JSON schemas in docs/ describe what the code reads and writes."""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")
referencing = pytest.importorskip("referencing")

from fiq.cli import main  # noqa: E402
from fiq.experiments import PRESETS, preset_spec  # noqa: E402

DOCS = Path(__file__).resolve().parent.parent / "docs"
SCHEMAS = {path.name: json.loads(path.read_text()) for path in DOCS.glob("*.schema.json")}
REGISTRY = referencing.Registry().with_resources(
    (schema["$id"], referencing.Resource.from_contents(schema)) for schema in SCHEMAS.values()
)
PRESET_NAMES = [(kind, name) for kind, presets in PRESETS.items() for name in presets]
MAJORITY_MODEL = json.dumps({"type": "majority", "k": 3})
BIASED_MODEL = json.dumps({"type": "independent", "pv": {"prefix": ["3/4"], "tail": "half"}})


def validate(doc, schema_name):
    schema = SCHEMAS[schema_name]
    jsonschema.Draft202012Validator.check_schema(schema)
    jsonschema.Draft202012Validator(schema, registry=REGISTRY).validate(doc)


@pytest.mark.parametrize("kind,name", PRESET_NAMES)
def test_preset_documents_match_spec_schema(kind, name):
    validate({"name": f"{kind}:{name}", **PRESETS[kind][name]}, "experiment_spec.schema.json")
    validate(preset_spec(kind, name, seed=3).to_json(), "experiment_spec.schema.json")


def test_schema_rejects_a_malformed_model():
    with pytest.raises(jsonschema.ValidationError):
        validate({"type": "majority", "k": None}, "model.schema.json")


@pytest.mark.parametrize("model", [MAJORITY_MODEL, BIASED_MODEL], ids=["majority", "independent"])
def test_report_matches_schema(tmp_path, model):
    assert main(["measure", "--model", model, "--depth", "4", "--samples", "500",
                 "--blocks", "3", "--seed", "2", "--out", str(tmp_path)]) == 0
    validate(json.loads((tmp_path / "report.json").read_text()), "report.schema.json")


@pytest.mark.parametrize("mode", ["exact", "sample"])
def test_arith_matches_schema(tmp_path, mode):
    assert main(["arith", "--model", BIASED_MODEL, "--constant", "3", "--depth", "4",
                 "--mode", mode, "--samples", "500", "--seed", "2", "--out", str(tmp_path)]) == 0
    validate(json.loads((tmp_path / "arith.json").read_text()), "arith.schema.json")


@pytest.mark.parametrize("kind,name", [("units", "biased-half-shift-control"),
                                       ("majority", "k3"), ("units-majority", "k3-x1-identity")])
def test_verdict_matches_schema(tmp_path, kind, name):
    code = main(["experiment", kind, "--preset", name, "--seed", "2", "--out", str(tmp_path)])
    assert code in (0, 1)  # a verdict is written whether or not its claims pass
    validate(json.loads((tmp_path / "verdict.json").read_text()), "verdict.schema.json")


# A valid document per input schema branch, holding every integer or number field.
INPUT_DOCUMENTS = {
    "model.schema.json": [
        {"type": "independent", "pv": {"prefix": ["3/4"], "tail": "half"}, "seed": 1, "stream": 0},
        {"type": "majority", "k": 3, "seed": 1, "stream": 0},
    ],
    "experiment_spec.schema.json": [preset_spec("units", "uniform-x3-control", seed=2).to_json()],
}


def numeric_fields():
    """(schema, branch, field) for every integer or number property of the input schemas."""
    return [
        (name, i, key)
        for name in INPUT_DOCUMENTS
        for i, branch in enumerate(SCHEMAS[name].get("oneOf", [SCHEMAS[name]]))
        for key, prop in branch["properties"].items()
        if prop.get("type") in ("integer", "number")
    ]


def run_with_document(name, doc, tmp_path):
    if name == "model.schema.json":
        return main(["sample", "--model", json.dumps(doc), "--depth", "4", "--samples", "5",
                     "--seed", "1", "--out", str(tmp_path)])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    return main(["experiment", "units", "--spec", str(spec_path), "--seed", "2", "--out", str(tmp_path)])


@pytest.mark.parametrize("name,branch,field", numeric_fields())
def test_numeral_string_is_rejected_by_schema_and_fiq(tmp_path, capsys, name, branch, field):
    doc = INPUT_DOCUMENTS[name][branch]
    validate(doc, name)
    assert field in doc, f"the {name} document lacks {field!r}"
    bad = {**doc, field: str(doc[field])}
    with pytest.raises(jsonschema.ValidationError):
        validate(bad, name)
    assert run_with_document(name, bad, tmp_path) == 2
    err = capsys.readouterr().err
    assert repr(field) in err and len(err.splitlines()) == 1
    assert {path.name for path in tmp_path.iterdir()} <= {"spec.json"}  # nothing written


@pytest.mark.parametrize("name,branch,field",
                         [f for f in numeric_fields() if f[2] in ("seed", "stream")])
@pytest.mark.parametrize("value", [-1, 1 << 64])
def test_seed_and_stream_beyond_64_bits_are_rejected_by_schema_and_fiq(
        tmp_path, capsys, name, branch, field, value):
    doc = INPUT_DOCUMENTS[name][branch]
    validate({**doc, field: (1 << 64) - 1}, name)
    bad = {**doc, field: value}
    with pytest.raises(jsonschema.ValidationError):
        validate(bad, name)
    assert run_with_document(name, bad, tmp_path) == 2  # the document's seed is checked though --seed overrides it
    err = capsys.readouterr().err
    assert f"field {field!r} must be a 64-bit unsigned integer, got {value}" in err and len(err.splitlines()) == 1
    assert {path.name for path in tmp_path.iterdir()} <= {"spec.json"}  # nothing written

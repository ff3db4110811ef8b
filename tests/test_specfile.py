"""Model-file and instrument-file parsing and validation."""

import copy
import dataclasses
import json

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydiff import (
    BoxOrthant,
    BoxOrthantParams,
    FullSpace,
    ModelCoefficients,
    ModelSpec,
    Polynomial,
    Quadric,
    QuadricParams,
    Simplex,
    SimplexParams,
    SpecError,
    assemble_model,
    load_instrument,
    load_model_spec,
)
from polydiff.specfile import _compile, _schema_check, load_schema, parse_instrument, parse_model_spec
from polydiff.statespace import _PARAMS

from conftest import ball_params, json_mutants
from test_cli import DOCS as CLI_DOCS
from test_cli import FUZZ_INSTRUMENTS, FUZZ_POLYS


CIR_DOC = {
    "dimension": 1,
    "state_space": {"family": "box_orthant", "m": 0, "n": 1},
    "coefficients": {
        "kind": "family",
        "params": {
            "gamma": [], "alpha": [[0.0]], "phi": [1.0], "psi": [],
            "pi": [[0.0]], "beta": [0.5], "B": [[-0.5]],
        },
    },
    "pricing": {
        "p": {"dim": 1, "terms": [{"e": [0], "c": 1.0}, {"e": [1], "c": 1.0}]},
        "alpha_rate": 0.05,
        "degree": 4,
    },
}

SIMPLEX_DOC = {
    "dimension": 2,
    "state_space": {"family": "simplex"},
    "coefficients": {
        "kind": "family",
        "params": {
            "alpha": [[0.0, 1.0], [1.0, 0.0]],
            "beta": [0.5, 0.5],
            "B": [[-1.5, 0.5], [0.5, -1.5]],
        },
    },
}

RAW_DOC = {
    "dimension": 1,
    "state_space": {"family": "full"},
    "coefficients": {
        "kind": "raw",
        "a": [[{"dim": 1, "terms": [{"e": [0], "c": 1.0}]}]],
        "b": [{"dim": 1, "terms": []}],
    },
}

QUADRIC_DOC = {
    "dimension": 2,
    "state_space": {"family": "quadric", "Q": [[1.0, 0.0], [0.0, 1.0]]},
    "coefficients": {
        "kind": "family",
        "params": {
            "alpha": [[1.0, 0.0], [0.0, 1.0]],
            "beta": [0.0, 0.0],
            "B": [[-1.0, 0.0], [0.0, -1.0]],
        },
    },
}


class TestModelSpecParsing:
    def test_cir_document(self):
        spec = parse_model_spec(CIR_DOC)
        assert isinstance(spec, ModelSpec)
        assert spec.statespace.family == "box_orthant"
        assert isinstance(spec.params, BoxOrthantParams)
        assert spec.model.a[0][0] == Polynomial.variable(0, 1)
        assert spec.pricing.alpha_rate == 0.05
        assert spec.pricing.degree == 4
        assert spec.pricing.p == Polynomial.one(1) + Polynomial.variable(0, 1)

    def test_simplex_document(self):
        spec = parse_model_spec(SIMPLEX_DOC)
        assert isinstance(spec.params, SimplexParams)
        assert spec.statespace.dim == 2
        assert spec.pricing is None

    def test_quadric_document(self):
        spec = parse_model_spec(QUADRIC_DOC)
        assert isinstance(spec.params, QuadricParams)
        assert np.array_equal(spec.params.gamma, np.zeros((1, 1)))

    def test_raw_document(self):
        spec = parse_model_spec(RAW_DOC)
        assert spec.params is None
        assert spec.model.a[0][0] == Polynomial.one(1)
        assert spec.model.b[0].is_zero()

    def test_unknown_top_level_field(self):
        doc = copy.deepcopy(SIMPLEX_DOC)
        doc["flavor"] = "mild"
        with pytest.raises(SpecError, match="flavor"):
            parse_model_spec(doc)

    def test_missing_required_field(self):
        doc = copy.deepcopy(SIMPLEX_DOC)
        del doc["coefficients"]
        with pytest.raises(SpecError, match="coefficients"):
            parse_model_spec(doc)

    @pytest.mark.parametrize("base", [SIMPLEX_DOC, QUADRIC_DOC])
    @pytest.mark.parametrize("beta", [True, 0.5, None])
    def test_scalar_beta_is_a_spec_error(self, base, beta):
        # beta's length sets the dimension of the simplex and quadric families
        doc = copy.deepcopy(base)
        doc["coefficients"]["params"]["beta"] = beta
        with pytest.raises(SpecError, match="beta must be a vector"):
            parse_model_spec(doc)

    def test_unknown_family(self):
        doc = copy.deepcopy(SIMPLEX_DOC)
        doc["state_space"] = {"family": "torus"}
        with pytest.raises(SpecError):
            parse_model_spec(doc)

    def test_family_field_cross_checks(self):
        doc = copy.deepcopy(CIR_DOC)
        doc["state_space"]["m"] = 1  # m + n = 2 != dimension
        with pytest.raises(SpecError, match="does not match dimension"):
            parse_model_spec(doc)

        doc = copy.deepcopy(QUADRIC_DOC)
        doc["dimension"] = 3
        with pytest.raises(SpecError, match="does not match dimension"):
            parse_model_spec(doc)

        doc = copy.deepcopy(QUADRIC_DOC)
        del doc["state_space"]["Q"]
        with pytest.raises(SpecError, match="Q"):
            parse_model_spec(doc)

        doc = copy.deepcopy(SIMPLEX_DOC)
        doc["state_space"]["m"] = 1  # stray field for this family
        with pytest.raises(SpecError, match="unexpected"):
            parse_model_spec(doc)

    def test_unknown_param_field(self):
        doc = copy.deepcopy(SIMPLEX_DOC)
        doc["coefficients"]["params"]["phi"] = [1.0]
        with pytest.raises(SpecError, match="phi"):
            parse_model_spec(doc)

    def test_missing_param_field(self):
        doc = copy.deepcopy(SIMPLEX_DOC)
        del doc["coefficients"]["params"]["beta"]
        with pytest.raises(SpecError, match="beta"):
            parse_model_spec(doc)

    def test_bad_param_shape(self):
        doc = copy.deepcopy(SIMPLEX_DOC)
        doc["coefficients"]["params"]["beta"] = [0.5]
        with pytest.raises(SpecError, match="shape"):
            parse_model_spec(doc)

    def test_structural_param_violation(self):
        doc = copy.deepcopy(CIR_DOC)
        doc["coefficients"]["params"]["pi"] = [[1.0]]  # nonzero diagonal
        with pytest.raises(SpecError, match="pi"):
            parse_model_spec(doc)

    def test_raw_degree_violation(self):
        doc = copy.deepcopy(RAW_DOC)
        doc["coefficients"]["a"] = [[{"dim": 1, "terms": [{"e": [3], "c": 1.0}]}]]
        with pytest.raises(SpecError, match="degree"):
            parse_model_spec(doc)

    def test_raw_shape_violation(self):
        doc = copy.deepcopy(RAW_DOC)
        doc["coefficients"]["b"] = []
        with pytest.raises(SpecError):
            parse_model_spec(doc)

    def test_pricing_dimension_mismatch(self):
        doc = copy.deepcopy(CIR_DOC)
        doc["pricing"]["p"] = {"dim": 2, "terms": [{"e": [0, 0], "c": 1.0}]}
        with pytest.raises(SpecError, match="dimension"):
            parse_model_spec(doc)

    def test_negative_coefficient_term_exponent(self):
        doc = copy.deepcopy(RAW_DOC)
        doc["coefficients"]["a"] = [[{"dim": 1, "terms": [{"e": [-1], "c": 1.0}]}]]
        with pytest.raises(SpecError):
            parse_model_spec(doc)


# one state space of each family with parameters that fit it
FAMILY_EXAMPLES = [
    (Quadric(np.diag([1.0, -1.0]), orientation="outside"), ball_params(2)),
    (BoxOrthant(1, 1), BoxOrthantParams(m=1, n=1, gamma=[1.0], alpha=[[0.5]], phi=[1.0], psi=[[0.25]],
                                        pi=[[0.0]], beta=[0.5, 0.5], B=[[-1.0, 0.0], [0.0, -0.5]])),
    (Simplex(3), SimplexParams(alpha=np.ones((3, 3)) - np.eye(3), beta=[0.25] * 3, B=np.eye(3) / 4 - 0.5)),
    (FullSpace(2), ModelCoefficients([[Polynomial.one(2), Polynomial.zero(2)], [Polynomial.zero(2), Polynomial.one(2)]],
                                     [Polynomial.variable(1, 2), -Polynomial.variable(0, 2)])),
]


class TestFamilyTable:
    def test_examples_cover_the_table(self):
        assert {type(space): type(params) for space, params in FAMILY_EXAMPLES} == _PARAMS

    @pytest.mark.parametrize("space, params", FAMILY_EXAMPLES, ids=lambda v: type(v).__name__)
    def test_spec_dict_parses_back(self, space, params):
        if isinstance(params, ModelCoefficients):
            coefficients = {"kind": "raw", "a": [[p.to_json_dict() for p in row] for row in params.a],
                            "b": [p.to_json_dict() for p in params.b]}
        else:
            coefficients = {"kind": "family", "params": {f.name: np.asarray(getattr(params, f.name)).tolist()
                                                         for f in dataclasses.fields(params)
                                                         if f.name not in ("m", "n")}}
        # spec_dict() is the model file's state_space block as it is
        doc = {"dimension": space.dim, "state_space": space.spec_dict(), "coefficients": coefficients}
        spec = parse_model_spec(json.loads(json.dumps(doc)))
        assert type(spec.statespace) is type(space) and spec.statespace.dim == space.dim
        assert spec.statespace.spec_dict() == space.spec_dict()
        assert spec.model == assemble_model(space, params)
        if spec.params is not None:
            assert type(spec.params) is _PARAMS[type(space)]


class TestFileLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(CIR_DOC))
        spec = load_model_spec(str(path))
        assert spec.statespace.family == "box_orthant"
        assert spec.raw == CIR_DOC

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "dimension": 1,\n  oops\n}')
        with pytest.raises(SpecError, match=r"line 3 column 3"):
            load_model_spec(str(path))

    def test_missing_file(self):
        with pytest.raises(SpecError):
            load_model_spec("/nonexistent/model.json")


class TestInstrumentParsing:
    def test_bond(self):
        doc = {"kind": "bond", "x": [0.3], "t": 0.0, "T": 1.0}
        assert parse_instrument(doc) == doc

    def test_vswap(self):
        doc = {"kind": "vswap", "x": [0.3], "t": 0.0, "T": 2.0}
        assert parse_instrument(doc)["kind"] == "vswap"

    def test_swaption(self):
        doc = {"kind": "swaption", "x": [0.3], "expiry": 0.5,
               "coupons": [[1.0, 1.0], [-0.9, 2.0]], "n_paths": 500, "dt": 0.01}
        assert parse_instrument(doc)["coupons"][1] == [-0.9, 2.0]

    def test_equity_option(self):
        doc = {"kind": "equity_option", "x": [0.3, 0.7], "constituent": 0,
               "T": 0.5, "K": 1.0, "horizon": 2.0,
               "pricer": {"type": "lognormal", "spot": 1.0, "rate": 0.02, "vol": 0.3}}
        assert parse_instrument(doc)["pricer"]["vol"] == 0.3

    def test_table_pricer(self):
        doc = {"kind": "equity_option", "x": [0.3, 0.7], "constituent": 0,
               "T": 0.5, "K": 1.0, "horizon": 2.0,
               "pricer": {"type": "table", "strikes": [0.5, 1.0], "prices": [0.5, 0.1]}}
        parse_instrument(doc)

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            parse_instrument({"kind": "swap", "x": [0.3], "t": 0.0, "T": 1.0})

    def test_missing_fields(self):
        with pytest.raises(SpecError):
            parse_instrument({"kind": "bond", "x": [0.3], "t": 0.0})
        with pytest.raises(SpecError):
            parse_instrument({"kind": "swaption", "x": [0.3], "expiry": 0.5, "coupons": []})

    def test_stray_fields(self):
        with pytest.raises(SpecError):
            parse_instrument({"kind": "bond", "x": [0.3], "t": 0.0, "T": 1.0, "note": "hi"})

    def test_loads_from_file(self, tmp_path):
        path = tmp_path / "instr.json"
        path.write_text(json.dumps({"kind": "bond", "x": [0.2], "t": 0.0, "T": 1.0}))
        assert load_instrument(str(path))["T"] == 1.0


class TestSchemas:
    def test_shipped_schemas_load(self):
        for name in ("modelspec.schema.json", "instrument.schema.json", "reports.schema.json"):
            schema = load_schema(name)
            assert "$schema" in schema

    @pytest.mark.parametrize("name", ["modelspec.schema.json", "instrument.schema.json",
                                      "reports.schema.json"])
    def test_shipped_schema_passes_its_metaschema(self, name):
        # loading a spec validates the instance only, so the schemas are checked here
        schema = load_schema(name)
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_reports_schema_has_expected_defs(self):
        defs = load_schema("reports.schema.json")["$defs"]
        for key in ("validate_report", "moments_report", "simulate_summary",
                    "boundary_report", "price_report"):
            assert key in defs


# (schema file, $defs key, the valid documents whose mutants are checked)
COMPILED = {
    "model": ("modelspec.schema.json", None,
              [*CLI_DOCS.values(), CIR_DOC, SIMPLEX_DOC, RAW_DOC, QUADRIC_DOC]),
    "instrument": ("instrument.schema.json", None, [doc for _, doc in FUZZ_INSTRUMENTS.values()]),
    "polynomial": ("modelspec.schema.json", "polynomial", FUZZ_POLYS),
}


class TestCompiledSchemas:
    @pytest.mark.parametrize("kind", sorted(COMPILED))
    def test_shipped_schema_compiles_and_accepts_its_documents(self, kind):
        name, key, docs = COMPILED[kind]
        schema, is_valid = _schema_check(name, key)
        assert _schema_check(name, key)[1] is is_valid  # compiled once
        for doc in docs:
            assert jsonschema.Draft202012Validator(schema).is_valid(doc)
            assert is_valid(doc)

    @pytest.mark.parametrize("kind", sorted(COMPILED))
    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(data=st.data())
    def test_verdict_matches_jsonschema(self, kind, data):
        name, key, docs = COMPILED[kind]
        schema, is_valid = _schema_check(name, key)
        doc = data.draw(json_mutants(docs))
        assert is_valid(doc) == jsonschema.Draft202012Validator(schema).is_valid(doc)

    @pytest.mark.parametrize("value, valid", [
        (1, True), (1.0, True), (0, False), (True, False), (1.5, False),
        (float("nan"), False), ("1", False), (None, False)])
    def test_integer_minimum(self, value, valid):
        # a bool is not an integer, an integral float is, and NaN is no integer
        assert _compile({"type": "integer", "minimum": 1}, {})(value) is valid

    @pytest.mark.parametrize("value, valid", [
        (float("nan"), True), (float("inf"), True), (0.0, False), (-float("inf"), False),
        (False, True), ("x", True)])
    def test_exclusive_minimum_skips_other_types_and_passes_nan(self, value, valid):
        assert _compile({"exclusiveMinimum": 0}, {})(value) is valid

    def test_one_of_needs_exactly_one_match(self):
        is_valid = _compile({"oneOf": [{"type": "number"}, {"type": "integer"}]}, {})
        assert is_valid(1.5)
        assert not is_valid(2)
        assert not is_valid("2")

    @pytest.mark.parametrize("schema", [
        {"anyOf": [{"type": "number"}]},
        {"type": "string", "pattern": "^x"},
        {"properties": {"a": {"type": "string", "format": "date"}}},
        {"type": ["number", "null"]},
        {"type": "object", "additionalProperties": {"type": "number"}},
        {"enum": [1, 2]},
        {"$ref": "#/$defs/missing"},
        {"$ref": "other.json#/x"},
    ])
    def test_unsupported_keyword_raises(self, schema):
        with pytest.raises(ValueError, match="not supported"):
            _compile(schema, {})

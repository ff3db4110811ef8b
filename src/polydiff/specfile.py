"""Model and instrument spec files.

Both are JSON documents validated against the schemas shipped under
``polydiff/schemas``; parse failures raise SpecError with the offending
field path (or line/column for malformed JSON) so the CLI can report
actionable diagnostics and exit with the input-error code; a malformed
``state_space`` block too.  A family's ``params`` are the fields of its
parameter class in ``statespace._PARAMS``.

Each schema is compiled once into a plain-Python validity predicate that
mirrors Draft 2020-12 on the keywords the shipped schemas use.  A document
the predicate accepts is valid; only a rejected one goes to jsonschema,
which is imported then and words the error.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING, Callable

from .generator import ModelCoefficients
from .polynomial import Polynomial
from .statespace import _PARAMS, BoxOrthant, FullSpace, Quadric, Simplex, StateSpace, assemble_model

if TYPE_CHECKING:
    import jsonschema

__all__ = ["SpecError", "PricingBlock", "ModelSpec", "load_model_spec",
           "load_instrument", "load_schema", "parse_model_spec", "parse_instrument"]


class SpecError(ValueError):
    """A spec file failed to parse or validate."""


def load_schema(name: str) -> dict:
    """Read one of the shipped JSON schemas by file name."""
    text = resources.files("polydiff").joinpath("schemas", name).read_text()
    return json.loads(text)


_Check = Callable[[object], bool]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the Draft 2020-12 types as jsonschema checks them: a bool is neither an
# integer nor a number, and a float of integral value is an integer
_TYPES: dict[str, _Check] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _all_of(checks: list[_Check]) -> _Check:
    if len(checks) == 1:
        return checks[0]

    def check(v):
        for c in checks:
            if not c(v):
                return False
        return True
    return check


def _compile(schema: dict, defs: dict) -> _Check:
    """A predicate equal to Draft 2020-12 validity under ``schema``, with
    ``$ref`` resolved in ``defs``.  It covers exactly the keywords the
    shipped schemas use, each skipping instances of other types as the
    draft says, and raises ValueError on any other keyword, so an edit to a
    schema cannot drift silently from jsonschema, which words the errors."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema {schema!r} is not an object")
    checks: list[_Check] = []
    for key, value in schema.items():
        if key in ("$schema", "$id", "title", "$defs"):
            continue
        if key == "type" and isinstance(value, str) and value in _TYPES:
            checks.append(_TYPES[value])
        elif key == "required":
            checks.append(_required(frozenset(value)))
        elif key == "properties":
            checks.append(_properties({name: _compile(sub, defs) for name, sub in value.items()}))
        elif key == "additionalProperties" and value is False:
            checks.append(_no_additional(frozenset(schema.get("properties", ()))))
        elif key == "items":
            checks.append(_items(_compile(value, defs), len(schema.get("prefixItems", ()))))
        elif key == "prefixItems":
            checks.append(_prefix_items([_compile(sub, defs) for sub in value]))
        elif key in ("minItems", "maxItems") and isinstance(value, int):
            checks.append(_length(value, key == "minItems"))
        elif key in ("minimum", "exclusiveMinimum") and _is_number(value):
            checks.append(_lower_bound(value, key == "exclusiveMinimum"))
        elif key == "enum" and all(isinstance(option, str) for option in value):
            checks.append(_one_of_strings(tuple(value)))
        elif key == "const" and isinstance(value, str):
            checks.append(_one_of_strings((value,)))
        elif key == "oneOf":
            checks.append(_exactly_one([_compile(sub, defs) for sub in value]))
        elif key == "$ref" and isinstance(value, str) and value.startswith("#/$defs/") and value[8:] in defs:
            checks.append(_compile(defs[value[8:]], defs))
        else:
            raise ValueError(f"schema keyword {key!r} with value {value!r} is not supported")
    return _all_of(checks)


def _required(names: frozenset) -> _Check:
    return lambda v: not isinstance(v, dict) or v.keys() >= names


def _no_additional(names: frozenset) -> _Check:
    return lambda v: not isinstance(v, dict) or v.keys() <= names


def _properties(subs: dict[str, _Check]) -> _Check:
    def check(v):
        if isinstance(v, dict):
            for name, x in v.items():
                sub = subs.get(name)
                if sub is not None and not sub(x):
                    return False
        return True
    return check


def _items(item: _Check, start: int) -> _Check:
    return lambda v: not isinstance(v, list) or all(map(item, v[start:] if start else v))


def _prefix_items(firsts: list[_Check]) -> _Check:
    return lambda v: not isinstance(v, list) or all(f(x) for f, x in zip(firsts, v))


def _length(bound: int, at_least: bool) -> _Check:
    if at_least:
        return lambda v: not isinstance(v, list) or len(v) >= bound
    return lambda v: not isinstance(v, list) or len(v) <= bound


def _lower_bound(bound, exclusive: bool) -> _Check:
    # written as "not below" so that NaN passes, as it does in jsonschema
    if exclusive:
        return lambda v: not _is_number(v) or not v <= bound
    return lambda v: not _is_number(v) or not v < bound


def _one_of_strings(options: tuple[str, ...]) -> _Check:
    return lambda v: isinstance(v, str) and v in options


def _exactly_one(branches: list[_Check]) -> _Check:
    return lambda v: sum(b(v) for b in branches) == 1


@functools.lru_cache(maxsize=None)
def _schema_check(schema_name: str, defs_key: str | None) -> tuple[dict, _Check]:
    """A shipped schema, or its ``$defs[defs_key]``, with its compiled
    predicate; read and compiled once per process."""
    schema = load_schema(schema_name)
    if defs_key is not None:
        schema = {"$defs": schema["$defs"], **schema["$defs"][defs_key]}
    return schema, _compile(schema, schema.get("$defs", {}))


def _reported(error: jsonschema.ValidationError) -> str:
    """One line for a schema failure.  Inside a ``oneOf`` whose branches are
    told apart by a ``const`` property, report from the branch whose const
    matched, or, when none did, the const property with its allowed values;
    elsewhere, jsonschema's best match."""
    import jsonschema

    while error.validator == "oneOf" and error.context:
        branches: dict = {}
        for sub in error.context:
            branches.setdefault(sub.relative_schema_path[0], []).append(sub)
        consts = [sub for sub in error.context if sub.validator == "const"]
        matched = [subs for subs in branches.values() if not any(s.validator == "const" for s in subs)]
        if len(matched) == 1 and consts:
            error = max(matched[0], key=lambda sub: len(sub.path))
        elif not matched and len(consts) == len(branches) and len({c.json_path for c in consts}) == 1:
            allowed = [c.validator_value for c in consts]
            return f"{consts[0].json_path}: {consts[0].instance!r} is not one of {allowed!r}"
        else:
            break
    error = jsonschema.exceptions.best_match([error])
    return f"{error.json_path}: {error.message}"


def _validate_against(instance: dict, schema_name: str, defs_key: str | None = None):
    schema, is_valid = _schema_check(schema_name, defs_key)
    if is_valid(instance):
        return
    # only a rejected document needs jsonschema, to word the error; the
    # shipped schemas are checked against their metaschema by the tests
    import jsonschema

    validator = jsonschema.validators.validator_for(schema)(schema)
    error = max(validator.iter_errors(instance), key=jsonschema.exceptions.relevance, default=None)
    if error is not None:
        raise SpecError(_reported(error))


@dataclass(frozen=True)
class PricingBlock:
    p: Polynomial
    alpha_rate: float
    degree: int


@dataclass(frozen=True)
class ModelSpec:
    """A parsed model file: state space, coefficients, optional pricing block.

    ``params`` is None when the coefficients were given as raw polynomials.
    """

    statespace: StateSpace
    model: ModelCoefficients
    params: object | None
    pricing: PricingBlock | None
    raw: dict


# the state_space fields each family takes besides "family"
_STATE_SPACE_FIELDS = {"full": set(), "quadric": {"Q", "orientation"}, "box_orthant": {"m", "n"}, "simplex": set()}


def _build_statespace(doc: dict) -> StateSpace:
    ss = doc["state_space"]
    family = ss["family"]
    dim = int(doc["dimension"])  # the schema's integers include 2.0
    extra = set(ss) - {"family"} - _STATE_SPACE_FIELDS[family]
    if extra:
        raise SpecError(f"state_space: unexpected fields {sorted(extra)} for family '{family}'")
    if family == "quadric" and "Q" not in ss:
        raise SpecError("state_space.Q: required for family 'quadric'")
    if family == "box_orthant" and not ss.keys() >= {"m", "n"}:
        raise SpecError("state_space: family 'box_orthant' requires fields m and n")
    if family == "box_orthant" and int(ss["m"]) + int(ss["n"]) != dim:
        raise SpecError(f"state_space: m + n = {int(ss['m']) + int(ss['n'])} does not match dimension {dim}")
    try:
        if family == "quadric":
            space = Quadric(ss["Q"], orientation=ss.get("orientation", "inside"))
        elif family == "box_orthant":
            space = BoxOrthant(int(ss["m"]), int(ss["n"]))
        else:
            space = (FullSpace if family == "full" else Simplex)(dim)
    except ValueError as exc:
        raise SpecError(f"state_space: {exc}") from exc
    if space.dim != dim:  # only Q sets its own dimension
        raise SpecError(f"state_space.Q: {space.dim}x{space.dim} matrix does not match dimension {dim}")
    return space


def _build_params(space: StateSpace, doc: dict):
    """The family's parameters, fields as in its class; the box's m and n come from the space."""
    family, kind = space.family, _PARAMS[type(space)]
    if kind is ModelCoefficients:
        raise SpecError(f"coefficients: family '{family}' has no parameter form; use kind 'raw'")
    given = doc["coefficients"]["params"]
    shape = {"m": space.m, "n": space.n} if isinstance(space, BoxOrthant) else {}
    fields = [f for f in dataclasses.fields(kind) if f.name not in shape]
    unknown = set(given) - {f.name for f in fields}
    if unknown:
        raise SpecError(f"coefficients.params: unknown fields {sorted(unknown)} for family '{family}'")
    missing = [f.name for f in fields if f.name not in given and f.default is dataclasses.MISSING]
    if missing:
        raise SpecError(f"coefficients.params: missing field '{missing[0]}' for family '{family}'")
    try:
        return kind(**shape, **given)
    except (ValueError, TypeError) as exc:
        raise SpecError(f"coefficients.params: {exc}") from exc


def _build_raw(space: StateSpace, doc: dict) -> ModelCoefficients:
    co = doc["coefficients"]
    d = space.dim
    try:
        a = [[Polynomial.from_json_dict(entry) for entry in row] for row in co["a"]]
        b = [Polynomial.from_json_dict(entry) for entry in co["b"]]
    except ValueError as exc:
        raise SpecError(f"coefficients: {exc}") from exc
    if len(a) != d or any(len(row) != d for row in a):
        raise SpecError(f"coefficients.a: expected a {d}x{d} array of polynomials")
    if len(b) != d:
        raise SpecError(f"coefficients.b: expected {d} polynomials")
    try:
        return ModelCoefficients(a, b)
    except ValueError as exc:
        raise SpecError(f"coefficients: {exc}") from exc


def parse_model_spec(doc: dict) -> ModelSpec:
    _validate_against(doc, "modelspec.schema.json")
    space = _build_statespace(doc)
    if doc["coefficients"]["kind"] == "family":
        params = _build_params(space, doc)
        try:
            model = assemble_model(space, params)
        except ValueError as exc:
            raise SpecError(f"coefficients.params: {exc}") from exc
    else:
        params = None
        model = _build_raw(space, doc)
    pricing = None
    if "pricing" in doc:
        blk = doc["pricing"]
        try:
            p = Polynomial.from_json_dict(blk["p"])
        except ValueError as exc:
            raise SpecError(f"pricing.p: {exc}") from exc
        if p.dim != space.dim:
            raise SpecError(f"pricing.p: polynomial dimension {p.dim} does not match model dimension {space.dim}")
        pricing = PricingBlock(p=p, alpha_rate=float(blk["alpha_rate"]), degree=int(blk["degree"]))
    return ModelSpec(statespace=space, model=model, params=params, pricing=pricing, raw=doc)


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def load_model_spec(path: str) -> ModelSpec:
    return parse_model_spec(_read_json(path))


def _check_finite(value, where: str) -> None:
    """SpecError naming the first non-finite number inside value (JSON's
    NaN and Infinity tokens pass the schema's "number" type)."""
    if isinstance(value, dict):
        for k, v in value.items():
            _check_finite(v, f"{where}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _check_finite(v, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise SpecError(f"{where}: expected a finite number, got {value}")


# the schema's integers include integral floats such as 64.0; these are counts
_INSTRUMENT_INTEGERS = ("constituent", "grid_size", "cheb_degree", "n_paths")


def parse_instrument(doc: dict) -> dict:
    """The validated instrument, with its integer fields as ints; every
    number but the point x, which the caller checks against the model
    dimension, must be finite."""
    _validate_against(doc, "instrument.schema.json")
    for k, v in doc.items():
        if k != "x":
            _check_finite(v, f"instrument.{k}")
    return {**doc, **{k: int(doc[k]) for k in _INSTRUMENT_INTEGERS if k in doc}}


def load_instrument(path: str) -> dict:
    return parse_instrument(_read_json(path))

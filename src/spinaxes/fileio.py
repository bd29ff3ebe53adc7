"""Versioned JSON file formats and angle parsing for the command line.

All formats carry ``schema_version: 1`` and reject unknown fields so that
typos fail loudly.  Angles inside files are plain radians; command-line
arguments may also use "pi/2"-style fractions (see :func:`parse_angle`).

State files hold a density matrix in the ladder basis::

    {"schema_version": 1, "j_doubled": 2, "matrix": [[[re, im], ...], ...]}

and may carry the report fields ``min_eigenvalue``, ``physical`` and
``warnings`` that ``spinaxes t2rho --json`` adds; the loader ignores them.

Ensemble files hold aligned product-state mixtures::

    {"schema_version": 1, "n_qubits": 2,
     "terms": [{"weight": 0.25, "theta": 1.5707963, "phi": 0.0}, ...]}

Tensor files hold t^k_q tables and expansion files hold a^l_m tables, both
as explicit entry lists::

    {"schema_version": 1, "j_doubled": 2,
     "entries": [{"k": 0, "q": 0, "re": 1.0, "im": 0.0}, ...]}
    {"schema_version": 1, "l_max": 2,
     "coeffs": [{"l": 0, "m": 0, "re": 0.2820948, "im": 0.0}, ...]}
"""

from __future__ import annotations

import json
import math
import numbers
import re
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .halfint import HalfInt
from .pfunc import SphericalExpansion
from .symmetric import BlochVector, SeparableEnsemble
from .tensors import SpinDensityMatrix, TensorParams, _spin

SCHEMA_VERSION = 1
# What `spinaxes t2rho --json` reports beside the state; ignored on loading
_STATE_REPORT_FIELDS = frozenset({"min_eigenvalue", "physical", "warnings"})

_ANGLE_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?P<coef>\d+(?:\.\d*)?|\.\d+)?\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+(?:\.\d*)?))?\s*$",
    re.IGNORECASE,
)


def parse_angle(value) -> float:
    """Radians from a number, a numeric string, or a pi fraction.

    Accepts 0.75, "0.75", "pi", "pi/2", "3pi/4", "-2*pi/3" and similar.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, str):
        raise ValidationError(f"cannot read an angle from {value!r}")
    m = _ANGLE_RE.match(value)
    if m is None:
        try:
            return float(value)
        except ValueError:
            raise ValidationError(f"cannot read an angle from {value!r}") from None
    coef = float(m.group("coef")) if m.group("coef") else 1.0
    if m.group("sign") == "-":
        coef = -coef
    den = float(m.group("den")) if m.group("den") else 1.0
    if den == 0:
        raise ValidationError("zero denominator in angle fraction")
    return coef * math.pi / den


def _load_json(path) -> dict:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:  # ValueError holds undecodable bytes and integers past Python's digit limit too
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    return obj


def _check_fields(obj: dict, required: set, what: str, optional: frozenset = frozenset()) -> None:
    missing = required - set(obj)
    unknown = set(obj) - required - optional
    if missing:
        raise ValidationError(f"{what} is missing field(s): {', '.join(sorted(missing))}")
    if unknown:
        raise ValidationError(f"{what} has unknown field(s): {', '.join(sorted(unknown))}")
    if obj["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(f"{what} has schema_version {obj['schema_version']!r}, expected {SCHEMA_VERSION}")


def _as_number(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValidationError(f"{what} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{what} must be finite, got {v!r}")
    return x


def _as_int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {v!r}")
    return int(v)


def _entry_table(obj: dict, field: str, noun: str, a: str, b: str) -> dict:
    """{(a, b): re + i im} from obj[field], a list of objects with exactly the fields a, b, re, im."""
    entries = obj[field]
    if not isinstance(entries, list):
        raise ValidationError(f"{field} must be a list")
    table = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {a, b, "re", "im"}:
            raise ValidationError(f"{noun} {i} must have exactly the fields {a}, {b}, re, im")
        key = (_as_int(entry[a], a), _as_int(entry[b], b))
        if key in table:
            raise ValidationError(f"duplicate {noun} for {a} = {key[0]}, {b} = {key[1]}")
        table[key] = complex(_as_number(entry["re"], "re"), _as_number(entry["im"], "im"))
    return table


def detect_kind(path) -> str:
    """'state', 'ensemble', 'tensor', or 'expansion', from the fields present."""
    return _document(path)[0]


def _document(path) -> tuple[str, dict]:
    """The kind and parsed object of a file, read once: a pipe cannot be read twice."""
    obj = _load_json(path)
    for key, kind in (("matrix", "state"), ("terms", "ensemble"), ("entries", "tensor"), ("coeffs", "expansion")):
        if key in obj:
            return kind, obj
    raise ValidationError(f"{path} matches no known schema (need matrix, terms, entries, or coeffs)")


def load_state(path) -> SpinDensityMatrix:
    return _state_from(_load_json(path))


def _state_from(obj: dict) -> SpinDensityMatrix:
    _check_fields(obj, {"schema_version", "j_doubled", "matrix"}, "state file", _STATE_REPORT_FIELDS)
    j = _spin(HalfInt(_as_int(obj["j_doubled"], "j_doubled")))
    rows = obj["matrix"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValidationError("matrix must be a list of rows")
    dim = j.doubled + 1
    out = np.empty((dim, dim), dtype=complex)
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValidationError(f"matrix must be {dim}x{dim} for j_doubled = {j.doubled}")
    for a, row in enumerate(rows):
        for b, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise ValidationError(f"matrix entry ({a},{b}) must be an [re, im] pair")
            out[a, b] = complex(_as_number(cell[0], "re"), _as_number(cell[1], "im"))
    return SpinDensityMatrix(j, out)


def dump_state(rho: SpinDensityMatrix) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "j_doubled": rho.j.doubled,
        "matrix": [[[z.real, z.imag] for z in row] for row in rho.matrix],
    }


def load_ensemble(path) -> SeparableEnsemble:
    return _ensemble_from(_load_json(path))


def _ensemble_from(obj: dict) -> SeparableEnsemble:
    _check_fields(obj, {"schema_version", "n_qubits", "terms"}, "ensemble file")
    n = _as_int(obj["n_qubits"], "n_qubits")
    if not isinstance(obj["terms"], list):
        raise ValidationError("terms must be a list")
    terms = []
    for i, term in enumerate(obj["terms"]):
        if not isinstance(term, dict):
            raise ValidationError(f"term {i} must be an object")
        extra = set(term) - {"weight", "theta", "phi"}
        if extra:
            raise ValidationError(f"term {i} has unknown field(s): {', '.join(sorted(extra))}")
        try:
            w = _as_number(term["weight"], "weight")
            theta = _as_number(term["theta"], "theta")
            phi = _as_number(term["phi"], "phi")
        except KeyError as exc:
            raise ValidationError(f"term {i} is missing field {exc.args[0]!r}") from None
        terms.append((w, BlochVector(theta, phi)))
    return SeparableEnsemble(n, tuple(terms))


def load_tensor(path) -> TensorParams:
    return _tensor_from(_load_json(path))


def _tensor_from(obj: dict) -> TensorParams:
    _check_fields(obj, {"schema_version", "j_doubled", "entries"}, "tensor file")
    dj = _as_int(obj["j_doubled"], "j_doubled")
    return TensorParams.from_table(HalfInt(dj), _entry_table(obj, "entries", "entry", "k", "q"))


def dump_tensor(t: TensorParams) -> dict:
    entries = [{"k": k, "q": q, "re": z.real, "im": z.imag} for (k, q), z in t.table().items()]
    return {"schema_version": SCHEMA_VERSION, "j_doubled": t.j.doubled, "entries": entries}


def load_expansion(path) -> SphericalExpansion:
    obj = _load_json(path)
    _check_fields(obj, {"schema_version", "l_max", "coeffs"}, "expansion file")
    l_max = _as_int(obj["l_max"], "l_max")
    return SphericalExpansion.from_table(l_max, _entry_table(obj, "coeffs", "coefficient", "l", "m"))

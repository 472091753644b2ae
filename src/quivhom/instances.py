"""Loading and validating JSON instance files.

An instance file is a single JSON object:

  {
    "field": "q" | {"fp": p},
    "quiver": {"vertices": n, "arrows": [[tail, head], ...]},
    "mode": "vector" | "p1",
    "twists": per arrow: an integer dimension (vector mode)
              or a non-increasing list of line-bundle twists (p1 mode),
    "modules": {name: module, ...}
  }

Vector-mode modules are {"dims": [...], "phi": [matrix per arrow]} with
row-major matrices whose entries are strings ("3/2") over the rationals
and plain integers over prime fields.  P1-mode modules are
{"twists": [per-vertex twist lists], "phi": [form matrix per arrow]}
where each form entry is the coefficient list of a binary form (x^d
first) or null for the zero form, which an entry of negative degree must
be.  A loaded form is the tuple of its coefficients, () for null.  Unknown
keys are rejected and every shape constraint is re-validated on load.  Each
coefficient is checked once, as the matrix rows are built; a JSON path is
built only for the error that names it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

from .linalg import ExactMatrix, FieldSpec
from .quiver import Quiver
from .rep import TwistData, TwistedRep
from .sheaf import FormMatrix, QSheafP1, SplitBundle, tensor_bundles


# The largest dimension of a space ext, hyper and check may build (cli.MAX_DIM):
# over ten times the largest any test or benchmark instance reaches (2,373, a
# Cech T1).  The loader already rejects a tensor bundle M_a ⊗ V_ta of larger
# rank, before building it; the commands check their other sizes first.
MAX_DIM = 25_000


class InstanceError(Exception):
    """Validation failure, carrying the JSON path of the offending value."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


@dataclass
class Instance:
    field: FieldSpec
    quiver: Quiver
    mode: str
    modules: Dict[str, Union[TwistedRep, QSheafP1]]


def _require_object(value, keys, path: str) -> dict:
    if not isinstance(value, dict):
        raise InstanceError("expected an object", path)
    unknown = set(value) - set(keys)
    if unknown:
        raise InstanceError(f"unknown keys {sorted(unknown)}", path)
    missing = set(keys) - set(value)
    if missing:
        raise InstanceError(f"missing keys {sorted(missing)}", path)
    return value


def _require_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError("expected an integer", path)
    return value


def _require_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise InstanceError("expected a list", path)
    return value


def _parse_field(value, path: str) -> FieldSpec:
    if value == "q":
        return FieldSpec.rationals()
    if isinstance(value, dict):
        spec = _require_object(value, ["fp"], path)
        p = _require_int(spec["fp"], f"{path}.fp")
        try:
            return FieldSpec.prime(p)
        except ValueError as e:
            raise InstanceError(str(e), f"{path}.fp")
    raise InstanceError('expected "q" or {"fp": p}', path)


def _parse_quiver(value, path: str) -> Quiver:
    spec = _require_object(value, ["vertices", "arrows"], path)
    n = _require_int(spec["vertices"], f"{path}.vertices")
    arrows = _require_list(spec["arrows"], f"{path}.arrows")
    pairs = []
    for k, arrow in enumerate(arrows):
        apath = f"{path}.arrows[{k}]"
        arrow = _require_list(arrow, apath)
        if len(arrow) != 2:
            raise InstanceError("expected [tail, head]", apath)
        pairs.append((_require_int(arrow[0], apath), _require_int(arrow[1], apath)))
    try:
        return Quiver(n, pairs)
    except ValueError as e:
        raise InstanceError(str(e), path)


def _coefficients(field: FieldSpec, values: list, where) -> list:
    """The JSON values of one row or form, each checked once and brought into
    the field; where() is the row's JSON path, built only to raise.

    Fraction expands an exponent ("1e10000000") into a full integer, so a
    string whose expansion would have more digits than Python's limit for
    integer strings (its default, if switched off) is rejected first.
    """
    p = field.modulus
    if p is not None:
        if all(type(x) is int for x in values):     # the type of True is bool
            return [x % p for x in values]
        k = next(k for k, x in enumerate(values) if type(x) is not int)
        raise InstanceError("expected an integer", f"{where()}[{k}]")
    out = []
    for k, x in enumerate(values):
        if type(x) is not int and type(x) is not str:
            raise InstanceError("expected an integer or a fraction string", f"{where()}[{k}]")
        try:
            if type(x) is str:
                mantissa, e, exponent = x.lower().partition("e")
                limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
                if e and len(mantissa) + abs(int(exponent)) > limit:
                    raise ValueError
            out.append(Fraction(x))
        except (ValueError, ZeroDivisionError):
            raise InstanceError(f"not a rational number: {x!r}", f"{where()}[{k}]")
    return out


def _parse_matrix(field: FieldSpec, value, rows: int, cols: int, path: str) -> ExactMatrix:
    value = _require_list(value, path)
    if len(value) != rows:
        raise InstanceError(f"expected {rows} rows, got {len(value)}", path)
    out = []
    for r, row in enumerate(value):
        if type(row) is not list or len(row) != cols:     # the path is built only to raise
            row = _require_list(row, f"{path}[{r}]")
            raise InstanceError(f"expected {cols} columns, got {len(row)}", f"{path}[{r}]")
        coefficients = _coefficients(field, row, lambda: f"{path}[{r}]")
        out.append({c: x for c, x in enumerate(coefficients) if x})
    return ExactMatrix._wrap(field, tuple(out), cols)


def _parse_twist_list(value, path: str) -> SplitBundle:
    value = _require_list(value, path)
    twists = [_require_int(x, f"{path}[{k}]") for k, x in enumerate(value)]
    try:
        return SplitBundle(tuple(twists))
    except ValueError as e:
        raise InstanceError(str(e), path)


def _parse_vector_module(field: FieldSpec, quiver: Quiver, twist: TwistData,
                         value, path: str) -> TwistedRep:
    spec = _require_object(value, ["dims", "phi"], path)
    dims_raw = _require_list(spec["dims"], f"{path}.dims")
    if len(dims_raw) != quiver.n_vertices:
        raise InstanceError(f"expected {quiver.n_vertices} entries", f"{path}.dims")
    dims = []
    for k, d in enumerate(dims_raw):
        d = _require_int(d, f"{path}.dims[{k}]")
        if d < 0:
            raise InstanceError("dimensions must be non-negative", f"{path}.dims[{k}]")
        dims.append(d)
    phi_raw = _require_list(spec["phi"], f"{path}.phi")
    if len(phi_raw) != quiver.n_arrows:
        raise InstanceError(f"expected {quiver.n_arrows} matrices", f"{path}.phi")
    phi = []
    for a, (t, h) in enumerate(quiver.arrows):
        phi.append(_parse_matrix(field, phi_raw[a], dims[h], twist[a] * dims[t],
                                 f"{path}.phi[{a}]"))
    return TwistedRep(quiver, twist, field, dims, phi)


def _parse_form(field: FieldSpec, value, degree: int, where) -> tuple:
    if type(value) is not list:
        raise InstanceError("expected a list", where())
    if degree < 0:
        raise InstanceError("entry of negative degree must be null", where())
    if len(value) != degree + 1:
        raise InstanceError(f"expected {degree + 1} coefficients", where())
    return tuple(_coefficients(field, value, where))


def _parse_p1_module(field: FieldSpec, quiver: Quiver,
                     twist_bundles: Tuple[SplitBundle, ...],
                     value, path: str) -> QSheafP1:
    spec = _require_object(value, ["twists", "phi"], path)
    twists_raw = _require_list(spec["twists"], f"{path}.twists")
    if len(twists_raw) != quiver.n_vertices:
        raise InstanceError(f"expected {quiver.n_vertices} twist lists", f"{path}.twists")
    bundles = [
        _parse_twist_list(twists_raw[i], f"{path}.twists[{i}]")
        for i in range(quiver.n_vertices)
    ]
    phi_raw = _require_list(spec["phi"], f"{path}.phi")
    if len(phi_raw) != quiver.n_arrows:
        raise InstanceError(f"expected {quiver.n_arrows} form matrices", f"{path}.phi")
    for a, (t, _) in enumerate(quiver.arrows):
        rank = twist_bundles[a].rank * bundles[t].rank
        if rank > MAX_DIM:
            raise InstanceError(f"M_{a} ⊗ V_{t} would have rank {rank}, over the limit "
                                f"{MAX_DIM}", f"{path}.twists[{t}]")
    tensors = tensor_bundles(quiver, twist_bundles, bundles)
    phi = []
    for a, (_, h) in enumerate(quiver.arrows):
        src = tensors[a].bundle
        dst = bundles[h]
        mpath = f"{path}.phi[{a}]"
        raw = _require_list(phi_raw[a], mpath)
        if len(raw) != dst.rank:
            raise InstanceError(f"expected {dst.rank} rows", mpath)
        rows = []
        for r, row in enumerate(raw):
            if type(row) is not list or len(row) != src.rank:
                _require_list(row, f"{mpath}[{r}]")
                raise InstanceError(f"expected {src.rank} columns", f"{mpath}[{r}]")
            rows.append({c: _parse_form(field, f, dst.twists[r] - src.twists[c],
                                        lambda: f"{mpath}[{r}][{c}]")
                         for c, f in enumerate(row) if f is not None})
        phi.append(FormMatrix(field, src, dst, rows))
    return QSheafP1(quiver, field, twist_bundles, bundles, phi, _tensors=tensors)


def load_instance(document) -> Instance:
    """Validate a parsed JSON document and build the typed instance."""
    doc = _require_object(document, ["field", "quiver", "mode", "twists", "modules"], "$")
    field = _parse_field(doc["field"], "$.field")
    quiver = _parse_quiver(doc["quiver"], "$.quiver")
    mode = doc["mode"]
    if mode not in ("vector", "p1"):
        raise InstanceError('expected "vector" or "p1"', "$.mode")
    twists_raw = _require_list(doc["twists"], "$.twists")
    if len(twists_raw) != quiver.n_arrows:
        raise InstanceError(f"expected {quiver.n_arrows} entries", "$.twists")
    modules_raw = doc["modules"]
    if not isinstance(modules_raw, dict):
        raise InstanceError("expected an object", "$.modules")

    modules: Dict[str, Union[TwistedRep, QSheafP1]] = {}
    if mode == "vector":
        dims = []
        for k, d in enumerate(twists_raw):
            d = _require_int(d, f"$.twists[{k}]")
            if d < 1:
                raise InstanceError("twist dimensions must be >= 1", f"$.twists[{k}]")
            dims.append(d)
        twists = TwistData(dims)
        for name, value in modules_raw.items():
            modules[name] = _parse_vector_module(field, quiver, twists, value,
                                                 f"$.modules.{name}")
    else:
        bundles = tuple(
            _parse_twist_list(twists_raw[a], f"$.twists[{a}]")
            for a in range(quiver.n_arrows)
        )
        for name, value in modules_raw.items():
            modules[name] = _parse_p1_module(field, quiver, bundles, value,
                                             f"$.modules.{name}")
    return Instance(field, quiver, mode, modules)


"""JSON and CSV schemas shared across the package.

Matrix JSON:      {"dim": d, "re": [[row-major reals]], "im": [[...]]}
Coefficient JSON: {"dim": d, "h_re": [[d x d]], "h_im": [[d x d]]} with (l, m)
                  as (row, col)
Circuit JSON:     {"dim": 4, "oam_offset": -2, "elements": [...],
                  "input": "in", "output": "out"}
Count CSV:        header "input\\output,-2,-1,0,1", one row per input label;
                  probabilities carry 6 decimal places, counts are integers.

Serialization is canonical (fixed key order, two-space indent, trailing
newline) so parse -> serialize round trips are byte-identical.  The JSON
writer reproduces ``json.dumps(obj, indent=2)`` byte for byte without
``json``'s pure-Python encoder, which any indent forces.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np

from .optics import (
    _check_cells,
    Mirror,
    OpticalCircuit,
    ParitySorter,
    PhaseShift,
    Recombiner,
    SpiralPhasePlate,
)
from .pauli import SubspaceMap


class SchemaError(ValueError):
    """Raised for malformed files; the message names the offending field."""


_string = json.encoder.encode_basestring_ascii


def _json(obj, pad: str) -> str:
    """`obj` as ``json.dumps(obj, indent=2)`` writes it, nested under the
    newline and indent `pad`: dicts with str keys, lists, tuples, str, int,
    float, bool and None; any other type raises TypeError."""
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_string(key)}: {_json(value, inner)}")
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + pad + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    return _json(obj, "\n") + "\n"


def _loads(text: str, context: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{context}: invalid JSON ({exc})") from exc
    except ValueError as exc:  # an integer past the digit limit of str conversion
        raise SchemaError(f"{context}: a number has too many digits ({exc})") from exc
    except RecursionError:
        raise SchemaError(f"{context}: arrays or objects nested too deeply") from None


def _require(data: dict, field: str, kinds, context: str):
    if not isinstance(data, dict):
        raise SchemaError(f"{context}: expected a JSON object")
    if field not in data:
        raise SchemaError(f"{context}: missing field {field!r}")
    value = data[field]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise SchemaError(f"{context}: field {field!r} has the wrong type")
    return value


def _real_table(data: dict, field: str, d: int, context: str) -> list[list[float]]:
    rows = _require(data, field, list, context)
    if len(rows) != d:
        raise SchemaError(f"{context}: field {field!r} must have {d} rows")
    table = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise SchemaError(f"{context}: field {field!r} row {r} must have {d} entries")
        for value in row:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"{context}: field {field!r} contains a non-number")
        try:
            table.append([float(v) for v in row])
        except OverflowError:
            raise SchemaError(
                f"{context}: field {field!r} row {r} holds an integer too large for a float"
            ) from None
    return table


def _table_to_json(table: np.ndarray, keys: tuple[str, str], what: str) -> str:
    """Serialize a square complex `table` as its dim and the real and
    imaginary parts under `keys`."""
    m = np.asarray(table, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    re, im = keys
    return _dumps(
        {
            "dim": int(m.shape[0]),
            re: m.real.tolist(),
            im: m.imag.tolist(),
        }
    )


def _table_from_json(text: str, keys: tuple[str, str], context: str) -> np.ndarray:
    """Parse what :func:`_table_to_json` writes; the real and imaginary
    parts are set part by part so that signed zeros survive."""
    data = _loads(text, context)
    d = _require(data, "dim", int, context)
    if d < 1:
        raise SchemaError(f"{context}: field 'dim' must be positive")
    re, im = (_real_table(data, key, d, context) for key in keys)
    table = np.empty((d, d), dtype=complex)
    table.real, table.imag = re, im
    return table


def matrix_to_json(matrix: np.ndarray) -> str:
    """Serialize a complex matrix to the shared matrix schema."""
    return _table_to_json(matrix, ("re", "im"), "matrix")


def matrix_from_json(text: str) -> np.ndarray:
    """Parse the shared matrix schema into a complex array."""
    return _table_from_json(text, ("re", "im"), "matrix file")


def coefficients_to_json(h: np.ndarray) -> str:
    """Serialize a complex coefficient table, (l, m) as (row, col)."""
    return _table_to_json(h, ("h_re", "h_im"), "coefficient table")


def coefficients_from_json(text: str) -> np.ndarray:
    """Parse a coefficient table from the shared coefficient schema."""
    return _table_from_json(text, ("h_re", "h_im"), "coefficient file")


#: The "type" tag of each element class in circuit JSON.
_TAGS = {
    SpiralPhasePlate: "spp",
    Mirror: "mirror",
    ParitySorter: "parity_sorter",
    Recombiner: "recombiner",
    PhaseShift: "phase",
}
#: Circuit JSON keys that differ from the element field they hold.
_KEYS = {"delta_ell": "delta", "in_paths": "in", "reflected_parity": "reflect"}


def _load_float(data: dict, key: str, context: str) -> float:
    try:
        value = float(_require(data, key, (int, float), context))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(f"{context}: field {key!r} must be finite")
    return value


def _load_paths(data: dict, key: str, context: str) -> tuple[str, ...]:
    paths = _require(data, key, list, context)
    if not all(isinstance(p, str) for p in paths):
        raise SchemaError(f"{context}: field {key!r} must list path names")
    return tuple(paths)


#: (to JSON, from JSON) for each field type of the element classes.
_CODECS = {
    "str": (lambda v: v, lambda data, key, context: _require(data, key, str, context)),
    "int": (int, lambda data, key, context: _require(data, key, int, context)),
    "float": (float, _load_float),
    "tuple[str, ...]": (list, _load_paths),
}
#: Per element class: its tag and (field, key, to JSON, from JSON) per field,
#: in field order, which is the key order of the file.
_SPECS = {
    cls: (tag, [(f.name, _KEYS.get(f.name, f.name), *_CODECS[f.type]) for f in fields(cls)])
    for cls, tag in _TAGS.items()
}
_BY_TAG = {tag: (cls, spec) for cls, (tag, spec) in _SPECS.items()}


def _element_to_dict(e) -> dict:
    try:
        tag, spec = _SPECS[type(e)]
    except KeyError:
        raise ValueError(f"unknown element {e!r}") from None
    return {"type": tag, **{key: dump(getattr(e, name)) for name, key, dump, _ in spec}}


def _element_from_dict(data: dict, pos: int):
    context = f"circuit file: elements[{pos}]"
    kind = _require(data, "type", str, context)
    if kind not in _BY_TAG:
        raise SchemaError(f"{context}: unknown element type {kind!r}")
    cls, spec = _BY_TAG[kind]
    return cls(*[load(data, key, context) for _, key, _, load in spec])


def circuit_to_json(circuit: OpticalCircuit) -> str:
    """Serialize a circuit to the circuit description schema."""
    return _dumps(
        {
            "dim": int(circuit.dim),
            "oam_offset": int(circuit.window.oam_offset),
            "elements": [_element_to_dict(e) for e in circuit.elements],
            "input": circuit.input_path,
            "output": circuit.output_path,
        }
    )


def circuit_from_json(text: str) -> OpticalCircuit:
    """Parse and validate a circuit from the circuit description schema."""
    data = _loads(text, "circuit file")
    d = _require(data, "dim", int, "circuit file")
    offset = _require(data, "oam_offset", int, "circuit file")
    elements = _require(data, "elements", list, "circuit file")
    parsed = tuple(_element_from_dict(e, i) for i, e in enumerate(elements))
    return OpticalCircuit(
        d,
        SubspaceMap(d, offset),
        parsed,
        input_path=_require(data, "input", str, "circuit file"),
        output_path=_require(data, "output", str, "circuit file"),
    )


CSV_CORNER = "input\\output"


def count_matrix_to_csv(matrix: np.ndarray, window: SubspaceMap) -> str:
    """CSV with OAM-labeled rows/columns; 6 decimals for probabilities.

    A negative or non-finite cell, which :func:`count_matrix_from_csv`
    would reject, raises ValueError.
    """
    m = np.asarray(matrix)
    labels = window.oam_labels
    if m.shape != (window.dim, window.dim):
        raise ValueError(f"matrix shape {m.shape} does not match window {labels}")
    values = m.astype(float)
    _check_cells(values, "count matrix")
    if np.issubdtype(m.dtype, np.integer):
        rows = [[str(v) for v in row] for row in m.tolist()]
    else:
        rows = [[f"{v:.6f}" for v in row] for row in values.tolist()]
    lines = [",".join([CSV_CORNER, *[str(l) for l in labels]])]
    lines += [",".join([str(label), *row]) for label, row in zip(labels, rows)]
    return "\n".join(lines) + "\n"


def count_matrix_from_csv(text: str) -> tuple[np.ndarray, SubspaceMap]:
    """Parse a count/probability CSV back into (matrix, window)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SchemaError("count file: empty")
    header = lines[0].split(",")
    if header[0] != CSV_CORNER:
        raise SchemaError(f"count file: header must start with {CSV_CORNER!r}")
    try:
        labels = [int(h) for h in header[1:]]
    except ValueError as exc:
        raise SchemaError("count file: header labels must be integers") from exc
    d = len(labels)
    if d < 2 or labels != list(range(labels[0], labels[0] + d)):
        raise SchemaError("count file: header labels must be a contiguous window")
    if len(lines) != d + 1:
        raise SchemaError(f"count file: expected {d} data rows, got {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != d + 1:
            raise SchemaError(f"count file: row {i} must have {d + 1} cells")
        if cells[0] != str(labels[i]):
            raise SchemaError(f"count file: row {i} label mismatch")
        try:
            row = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise SchemaError(f"count file: row {i} contains a non-number") from exc
        if not all(0 <= x < math.inf for x in row):  # False for NaN as well
            raise SchemaError(f"count file: row {i} has a negative or non-finite value")
        rows.append(row)
    return np.array(rows), SubspaceMap(d, labels[0])

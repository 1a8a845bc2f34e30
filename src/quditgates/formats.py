"""JSON and CSV schemas shared across the package.

Matrix JSON:      {"dim": d, "re": [[row-major reals]], "im": [[...]]}
Coefficient JSON: {"dim": d, "h_re": [[d x d]], "h_im": [[d x d]]} with (l, m)
                  as (row, col)
Circuit JSON:     {"dim": 4, "oam_offset": -2, "elements": [...],
                  "input": "in", "output": "out"}
Count CSV:        header "input\\output,-2,-1,0,1", one row per input label;
                  probabilities carry 6 decimal places, counts are integers.

Serialization is canonical (fixed key order, two-space indent, trailing
newline) so parse -> serialize round trips are byte-identical.
"""

from __future__ import annotations

import json
import math

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


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


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
        table.append([float(v) for v in row])
    return table


def _complex_table(re: list[list[float]], im: list[list[float]]) -> np.ndarray:
    """re + i im, built part by part so that signed zeros survive."""
    table = np.empty((len(re), len(re)), dtype=complex)
    table.real, table.imag = re, im
    return table


def matrix_to_json(matrix: np.ndarray) -> str:
    """Serialize a complex matrix to the shared matrix schema."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return _dumps(
        {
            "dim": int(m.shape[0]),
            "re": [[float(x) for x in row] for row in m.real],
            "im": [[float(x) for x in row] for row in m.imag],
        }
    )


def matrix_from_json(text: str) -> np.ndarray:
    """Parse the shared matrix schema into a complex array."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"matrix file: invalid JSON ({exc})") from exc
    d = _require(data, "dim", int, "matrix file")
    if d < 1:
        raise SchemaError("matrix file: field 'dim' must be positive")
    re = _real_table(data, "re", d, "matrix file")
    im = _real_table(data, "im", d, "matrix file")
    return _complex_table(re, im)


def coefficients_to_json(h: np.ndarray) -> str:
    """Serialize a complex coefficient table, (l, m) as (row, col)."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"coefficient table must be square, got shape {h.shape}")
    return _dumps(
        {
            "dim": int(h.shape[0]),
            "h_re": [[float(x) for x in row] for row in h.real],
            "h_im": [[float(x) for x in row] for row in h.imag],
        }
    )


def coefficients_from_json(text: str) -> np.ndarray:
    """Parse a coefficient table from the shared coefficient schema."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"coefficient file: invalid JSON ({exc})") from exc
    d = _require(data, "dim", int, "coefficient file")
    if d < 1:
        raise SchemaError("coefficient file: field 'dim' must be positive")
    re = _real_table(data, "h_re", d, "coefficient file")
    im = _real_table(data, "h_im", d, "coefficient file")
    return _complex_table(re, im)


def _element_to_dict(e) -> dict:
    if isinstance(e, SpiralPhasePlate):
        return {"type": "spp", "path": e.path, "delta": int(e.delta_ell)}
    if isinstance(e, Mirror):
        return {"type": "mirror", "path": e.path}
    if isinstance(e, ParitySorter):
        return {
            "type": "parity_sorter",
            "in": list(e.in_paths),
            "out_even": e.out_even,
            "out_odd": e.out_odd,
            "reflect": e.reflected_parity,
        }
    if isinstance(e, Recombiner):
        return {
            "type": "recombiner",
            "in_even": e.in_even,
            "in_odd": e.in_odd,
            "out": e.out,
            "mode": e.mode,
            "reflect": e.reflect,
        }
    if isinstance(e, PhaseShift):
        return {"type": "phase", "path": e.path, "phi": float(e.phi)}
    raise ValueError(f"unknown element {e!r}")


def _element_from_dict(data: dict, pos: int):
    context = f"circuit file: elements[{pos}]"
    kind = _require(data, "type", str, context)
    if kind == "spp":
        return SpiralPhasePlate(
            _require(data, "path", str, context),
            _require(data, "delta", int, context),
        )
    if kind == "mirror":
        return Mirror(_require(data, "path", str, context))
    if kind == "parity_sorter":
        in_paths = _require(data, "in", list, context)
        if not all(isinstance(p, str) for p in in_paths):
            raise SchemaError(f"{context}: field 'in' must list path names")
        return ParitySorter(
            tuple(in_paths),
            _require(data, "out_even", str, context),
            _require(data, "out_odd", str, context),
            _require(data, "reflect", str, context),
        )
    if kind == "recombiner":
        return Recombiner(
            _require(data, "in_even", str, context),
            _require(data, "in_odd", str, context),
            _require(data, "out", str, context),
            _require(data, "mode", str, context),
            _require(data, "reflect", str, context),
        )
    if kind == "phase":
        path = _require(data, "path", str, context)
        try:
            phi = float(_require(data, "phi", (int, float), context))
        except OverflowError:
            phi = math.inf
        if not math.isfinite(phi):
            raise SchemaError(f"{context}: field 'phi' must be finite")
        return PhaseShift(path, phi)
    raise SchemaError(f"{context}: unknown element type {kind!r}")


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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"circuit file: invalid JSON ({exc})") from exc
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
    _check_cells(m.astype(float), "count matrix")
    integer = np.issubdtype(m.dtype, np.integer)
    lines = [",".join([CSV_CORNER, *[str(l) for l in labels]])]
    for i, row in enumerate(m):
        cells = [str(int(v)) if integer else f"{float(v):.6f}" for v in row]
        lines.append(",".join([str(labels[i]), *cells]))
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
    matrix = np.zeros((d, d))
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != d + 1:
            raise SchemaError(f"count file: row {i} must have {d + 1} cells")
        if cells[0] != str(labels[i]):
            raise SchemaError(f"count file: row {i} label mismatch")
        try:
            matrix[i] = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise SchemaError(f"count file: row {i} contains a non-number") from exc
        if not np.all(np.isfinite(matrix[i])) or np.any(matrix[i] < 0):
            raise SchemaError(f"count file: row {i} has a negative or non-finite value")
    return matrix, SubspaceMap(d, labels[0])

import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quditgates import (
    IDEAL,
    Mirror,
    NoiseParams,
    OpticalCircuit,
    ParitySorter,
    PhaseShift,
    Recombiner,
    SpiralPhasePlate,
    SubspaceMap,
    build_gate_circuit,
    correlation_matrix,
    random_unitary,
)
from quditgates import formats
from quditgates.optics import OpticalElement
from quditgates.formats import (
    CSV_CORNER,
    SchemaError,
    circuit_from_json,
    circuit_to_json,
    coefficients_from_json,
    coefficients_to_json,
    count_matrix_from_csv,
    count_matrix_to_csv,
    matrix_from_json,
    matrix_to_json,
)

import oracles
from strategies import WINDOW, random_circuits

DATA = Path(__file__).parent / "data"


def test_matrix_json_schema_fields():
    text = matrix_to_json(np.eye(2))
    assert '"dim": 2' in text
    assert '"re"' in text and '"im"' in text
    parsed = matrix_from_json(text)
    assert np.array_equal(parsed, np.eye(2))


def test_matrix_json_round_trip_bit_exact():
    u = random_unitary(4, 99)
    text = matrix_to_json(u)
    assert matrix_to_json(matrix_from_json(text)) == text


def test_matrix_json_errors_name_offending_field():
    with pytest.raises(SchemaError, match="'dim'"):
        matrix_from_json('{"re": [[1]], "im": [[0]]}')
    with pytest.raises(SchemaError, match="'re'"):
        matrix_from_json('{"dim": 2, "re": [[1, 0]], "im": [[0,0],[0,0]]}')
    with pytest.raises(SchemaError, match="'im'"):
        matrix_from_json('{"dim": 1, "re": [[1]], "im": [["x"]]}')
    with pytest.raises(SchemaError, match="invalid JSON"):
        matrix_from_json("{nope")


def test_coefficients_json_round_trip_bit_exact():
    h = np.arange(16).reshape(4, 4) * (0.5 - 0.25j)
    text = coefficients_to_json(h)
    assert '"h_re"' in text and '"h_im"' in text
    assert coefficients_to_json(coefficients_from_json(text)) == text


def test_coefficients_json_errors():
    with pytest.raises(SchemaError, match="'h_re'"):
        coefficients_from_json('{"dim": 2, "h_im": [[0,0],[0,0]]}')


@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_circuit_json_round_trip_bit_exact(kind):
    circuit = build_gate_circuit(kind, WINDOW)
    text = circuit_to_json(circuit)
    reloaded = circuit_from_json(text)
    assert circuit_to_json(reloaded) == text
    assert reloaded == circuit


def test_circuit_json_spec_fields():
    text = circuit_to_json(build_gate_circuit("X", WINDOW))
    for token in (
        '"dim": 4',
        '"oam_offset": -2',
        '"type": "spp"',
        '"delta": 1',
        '"type": "parity_sorter"',
        '"in": [',
        '"out_even": "even"',
        '"out_odd": "odd"',
        '"reflect": "even"',
        '"input": "in"',
        '"output": "out"',
    ):
        assert token in text


def test_circuit_json_covers_phase_and_mirror_elements():
    from quditgates import Mirror, OpticalCircuit, PhaseShift

    circuit = OpticalCircuit(
        4,
        WINDOW,
        (PhaseShift("in", 0.25), Mirror("in")),
        input_path="in",
        output_path="in",
    )
    text = circuit_to_json(circuit)
    assert '"type": "phase"' in text and '"phi": 0.25' in text
    reloaded = circuit_from_json(text)
    assert reloaded == circuit
    assert circuit_to_json(reloaded) == text


def test_reloaded_circuit_propagates_identically():
    circuit = build_gate_circuit("X2", WINDOW)
    reloaded = circuit_from_json(circuit_to_json(circuit))
    state = {("in", -2): 1 / np.sqrt(2), ("in", 1): 1j / np.sqrt(2)}
    assert oracles.propagate(circuit, state, IDEAL) == oracles.propagate(reloaded, state, IDEAL)


def test_circuit_json_errors():
    with pytest.raises(SchemaError, match="elements\\[0\\]"):
        circuit_from_json(
            '{"dim": 4, "oam_offset": -2, "elements": [{"type": "warp"}],'
            ' "input": "in", "output": "in"}'
        )
    with pytest.raises(SchemaError, match="'oam_offset'"):
        circuit_from_json('{"dim": 4, "elements": [], "input": "in", "output": "in"}')


def test_x2_circuit_json_matches_the_golden_file():
    golden = (DATA / "x2_circuit.json").read_text()
    circuit = build_gate_circuit("X2", WINDOW)
    assert circuit_to_json(circuit) == golden
    assert circuit_from_json(golden) == circuit


def test_every_element_class_has_a_tag_and_round_trips_byte_exact():
    classes = set(typing.get_args(OpticalElement))
    assert classes == set(formats._TAGS)
    elements = (
        SpiralPhasePlate("in", -3),
        Mirror("in"),
        PhaseShift("in", -0.0),
        ParitySorter(("in",), "e", "o", "odd"),
        Recombiner("e", "o", "out", "ideal", "none"),
    )
    assert {type(e) for e in elements} == classes  # one element of every class
    text = circuit_to_json(OpticalCircuit(4, WINDOW, elements))
    assert circuit_from_json(text) == OpticalCircuit(4, WINDOW, elements)
    assert circuit_to_json(circuit_from_json(text)) == text


#: One valid dict per element type, its keys in file order.
ELEMENT_DICTS = [
    {"type": "spp", "path": "in", "delta": 1},
    {"type": "mirror", "path": "in"},
    {"type": "parity_sorter", "in": ["in"], "out_even": "e", "out_odd": "o", "reflect": "even"},
    {"type": "recombiner", "in_even": "e", "in_odd": "o", "out": "m", "mode": "ideal", "reflect": "odd"},
    {"type": "phase", "path": "in", "phi": 0.5},
]
#: A value of the wrong JSON type for a key holding each kind of value.
WRONG_TYPE = {str: 1, int: "1", float: "0.5", list: "in"}


def _schema_cases():
    prefix = "circuit file: elements[0]: "
    for element in ELEMENT_DICTS:
        for key, value in element.items():
            tag = f"{element['type']}-{key}"
            missing = {k: v for k, v in element.items() if k != key}
            yield pytest.param(missing, prefix + f"missing field {key!r}", id=f"{tag}-missing")
            wrong = f"field {key!r} has the wrong type"
            for bad in (WRONG_TYPE[type(value)], True, None, {}):
                yield pytest.param({**element, key: bad}, prefix + wrong, id=f"{tag}-{bad!r}")
    sorter = ELEMENT_DICTS[2]
    for paths in (["in", 1], [None], [["in"]]):
        yield pytest.param(
            {**sorter, "in": paths}, prefix + "field 'in' must list path names", id=f"in-{paths!r}"
        )
    yield pytest.param({"type": "warp"}, prefix + "unknown element type 'warp'", id="unknown-type")
    yield pytest.param({**sorter, "type": "sorter"}, prefix + "unknown element type 'sorter'", id="sorter-tag")
    yield pytest.param([], prefix + "expected a JSON object", id="not-an-object")


def test_an_integer_phi_reads_as_a_float():
    element = {"type": "phase", "path": "in", "phi": 1}
    text = json.dumps(
        {"dim": 4, "oam_offset": -2, "elements": [element], "input": "in", "output": "in"}
    )
    circuit = circuit_from_json(text)
    assert circuit.elements == (PhaseShift("in", 1.0),)
    assert '"phi": 1.0' in circuit_to_json(circuit)


def test_numeric_fields_are_written_as_json_numbers():
    elements = (SpiralPhasePlate("in", np.int64(2)), PhaseShift("in", 1))
    text = circuit_to_json(OpticalCircuit(4, WINDOW, elements, output_path="in"))
    assert '"delta": 2\n' in text and '"phi": 1.0\n' in text


@pytest.mark.parametrize("element, message", _schema_cases())
def test_every_element_schema_error_keeps_its_message(element, message):
    text = json.dumps(
        {"dim": 4, "oam_offset": -2, "elements": [element], "input": "in", "output": "in"}
    )
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        circuit_from_json(text)


def test_count_csv_probabilities_format():
    matrix = correlation_matrix(build_gate_circuit("X", WINDOW), NoiseParams(0.9, 0.5))
    text = count_matrix_to_csv(matrix, WINDOW)
    lines = text.splitlines()
    assert lines[0] == f"{CSV_CORNER},-2,-1,0,1"
    assert lines[1].startswith("-2,")
    cell = lines[1].split(",")[2]
    assert len(cell.split(".")[1]) == 6  # six decimal places
    parsed, window = count_matrix_from_csv(text)
    assert window == WINDOW
    assert np.allclose(parsed, matrix, atol=5e-7)


def test_count_csv_integer_counts():
    counts = np.array([[500, 0, 0, 0]] * 4, dtype=np.int64)
    text = count_matrix_to_csv(counts, WINDOW)
    assert text.splitlines()[1] == "-2,500,0,0,0"
    parsed, _ = count_matrix_from_csv(text)
    assert np.array_equal(parsed, counts)


def test_count_csv_round_trips_values():
    counts = np.arange(16, dtype=np.int64).reshape(4, 4) + 1
    text = count_matrix_to_csv(counts, WINDOW)
    parsed, window = count_matrix_from_csv(text)
    assert count_matrix_to_csv(parsed.astype(np.int64), window) == text


def test_count_csv_errors():
    with pytest.raises(SchemaError, match="header"):
        count_matrix_from_csv("wrong,-2,-1,0,1\n-2,1,0,0,0\n")
    with pytest.raises(SchemaError, match="rows"):
        count_matrix_from_csv(f"{CSV_CORNER},-2,-1,0,1\n-2,1,0,0,0\n")


def test_stored_reference_fixture_parses():
    matrix, window = count_matrix_from_csv(
        (DATA / "reference_x_gate_counts.csv").read_text()
    )
    assert window == WINDOW
    assert matrix.shape == (4, 4)
    assert np.allclose(matrix.sum(axis=1), 10_000)


@pytest.mark.parametrize("cell", ["-5", "nan", "inf", "-inf", "NaN", "1e400", "+inf"])
def test_count_csv_rejects_negative_and_non_finite_cells(cell):
    text = f"{CSV_CORNER},-2,-1\n-2,1,0\n-1,{cell},3\n"
    with pytest.raises(SchemaError, match="row 1 has a negative or non-finite"):
        count_matrix_from_csv(text)


def test_count_csv_reports_a_bad_row_before_a_later_short_row():
    text = f"{CSV_CORNER},-2,-1\n-2,-1,0\n-1,3\n"
    message = "count file: row 0 has a negative or non-finite value"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        count_matrix_from_csv(text)


def test_count_csv_reads_a_negative_zero_cell_as_zero():
    matrix, _ = count_matrix_from_csv(f"{CSV_CORNER},-2,-1\n-2,-0,1\n-1,2,3\n")
    assert np.array_equal(matrix, [[0.0, 1.0], [2.0, 3.0]])
    assert matrix.dtype == float


@pytest.mark.parametrize(
    "load, text, message",
    [
        (
            matrix_from_json,
            '{"dim": 1, "re": [[1%s]], "im": [[0]]}' % ("0" * 400),
            "matrix file: field 're' row 0 holds an integer too large for a float",
        ),
        (
            coefficients_from_json,
            '{"dim": 2, "h_re": [[0, 0], [0, 0]], "h_im": [[0, 0], [0, -1%s]]}' % ("0" * 400),
            "coefficient file: field 'h_im' row 1 holds an integer too large for a float",
        ),
        (matrix_from_json, '{"dim": 1%s}' % ("0" * 5000), "matrix file: a number has too many digits"),
        (
            coefficients_from_json,
            '{"h_re": [[1%s]]}' % ("0" * 5000),
            "coefficient file: a number has too many digits",
        ),
        (
            circuit_from_json,
            '{"dim": 4, "oam_offset": -1%s}' % ("0" * 5000),
            "circuit file: a number has too many digits",
        ),
        (circuit_from_json, "[" * 100_000, "circuit file: arrays or objects nested too deeply"),
    ],
    ids=[
        "matrix_400", "coefficients_400", "matrix_5000", "coefficients_5000", "circuit_5000",
        "circuit_deep",
    ],
)
def test_json_readers_give_oversized_input_a_schema_error(load, text, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}"):
        load(text)


# --- the JSON writer ----------------------------------------------------------

_STRINGS = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\ud800\udfff'),
    max_size=8,
)
_JSON_LEAVES = (
    _STRINGS
    | st.integers()
    | st.integers(-(2**300), 2**300)
    | st.floats()
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308])
    | st.sampled_from([True, False, None])
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_STRINGS, kids, max_size=4),
    max_leaves=24,
)


@given(_JSON_TREES)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}, [[]]], "": ""})
@example([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 2**64, -1, "\ud800\"\\"])
def test_json_writer_is_byte_identical_to_json_dumps(obj):
    assert formats._dumps(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [np.int64(1), {1, 2}, [b"x"], {"a": object()}])
def test_json_writer_raises_type_error_where_json_does(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        formats._dumps(obj)


@pytest.mark.parametrize("phi", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_circuit_json_rejects_non_finite_phi(phi):
    text = (
        '{"dim": 4, "oam_offset": -2, "elements": [{"type": "phase", "path": "in", '
        f'"phi": {phi}}}], "input": "in", "output": "in"}}'
    )
    with pytest.raises(SchemaError, match="'phi' must be finite"):
        circuit_from_json(text)


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf, -0.5])
def test_count_csv_writer_rejects_cells_the_reader_rejects(cell):
    matrix = np.full((4, 4), 0.25)
    matrix[3, 2] = cell
    with pytest.raises(ValueError, match="row 3, column 2"):
        count_matrix_to_csv(matrix, WINDOW)
    with pytest.raises(ValueError, match="row 0, column 1"):
        count_matrix_to_csv(np.array([[0, -1], [2, 3]]), SubspaceMap(2, 0))


@given(random_circuits())
def test_circuit_json_round_trip_is_byte_exact_for_random_circuits(circuit):
    text = circuit_to_json(circuit)
    parsed = circuit_from_json(text)
    assert parsed == circuit
    assert circuit_to_json(parsed) == text


def square(dtype, elements, sizes=st.integers(2, 6)):
    return sizes.flatmap(lambda d: hnp.arrays(dtype, (d, d), elements=elements))


@given(square(complex, st.complex_numbers(allow_nan=False, allow_infinity=False)))
@example(np.array([[complex(-0.0, 1.0), complex(1.0, -0.0)], [0j, complex(-0.0, -0.0)]]))
def test_matrix_and_coefficient_json_round_trips_are_bit_exact(h):
    for dump, load in ((coefficients_to_json, coefficients_from_json), (matrix_to_json, matrix_from_json)):
        text = dump(h)
        parsed = load(text)
        assert np.array_equal(parsed.view(float), h.view(float))
        assert np.array_equal(np.signbit(parsed.view(float)), np.signbit(h.view(float)))
        assert dump(parsed) == text


@given(
    square(np.int64, st.integers(0, 2**53)),
    st.integers(-50, 50),
)
def test_count_csv_round_trip_is_exact_for_counts(counts, offset):
    window = SubspaceMap(len(counts), offset)
    text = count_matrix_to_csv(counts, window)
    parsed, got_window = count_matrix_from_csv(text)
    assert got_window == window
    assert np.array_equal(parsed, counts)
    assert count_matrix_to_csv(parsed.astype(np.int64), window) == text


@given(square(float, st.floats(0, 1)))
def test_count_csv_round_trip_keeps_six_decimals_of_probabilities(probs):
    window = SubspaceMap(len(probs), -2)
    text = count_matrix_to_csv(probs, window)
    parsed, _ = count_matrix_from_csv(text)
    assert np.all(np.abs(parsed - probs) <= 5e-7 + 1e-15)
    assert count_matrix_to_csv(parsed, window) == text

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quditgates import (
    IDEAL,
    NoiseParams,
    SubspaceMap,
    build_gate_circuit,
    correlation_matrix,
    propagate,
    random_unitary,
)
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
    assert propagate(circuit, state, IDEAL) == propagate(reloaded, state, IDEAL)


def test_circuit_json_errors():
    with pytest.raises(SchemaError, match="elements\\[0\\]"):
        circuit_from_json(
            '{"dim": 4, "oam_offset": -2, "elements": [{"type": "warp"}],'
            ' "input": "in", "output": "in"}'
        )
    with pytest.raises(SchemaError, match="'oam_offset'"):
        circuit_from_json('{"dim": 4, "elements": [], "input": "in", "output": "in"}')


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


@pytest.mark.parametrize("cell", ["-5", "nan", "inf", "-inf", "NaN"])
def test_count_csv_rejects_negative_and_non_finite_cells(cell):
    text = f"{CSV_CORNER},-2,-1\n-2,1,0\n-1,{cell},3\n"
    with pytest.raises(SchemaError, match="row 1 has a negative or non-finite"):
        count_matrix_from_csv(text)


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

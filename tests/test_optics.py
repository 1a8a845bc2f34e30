import itertools
import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditgates import optics
from quditgates import (
    IDEAL,
    CalibrationError,
    CircuitError,
    Mirror,
    NoiseParams,
    OpticalCircuit,
    ParitySorter,
    PhaseShift,
    Recombiner,
    SpiralPhasePlate,
    SubspaceMap,
    build_gate_circuit,
    calibrate_visibility,
    circuit_unitary_fidelity,
    correlation_matrix,
    dagger,
    efficiency,
    expected_permutation,
    gate_power,
    ideal_gate_matrix,
    make_x,
    make_z,
    mean_gate_efficiency,
    monte_carlo_counts,
    output_mode_probabilities,
    propagate_branches,
    superposition_visibility,
    trace_modes,
)
from oracles import (
    apply_element,
    branch_weights,
    dict_transfer,
    enumerate_branches,
    total_probability,
)
from strategies import WINDOW, random_circuits

CAPTION_TUPLES = {
    "X": (-1, 0, 1, -2),
    "X2": (0, 1, -2, -1),
    "Xdagger": (1, -2, -1, 0),
}


def test_symbolic_trace_reproduces_caption_tuples():
    for kind, want in CAPTION_TUPLES.items():
        assert trace_modes(kind) == want


def test_symbolic_trace_rejects_unknown_kind():
    with pytest.raises(ValueError):
        trace_modes("X3")


@pytest.mark.parametrize(
    "call",
    [
        lambda kind: build_gate_circuit(kind, SubspaceMap(5, -2)),
        expected_permutation,
        trace_modes,
        lambda kind: calibrate_visibility(kind, 0.8),
        ideal_gate_matrix,
    ],
)
@pytest.mark.parametrize("kind", ["X3", "Z", "x", ""])
def test_every_gate_kind_check_keeps_its_message(call, kind):
    message = f"unsupported gate kind {kind!r}; expected one of ('X', 'X2', 'Xdagger')"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(kind)


@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_ideal_propagation_matches_trace(kind):
    circuit = build_gate_circuit(kind, WINDOW)
    for ell_in, ell_out in zip(WINDOW.oam_labels, CAPTION_TUPLES[kind]):
        probs = output_mode_probabilities(circuit, {("in", ell_in): 1.0}, IDEAL)
        assert probs[ell_out] == pytest.approx(1.0, abs=1e-12)


def test_x_circuit_named_examples():
    circuit = build_gate_circuit("X", WINDOW)
    probs = output_mode_probabilities(circuit, {("in", -2): 1.0}, IDEAL)
    assert probs[-1] == pytest.approx(1.0, abs=1e-12)
    probs = output_mode_probabilities(circuit, {("in", 1): 1.0}, IDEAL)
    assert probs[-2] == pytest.approx(1.0, abs=1e-12)


def test_xdagger_zero_maps_to_minus_one():
    circuit = build_gate_circuit("Xdagger", WINDOW)
    probs = output_mode_probabilities(circuit, {("in", 0): 1.0}, IDEAL)
    assert probs[-1] == pytest.approx(1.0, abs=1e-12)


def test_spp_mirror_phase_semantics():
    state = {("in", -2): 1.0 + 0j}
    shifted = apply_element(SpiralPhasePlate("in", +1), state)
    assert shifted == {("in", -1): 1.0 + 0j}

    state = {("odd", 1): 1.0 + 0j}
    assert apply_element(Mirror("odd"), state) == {("odd", -1): 1.0 + 0j}

    state = {("in", 0): 1.0 + 0j, ("other", 0): 1.0 + 0j}
    rotated = apply_element(PhaseShift("in", np.pi / 2), state)
    assert rotated[("in", 0)] == pytest.approx(1j)
    assert rotated[("other", 0)] == 1.0 + 0j


def test_sorter_routing_and_leakage():
    sorter = ParitySorter(("in",), "even", "odd", reflected_parity="even")
    # perfect visibility: an even mode goes entirely to the reflected even port
    out = apply_element(sorter, {("in", 2): 1.0 + 0j}, NoiseParams(1.0, 1.0))
    assert out == {("even", -2): 1.0 + 0j}
    # V = 0.8: wrong-port probability (1-V)/2 = 0.1, total preserved
    out = apply_element(sorter, {("in", 2): 1.0 + 0j}, NoiseParams(0.8, 1.0))
    assert abs(out[("odd", 2)]) ** 2 == pytest.approx(0.1, abs=1e-12)
    assert abs(out[("even", -2)]) ** 2 == pytest.approx(0.9, abs=1e-12)
    assert total_probability(out) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sign", [1, -1])
def test_noise_branch_signs_flip_the_leak_and_the_arm_phase(sign):
    v, noise = 0.6, NoiseParams(0.6, 1.0)
    sorter = ParitySorter(("in",), "even", "odd", reflected_parity="even")
    out = apply_element(sorter, {("in", 2): 1.0 + 0j}, noise, split_sign=sign)
    assert out[("odd", 2)] == pytest.approx(sign * 1j * np.sqrt((1 - v) / 2), abs=1e-15)
    merge = Recombiner("even", "odd", "out", mode="lossy_pbs", reflect="odd")
    out = apply_element(merge, {("odd", 1): 1.0 + 0j}, noise, phase_sign=sign)
    assert out[("out", -1)] == pytest.approx(np.exp(sign * 1j * np.arccos(v)), abs=1e-15)


def test_sorter_leak_into_reflected_port_is_reflected():
    sorter = ParitySorter(("in",), "even", "odd", reflected_parity="even")
    out = apply_element(sorter, {("in", 1): 1.0 + 0j}, NoiseParams(0.5, 1.0))
    assert ("even", -1) in out and ("odd", 1) in out


def test_lossy_recombiner_scales_by_throughput_exactly():
    merge = Recombiner("even", "odd", "out", mode="lossy_pbs", reflect="odd")
    state = {("even", 0): 0.6 + 0j, ("odd", 1): 0.8j}
    out = apply_element(merge, state, NoiseParams(1.0, 0.5))
    assert total_probability(out) == pytest.approx(0.5, abs=1e-15)
    assert set(out) == {("out", 0), ("out", -1)}


def test_ideal_recombiner_conserves_probability_per_branch():
    merge = Recombiner("even", "odd", "out", mode="ideal", reflect="odd")
    state = {("even", 0): 0.6 + 0j, ("odd", 1): 0.8j}
    for split_sign in (1, -1):
        out = apply_element(
            merge, state, NoiseParams(0.7, 1.0), split_sign=split_sign
        )
        assert total_probability(out) == pytest.approx(1.0, abs=1e-12)


def test_ideal_recombiner_rejects_mismatched_parity_to_the_discard_path():
    merge = Recombiner("even", "odd", "out", mode="ideal", reflect="odd")
    out = apply_element(merge, {("even", 1): 1.0 + 0j}, NoiseParams(0.6, 1.0))
    assert set(out) == {("out", 1), ("out.discard", 1)}
    assert abs(out[("out", 1)]) ** 2 == pytest.approx(0.2, abs=1e-12)
    assert abs(out[("out.discard", 1)]) ** 2 == pytest.approx(0.8, abs=1e-12)


def test_propagate_empty_circuit_is_identity():
    circuit = OpticalCircuit(4, WINDOW, (), input_path="in", output_path="in")
    state = {("in", -1): 0.5 + 0.5j}
    assert propagate_branches(circuit, state) == [(1.0, state)]


def test_propagate_requires_input_path_support():
    circuit = build_gate_circuit("X", WINDOW)
    for call in (propagate_branches, output_mode_probabilities):
        with pytest.raises(CircuitError, match="input"):
            call(circuit, {("odd", 0): 1.0})


@pytest.mark.parametrize(
    "state, message",
    [
        ({("in", 0): np.nan}, r"input amplitude at \('in', 0\) is nan, not finite"),
        ({("in", -1): 0.5, ("in", 0): np.inf}, r"at \('in', 0\) is inf, not finite"),
        ({("in", 1): complex(0, np.nan)}, r"at \('in', 1\) is nanj, not finite"),
        ({("in", 0.5): 1.0}, "OAM label must be an integer, got 0.5"),
        ({("in", np.float64(1)): 1.0}, "OAM label must be an integer, got np.float64"),
        ({("in", True): 1.0}, "OAM label must be an integer, got True"),
        ({("in", "1"): 1.0}, "OAM label must be an integer, got '1'"),
    ],
)
def test_amplitude_map_inputs_are_checked(state, message):
    circuit = build_gate_circuit("X", WINDOW)
    for call in (propagate_branches, output_mode_probabilities):
        with pytest.raises(ValueError, match=message):
            call(circuit, state, NoiseParams(0.8, 0.5))


def test_integer_labels_of_any_integer_type_are_accepted():
    circuit = build_gate_circuit("X", WINDOW)
    state = {("in", np.int64(-2)): 1.0}
    assert output_mode_probabilities(circuit, state, IDEAL) == {-1: 1.0}
    assert propagate_branches(circuit, state) == [(1.0, {("out", -1): 1.0 + 0j})]


def test_propagate_conserves_probability_when_ideal():
    for kind in ("X", "X2", "Xdagger"):
        circuit = build_gate_circuit(kind, WINDOW)
        state = {("in", ell): 0.5 + 0j for ell in WINDOW.oam_labels}
        [(_, final)] = propagate_branches(circuit, state, IDEAL)
        assert total_probability(final) == pytest.approx(1.0, abs=1e-12)


def test_propagate_branch_weights_and_conservation():
    circuit = build_gate_circuit("X", WINDOW)
    branches = propagate_branches(circuit, {("in", -2): 1.0}, NoiseParams(0.6, 1.0))
    assert len(branches) == 4  # sorter split sign x recombiner arm phase sign
    assert sum(w for w, _ in branches) == pytest.approx(1.0)
    for _, final in branches:
        assert total_probability(final) == pytest.approx(1.0, abs=1e-12)


def test_superposition_propagates_coherently():
    circuit = build_gate_circuit("X", WINDOW)
    amp = 1 / np.sqrt(2)
    [(_, final)] = propagate_branches(circuit, {("in", 0): amp, ("in", 1): amp}, IDEAL)
    # output (|1> + |-2>)/sqrt(2) up to a global phase
    a, b = final[("out", 1)], final[("out", -2)]
    assert abs(a) == pytest.approx(amp, abs=1e-12)
    assert abs(b) == pytest.approx(amp, abs=1e-12)
    assert a / b == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_ideal_correlation_matrix_is_exact_permutation(kind):
    matrix = correlation_matrix(build_gate_circuit(kind, WINDOW), NoiseParams(1.0, 0.5))
    perm = expected_permutation(kind)
    for i in range(4):
        for j in range(4):
            assert matrix[i, j] == (1.0 if j == perm[i] else 0.0)


def test_identity_circuit_correlation_is_identity():
    circuit = OpticalCircuit(4, WINDOW, (), input_path="in", output_path="in")
    assert np.array_equal(correlation_matrix(circuit, IDEAL), np.eye(4))


@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
@pytest.mark.parametrize("v", [0.0, 0.3, 0.7, 1.0])
def test_correlation_rows_normalized(kind, v):
    matrix = correlation_matrix(build_gate_circuit(kind, WINDOW), NoiseParams(v, 0.5))
    assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(matrix >= 0)


def test_correlation_invariant_under_throughput():
    circuit = build_gate_circuit("X", WINDOW)
    a = correlation_matrix(circuit, NoiseParams(0.7, 0.5))
    b = correlation_matrix(circuit, NoiseParams(0.7, 1.0))
    assert np.allclose(a, b, atol=1e-12)


def test_out_of_window_leakage_is_retained_but_excluded():
    circuit = build_gate_circuit("X", WINDOW)
    probs = output_mode_probabilities(circuit, {("in", 1): 1.0}, NoiseParams(0.6, 1.0))
    # leakage of the shifted mode 2 survives outside the window at label 2
    assert probs.get(2, 0.0) > 0
    matrix = correlation_matrix(circuit, NoiseParams(0.6, 0.5))
    assert matrix[3].sum() == pytest.approx(1.0, abs=1e-12)


def test_efficiency_examples():
    perm = expected_permutation("X")
    matrix = correlation_matrix(build_gate_circuit("X", WINDOW), NoiseParams(1.0, 0.5))
    per_input, mean = efficiency(matrix, perm)
    assert np.allclose(per_input, 1.0)
    assert mean == 1.0

    uniform = np.full((4, 4), 25.0)
    per_input, mean = efficiency(uniform, perm)
    assert np.allclose(per_input, 0.25)
    assert mean == pytest.approx(0.25)


@pytest.mark.parametrize(
    "expected",
    [
        [-4, -3, -2, -1], [4, 2, 3, 0], [1.0, 2, 3, 0], [0, 1, 2, "3"],
        [True, 1, 2, 3], [3, 2, 1, False],
    ],
)
def test_efficiency_rejects_columns_outside_the_matrix(expected):
    with pytest.raises(ValueError, match=r"expected\[[03]\] = .* not an integer in \[0, 4\)"):
        efficiency(np.eye(4), expected)


def test_efficiency_zero_row_is_an_error():
    m = np.eye(4)
    m[2] = 0.0
    with pytest.raises(ValueError, match="row 2"):
        efficiency(m, expected_permutation("X"))


@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_mean_efficiency_monotone_in_visibility(kind):
    values = [
        mean_gate_efficiency(kind, NoiseParams(v / 10, 0.5)) for v in range(11)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_calibrate_visibility_ideal_target():
    assert calibrate_visibility("X", 1.0).visibility == 1.0


@pytest.mark.parametrize(
    "kind,target", [("X", 0.873), ("X2", 0.904), ("Xdagger", 0.884)]
)
def test_calibrate_visibility_reference_targets(kind, target):
    noise = calibrate_visibility(kind, target)
    assert 0.0 < noise.visibility < 1.0
    assert mean_gate_efficiency(kind, noise) == pytest.approx(target, abs=1e-3)


def test_calibrate_visibility_rejects_boundary_target():
    with pytest.raises(CalibrationError, match=r"\(0.25, 1\]"):
        calibrate_visibility("X", 0.25)


def test_calibrate_visibility_reports_achievable_range():
    with pytest.raises(CalibrationError, match="achievable"):
        calibrate_visibility("X", 0.4)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-4, np.float32(np.inf)])
def test_calibrate_visibility_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        calibrate_visibility("X", 0.873, tol=tol)


def test_superposition_visibility_limits():
    circuit = build_gate_circuit("X", WINDOW)
    assert superposition_visibility(circuit, NoiseParams(1.0, 0.5)) == pytest.approx(
        1.0, abs=1e-10
    )
    assert superposition_visibility(circuit, NoiseParams(0.0, 0.5)) == pytest.approx(
        0.5, abs=1e-10
    )


def test_superposition_visibility_at_calibrated_v():
    noise = calibrate_visibility("X", 0.873)
    value = superposition_visibility(build_gate_circuit("X", WINDOW), noise)
    assert 0.5 < value < 1.0
    # the inter-arm dephasing model gives (1+V)/2 for this circuit
    assert value == pytest.approx((1 + noise.visibility) / 2, abs=1e-12)


def test_circuit_unitary_fidelity_matches_gates():
    pairs = {
        "X": make_x(4),
        "X2": gate_power(make_x(4), 2),
        "Xdagger": dagger(make_x(4)),
    }
    for kind, gate in pairs.items():
        circuit = build_gate_circuit(kind, WINDOW)
        assert circuit_unitary_fidelity(circuit, gate) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(gate, ideal_gate_matrix(kind), atol=1e-12)


def test_circuit_unitary_fidelity_distinguishes_gates():
    circuit = build_gate_circuit("X", WINDOW)
    assert circuit_unitary_fidelity(circuit, make_z(4)) < 1.0 - 1e-6
    assert circuit_unitary_fidelity(circuit, gate_power(make_x(4), 2)) < 1.0 - 1e-6


def test_build_gate_circuit_arbitrary_window():
    window = SubspaceMap(4, 0)  # OAM labels {0, 1, 2, 3}
    circuit = build_gate_circuit("X", window)
    matrix = correlation_matrix(circuit, NoiseParams(1.0, 0.5))
    perm = expected_permutation("X")
    for i in range(4):
        assert matrix[i, perm[i]] == 1.0
    assert circuit_unitary_fidelity(circuit, make_x(4)) == pytest.approx(1.0, abs=1e-10)


def test_build_gate_circuit_rejects_bad_inputs():
    with pytest.raises(ValueError, match="kind"):
        build_gate_circuit("X3", WINDOW)
    with pytest.raises(CircuitError, match="4-dimensional"):
        build_gate_circuit("X", SubspaceMap(5, -2))


@pytest.mark.parametrize("window", [None, (4, -2), [4, -2], {"dim": 4}, 4])
def test_build_gate_circuit_names_a_window_that_is_not_a_subspace_map(window):
    # unhashable windows included: the check comes before the cache lookup
    message = f"window must be a SubspaceMap, got {type(window).__name__}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build_gate_circuit("X", window)
    with pytest.raises(ValueError, match="^unsupported gate kind 'X3'"):
        build_gate_circuit("X3", window)  # the kind is checked first


@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_build_gate_circuit_shares_one_frozen_circuit_per_kind_and_window(kind):
    circuit = build_gate_circuit(kind, WINDOW)
    assert build_gate_circuit(kind, SubspaceMap(4, np.int64(-2))) is circuit
    assert build_gate_circuit(kind, SubspaceMap(4, 0)) is not circuit
    assert isinstance(circuit.elements, tuple)
    with pytest.raises(FrozenInstanceError):
        circuit.elements = ()
    with pytest.raises(FrozenInstanceError):
        circuit.elements[0].out_even = "odd"
    optics._gate_circuit.cache_clear()
    rebuilt = build_gate_circuit(kind, WINDOW)
    assert rebuilt is not circuit and rebuilt == circuit


def test_circuit_topology_validation():
    with pytest.raises(CircuitError, match="dead path"):
        OpticalCircuit(4, WINDOW, (Mirror("nope"),))
    with pytest.raises(CircuitError, match="one input"):
        OpticalCircuit(
            4, WINDOW, (ParitySorter(("in", "in2"), "even", "odd"),)
        )
    with pytest.raises(CircuitError, match="not live"):
        OpticalCircuit(
            4,
            WINDOW,
            (ParitySorter(("in",), "even", "odd"),),
            output_path="out",
        )
    with pytest.raises(CircuitError, match="mode"):
        OpticalCircuit(
            4,
            WINDOW,
            (
                ParitySorter(("in",), "even", "odd"),
                Recombiner("even", "odd", "out", mode="sideways"),
            ),
        )


SORT = ParitySorter(("in",), "even", "odd")
MERGE = Recombiner("even", "odd", "m")


@pytest.mark.parametrize(
    "elements, message",
    [
        ((Mirror("nope"),), "element 0: dead path reference 'nope'"),
        ((SpiralPhasePlate("nope", 1),), "element 0: dead path reference 'nope'"),
        ((PhaseShift("in", 0.1), PhaseShift("x", 0.1)), "element 1: dead path reference 'x'"),
        (
            (ParitySorter(("in", "in2"), "even", "odd"),),
            "element 0: parity sorter takes exactly one input path",
        ),
        ((ParitySorter((), "even", "odd"),), "element 0: parity sorter takes exactly one input path"),
        (
            (ParitySorter(("in",), "even", "odd", "both"),),
            "element 0: reflected_parity must be 'even' or 'odd'",
        ),
        ((ParitySorter(("x",), "even", "odd"),), "element 0: dead path reference 'x'"),
        ((ParitySorter(("in",), "in", "odd"),), "element 0: sorter outputs must be new paths"),
        ((ParitySorter(("in",), "even", "in"),), "element 0: sorter outputs must be new paths"),
        ((ParitySorter(("in",), "a", "a"),), "element 0: sorter outputs must be new paths"),
        (
            (SORT, SpiralPhasePlate("odd", 1), ParitySorter(("odd",), "even", "b")),
            "element 2: sorter outputs must be new paths",
        ),
        (
            (SORT, Recombiner("even", "odd", "m", mode="sideways")),
            "element 1: unknown recombiner mode 'sideways'",
        ),
        (
            (SORT, Recombiner("even", "odd", "m", reflect="both")),
            "element 1: reflect must be 'even', 'odd' or 'none'",
        ),
        ((SORT, Recombiner("x", "odd", "m")), "element 1: dead path reference 'x'"),
        ((SORT, Recombiner("even", "x", "m")), "element 1: dead path reference 'x'"),
        ((SORT, Mirror("in")), "element 1: dead path reference 'in'"),
        ((SORT, MERGE, Mirror("odd")), "element 2: dead path reference 'odd'"),
        ((SORT, Recombiner("even", "even", "m")), "element 1: recombiner arms must differ"),
        # field rules come before the live-path checks
        ((SORT, Recombiner("x", "x", "m")), "element 1: recombiner arms must differ"),
        ((SORT, Recombiner("even", "odd", "odd")), "element 1: recombiner output must be new"),
        (
            (SORT, MERGE, ParitySorter(("m",), "a", "b"), Recombiner("a", "b", "m")),
            "element 3: recombiner output must be new",
        ),
        (("mirror",), "element 0: unknown element 'mirror'"),
        ((Mirror("in"), None), "element 1: unknown element None"),
        ((SORT,), "output path 'out' is not live after the last element"),
        ((SORT, MERGE), "output path 'out' is not live after the last element"),
        ((PhaseShift("in", np.nan),), "element 0: phi must be a finite real number, got nan"),
        ((PhaseShift("in", np.inf),), "element 0: phi must be a finite real number, got inf"),
        (
            (Mirror("in"), PhaseShift("in", np.float64(-np.inf))),
            "element 1: phi must be a finite real number, got np.float64(-inf)",
        ),
        ((PhaseShift("in", True),), "element 0: phi must be a finite real number, got True"),
        ((PhaseShift("in", "0.5"),), "element 0: phi must be a finite real number, got '0.5'"),
        ((PhaseShift("in", 0.5j),), "element 0: phi must be a finite real number, got 0.5j"),
        ((PhaseShift("in", None),), "element 0: phi must be a finite real number, got None"),
        ((SpiralPhasePlate("in", 2.5),), "element 0: delta_ell must be an integer, got 2.5"),
        ((SpiralPhasePlate("in", 2.0),), "element 0: delta_ell must be an integer, got 2.0"),
        ((SpiralPhasePlate("in", True),), "element 0: delta_ell must be an integer, got True"),
        (
            (SpiralPhasePlate("in", np.bool_(False)),),
            "element 0: delta_ell must be an integer, got np.False_",
        ),
        ((SpiralPhasePlate("in", "x"),), "element 0: delta_ell must be an integer, got 'x'"),
        ((SpiralPhasePlate("in", None),), "element 0: delta_ell must be an integer, got None"),
        # field rules come before the live-path checks here too
        ((SpiralPhasePlate("x", 0.5),), "element 0: delta_ell must be an integer, got 0.5"),
        # an integer phase past the float range
        (
            (PhaseShift("in", 2**1024),),
            f"element 0: phi must be a finite real number, got {2**1024}",
        ),
        # and one past the digit limit of int-to-str conversion
        (
            (PhaseShift("in", 10**5000),),
            "element 0: phi must be a finite real number, got an integer of 16610 bits",
        ),
    ],
)
def test_every_topology_error_keeps_its_message(elements, message):
    with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
        OpticalCircuit(4, WINDOW, elements, output_path="out")


@pytest.mark.parametrize("delta", [2, -3, np.int64(2), np.uint8(1), 10**30])
@pytest.mark.parametrize(
    "phi", [0, 1, np.int64(-2), 0.5, np.float32(0.25), np.float64(-3.5), 1e308]
)
def test_integer_plates_and_finite_phases_of_any_real_type_are_accepted(delta, phi):
    elements = (SpiralPhasePlate("in", delta), PhaseShift("in", phi))
    circuit = OpticalCircuit(4, WINDOW, elements, output_path="in")
    assert circuit.elements == elements


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(1.2, 0.5)
    with pytest.raises(ValueError):
        NoiseParams(0.5, 0.0)


@pytest.mark.parametrize("field", ["visibility", "throughput"])
@pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", 0.5 + 0j, np.complex128(0.5), None])
def test_noise_params_reject_values_that_are_not_real_numbers(field, value):
    message = f"{field} must be a real number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NoiseParams(**{field: value})


@pytest.mark.parametrize(
    "visibility,throughput",
    [(np.float64(0.87), np.float64(0.5)), (np.float32(0.5), 1), (0, np.int64(1)), (1, 0.5)],
)
def test_noise_params_accept_integer_and_numpy_reals(visibility, throughput):
    noise = NoiseParams(visibility, throughput)
    assert (noise.visibility, noise.throughput) == (visibility, throughput)


@pytest.mark.parametrize("target", [True, False, np.bool_(True), "0.9", None, 0.9 + 0j, [0.9]])
def test_calibration_rejects_a_target_that_is_not_a_real_number(target):
    message = f"target_mean_efficiency must be a real number, got {target!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        calibrate_visibility("X", target)


@pytest.mark.parametrize("target", [0.25, 1.5, -1, np.nan, np.float64(0.2)])
def test_calibration_keeps_the_range_error_for_real_targets(target):
    with pytest.raises(CalibrationError, match=r"must lie in \(0.25, 1\]"):
        calibrate_visibility("X", target)


def test_calibration_takes_integer_and_numpy_targets():
    assert calibrate_visibility("X", 1) == NoiseParams(1.0, 0.5)
    assert calibrate_visibility("X", np.float64(0.873)) == calibrate_visibility("X", 0.873)


HUGE = 10**5000  # past the digit limit of int-to-str conversion


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: calibrate_visibility("X", HUGE),
            CalibrationError,
            "target mean efficiency must lie in (0.25, 1], got an integer of 16610 bits",
        ),
        (
            lambda: calibrate_visibility("X", 0.9, throughput=HUGE),
            ValueError,
            "throughput must lie in (0, 1], got an integer of 16610 bits",
        ),
        (
            lambda: calibrate_visibility("X", 0.9, tol=HUGE),
            ValueError,
            "tol must be finite and non-negative, got an integer of 16610 bits",
        ),
        (
            lambda: NoiseParams(HUGE, 0.5),
            ValueError,
            "visibility must lie in [0, 1], got an integer of 16610 bits",
        ),
        (
            lambda: NoiseParams(0.5, -HUGE),
            ValueError,
            "throughput must lie in (0, 1], got an integer of 16610 bits",
        ),
        (
            lambda: monte_carlo_counts(np.full((4, 4), 0.25), HUGE, 1),
            ValueError,
            "shots_per_input must be at most 2**63 - 1, got an integer of 16610 bits",
        ),
    ],
    ids=["target", "throughput", "tol", "visibility", "noise_throughput", "shots"],
)
def test_huge_integers_get_each_entry_points_named_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_calibration_rejects_a_bool_throughput():
    with pytest.raises(ValueError, match="^throughput must be a real number, got True$"):
        calibrate_visibility("X", 0.9, throughput=True)


@pytest.mark.parametrize("d", [0, 1, -4, True, 4.0, "4", None])
def test_expected_permutation_checks_the_dimension_like_the_gate(d):
    with pytest.raises(ValueError) as got:
        expected_permutation("X", d)
    with pytest.raises(ValueError) as want:
        ideal_gate_matrix("X", d)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("dimension must be an integer >= 2, got ")


def test_monte_carlo_degenerate_row():
    probs = np.array([[1.0, 0.0, 0.0, 0.0]] * 4)
    counts = monte_carlo_counts(probs, 500, seed=3)
    assert np.array_equal(counts[:, 0], [500] * 4)
    assert counts.sum() == 2000


def test_monte_carlo_uniform_within_binomial_bound():
    n = 10_000
    probs = np.full((4, 4), 0.25)
    counts = monte_carlo_counts(probs, n, seed=11)
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n * 0.25) <= 5 * sigma)


def test_monte_carlo_seed_determinism():
    probs = correlation_matrix(build_gate_circuit("X", WINDOW), NoiseParams(0.7, 0.5))
    a = monte_carlo_counts(probs, 1000, seed=42)
    b = monte_carlo_counts(probs, 1000, seed=42)
    c = monte_carlo_counts(probs, 1000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_monte_carlo_validates_shots():
    with pytest.raises(ValueError, match="shots"):
        monte_carlo_counts(np.full((4, 4), 0.25), 0, seed=1)


# --- mixture propagation against the branch enumeration --------------------


def enumerated_probabilities(circuit, state, noise):
    """Output-path probabilities averaged over the oracle's branches."""
    probs = {}
    for weight, final in enumerate_branches(circuit, state, noise):
        for (path, ell), amp in final.items():
            if path == circuit.output_path:
                probs[ell] = probs.get(ell, 0.0) + weight * abs(amp) ** 2
    return probs


unit = st.floats(-1, 1, allow_nan=False)


@st.composite
def window_states(draw):
    amps = [complex(draw(unit), draw(unit)) for _ in WINDOW.oam_labels]
    norm = np.sqrt(sum(abs(a) ** 2 for a in amps))
    if not norm:
        return {}
    return {("in", ell): a / norm for ell, a in zip(WINDOW.oam_labels, amps) if a}


@settings(deadline=None)
@given(random_circuits(), window_states(), st.floats(0, 1), st.floats(0.01, 1))
def test_mixture_matches_branch_enumeration(circuit, state, v, throughput):
    noise = NoiseParams(v, throughput)
    want = enumerated_probabilities(circuit, state, noise)
    got = output_mode_probabilities(circuit, state, noise)
    for ell in set(want) | set(got):
        assert got.get(ell, 0.0) == pytest.approx(want.get(ell, 0.0), abs=1e-12)


@settings(deadline=None)
@given(random_circuits(), st.floats(0, 1), st.floats(0.01, 1))
def test_correlation_rows_are_distributions_for_every_visibility(circuit, v, throughput):
    noise = NoiseParams(v, throughput)
    try:
        matrix = correlation_matrix(circuit, noise)
    except CircuitError:
        # then some window input must really leave nothing in the window
        totals = []
        for i in WINDOW.oam_labels:
            probs = enumerated_probabilities(circuit, {("in", i): 1.0}, noise)
            totals.append(sum(probs.get(ell, 0.0) for ell in WINDOW.oam_labels))
        assert min(totals) <= 1e-12
        return
    assert np.all(np.abs(matrix.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(matrix >= 0)


PATH_FIELDS = ("path", "out_even", "out_odd", "in_even", "in_odd", "out")


def cascade(*kinds):
    """The gate circuits `kinds` in sequence, each stage's paths renamed apart."""
    elements, src = [], "in"
    for s, kind in enumerate(kinds):
        out = "out" if s == len(kinds) - 1 else f"s{s}.out"
        names = {"in": src, "even": f"s{s}.even", "odd": f"s{s}.odd", "out": out}
        for e in build_gate_circuit(kind, WINDOW).elements:
            changes = {f: names[getattr(e, f)] for f in PATH_FIELDS if hasattr(e, f)}
            if isinstance(e, ParitySorter):
                changes["in_paths"] = tuple(names[p] for p in e.in_paths)
            elements.append(replace(e, **changes))
        src = out
    return OpticalCircuit(4, WINDOW, tuple(elements))


def test_cascade_x_x_is_exactly_x2_at_full_visibility():
    noise = NoiseParams(1.0, 0.5)
    want = correlation_matrix(build_gate_circuit("X2", WINDOW), noise)
    assert np.array_equal(correlation_matrix(cascade("X", "X"), noise), want)


def test_cascade_x_xdagger_is_exactly_identity_at_full_visibility():
    matrix = correlation_matrix(cascade("X", "Xdagger"), NoiseParams(1.0, 0.5))
    assert np.array_equal(matrix, np.eye(4))


def test_noisy_cascade_matches_branch_enumeration():
    circuit, noise = cascade("X2", "Xdagger"), NoiseParams(0.83, 0.5)
    matrix = correlation_matrix(circuit, noise)
    for i, ell in enumerate(WINDOW.oam_labels):
        probs = enumerated_probabilities(circuit, {("in", ell): 1.0}, noise)
        row = np.array([probs.get(out, 0.0) for out in WINDOW.oam_labels])
        assert np.allclose(matrix[i], row / row.sum(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [8, 12])
def test_wide_window_correlation_matches_branch_enumeration(d):
    window = SubspaceMap(d, -(d // 2))
    circuit = OpticalCircuit(
        d,
        window,
        (
            SpiralPhasePlate("in", 1),
            ParitySorter(("in",), "even", "odd"),
            PhaseShift("odd", 0.4),
            Recombiner("even", "odd", "out", mode="ideal"),
        ),
    )
    noise = NoiseParams(0.7, 0.5)
    matrix = correlation_matrix(circuit, noise)
    for i, ell in enumerate(window.oam_labels):
        probs = enumerated_probabilities(circuit, {("in", ell): 1.0}, noise)
        row = np.array([probs.get(out, 0.0) for out in window.oam_labels])
        assert np.allclose(matrix[i], row / row.sum(), rtol=0, atol=1e-12)


@settings(deadline=None)
@given(random_circuits(), window_states(), st.floats(0, 1), st.floats(0.01, 1))
def test_branches_match_the_oracle_enumeration(circuit, state, v, throughput):
    noise = NoiseParams(v, throughput)
    want = enumerate_branches(circuit, state, noise)
    got = propagate_branches(circuit, state, noise)
    assert len(got) == len(want) == len(propagate_branches(circuit, {}, noise))
    for (w_got, amps), (w_want, final) in zip(got, want):
        assert w_got == w_want
        assert all(path == circuit.output_path and a != 0 for (path, _), a in amps.items())
        for key in set(amps) | {k for k in final if k[0] == circuit.output_path}:
            assert abs(amps.get(key, 0) - final.get(key, 0)) <= 1e-12


@settings(deadline=None)
@given(random_circuits())
def test_transfer_matches_the_oracle_transfer(circuit):
    got = optics._Compiled(circuit).transfer
    assert np.all(np.abs(got - dict_transfer(circuit)) <= 1e-15)


@pytest.mark.parametrize("offset", [-7, -2, 0, 5])
@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_gate_transfers_equal_the_oracle_transfer_exactly(kind, offset):
    circuit = build_gate_circuit(kind, SubspaceMap(4, offset))
    transfer = optics._compiled(circuit).transfer
    assert np.array_equal(transfer, dict_transfer(circuit))
    assert circuit_unitary_fidelity(circuit, ideal_gate_matrix(kind)) == 1.0


@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_superposition_visibility_limits_for_every_gate(kind):
    circuit = build_gate_circuit(kind, WINDOW)
    assert superposition_visibility(circuit, NoiseParams(1.0, 0.5)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert superposition_visibility(circuit, NoiseParams(0.0, 0.5)) == pytest.approx(
        0.5, abs=1e-12
    )


# logical modes 2, 3 (OAM 0, 1) leave on OAM 0 and -1, the odd one carrying
# an extra phase of 0.7 rad
PHASE_CIRCUIT = OpticalCircuit(
    4,
    WINDOW,
    (ParitySorter(("in",), "even", "odd"), PhaseShift("odd", 0.7), Recombiner("even", "odd", "out")),
)
#: The o2 keys bypass the second sorter, so the mean of K rho K^dagger over
#: its sign keeps a coherence linear in sqrt((1+V)/2): the superposition's
#: statistic is not a polynomial in V.
NESTED_SORTERS = OpticalCircuit(
    4,
    WINDOW,
    (
        ParitySorter(("in",), "e2", "o2"),
        ParitySorter(("e2",), "e3", "o3"),
        Recombiner("e3", "o2", "m4", mode="ideal"),
    ),
    output_path="m4",
)


def test_superposition_visibility_uses_the_ideal_relative_phase():
    assert superposition_visibility(PHASE_CIRCUIT, NoiseParams(1.0, 0.5)) == pytest.approx(
        1.0, abs=1e-12
    )


def oracle_superposition_visibility(circuit, noise):
    """superposition_visibility from the enumerated branches and the dict
    transfer: the expected projection's branch mean over the mean of the
    two projections' total, averaged over both input signs."""
    transfer, w = dict_transfer(circuit), circuit.window
    ins = [w.dim - 2, w.dim - 1]
    outs = [int(np.argmax(np.abs(transfer[:, j]))) for j in ins]
    phase = transfer[outs[1], ins[1]] / transfer[outs[0], ins[0]]
    a, b = ((circuit.output_path, w.to_oam(i)) for i in outs)
    values = []
    for s in (1, -1):
        state = {("in", w.to_oam(ins[0])): 2**-0.5, ("in", w.to_oam(ins[1])): s * 2**-0.5}
        expected = total = 0.0
        for weight, out in enumerate_branches(circuit, state, noise):
            alpha, beta = out.get(a, 0j), out.get(b, 0j)
            expected += weight * abs(alpha + s * np.conj(phase) * beta) ** 2 / 2
            total += weight * (abs(alpha) ** 2 + abs(beta) ** 2)
        values.append(expected / total)
    return sum(values) / 2


@pytest.mark.parametrize("throughput", [0.05, 0.5])
@pytest.mark.parametrize("v", [0.3, 0.87])
@pytest.mark.parametrize(
    "circuit",
    [build_gate_circuit(kind, WINDOW) for kind in ("X", "X2", "Xdagger")]
    + [PHASE_CIRCUIT, NESTED_SORTERS],
    ids=["X", "X2", "Xdagger", "phase", "nested_sorters"],
)
def test_superposition_visibility_matches_the_branch_oracle(circuit, v, throughput):
    noise = NoiseParams(v, throughput)
    want = oracle_superposition_visibility(circuit, noise)
    assert abs(superposition_visibility(circuit, noise) - want) <= 1e-12


def test_superposition_visibility_rejects_pairs_off_the_window():
    circuit = OpticalCircuit(
        4, WINDOW, (ParitySorter(("in",), "even", "odd"),), output_path="even"
    )
    with pytest.raises(CircuitError, match="logical mode 3"):
        superposition_visibility(circuit)


def test_superposition_visibility_rejects_pairs_the_noisy_circuit_never_reaches():
    # the ideal transfer sends the pair to m1.discard, which the lossy
    # recombiner never feeds
    elements = (
        ParitySorter(("in",), "e0", "o0", "even"),
        Recombiner("o0", "e0", "m1", mode="lossy_pbs", reflect="even"),
    )
    circuit = OpticalCircuit(4, WINDOW, elements, output_path="m1.discard")
    with pytest.raises(CircuitError, match="no amplitude reaches window mode 2 for input 2"):
        superposition_visibility(circuit)


STATE = {("in", 0): 1.0}
#: Each call given a circuit and a noise in turn.
CALLS = {
    "correlation_matrix": correlation_matrix,
    "superposition_visibility": superposition_visibility,
    "output_mode_probabilities": lambda c, noise: output_mode_probabilities(c, STATE, noise),
    "propagate_branches": lambda c, noise: propagate_branches(c, STATE, noise),
    "circuit_unitary_fidelity": lambda c, noise: circuit_unitary_fidelity(c, np.eye(4)),
}


@pytest.mark.parametrize(
    "name,circuit,noise,argument",
    [(name, "X", NoiseParams(), "circuit") for name in CALLS]
    + [
        (name, build_gate_circuit("X", WINDOW), bad, "noise")
        for name in CALLS
        if name != "circuit_unitary_fidelity"
        for bad in [(0.9, 0.5), 0.9]
    ],
)
def test_arguments_of_the_wrong_type_raise_a_named_type_error(name, circuit, noise, argument):
    with pytest.raises(TypeError, match=f"^{argument} must be "):
        CALLS[name](circuit, noise)


# --- calibration on the closed form ------------------------------------------


def sequential_calibration(kind, target, *, throughput=0.5, tol=1e-4):
    """Bisection over V one visibility at a time on the public
    mean_gate_efficiency, with calibrate_visibility's grid check, endpoint
    shortcuts and error messages and a 200-step cap: the noise it returns
    and its final bracket (None for an endpoint)."""
    if not 0.25 < target <= 1.0:
        raise CalibrationError(
            f"target mean efficiency must lie in (0.25, 1], got {target}"
        )

    def eff(v):
        return mean_gate_efficiency(kind, NoiseParams(v, throughput))

    values = [eff(i / 10) for i in range(11)]
    if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
        raise CalibrationError("mean efficiency is not monotone in visibility")
    lo_eff, hi_eff = values[0], values[-1]
    if not lo_eff - tol <= target <= hi_eff + tol:
        raise CalibrationError(
            f"target {target} unreachable; achievable mean "
            f"efficiency range is [{lo_eff:.4f}, {hi_eff:.4f}]"
        )
    for v_exact, e_exact in ((1.0, hi_eff), (0.0, lo_eff)):
        if abs(e_exact - target) <= tol:
            return NoiseParams(v_exact, throughput), None
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        e = eff(mid)
        if abs(e - target) <= tol:
            return NoiseParams(mid, throughput), (lo, hi)
        lo, hi = (mid, hi) if e < target else (lo, mid)
    raise CalibrationError(f"calibration failed to reach target {target} within {tol}")


def check_against_bisection(kind, target, *, throughput=0.5, tol=1e-4):
    """calibrate_visibility raises the bisection's errors and returns its
    endpoints; otherwise its V lies in the bisection's final bracket and its
    mean efficiency is the target to 1e-12."""
    kwargs = {"throughput": throughput, "tol": tol}
    try:
        want, bracket = sequential_calibration(kind, target, **kwargs)
    except CalibrationError as exc:
        with pytest.raises(CalibrationError) as got:
            calibrate_visibility(kind, target, **kwargs)
        assert str(got.value) == str(exc)
        return
    got = calibrate_visibility(kind, target, **kwargs)
    if bracket is None:
        assert got == want
        return
    assert bracket[0] <= got.visibility <= bracket[1]
    assert got.throughput == throughput
    assert abs(mean_gate_efficiency(kind, got) - target) <= 1e-12


PAPER_TARGETS = [("X", 0.873), ("X2", 0.904), ("Xdagger", 0.884)]


@pytest.mark.parametrize("tol", [1e-4, 1e-7])
@pytest.mark.parametrize("kind,target", PAPER_TARGETS)
def test_calibration_matches_sequential_bisection(kind, target, tol):
    check_against_bisection(kind, target, tol=tol)


@pytest.mark.parametrize("throughput", [0.01, 0.02, 0.045, 0.5])
@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_calibration_returns_exact_endpoints_at_zero_tolerance(kind, throughput):
    # the endpoints are single grades of the table, so E(1) = 1 and
    # E(0) = 0.75 hold to the ulp at every throughput
    for target in (1.0, 0.75):
        check_against_bisection(kind, target, throughput=throughput, tol=0.0)


@pytest.mark.parametrize(
    "kind,target,root", [("X", 0.873, 0.492), ("X2", 0.904, 0.616), ("Xdagger", 0.884, 0.536)]
)
def test_calibration_returns_the_exact_root(kind, target, root):
    # every gate's mean efficiency is 0.75 + 0.25 V
    assert abs(calibrate_visibility(kind, target).visibility - root) <= 1e-12


@pytest.mark.parametrize("throughput", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_efficiency_curve_is_the_mean_gate_efficiency(kind, throughput):
    curve, grid = optics._efficiency_curve(kind, throughput)
    vs = np.linspace(0, 1, 101)
    want = [mean_gate_efficiency(kind, NoiseParams(v, throughput)) for v in vs]
    assert np.all(np.abs(curve(vs) - want) <= 1e-12)
    assert np.all(np.abs(grid - want[::10]) <= 1e-12)
    assert grid[-1] == mean_gate_efficiency(kind, NoiseParams(1.0, throughput)) == 1.0


@pytest.mark.parametrize("tol", [1e-4, 0.0])
@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_calibration_never_evaluates_the_curve_at_a_grid_point(monkeypatch, kind, tol):
    # the solve starts from the cached grid values, and the tolerance check
    # reads the residual of its last step
    curve, grid = optics._efficiency_curve(kind, 0.5)
    calls = []

    def spy(v):
        calls.append(v)
        return curve(v)

    monkeypatch.setattr(optics, "_efficiency_curve", lambda *_: (spy, grid))
    for target in (0.751, 0.8, 0.825, 0.85, 0.873, 0.884, 0.904, 0.925, 0.95, 0.999):
        try:
            calibrate_visibility(kind, target, tol=tol)
        except CalibrationError:  # at tol = 0 the root may miss the target by rounding
            pass
    assert calls and not set(calls) & set(optics._GRID)


@pytest.mark.parametrize("jump", [1 / 3, 0.4], ids=["inside_a_cell", "on_a_grid_point"])
def test_calibration_raises_when_the_curve_misses_the_target(monkeypatch, jump):
    # efficiency steps from 0.5 to 1 at V = jump, so the root search closes
    # in on the jump without ever coming within tol of the target 0.75
    calls = []

    def step(v):
        calls.append(v)
        return np.where(np.asarray(v) < jump, 0.5, 1.0)

    grid = step(optics._GRID)
    calls.clear()
    monkeypatch.setattr(optics, "_efficiency_curve", lambda *_: (step, grid))
    with pytest.raises(CalibrationError, match="failed to reach target 0.75 within 0.0001"):
        calibrate_visibility("X", 0.75)
    assert all(0.3 <= v <= 0.4 for v in calls) and len(calls) <= 103


def test_calibration_solves_a_curved_efficiency_to_rounding(monkeypatch):
    def curve(v):
        return 0.75 + 0.25 * np.asarray(v) ** 4

    monkeypatch.setattr(optics, "_efficiency_curve", lambda *_: (curve, curve(optics._GRID)))
    noise = calibrate_visibility("X", 0.8, tol=1e-4)
    assert abs(curve(noise.visibility) - 0.8) <= 1e-15
    assert noise.visibility == pytest.approx(0.2**0.25, abs=1e-14)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["X", "X2", "Xdagger"]),
    st.floats(0.7, 1.0),
    st.floats(0.05, 1.0),
    st.sampled_from([1e-3, 1e-4, 1e-6]),
)
def test_calibration_sweep_matches_sequential_bisection(kind, target, throughput, tol):
    # every kind reaches mean efficiencies from 0.75 (V=0) to 1 (V=1); the
    # targets just below that range check the unreachable error as well
    check_against_bisection(kind, target, throughput=throughput, tol=tol)


# --- compiled-form cache -----------------------------------------------------


@settings(deadline=None)
@given(random_circuits(), st.floats(0, 1), st.floats(0.01, 1))
def test_cached_correlation_equals_a_fresh_compile(circuit, v, throughput):
    noise = NoiseParams(v, throughput)
    with pytest.MonkeyPatch.context() as fresh:
        # a fresh compiled form, whose table is built anew the same way
        fresh.setattr(optics, "_compiled", optics._Compiled)
        try:
            want = correlation_matrix(circuit, noise)
        except CircuitError:
            want = None
    for _ in range(2):  # the second call reads the cache
        if want is None:
            with pytest.raises(CircuitError):
                correlation_matrix(circuit, noise)
        else:
            assert np.array_equal(correlation_matrix(circuit, noise), want)


def sorter_arms_merged(output_path):
    """A sorter whose output arms meet at an ideal recombiner, read at `output_path`."""
    elements = (
        ParitySorter(("in",), "e", "o", reflected_parity="odd"),
        Recombiner("e", "o", "m", mode="ideal", reflect="none"),
    )
    return OpticalCircuit(4, WINDOW, elements, output_path=output_path)


#: Near V = 1 every input reaches the discard port through leaks alone, so
#: its window probabilities are tiny.
LEAKY = sorter_arms_merged("m.discard")
#: Near V = 1 a leaked entry is tiny next to the rest of its row.
SPLIT = sorter_arms_merged("m")
#: Rows mixing paths through one and through two lossy recombiners, whose
#: normalized values depend on the throughput.
TWO_LOSSES = OpticalCircuit(
    4,
    WINDOW,
    (
        ParitySorter(("in",), "e0", "o0"),
        ParitySorter(("e0",), "e1", "o1"),
        Recombiner("e1", "o1", "m1"),
        Recombiner("m1", "o0", "m2"),
    ),
    output_path="m2",
)
#: Visibilities anywhere in [0, 1], and ones close enough to 1 that some
#: window probabilities are tiny.
VISIBILITIES = st.floats(0, 1) | st.integers(1, 16).map(lambda n: 1 - 10.0**-n)


def window_probs(c, rows):
    """P[i, m] of the compiled circuit `c`: rows[k, i] is the probability at
    output key k for input window mode i."""
    window = c.circuit.window.oam_labels
    probs = np.zeros((len(window), len(window)))
    for m, ell in enumerate(window):
        if ell in c.outputs:
            probs[:, m] = rows[c.outputs[ell]]
    return probs


def mixture_window_probs(c, noise):
    """Window probabilities of one complex density-operator pass at `noise`."""
    rhos = optics._mix(c.steps, np.eye(c.circuit.dim), noise)
    return window_probs(c, np.einsum("kik->ki", rhos).real)


def transport_window_probs(c, v, throughput):
    """Window probabilities of the real transport at the single visibility `v`."""
    probs = np.eye(c.circuit.dim)
    for step in c.steps:
        probs = optics._transport(step, v, throughput) @ probs
    return window_probs(c, probs)


@settings(deadline=None)
@given(random_circuits(min_slots=1), VISIBILITIES, st.floats(0.01, 1))
@example(LEAKY, 1 - 1e-6, 0.5)
@example(SPLIT, 1 - 1e-16, 0.5)
@example(TWO_LOSSES, 0.7, 0.2)
def test_table_correlation_matches_a_fresh_mixture_pass(circuit, v, throughput):
    noise = NoiseParams(v, throughput)
    probs = mixture_window_probs(optics._Compiled(circuit), noise)
    totals = probs.sum(axis=1, keepdims=True)
    try:
        matrix = correlation_matrix(circuit, noise)
    except CircuitError:
        assert (totals <= 0).any()
        return
    assert np.all(np.abs(matrix - probs / totals) <= 1e-12)
    assert np.all(np.abs(matrix.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(matrix >= 0)


@settings(deadline=None)
@given(random_circuits(min_slots=1), VISIBILITIES, st.floats(0.01, 1))
def test_basis_inputs_leave_the_mixture_pass_diagonal(circuit, v, throughput):
    # the premise of the real transport: no coherence between the keys of
    # one basis input survives the noise average
    c = optics._Compiled(circuit)
    rhos = optics._mix(c.steps, np.eye(circuit.dim), NoiseParams(v, throughput))
    for i in range(circuit.dim):
        rho = rhos[:, i]
        assert np.all(np.abs(rho - np.diag(np.diag(rho))) <= 1e-12)


@settings(deadline=None)
@given(random_circuits(min_slots=1), st.floats(0, 1), st.floats(0.01, 1))
def test_step_moments_are_the_sign_pattern_means(circuit, v, throughput):
    noise = NoiseParams(v, throughput)
    # the transport's weights before they came from the moments table
    squares = {"keep": (1 + v) / 2, "leak": (1 - v) / 2, "arm": 1.0, "tau": throughput}
    for step in optics._Compiled(circuit).steps:
        e, names, basis = step
        moments = optics._second_moments(names, v, throughput)
        want = np.zeros_like(moments, dtype=complex)
        patterns = list(itertools.product((1, -1), repeat=len(e.noise_slots)))
        for signs in patterns:
            w = branch_weights(e, noise, **{f"{s}_sign": x for s, x in zip(e.noise_slots, signs)})
            t = np.array([math.prod(w[n] for n in fs) for fs in names])
            want += np.outer(t, t.conj()) / len(patterns)
        assert np.all(np.abs(moments - want) <= 1e-15)
        weights = [math.prod(squares[n] for n in fs) for fs in names]
        assert np.array_equal(np.diag(moments), weights)
        transport = np.tensordot(weights, (basis * basis.conj()).real, 1)
        assert np.array_equal(optics._transport(step, v, throughput), transport)


@settings(deadline=None)
@given(random_circuits(), st.floats(0.01, 1))
def test_table_grades_are_non_negative_and_exact_at_both_ends(circuit, throughput):
    c = optics._Compiled(circuit)
    table = optics._table.__wrapped__(c, throughput)
    s = sum("split" in e.noise_slots for e in circuit.elements)
    assert table.shape == (s + 1, 4, 4)
    assert np.all(table >= 0)
    for v in (0.0, 1.0):
        want = transport_window_probs(c, v, throughput)
        got = (optics._grades(v, s) @ table.reshape(s + 1, -1)).reshape(4, 4)
        assert np.array_equal(got, want)


@given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), random_circuits(min_slots=n))))
def test_random_circuits_hold_the_noise_slots_asked_for(drawn):
    n, circuit = drawn
    assert n <= sum(len(e.noise_slots) for e in circuit.elements) <= 5


def test_a_paper_round_builds_one_graded_table_per_circuit_and_throughput():
    for cache in (optics._gate_circuit, optics._compiled, optics._table, optics._efficiency_curve):
        cache.cache_clear()
    for throughput in (0.5, 0.05):
        for v in (0.0, 0.3, 0.87, 1.0):
            for kind, target in PAPER_TARGETS:
                circuit = build_gate_circuit(kind, WINDOW)
                calibrated = calibrate_visibility(kind, target, throughput=throughput)
                for noise in (calibrated, NoiseParams(v, throughput)):
                    correlation_matrix(circuit, noise)
                    superposition_visibility(circuit, noise)
                    circuit_unitary_fidelity(circuit, ideal_gate_matrix(kind))
    noise_free = OpticalCircuit(4, WINDOW, (PhaseShift("in", 0.3),), output_path="in")
    for v in (0.0, 0.3, 1.0):
        correlation_matrix(noise_free, NoiseParams(v, 0.5))
    # each gate circuit at each throughput, and the noise-free circuit once
    assert optics._table.cache_info().misses == len(PAPER_TARGETS) * 2 + 1 == 7


def test_each_distinct_circuit_compiles_once(monkeypatch):
    compiled = []

    def spy(circuit, labels):
        compiled.append(circuit)
        return compile_(circuit, labels)

    compile_ = optics._compile
    monkeypatch.setattr(optics, "_compile", spy)
    for cache in (optics._gate_circuit, optics._compiled, optics._table, optics._efficiency_curve):
        cache.cache_clear()
    for _ in range(3):
        for kind, target in PAPER_TARGETS:
            circuit = build_gate_circuit(kind, WINDOW)
            noise = calibrate_visibility(kind, target)
            correlation_matrix(circuit, noise)
            superposition_visibility(circuit, noise)
            circuit_unitary_fidelity(circuit, ideal_gate_matrix(kind))
    # each circuit, then the ideal-recombiner variant its transfer comes from
    want = []
    for kind, _ in PAPER_TARGETS:
        circuit = build_gate_circuit(kind, WINDOW)
        ideal = tuple(
            replace(e, mode="ideal") if isinstance(e, Recombiner) else e for e in circuit.elements
        )
        want += [circuit, replace(circuit, elements=ideal)]
    assert compiled == want


def test_callers_cannot_change_a_cached_result():
    circuit = build_gate_circuit("X", WINDOW)
    for noise in (NoiseParams(0.7, 0.5), NoiseParams(1.0, 0.5)):  # inside, an end
        matrix = correlation_matrix(circuit, noise)
        want = matrix.copy()
        matrix[:] = 0.0
        assert np.array_equal(correlation_matrix(circuit, noise), want)
    entry = optics._compiled(circuit)
    _, grid = optics._efficiency_curve("X", 0.5)
    table = optics._table(entry, 0.5)
    for array in [entry.transfer, grid, table] + [basis for _, _, basis in entry.steps]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_sorter_inputs_given_as_a_list_share_the_tuple_forms_cache_entry():
    sorter = ParitySorter(["in"], "even", "odd", reflected_parity="even")
    assert sorter.in_paths == ("in",)
    circuit = replace(
        build_gate_circuit("X", WINDOW),
        elements=(SpiralPhasePlate("in", 1), sorter, Mirror("odd"), Recombiner("even", "odd", "out")),
    )
    want = build_gate_circuit("X", WINDOW)
    assert circuit == want and hash(circuit) == hash(want)
    assert optics._compiled(circuit) is optics._compiled(want)
    noise = NoiseParams(0.7, 0.5)
    assert np.array_equal(correlation_matrix(circuit, noise), correlation_matrix(want, noise))
    assert circuit_unitary_fidelity(circuit, make_x(4)) == pytest.approx(1.0, abs=1e-12)


# --- non-finite and negative inputs -------------------------------------------


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf, -0.5])
def test_efficiency_rejects_non_finite_and_negative_entries(cell):
    m = np.eye(4)
    m[2, 1] = cell
    with pytest.raises(ValueError, match="row 2, column 1"):
        efficiency(m, expected_permutation("X"))
    with pytest.raises(ValueError, match="row 0, column 0"):
        efficiency(np.full((4, 4), cell), expected_permutation("X"))


@pytest.mark.parametrize("cell", [np.nan, np.inf, complex(0, np.nan)])
def test_circuit_unitary_fidelity_rejects_non_finite_gates(cell):
    gate = make_x(4)
    gate[3, 1] = cell
    with pytest.raises(ValueError, match=r"gate entry \(3, 1\)"):
        circuit_unitary_fidelity(build_gate_circuit("X", WINDOW), gate)


@pytest.mark.parametrize(
    "shots,seed,match",
    [
        (2.5, 1, "shots_per_input must be an integer >= 1, got 2.5"),
        (True, 1, "shots_per_input must be an integer >= 1, got True"),
        (np.float64(10), 1, "shots_per_input"),
        (10, -1, "seed must be an integer >= 0, got -1"),
        (10, 1.5, "seed must be an integer >= 0, got 1.5"),
        (10, False, "seed must be an integer >= 0, got False"),
        (2**63, 1, re.escape(f"shots_per_input must be at most 2**63 - 1, got {2**63}")),
        (np.uint64(2**63), 1, "shots_per_input must be at most 2"),
    ],
)
def test_monte_carlo_rejects_bad_shots_and_seeds(shots, seed, match):
    with pytest.raises(ValueError, match=match):
        monte_carlo_counts(np.full((4, 4), 0.25), shots, seed)


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf, -0.25])
def test_monte_carlo_rejects_non_finite_and_negative_cells(cell):
    probs = np.full((4, 4), 0.25)
    probs[1, 3] = cell
    with pytest.raises(ValueError, match="row 1, column 3"):
        monte_carlo_counts(probs, 10, 1)


def test_cell_errors_come_before_row_totals():
    # inf + -inf in one row sums to NaN; the cell is still what is named
    m = np.eye(4)
    m[1] = [np.inf, -np.inf, 1.0, 1e308]
    with pytest.raises(ValueError, match="row 1, column 0 holds inf"):
        efficiency(m, expected_permutation("X"))
    with pytest.raises(ValueError, match="row 1, column 0 holds inf"):
        monte_carlo_counts(m, 10, 1)


@pytest.mark.parametrize("huge_row", [0, 2])
def test_efficiency_rejects_rows_that_sum_to_infinity(huge_row):
    m = np.eye(4)
    m[huge_row] = 1e308
    with pytest.raises(ValueError, match=f"row {huge_row} sums to inf, not a finite number"):
        efficiency(m, expected_permutation("X"))
    with pytest.raises(ValueError, match="row 0 sums to inf"):
        efficiency(np.full((4, 4), 1e308), [1, 2, 3, 0])


@pytest.mark.parametrize("huge_row", [0, 3])
def test_monte_carlo_rejects_rows_that_sum_to_infinity(huge_row):
    probs = np.full((4, 4), 0.25)
    probs[huge_row] = 1e308
    with pytest.raises(ValueError, match=f"row {huge_row} sums to inf, not a finite number"):
        monte_carlo_counts(probs, 10, 1)
    with pytest.raises(ValueError, match="row 0 sums to inf"):
        monte_carlo_counts(np.full((4, 4), 1e308), 10, 1)


def test_huge_finite_rows_that_do_not_overflow_still_count():
    probs = np.full((4, 4), 1e307)
    assert efficiency(probs, [1, 2, 3, 0])[1] == 0.25
    counts = monte_carlo_counts(probs, 1000, 5)
    want = monte_carlo_counts(np.full((4, 4), 0.25), 1000, 5)
    assert np.array_equal(counts, want)


def test_monte_carlo_draws_one_substream_per_row():
    probs = correlation_matrix(build_gate_circuit("X2", WINDOW), NoiseParams(0.6, 0.5))
    counts = monte_carlo_counts(probs * 3, np.int64(1000), np.uint32(9))
    for i, row in enumerate(probs * 3):
        want = np.random.default_rng([9, i]).multinomial(1000, row / row.sum())
        assert np.array_equal(counts[i], want)
    wide = np.asfortranarray(np.random.default_rng(3).random((5, 40)) ** 8)
    counts = monte_carlo_counts(wide, 1000, 9)
    for i, row in enumerate(wide):
        want = np.random.default_rng([9, i]).multinomial(1000, row / row.sum())
        assert np.array_equal(counts[i], want)


def eye_with(cells=(), rows=()):
    """The 4x4 identity with `cells` ((i, j, value), ...) and `rows` ((i, row), ...) set."""
    m = np.eye(4)
    for i, j, value in cells:
        m[i, j] = value
    for i, row in rows:
        m[i] = row
    return m


#: Matrices that fail the one-pass row check, each with the message that
#: efficiency and then monte_carlo_counts raise for it.
ROW_CHECK_CASES = {
    "nan-cell": (
        eye_with(cells=[(2, 1, np.nan)]),
        "efficiency undefined: row 2, column 1 holds nan, not a finite non-negative number",
        "probability matrix: row 2, column 1 holds nan, not a finite non-negative number",
    ),
    "inf-cell": (
        eye_with(cells=[(2, 1, np.inf)]),
        "efficiency undefined: row 2, column 1 holds inf, not a finite non-negative number",
        "probability matrix: row 2, column 1 holds inf, not a finite non-negative number",
    ),
    "minus-inf-cell": (
        eye_with(cells=[(2, 1, -np.inf)]),
        "efficiency undefined: row 2, column 1 holds -inf, not a finite non-negative number",
        "probability matrix: row 2, column 1 holds -inf, not a finite non-negative number",
    ),
    "negative-cell": (
        eye_with(cells=[(2, 1, -0.5)]),
        "efficiency undefined: row 2, column 1 holds -0.5, not a finite non-negative number",
        "probability matrix: row 2, column 1 holds -0.5, not a finite non-negative number",
    ),
    "negative-cell-in-a-row-summing-to-zero": (
        eye_with(rows=[(1, [1, -1, 0, 0])]),
        "efficiency undefined: row 1, column 1 holds -1.0, not a finite non-negative number",
        "probability matrix: row 1, column 1 holds -1.0, not a finite non-negative number",
    ),
    "zero-row": (
        eye_with(rows=[(2, 0.0)]),
        "efficiency undefined: row 2 has zero total counts",
        "row 2 is not a probability distribution",
    ),
    "finite-row-summing-to-inf": (
        eye_with(rows=[(1, 1e308)]),
        "efficiency undefined: row 1 sums to inf, not a finite number",
        "probability matrix: row 1 sums to inf, not a finite number",
    ),
    "zero-row-before-a-row-summing-to-inf": (
        eye_with(rows=[(0, 0.0), (2, 1e308)]),
        "efficiency undefined: row 2 sums to inf, not a finite number",
        "probability matrix: row 2 sums to inf, not a finite number",
    ),
    "zero-row-before-a-nan-cell": (
        eye_with(cells=[(3, 2, np.nan)], rows=[(0, 0.0)]),
        "efficiency undefined: row 3, column 2 holds nan, not a finite non-negative number",
        "probability matrix: row 3, column 2 holds nan, not a finite non-negative number",
    ),
    "row-summing-to-inf-before-a-nan-cell": (
        eye_with(cells=[(3, 1, np.nan)], rows=[(0, 1e308)]),
        "efficiency undefined: row 3, column 1 holds nan, not a finite non-negative number",
        "probability matrix: row 3, column 1 holds nan, not a finite non-negative number",
    ),
}


@pytest.mark.parametrize("case", ROW_CHECK_CASES)
def test_every_row_check_message_is_kept(case):
    matrix, efficiency_message, counts_message = ROW_CHECK_CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(efficiency_message)}$"):
        efficiency(matrix, [1, 2, 3, 0])
    with pytest.raises(ValueError, match=f"^{re.escape(counts_message)}$"):
        monte_carlo_counts(matrix, 10, 1)


def test_row_checks_on_matrices_without_rows_or_columns():
    assert monte_carlo_counts(np.zeros((0, 4)), 10, 1).shape == (0, 4)
    with pytest.raises(ValueError, match="^efficiency undefined: the matrix has no rows$"):
        efficiency(np.zeros((0, 4)), [])
    with pytest.raises(ValueError, match="^row 0 is not a probability distribution$"):
        monte_carlo_counts(np.zeros((4, 0)), 10, 1)


@pytest.mark.parametrize("shift,row", [(2, 2), (-1, 0), (1, 3)])
def test_correlation_names_the_first_input_with_an_all_zero_row(shift, row):
    circuit = OpticalCircuit(4, WINDOW, (SpiralPhasePlate("in", shift),), output_path="in")
    for v in (0.0, 0.8, 1.0):
        message = f"no amplitude reaches the window for input {row}"
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            correlation_matrix(circuit, NoiseParams(v, 0.5))


def reference_grades(v, k):
    """The grade weights as numpy integer-exponent powers, the reference the
    weights must equal bit for bit."""
    j = np.arange(k + 1)
    v = np.asarray(v)[..., None]
    return v ** (k - j) * (1 - v) ** j


@given(
    st.floats(0, 1) | st.sampled_from([0, 1, np.float32(0.87), 1 - 1e-16]),
    st.integers(0, 40),
)
def test_grade_weights_equal_the_integer_power_reference(v, k):
    assert np.array_equal(optics._grades(v, k), reference_grades(v, k))
    grid = np.append(optics._GRID, v)
    assert np.array_equal(optics._grades(grid, k), reference_grades(grid, k))

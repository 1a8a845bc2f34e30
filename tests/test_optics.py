from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
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
    apply_element,
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
    propagate,
    propagate_branches,
    superposition_visibility,
    total_probability,
    trace_modes,
)

WINDOW = SubspaceMap(4, -2)

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


def test_propagate_empty_circuit_is_identity():
    circuit = OpticalCircuit(4, WINDOW, (), input_path="in", output_path="in")
    state = {("in", -1): 0.5 + 0.5j}
    assert propagate(circuit, state) == state


def test_propagate_requires_input_path_support():
    circuit = build_gate_circuit("X", WINDOW)
    with pytest.raises(CircuitError, match="input"):
        propagate(circuit, {("odd", 0): 1.0})


def test_propagate_conserves_probability_when_ideal():
    for kind in ("X", "X2", "Xdagger"):
        circuit = build_gate_circuit(kind, WINDOW)
        state = {("in", ell): 0.5 + 0j for ell in WINDOW.oam_labels}
        final = propagate(circuit, state, IDEAL)
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
    final = propagate(circuit, {("in", 0): amp, ("in", 1): amp}, IDEAL)
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
    "expected", [[-4, -3, -2, -1], [4, 2, 3, 0], [1.0, 2, 3, 0], [0, 1, 2, "3"]]
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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-4])
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


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(1.2, 0.5)
    with pytest.raises(ValueError):
        NoiseParams(0.5, 0.0)


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
    """Output-path probabilities averaged over propagate_branches."""
    probs = {}
    for weight, final in propagate_branches(circuit, state, noise):
        for (path, ell), amp in final.items():
            if path == circuit.output_path:
                probs[ell] = probs.get(ell, 0.0) + weight * abs(amp) ** 2
    return probs


@st.composite
def random_circuits(draw):
    """Small valid circuits of every element type with at most 5 noise slots."""
    live, elements, slots = ["in"], [], 0
    for n in range(draw(st.integers(0, 7))):
        kinds = ["spp", "mirror", "phase"]
        if slots < 5:
            kinds.append("sorter")
            if len(live) > 1:
                kinds.append("recombiner")
        kind = draw(st.sampled_from(kinds))
        if kind == "recombiner":
            arms = st.lists(st.sampled_from(live), min_size=2, max_size=2, unique=True)
            a, b = draw(arms)
            modes = ["ideal", "lossy_pbs"] if slots < 4 else ["lossy_pbs"]
            mode = draw(st.sampled_from(modes))
            reflect = draw(st.sampled_from(["even", "odd", "none"]))
            elements.append(Recombiner(a, b, f"m{n}", mode=mode, reflect=reflect))
            live = [p for p in live if p not in (a, b)] + [f"m{n}", f"m{n}.discard"]
            slots += 2 if mode == "ideal" else 1
            continue
        path = draw(st.sampled_from(live))
        if kind == "sorter":
            parity = draw(st.sampled_from(["even", "odd"]))
            elements.append(ParitySorter((path,), f"e{n}", f"o{n}", parity))
            live = [p for p in live if p != path] + [f"e{n}", f"o{n}"]
            slots += 1
        elif kind == "spp":
            elements.append(SpiralPhasePlate(path, draw(st.integers(-3, 3))))
        elif kind == "mirror":
            elements.append(Mirror(path))
        else:
            elements.append(PhaseShift(path, draw(st.floats(-np.pi, np.pi))))
    output = draw(st.sampled_from(live))
    return OpticalCircuit(4, WINDOW, tuple(elements), output_path=output)


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


@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_superposition_visibility_limits_for_every_gate(kind):
    circuit = build_gate_circuit(kind, WINDOW)
    assert superposition_visibility(circuit, NoiseParams(1.0, 0.5)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert superposition_visibility(circuit, NoiseParams(0.0, 0.5)) == pytest.approx(
        0.5, abs=1e-12
    )


def test_superposition_visibility_uses_the_ideal_relative_phase():
    # logical modes 2, 3 (OAM 0, 1) leave on OAM 0 and -1, the odd one
    # carrying an extra phase of 0.7 rad
    circuit = OpticalCircuit(
        4,
        WINDOW,
        (
            ParitySorter(("in",), "even", "odd"),
            PhaseShift("odd", 0.7),
            Recombiner("even", "odd", "out"),
        ),
    )
    assert superposition_visibility(circuit, NoiseParams(1.0, 0.5)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_superposition_visibility_rejects_pairs_off_the_window():
    circuit = OpticalCircuit(
        4, WINDOW, (ParitySorter(("in",), "even", "odd"),), output_path="even"
    )
    with pytest.raises(CircuitError, match="logical mode 3"):
        superposition_visibility(circuit)


def test_apply_element_rejects_unknown_elements():
    with pytest.raises(CircuitError, match="unknown element"):
        apply_element("mirror", {("in", 0): 1.0})


# --- batched visibilities ----------------------------------------------------


def sequential_calibration(kind, target, *, throughput=0.5, tol=1e-4):
    """calibrate_visibility one V at a time over the public
    mean_gate_efficiency: the same grid check, endpoint shortcuts,
    midpoints, 200-step cap and error messages."""
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
            return NoiseParams(v_exact, throughput)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        e = eff(mid)
        if abs(e - target) <= tol:
            return NoiseParams(mid, throughput)
        lo, hi = (mid, hi) if e < target else (lo, mid)
    raise CalibrationError(f"bisection failed to reach target {target} within {tol}")


def outcome(calibrate, *args, **kwargs):
    try:
        return calibrate(*args, **kwargs)
    except CalibrationError as exc:
        return f"CalibrationError: {exc}"


PAPER_TARGETS = [("X", 0.873), ("X2", 0.904), ("Xdagger", 0.884)]


@pytest.mark.parametrize("tol", [1e-4, 1e-7])
@pytest.mark.parametrize("kind,target", PAPER_TARGETS)
def test_calibration_matches_sequential_bisection(kind, target, tol):
    want = sequential_calibration(kind, target, tol=tol)
    assert calibrate_visibility(kind, target, tol=tol) == want


@pytest.mark.parametrize("levels", [1, 2, 4, 5])
def test_calibration_is_the_same_for_every_tree_depth(monkeypatch, levels):
    monkeypatch.setattr(optics, "_LEVELS", levels)
    for kind, target in PAPER_TARGETS:
        want = sequential_calibration(kind, target, tol=1e-7)
        assert calibrate_visibility(kind, target, tol=1e-7) == want


@pytest.mark.parametrize("levels", [3, 4])
def test_calibration_stops_after_200_bisection_steps(monkeypatch, levels):
    # efficiency steps from 0.5 to 1 at V = 1/3, so the bisection closes in
    # on 1/3 without ever coming within tol of the target 0.75
    perm, passes = expected_permutation("X"), []

    def step_correlation(compiled, window, vs, throughput):
        passes.append(len(vs))
        e = np.where(vs < 1 / 3, 0.5, 1.0)[:, None]
        probs = np.zeros((len(vs), 4, 4))
        probs[:, range(4), perm] = e
        probs[:, range(4), np.roll(perm, 1)] = 1 - e
        return probs

    monkeypatch.setattr(optics, "_LEVELS", levels)
    monkeypatch.setattr(optics, "_correlation", step_correlation)
    with pytest.raises(CalibrationError, match="bisection failed"):
        calibrate_visibility("X", 0.75)
    tree = 2**levels - 1
    assert passes == [11 + tree] + [tree] * (-(-200 // levels) - 1)


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
    kwargs = {"throughput": throughput, "tol": tol}
    want = outcome(sequential_calibration, kind, target, **kwargs)
    assert outcome(calibrate_visibility, kind, target, **kwargs) == want


def batch_correlation(circuit, visibilities, throughput):
    window = circuit.window.oam_labels
    compiled = optics._compile(circuit, window)
    return optics._correlation(compiled, window, np.array(visibilities), throughput)


@pytest.mark.parametrize("kind", ["X", "X2", "Xdagger"])
def test_visibility_batch_matches_one_visibility_at_a_time(kind):
    circuit, vs = build_gate_circuit(kind, WINDOW), [0.0, 0.3, 0.87, 1.0]
    batch = batch_correlation(circuit, vs, 0.5)
    for v, matrix in zip(vs, batch):
        want = correlation_matrix(circuit, NoiseParams(v, 0.5))
        assert np.allclose(matrix, want, rtol=0, atol=1e-12)
    permutation = np.eye(4)[expected_permutation(kind)]
    assert np.array_equal(batch[-1], permutation)


@settings(deadline=None)
@given(random_circuits(), st.lists(st.floats(0, 1), min_size=1, max_size=5), st.floats(0.01, 1))
def test_visibility_batch_matches_on_random_circuits(circuit, vs, throughput):
    singles = []
    for v in vs:
        try:
            singles.append(correlation_matrix(circuit, NoiseParams(v, throughput)))
        except CircuitError:
            with pytest.raises(CircuitError):
                batch_correlation(circuit, vs, throughput)
            return
    batch = batch_correlation(circuit, vs, throughput)
    assert batch.shape == (len(vs), 4, 4)
    assert np.allclose(batch, singles, rtol=0, atol=1e-12)

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditgates import (
    SubspaceMap,
    apply_gate,
    basis_state,
    dagger,
    gate_power,
    hermitian_from_coeffs,
    is_hermitian,
    is_unitary,
    make_x,
    make_y,
    make_z,
    omega,
    q_basis,
    shift_clock,
    weyl_operator,
)
from quditgates import pauli, weyl

from oracles import index_weyl

np_rng = np.random.default_rng(20240901)

DIMS = [2, 3, 4, 5, 8]


def shift_oracle(d, n):
    """Brute-force permutation: entry 1 at ((l+n) mod d, l)."""
    m = np.zeros((d, d), dtype=complex)
    for l in range(d):
        m[(l + n) % d, l] = 1.0
    return m


@pytest.mark.parametrize("d", DIMS)
def test_group_relations(d):
    x, z = make_x(d), make_z(d)
    assert np.linalg.norm(gate_power(x, d) - np.eye(d)) < 1e-12
    assert np.linalg.norm(gate_power(z, d) - np.eye(d)) < 1e-12
    # X.Z = omega^{-1} Z.X; at d=4 the factor is -i
    assert np.linalg.norm(x @ z - z @ x / omega(d)) < 1e-12


@pytest.mark.parametrize("d", DIMS)
def test_constructed_gates_are_unitary(d):
    for g in (make_x(d), make_z(d), make_y(d)):
        assert is_unitary(g)


def test_x_is_cyclic_permutation():
    x = make_x(4)
    assert np.array_equal(x, shift_oracle(4, 1))
    # wrap-around column: |3> -> |0>
    assert x[0, 3] == 1.0
    assert np.array_equal(apply_gate(x, basis_state(4, 2)), basis_state(4, 3))


def test_x_d2_is_sigma_x():
    assert np.array_equal(make_x(2), np.array([[0, 1], [1, 0]], dtype=complex))


def test_z_diagonal_d4():
    z = make_z(4)
    assert np.allclose(np.diag(z), [1, 1j, -1, -1j], atol=1e-12)
    assert np.allclose(apply_gate(z, basis_state(4, 2)), -basis_state(4, 2), atol=1e-12)


def test_z_d2_is_sigma_z():
    assert np.allclose(make_z(2), np.diag([1.0, -1.0]), atol=1e-12)


def test_y_is_x_times_z():
    for d in DIMS:
        y = make_y(d)
        assert np.allclose(y, make_x(d) @ make_z(d), atol=1e-12)
        # column l has its only nonzero entry omega^l at row (l+1) mod d
        for l in range(d):
            col = y[:, l]
            assert abs(col[(l + 1) % d] - omega(d) ** l) < 1e-12
            assert np.count_nonzero(np.abs(col) > 1e-12) == 1
        assert np.allclose(apply_gate(y, basis_state(d, 0)), basis_state(d, 1), atol=1e-12)


def test_y_d2_phase_convention():
    # X @ Z multiplies out to -i*sigma_y, i.e. sigma_y up to a global phase.
    sigma_y = np.array([[0, -1j], [1j, 0]])
    y = make_y(2)
    assert np.allclose(y, -1j * sigma_y, atol=1e-12)
    phase = y[1, 0] / sigma_y[1, 0]
    assert abs(abs(phase) - 1) < 1e-12
    assert np.allclose(y, phase * sigma_y, atol=1e-12)


@pytest.mark.parametrize("d", DIMS)
def test_gate_power_matches_shift_oracle(d):
    x = make_x(d)
    for n in range(-2 * d, 2 * d + 1):
        assert np.linalg.norm(gate_power(x, n) - shift_oracle(d, n)) < 1e-12


def test_gate_power_zero_is_identity():
    g = make_y(5)
    assert np.array_equal(gate_power(g, 0), np.eye(5, dtype=complex))


def test_x2_swaps_pairs_d4():
    x2 = gate_power(make_x(4), 2)
    for a, b in ((0, 2), (1, 3)):
        assert np.array_equal(apply_gate(x2, basis_state(4, a)), basis_state(4, b))
        assert np.array_equal(apply_gate(x2, basis_state(4, b)), basis_state(4, a))


def test_x_cubed_equals_dagger_d4():
    x = make_x(4)
    assert np.linalg.norm(gate_power(x, 3) - dagger(x)) < 1e-12


def test_dagger():
    x, z = make_x(4), make_z(4)
    assert np.array_equal(apply_gate(dagger(x), basis_state(4, 0)), basis_state(4, 3))
    assert np.allclose(np.diag(dagger(z)), omega(4) ** -np.arange(4), atol=1e-12)
    g = np.linalg.qr(np_rng.normal(size=(4, 4)) + 1j * np_rng.normal(size=(4, 4)))[0]
    assert np.array_equal(dagger(dagger(g)), g)


def test_apply_examples_d4():
    x, z = make_x(4), make_z(4)
    plus01 = (basis_state(4, 0) + basis_state(4, 1)) / np.sqrt(2)
    plus12 = (basis_state(4, 1) + basis_state(4, 2)) / np.sqrt(2)
    assert np.allclose(apply_gate(x, plus01), plus12, atol=1e-12)
    assert np.allclose(apply_gate(np.eye(4), plus01), plus01, atol=1e-12)
    plus02 = (basis_state(4, 0) + basis_state(4, 2)) / np.sqrt(2)
    minus02 = (basis_state(4, 0) - basis_state(4, 2)) / np.sqrt(2)
    assert np.allclose(apply_gate(z, plus02), minus02, atol=1e-12)


def test_apply_preserves_norm_random_pairs():
    for _ in range(1000):
        d = int(np_rng.integers(2, 9))
        gate = {0: make_x, 1: make_z, 2: make_y}[int(np_rng.integers(3))](d)
        gate = gate_power(gate, int(np_rng.integers(-d, d + 1)))
        state = np_rng.normal(size=d) + 1j * np_rng.normal(size=d)
        state /= np.linalg.norm(state)
        assert abs(np.linalg.norm(apply_gate(gate, state)) - 1.0) < 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError, match="incompatible"):
        apply_gate(make_x(4), basis_state(3, 0))


def test_subspace_map_experiment_window():
    m = SubspaceMap(4, -2)
    assert m.oam_labels == (-2, -1, 0, 1)
    assert m.to_oam(3) == 1
    assert m.to_logical(-2) == 0
    for j in range(4):
        assert m.to_logical(m.to_oam(j)) == j


def test_subspace_map_identity_offset():
    m = SubspaceMap(4, 0)
    assert all(m.to_oam(j) == j for j in range(4))


def test_subspace_map_range_errors():
    m = SubspaceMap(4, -2)
    with pytest.raises(ValueError):
        m.to_oam(4)
    with pytest.raises(ValueError):
        m.to_oam(-1)
    with pytest.raises(ValueError):
        m.to_logical(2)


@pytest.mark.parametrize("d", DIMS)
def test_shift_clock_matches_dense_powers(d):
    x, z = make_x(d), make_z(d)
    for a in range(-2 * d, 2 * d + 1):
        for b in range(-2 * d, 2 * d + 1, 3):
            want = gate_power(x, a) @ gate_power(z, b)
            assert np.abs(shift_clock(a, b, d) - want).max() <= 1e-12


def test_shift_clock_rejects_non_integer_exponents():
    for bad in (1.5, True, "2"):
        with pytest.raises(ValueError, match="integer"):
            shift_clock(bad, 0, 4)
        with pytest.raises(ValueError, match="integer"):
            shift_clock(0, bad, 4)


huge = st.integers(-(10**30), 10**30)


@settings(deadline=None)
@given(st.integers(2, 16), huge, huge, huge, huge)
def test_shift_clock_is_exactly_periodic(d, a, b, j, k):
    # X^d = Z^d = I exactly, at any exponent size
    eye = np.eye(d, dtype=complex)
    assert np.array_equal(shift_clock(j * d, 0, d), eye)
    assert np.array_equal(shift_clock(0, k * d, d), eye)
    assert np.array_equal(shift_clock(a + j * d, b + k * d, d), shift_clock(a, b, d))


@settings(deadline=None)
@given(st.integers(2, 64), st.integers(), st.integers())
def test_shift_clock_matches_the_index_formula(d, a, b):
    assert np.array_equal(shift_clock(a, b, d), index_weyl(a, b, 0, d))


@settings(deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(-3 * d, 3 * d))))
def test_y_power_phase_formula(dn):
    # (XZ)^n = omega^(n(n-1)/2 mod d) X^n Z^n
    d, n = dn
    want = omega(d) ** ((n * (n - 1) // 2) % d) * shift_clock(n, n, d)
    assert np.abs(gate_power(make_y(d), n) - want).max() <= 1e-12


# --- exact powers of X^a Z^b ----------------------------------------------------


def weyl_power_oracle(d, a, b, n):
    """(X^a Z^b)^n from Python integers: column l holds
    omega^(b*(n*l + a*n*(n-1)/2) mod d) at row (l + a*n) mod d."""
    l = np.arange(d)
    rows = [(j + a * n) % d for j in range(d)]
    phase = np.array([(b * (n * j + a * (n * (n - 1) // 2))) % d for j in range(d)])
    out = np.zeros((d, d), dtype=complex)
    out[rows, l] = np.exp(2j * np.pi * phase / d)
    return out


@settings(deadline=None)
@given(
    st.integers(2, 64),
    st.integers(),
    st.integers(),
    st.integers(-(10**18), 10**18),
)
def test_gate_power_of_weyl_monomials_is_exact(d, a, b, n):
    got = gate_power(shift_clock(a, b, d), n)
    assert np.array_equal(got, weyl_power_oracle(d, a, b, n))


def test_huge_power_of_z_is_exactly_the_identity():
    assert np.array_equal(gate_power(make_z(4), 10**18), np.eye(4))


@pytest.mark.parametrize("n", [-(10**18), -5, -1, 0, 1, 3, 10**18 + 1])
def test_exact_permutations_take_the_exact_path(n):
    # np.roll(eye, 1, axis=1) is X^-1 as a real matrix
    back = np.roll(np.eye(4), 1, axis=1)
    assert np.array_equal(gate_power(back, n), shift_clock(-n, 0, 4))
    # a bool permutation and an int diagonal (the identity) as well
    assert np.array_equal(gate_power(back.astype(bool), n), shift_clock(-n, 0, 4))
    assert np.array_equal(gate_power(np.eye(3, dtype=int), n), np.eye(3))


def general_power(g, n):
    """The dense power the general path is meant to return."""
    if n < 0:
        return np.linalg.matrix_power(dagger(g), -n)
    return np.linalg.matrix_power(np.asarray(g, dtype=complex), n)


def almost_weyl_and_dense_gates():
    x = make_x(5)
    ulp = x.copy()
    ulp[1, 0] = np.nextafter(1.0, 2.0)
    yield ulp
    ulp = make_y(4)
    ulp[2, 1] = complex(ulp[2, 1].real, np.nextafter(ulp[2, 1].imag, 0.0))
    yield ulp
    for c in (2.0, 0.5, 1.5j, (1 + 1j) / 2):
        yield c * x
    rng = np.random.default_rng(8)
    for d in (2, 3, 4, 7, 16):
        perm = np.eye(d)[:, rng.permutation(d)]
        yield perm * np.exp(2j * np.pi * rng.random(d))
        yield rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        yield np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    yield np.zeros((3, 3))
    yield x + np.eye(5)
    extra = make_x(4)
    extra[0, 2] = 0.5
    yield extra
    yield np.outer(np.ones(3), [0, 1, 0])  # d nonzero entries, none in column 0
    yield np.array([[1.0]])
    yield np.array([[2j]])
    yield np.zeros((0, 0))


@pytest.mark.parametrize("g", list(almost_weyl_and_dense_gates()))
def test_other_matrices_take_the_general_power(g):
    for n in (-7, -2, -1, 0, 1, 2, 5, 9):
        assert np.array_equal(gate_power(g, n), general_power(g, n))


@pytest.mark.parametrize("n", [-41, 41])
def test_integer_matrices_are_powered_in_complex_arithmetic(n):
    # int64 would wrap 3^41 around to a negative number without a warning
    got = gate_power(np.diag([3, 1]), n)
    assert np.array_equal(got, gate_power(np.diag([3.0, 1.0]), n))
    assert abs(got[0, 0] - 3.0**41) <= 1e-15 * 3.0**41


def test_roots_of_unity_table_is_read_only():
    # and so is every other cached table; the index tables are intp
    roots2, expo, place = pauli._tables[5]
    for table in (roots2, expo, place):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 1
    assert expo.dtype == place.dtype == np.intp


def test_matrices_failing_the_cheap_checks_build_no_table():
    two_in_column_0 = np.eye(67)
    two_in_column_0[5, 0], two_in_column_0[5, 5] = 1, 0
    cheap_failures = [
        np.ones((67, 67)),  # not d nonzero entries
        np.zeros((67, 67)),
        two_in_column_0,
        np.outer(np.ones(67), np.eye(67)[1]),  # d nonzeros, none in column 0
    ]
    clear_tables()
    for g in cheap_failures:
        assert np.array_equal(gate_power(g, 3), general_power(g, 3))
    x = np.roll(np.eye(67), 1, axis=0)  # X, built without the library
    nan_phase = x.copy()
    nan_phase[2, 1] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        gate_power(nan_phase, 3)
    assert not pauli._kept
    # one ulp off X passes the cheap checks, so the exact check builds the table
    ulp = x.copy()
    ulp[1, 0] = np.nextafter(1.0, 2.0)
    assert np.array_equal(gate_power(ulp, 3), general_power(ulp, 3))
    assert list(pauli._kept) == [(id(pauli._tables), 67)]


def test_importing_builds_no_table():
    code = "from quditgates import pauli, weyl; print(len(pauli._kept))"
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout == "0\n"


def clear_tables():
    """Drop every kept per-dimension table."""
    with pauli._kept_lock:
        for cache, _ in pauli._kept.values():
            cache.clear()
        pauli._kept.clear()


def test_no_dimension_over_the_table_budget_stays_cached(monkeypatch):
    # the X^a Z^b tables take 16 d^2 + 32 d bytes, the hermitian_from_coeffs
    # ones 24 d^2
    monkeypatch.setattr(pauli, "_TABLE_BYTES", 100_000)
    clear_tables()
    try:
        make_x(64), make_x(16)  # 67584 + 4608 bytes
        hermitian_from_coeffs(np.zeros((32, 32)))  # 24576 more
        make_x(24)  # 9984 more: the oldest tables, d = 64, go
        assert list(pauli._tables) == [16, 24]
        assert list(weyl._hermitian_tables) == [32]
        hermitian_from_coeffs(np.zeros((56, 56)))  # 75264 more: d = 16 and 32 go
        assert list(pauli._tables) == [24]
        assert list(weyl._hermitian_tables) == [56]
        assert sum(nbytes for _, nbytes in pauli._kept.values()) == 9984 + 75264
        make_x(80)  # 104960 bytes alone: built, never kept
        assert list(pauli._tables) == [24]
        assert np.array_equal(make_x(80), index_weyl(1, 0, 0, 80))
        assert not any(t.flags.writeable for t in pauli._tables[80])
    finally:
        clear_tables()


@pytest.mark.parametrize("call, args, message", [
    (basis_state, (4, True), "basis index must be an integer, got True"),
    (basis_state, (4, False), "basis index must be an integer, got False"),
    (basis_state, (4, 1.5), "basis index must be an integer, got 1.5"),
    (basis_state, (4, np.float64(2.0)), "basis index must be an integer, got np.float64(2.0)"),
    (SubspaceMap(4, -2).to_oam, (1.5,), "logical index must be an integer, got 1.5"),
    (SubspaceMap(4, -2).to_oam, (True,), "logical index must be an integer, got True"),
    (SubspaceMap(4, -2).to_logical, (-0.5,), "OAM label must be an integer, got -0.5"),
    (SubspaceMap(4, -2).to_logical, (False,), "OAM label must be an integer, got False"),
    (weyl_operator, (1.5, 0, 4), "index must be an integer, got 1.5"),
    (weyl_operator, (True, 1, 4), "index must be an integer, got True"),
    (weyl_operator, (0, np.float32(1), 4), "index must be an integer, got np.float32(1.0)"),
    (q_basis, (1, 1.0, 4), "index must be an integer, got 1.0"),
])
def test_indices_must_be_integers(call, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)


@pytest.mark.parametrize("shape", [(), (4,), (2, 3), (3, 4), (2, 2, 2), (1, 4)])
def test_gate_power_rejects_non_square_input(shape):
    with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {shape}")):
        gate_power(np.ones(shape), 2)


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("n", [-3, 0, 2])
@pytest.mark.parametrize("i, j", [(2, 3), (2, 1)])  # off and on the nonzero pattern of X
def test_gate_power_rejects_non_finite_entries(cell, n, i, j):
    g = make_x(4)
    g[i, j] = cell
    with pytest.raises(ValueError, match=rf"gate entry \({i}, {j}\) is .*, not finite"):
        gate_power(g, n)


@pytest.mark.parametrize("check", [is_unitary, is_hermitian])
@pytest.mark.parametrize("shape", [(), (4,), (2, 3), (2, 2, 2), (1, 4)])
def test_unitary_and_hermitian_checks_reject_non_square_input(check, shape):
    with pytest.raises(ValueError, match=re.escape(f"must be a square matrix, got shape {shape}")):
        check(np.ones(shape))


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_apply_gate_rejects_non_finite_gates_and_states(cell):
    g = make_x(4)
    g[2, 1] = cell
    with pytest.raises(ValueError, match=r"^gate entry \(2, 1\) is .*, not finite$"):
        apply_gate(g, basis_state(4, 0))
    state = basis_state(4, 0)
    state[3] = cell
    with pytest.raises(ValueError, match=r"^state entry 3 is .*, not finite$"):
        apply_gate(make_x(4), state)

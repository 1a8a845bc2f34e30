import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quditgates import (
    decompose,
    exp_i_hermitian,
    gate_power,
    hermitian_from_coeffs,
    is_hermitian,
    is_unitary,
    make_x,
    make_y,
    make_z,
    omega,
    q_basis,
    random_unitary,
    reconstruct,
    shift_clock,
    weyl_operator,
)

from oracles import index_decompose, index_reconstruct, index_weyl_operator
from strategies import BAD_ATOLS

np_rng = np.random.default_rng(20240902)


# --- dense reference: every basis matrix built and summed or traced --------

def dense_shift_clock_basis(d):
    """X^l Z^m as dense matrix powers, indexed [l][m]."""
    x, z = make_x(d), make_z(d)
    return [[gate_power(x, l) @ gate_power(z, m) for m in range(d)] for l in range(d)]


def dense_decompose(u):
    """h[l,m] = tr((X^l Z^m)^dagger u) / d, one trace per basis element."""
    d = u.shape[0]
    basis = dense_shift_clock_basis(d)
    return np.array(
        [[np.trace(basis[l][m].conj().T @ u) / d for m in range(d)] for l in range(d)]
    )


def dense_reconstruct(h):
    """sum_{l,m} h[l,m] X^l Z^m over the dense basis."""
    d = h.shape[0]
    basis = dense_shift_clock_basis(d)
    return sum(h[l, m] * basis[l][m] for l in range(d) for m in range(d))


def dense_hermitian_from_coeffs(c):
    """sum_{l,m} c[l,m] Q(l,m) with D(l,m) = exp(i*pi*l*m/d) Z^l X^m built densely."""
    d = c.shape[0]
    x, z = make_x(d), make_z(d)
    a = np.zeros((d, d), dtype=complex)
    for l in range(d):
        for m in range(d):
            dd = np.exp(1j * np.pi * l * m / d) * gate_power(z, l) @ gate_power(x, m)
            a += c[l, m] * ((1 + 1j) / 2 * dd + (1 - 1j) / 2 * dd.conj().T)
    return a


def sparse_table(d, rng, complex_=False):
    """Normal table with about a third of its entries set to exactly zero."""
    t = rng.normal(size=(d, d))
    if complex_:
        t = t + 1j * rng.normal(size=(d, d))
    t[rng.random((d, d)) < 1 / 3] = 0
    return t


def test_displacement_identity_at_origin():
    for d in (2, 3, 4, 5):
        assert np.allclose(weyl_operator(0, 0, d), np.eye(d), atol=1e-12)


def test_displacement_phase_d4():
    # with the exp(i*pi*l*m/d) convention: D(1,1) = e^{i pi/4} ZX and
    # D(2,2) = e^{i pi} Z^2 X^2 = -Z^2 X^2 (exponents evaluated by hand)
    z, x = make_z(4), make_x(4)
    assert np.allclose(weyl_operator(1, 1, 4), np.exp(1j * np.pi / 4) * z @ x, atol=1e-12)
    z2x2 = gate_power(z, 2) @ gate_power(x, 2)
    assert np.allclose(weyl_operator(2, 2, 4), -z2x2, atol=1e-12)


@pytest.mark.parametrize("d", [*range(2, 13), 16, 31])
def test_displacement_equals_the_dense_product(d):
    for l in range(d):
        for m in range(d):
            phase = np.exp(1j * np.pi * l * m / d)
            dense = phase * shift_clock(0, l, d) @ shift_clock(m, 0, d)
            assert np.array_equal(weyl_operator(l, m, d), dense)


def test_displacement_unitary_all_indices():
    for d in (2, 3, 4, 5):
        for l in range(d):
            for m in range(d):
                assert is_unitary(weyl_operator(l, m, d))


def test_displacement_index_range():
    with pytest.raises(ValueError):
        weyl_operator(4, 0, 4)
    with pytest.raises(ValueError):
        weyl_operator(0, -1, 4)


def test_q_basis_identity_element():
    # chi + conj(chi) = 1, so Q(0,0) = I
    for d in (2, 3, 4, 5):
        assert np.allclose(q_basis(0, 0, d), np.eye(d), atol=1e-12)


def test_q_basis_hermitian_all_indices():
    for d in (2, 3, 4, 5):
        for l in range(d):
            for m in range(d):
                assert is_hermitian(q_basis(l, m, d))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_q_basis_spans_hermitian_space(d):
    stack = np.array([q_basis(l, m, d).ravel() for l in range(d) for m in range(d)])
    assert np.linalg.matrix_rank(stack, tol=1e-9) == d * d
    gram = stack @ stack.conj().T
    assert np.linalg.matrix_rank(gram, tol=1e-9) == d * d


def test_shift_clock_basis_orthogonality_d4():
    # exhaustive over all 256 index pairs: tr(B^dag B') = 4*delta
    x, z = make_x(4), make_z(4)
    basis = {
        (l, m): gate_power(x, l) @ gate_power(z, m) for l in range(4) for m in range(4)
    }
    for a, left in basis.items():
        for b, right in basis.items():
            value = np.trace(left.conj().T @ right)
            want = 4.0 if a == b else 0.0
            assert abs(value - want) < 1e-12


def test_hermitian_from_coeffs_examples():
    zeros = hermitian_from_coeffs(np.zeros((4, 4)))
    assert np.array_equal(zeros, np.zeros((4, 4), dtype=complex))
    c = np.zeros((4, 4))
    c[0, 0] = 1.0
    assert np.allclose(hermitian_from_coeffs(c), np.eye(4), atol=1e-12)


def test_hermitian_from_coeffs_random_tables():
    for _ in range(100):
        c = np_rng.normal(size=(4, 4))
        assert is_hermitian(hermitian_from_coeffs(c))


def test_hermitian_from_coeffs_rejects_bad_tables():
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_from_coeffs(np.array([[np.inf, 0], [0, 0]]))
    with pytest.raises(ValueError, match="real"):
        hermitian_from_coeffs(np.array([[1j, 0], [0, 0]]))


def test_exp_i_hermitian_examples():
    assert np.allclose(exp_i_hermitian(np.zeros((4, 4))), np.eye(4), atol=1e-12)
    a = np.pi * np.diag([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(exp_i_hermitian(a), np.diag([-1.0, 1.0, 1.0, 1.0]), atol=1e-12)


def test_exp_i_hermitian_inverse_property():
    for _ in range(100):
        a = hermitian_from_coeffs(np_rng.normal(size=(4, 4)))
        u, v = exp_i_hermitian(a), exp_i_hermitian(-a)
        assert np.linalg.norm(u @ v - np.eye(4)) < 1e-10
        assert is_unitary(u)


def test_exp_i_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        exp_i_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_exp_i_hermitian_rejects_non_finite_generators(cell):
    a = np.zeros((3, 3), dtype=complex)
    a[1, 1] = cell
    with pytest.raises(ValueError, match="^generator contains non-finite entries$"):
        exp_i_hermitian(a)


@pytest.mark.parametrize("atol, shown", BAD_ATOLS)
def test_exp_i_hermitian_rejects_bad_tolerance(atol, shown):
    # a NaN atol let a non-Hermitian generator through
    message = f"atol must be finite and non-negative, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        exp_i_hermitian(np.array([[0, 1.0], [0, 0]]), atol=atol)


def test_decompose_basis_elements():
    h_id = decompose(np.eye(4))
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 1.0
    assert np.linalg.norm(h_id - want) < 1e-12

    h_x = decompose(make_x(4))
    want = np.zeros((4, 4), dtype=complex)
    want[1, 0] = 1.0
    assert np.linalg.norm(h_x - want) < 1e-12


def test_round_trip_random_unitaries():
    for seed in range(20):
        u = random_unitary(4, seed)
        assert is_unitary(u)
        assert np.linalg.norm(reconstruct(decompose(u)) - u) < 1e-10


def test_round_trip_random_matrices():
    # the basis spans all 4x4 matrices, not just unitaries
    for _ in range(100):
        m = np_rng.normal(size=(4, 4)) + 1j * np_rng.normal(size=(4, 4))
        assert np.linalg.norm(reconstruct(decompose(m)) - m) < 1e-10


def test_round_trip_y_gate():
    h = decompose(make_y(4))
    assert h.shape == (4, 4)
    assert np.linalg.norm(reconstruct(h) - make_y(4)) < 1e-10


def test_truncation_consistency_d4():
    # X^4 = I and Z^4 = I, so wrapping the table's powers by 4 changes nothing
    x, z = make_x(4), make_z(4)
    m = np_rng.normal(size=(4, 4)) + 1j * np_rng.normal(size=(4, 4))
    h = decompose(m)
    assert h.shape == (4, 4)
    wrapped = sum(
        h[l, m_] * gate_power(x, l + 4) @ gate_power(z, m_ + 4)
        for l in range(4)
        for m_ in range(4)
    )
    assert np.linalg.norm(wrapped - reconstruct(h)) < 1e-10


def test_random_unitary_is_deterministic():
    assert np.array_equal(random_unitary(4, 123), random_unitary(4, 123))
    assert not np.allclose(random_unitary(4, 123), random_unitary(4, 124))


ORACLE_DIMS = [2, 3, 4, 5, 8]


@pytest.mark.parametrize("d", ORACLE_DIMS)
def test_closed_forms_match_dense_oracle(d):
    rng = np.random.default_rng([20240902, d])
    single = np.zeros((d, d))
    single[d - 1, 1] = 1.0
    for c in (sparse_table(d, rng), np.zeros((d, d)), single):
        err = np.abs(hermitian_from_coeffs(c) - dense_hermitian_from_coeffs(c)).max()
        assert err <= 1e-12
    for _ in range(5):
        u = sparse_table(d, rng, complex_=True)
        assert np.abs(decompose(u) - dense_decompose(u)).max() <= 1e-12
        h = sparse_table(d, rng, complex_=True)
        assert np.abs(reconstruct(h) - dense_reconstruct(h)).max() <= 1e-12


def test_decompose_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        u = np.eye(4, dtype=complex)
        u[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            decompose(u)


# --- property tests --------------------------------------------------------

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def square_matrices(draw, dims=st.integers(2, 12)):
    d = draw(dims)
    re = draw(arrays(np.float64, (d, d), elements=finite))
    im = draw(arrays(np.float64, (d, d), elements=finite))
    return re + 1j * im


def scale(*ms):
    return max(1.0, *(np.abs(m).max() for m in ms))


@settings(deadline=None)
@given(square_matrices())
def test_parseval(u):
    d = u.shape[0]
    h = decompose(u)
    norm2 = np.linalg.norm(u) ** 2
    assert abs(d * np.sum(np.abs(h) ** 2) - norm2) <= 1e-12 * max(1.0, norm2)


@settings(deadline=None)
@given(
    st.integers(2, 12).flatmap(lambda d: st.tuples(
        square_matrices(st.just(d)), square_matrices(st.just(d)))),
    st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False),
)
def test_decompose_is_linear(pair, a):
    u, v = pair
    err = np.abs(decompose(a * u + v) - (a * decompose(u) + decompose(v))).max()
    assert err <= 1e-11 * scale(a * u, v)


@settings(deadline=None)
@given(square_matrices(st.sampled_from([3, 5, 6, 7, 9, 10, 11, 12, 15, 24])))
def test_round_trip_non_power_of_two(u):
    assert np.abs(reconstruct(decompose(u)) - u).max() <= 1e-12 * scale(u)


@settings(deadline=None)
@given(square_matrices(), st.integers(-50, 50), st.integers(-50, 50))
def test_weyl_covariance(u, a, b):
    # P = X^a Z^b: P X^l Z^m P^dagger = omega^(b*l - a*m) X^l Z^m
    d = u.shape[0]
    p = shift_clock(a, b, d)
    l, m = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    want = omega(d) ** ((b * l - a * m) % d) * decompose(u)
    assert np.abs(decompose(p @ u @ p.conj().T) - want).max() <= 1e-11 * scale(u)



# --- the index formulas as oracles ------------------------------------------


@settings(deadline=None)
@given(st.integers(2, 64).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(0, d - 1), st.integers(0, d - 1))))
def test_weyl_operator_matches_the_index_formula(dlm):
    d, l, m = dlm
    assert np.array_equal(weyl_operator(l, m, d), index_weyl_operator(l, m, d))


@settings(deadline=None)
@given(st.integers(2, 64), st.integers(0, 2**32 - 1))
def test_decompose_and_reconstruct_match_the_index_formulas(d, seed):
    t = sparse_table(d, np.random.default_rng(seed), complex_=True)
    # a transposed view is not C-contiguous, so it is flattened by a copy
    for u in (t, t.T):
        assert np.array_equal(decompose(u), index_decompose(u))
        assert np.array_equal(reconstruct(u), index_reconstruct(u))

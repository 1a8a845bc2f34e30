"""Heisenberg-Weyl operator basis and shift/clock synthesis of unitaries.

Provides the displacement operators D(l,m) = exp(i*pi*l*m/d) Z^l X^m, the
Hermitian basis Q(l,m) = chi*D + conj(chi)*D^dagger with chi = (1+i)/2,
synthesis of arbitrary Hermitian generators from real coefficient tables,
unitary exponentiation, and the decomposition of arbitrary d x d matrices
over the X^l Z^m basis (a d^2-element trace-orthogonal basis, so the
coefficient table is unique and exact).  X^l Z^m is a permutation times a
diagonal, so each table row is one FFT of a cyclic diagonal of the matrix:
every table operation costs O(d^2 log d) and builds no basis matrix.

Pure functions over immutable arrays; safe for concurrent use.
"""

from __future__ import annotations

import numpy as np

from .pauli import ATOL, _check_integer, _PerDimension, _tables, _weyl, check_dim, dagger

#: Mixing constant for the Hermitian basis.
CHI = (1 + 1j) / 2


def _check_index(l: int, m: int, d: int) -> tuple[int, int]:
    l, m = _check_integer(l, "index"), _check_integer(m, "index")
    if not (0 <= l < d and 0 <= m < d):
        raise ValueError(f"index ({l}, {m}) out of range [0, {d - 1}]^2")
    return l, m


def weyl_operator(l: int, m: int, d: int) -> np.ndarray:
    """Displacement operator D(l,m) = exp(i*pi*l*m/d) Z^l X^m.

    The exp(i*pi*l*m/d) phase keeps the family unitary with the standard
    Weyl covariance and, unlike e.g. exp(i*pi*l*m/2) at d=4, keeps the
    derived Hermitian basis :func:`q_basis` linearly independent (with the
    latter phase Q(1,1) and Q(3,3) coincide, dropping the span by two).
    """
    d = check_dim(d)
    l, m = _check_index(l, m, d)
    # Z^l X^m = omega^(lm) X^m Z^l, built exactly from integer exponents
    return np.exp(1j * np.pi * l * m / d) * _weyl(m, l, l * m, d)


def _check_table(a: np.ndarray, what: str) -> int:
    """Dimension of a square, finite d x d array; ValueError otherwise."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return check_dim(a.shape[0])


def q_basis(l: int, m: int, d: int) -> np.ndarray:
    """Hermitian basis element Q(l,m) = chi*D(l,m) + conj(chi)*D(l,m)^dagger.

    Hermitian by construction; the d^2 elements span the real vector space
    of d x d Hermitian matrices.  Q(0,0) is the identity since chi + conj(chi) = 1.
    """
    dd = weyl_operator(l, m, d)
    return CHI * dd + np.conj(CHI) * dagger(dd)


@_PerDimension
def _hermitian_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of :func:`hermitian_from_coeffs` at dimension d: the
    phases exp(i*pi*l*m/d) at [l, m], and at [r, m] the flat index of the
    entry (r, (r - m) mod d)."""
    k = np.arange(d)
    return np.exp(1j * np.pi * np.outer(k, k) / d), k[:, None] * d + (k[:, None] - k) % d


def hermitian_from_coeffs(c: np.ndarray) -> np.ndarray:
    """Hermitian matrix A = sum_{l,m} c[l,m] Q(l,m) from a real d x d table.

    A = chi*B + conj(chi)*B^dagger with B = sum c[l,m] D(l,m), whose entry
    B[r, (r-m) mod d] = sum_l c[l,m] exp(i*pi*l*m/d) omega^(l*r) is one
    inverse FFT over l.
    """
    c = np.asarray(c)
    d = _check_table(c, "coefficient table")
    if np.iscomplexobj(c) and np.abs(c.imag).max() > 0:
        raise ValueError("coefficient table must be real")
    phases, diagonals = _hermitian_tables[d]
    b = (d * np.fft.ifft(c.real * phases, axis=0)).reshape(-1)[diagonals]
    return CHI * b + np.conj(CHI) * b.conj().T


def exp_i_hermitian(a: np.ndarray, atol: float = ATOL) -> np.ndarray:
    """Unitary U = exp(iA) for Hermitian A, via eigendecomposition.

    A is symmetrized as (A + A^dagger)/2 before diagonalizing to guard
    against accumulated rounding; inputs further than `atol` (Frobenius)
    from Hermitian are rejected.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {a.shape}")
    if np.linalg.norm(a - a.conj().T) > atol:
        raise ValueError("invalid generator: matrix is not Hermitian")
    sym = (a + a.conj().T) / 2
    evals, evecs = np.linalg.eigh(sym)
    return (evecs * np.exp(1j * evals)) @ evecs.conj().T


def decompose(u: np.ndarray) -> np.ndarray:
    """Coefficients h with u = sum_{l,m} h[l,m] X^l Z^m.

    Works for any square complex matrix (the basis spans all of them, not
    just unitaries).  Uses the trace inner product: since
    tr((X^l Z^m)^dagger X^l' Z^m') = d * delta, the projection
    h[l,m] = tr((X^l Z^m)^dagger u) / d is exact and unique.  X^l Z^m is
    omega^(m*j) at ((j+l) mod d, j) and zero elsewhere, so row l of h is the
    FFT of the l-th cyclic diagonal of u over d: O(d^2 log d) in all.  The
    table is fully folded: X^d = Z^d = I, so the d^2 entries are the whole
    expansion.
    """
    u = np.asarray(u, dtype=complex)
    d = _check_table(u, "matrix")
    return np.fft.fft(u.reshape(-1)[_tables[d][2]], axis=1) / d


def reconstruct(h: np.ndarray) -> np.ndarray:
    """Matrix sum_{l,m} h[l,m] X^l Z^m; d * ifft(h[l]) is its l-th cyclic diagonal."""
    h = np.asarray(h, dtype=complex)
    d = _check_table(h, "coefficient table")
    out = np.empty(d * d, dtype=complex)
    out[_tables[d][2]] = d * np.fft.ifft(h, axis=1)
    return out.reshape(d, d)


def random_unitary(d: int, seed: int) -> np.ndarray:
    """Seeded random unitary exp(iA), A synthesized from a normal c-table.

    Deterministic for a fixed (d, seed) pair; handy for pipeline tests.
    """
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(check_dim(d), d))
    return exp_i_hermitian(hermitian_from_coeffs(c))

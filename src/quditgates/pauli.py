"""Generalized Pauli (shift/clock) algebra for d-level systems.

The two generators are the cyclic shift X (|l> -> |l+1 mod d>) and the
clock Z (|l> -> omega^l |l>, omega = exp(2*pi*i/d)).  Together with their
integer powers they satisfy X^d = Z^d = I and X.Z = omega^(-1) Z.X, and
span the full operator algebra (see :mod:`quditgates.weyl`).
:func:`shift_clock` builds X^a Z^b exactly, by index arithmetic mod d.

All values are plain complex numpy arrays, immutable by convention; every
function is pure, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Frobenius-norm tolerance for the algebraic identities used throughout.
ATOL = 1e-12


def check_dim(d: int) -> int:
    """Validate a qudit dimension (integer, at least 2)."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    if d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    return int(d)


def omega(d: int) -> complex:
    """Primitive d-th root of unity exp(2*pi*i/d)."""
    return complex(np.exp(2j * np.pi / check_dim(d)))


def _check_exponent(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"power must be an integer, got {n!r}")
    return int(n)


def shift_clock(a: int, b: int, d: int) -> np.ndarray:
    """Exact X^a Z^b for any integers a, b: omega^(b*l) at (l+a mod d, l).

    Both exponents and the phase exponent b*l are reduced mod d with integer
    arithmetic before any complex number is formed, so X^d = Z^d = I hold
    exactly and a huge power such as Z^(10^18) costs the same and is as
    exact as Z^2.
    """
    d = check_dim(d)
    a, b = _check_exponent(a) % d, _check_exponent(b) % d
    l = np.arange(d)
    out = np.zeros((d, d), dtype=complex)
    out[(l + a) % d, l] = np.exp(2j * np.pi * ((b * l) % d) / d)
    return out


def make_x(d: int) -> np.ndarray:
    """Cyclic shift gate X with X|l> = |l+1 mod d>.

    The matrix is the permutation with a 1 at (l+1 mod d, l): each basis
    state moves to its nearest neighbour, the top one wrapping to |0>.
    """
    return shift_clock(1, 0, d)


def make_z(d: int) -> np.ndarray:
    """Mode-dependent phase gate Z = diag(omega^l), omega = exp(2*pi*i/d)."""
    return shift_clock(0, 1, d)


def make_y(d: int) -> np.ndarray:
    """Y gate defined as the product X @ Z.

    Note: for d=2 this equals -i*sigma_y, i.e. the standard Pauli sigma_y
    only up to a global phase.  The product definition is used literally
    for every d rather than adopting a qubit-specific phase convention.
    """
    return shift_clock(1, 1, d)


def dagger(g: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  For X this is the shift in the other direction."""
    return np.asarray(g).conj().T.copy()


def gate_power(g: np.ndarray, n: int) -> np.ndarray:
    """Integer power g^n of an arbitrary square matrix; negative n means
    powers of the conjugate transpose.

    gate_power(g, 0) is the identity.  This is the general matrix power by
    repeated squaring, so rounding grows with log|n| and nothing is reduced
    mod d; for powers of the shift/clock gates use :func:`shift_clock`,
    which is exact for every exponent.
    """
    n = _check_exponent(n)
    if n < 0:
        return np.linalg.matrix_power(dagger(g), -n)
    return np.linalg.matrix_power(np.asarray(g, dtype=complex), n)


def apply_gate(g: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply a gate to a state vector (matrix-vector product).

    Raises ValueError when the operand shapes are incompatible.
    """
    g = np.asarray(g, dtype=complex)
    state = np.asarray(state, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"gate must be a square matrix, got shape {g.shape}")
    if state.shape != (g.shape[0],):
        raise ValueError(
            f"incompatible operands: gate is {g.shape[0]}x{g.shape[1]} "
            f"but state has shape {state.shape}"
        )
    return g @ state


def basis_state(d: int, j: int) -> np.ndarray:
    """Computational basis vector |j> of a d-level system."""
    d = check_dim(d)
    if not 0 <= j < d:
        raise ValueError(f"basis index {j} out of range for dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[j] = 1.0
    return v


def is_unitary(g: np.ndarray, atol: float = ATOL) -> bool:
    """True when conj(g).T @ g is the identity within `atol` (Frobenius)."""
    g = np.asarray(g)
    return bool(np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0])) <= atol)


def is_hermitian(g: np.ndarray, atol: float = ATOL) -> bool:
    """True when g equals its conjugate transpose within `atol` (Frobenius)."""
    g = np.asarray(g)
    return bool(np.linalg.norm(g - g.conj().T) <= atol)


@dataclass(frozen=True)
class SubspaceMap:
    """Bijection between logical levels {0..d-1} and a contiguous OAM window.

    OAM label = logical index + oam_offset.  The shift gates work on any
    connected window; keeping the mapping explicit (instead of baking it
    into gate construction) lets the same gate act on any such window.
    """

    dim: int
    oam_offset: int

    def __post_init__(self) -> None:
        check_dim(self.dim)
        if isinstance(self.oam_offset, bool) or not isinstance(
            self.oam_offset, (int, np.integer)
        ):
            raise ValueError(f"oam_offset must be an integer, got {self.oam_offset!r}")

    @property
    def oam_labels(self) -> tuple[int, ...]:
        """All OAM labels of the window, in logical order."""
        return tuple(self.oam_offset + j for j in range(self.dim))

    def to_oam(self, logical: int) -> int:
        """OAM label of a logical index; raises on out-of-range input."""
        if not 0 <= logical < self.dim:
            raise ValueError(
                f"logical index {logical} out of range [0, {self.dim - 1}]"
            )
        return logical + self.oam_offset

    def to_logical(self, ell: int) -> int:
        """Logical index of an OAM label; raises when outside the window."""
        j = ell - self.oam_offset
        if not 0 <= j < self.dim:
            raise ValueError(
                f"OAM label {ell} outside window "
                f"[{self.oam_offset}, {self.oam_offset + self.dim - 1}]"
            )
        return j

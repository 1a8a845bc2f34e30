"""Generalized Pauli (shift/clock) algebra for d-level systems.

The two generators are the cyclic shift X (|l> -> |l+1 mod d>) and the
clock Z (|l> -> omega^l |l>, omega = exp(2*pi*i/d)).  Together with their
integer powers they satisfy X^d = Z^d = I and X.Z = omega^(-1) Z.X, and
span the full operator algebra (see :mod:`quditgates.weyl`).
:func:`shift_clock` builds X^a Z^b exactly, from exponents reduced mod d, and
:func:`gate_power` raises any matrix that is exactly some X^a Z^b to an
integer power the same way; every other matrix takes the general dense
matrix power.

All values are plain complex numpy arrays, immutable by convention; every
function is pure.  The only shared state is the read-only per-dimension
tables (:class:`_PerDimension`), built on first use, never at import, and
kept within a byte budget: :data:`_tables` holds 16*d^2 + 32*d bytes per
dimension, one d x d complex matrix's worth (17 KiB at d = 32), and no
dimension whose tables exceed the budget is kept.  So everything here is
safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

#: Frobenius-norm tolerance for the algebraic identities used throughout.
ATOL = 1e-12

#: Bytes of per-dimension tables (:class:`_PerDimension`) kept across calls.
_TABLE_BYTES = 16 * 2**20


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


def _check_integer(n: int, what: str = "power") -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {n!r}")
    return int(n)


#: Every kept per-dimension table, oldest first: (id(cache), d) -> (cache, bytes).
_kept: OrderedDict = OrderedDict()
_kept_lock = threading.Lock()


class _PerDimension(dict):
    """d -> the read-only tables `build(d)`, built on the first lookup and
    kept while all such tables hold at most _TABLE_BYTES bytes in all, the
    oldest dropped first; tables larger than that alone are never kept.  A
    lookup of a kept dimension is one dict lookup."""

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, d: int) -> tuple:
        made = self.build(d)
        for t in made:
            t.flags.writeable = False
        size = sum(t.nbytes for t in made)
        with _kept_lock:
            if size <= _TABLE_BYTES and d not in self:
                self[d] = made
                _kept[id(self), d] = self, size
                total = sum(nbytes for _, nbytes in _kept.values())
                while total > _TABLE_BYTES:
                    (_, old), (cache, nbytes) = _kept.popitem(last=False)
                    del cache[old]
                    total -= nbytes
        return made


@_PerDimension
def _tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables for X^a Z^b at dimension d: roots2[j] = omega^(j mod d)
    for j < 2d, E[b, l] = b*l mod d and P[a, l], the flat index of the entry
    (l + a mod d, l), so omega^c X^a Z^b holds roots2[c:][E[b]] at P[a] for
    a, b, c in [0, d).  E and P are intp: narrower indices gather slower."""
    k = np.arange(d)
    roots = np.exp(2j * np.pi * k / d)
    return np.concatenate((roots, roots)), np.outer(k, k) % d, (k[:, None] + k) % d * d + k


def _weyl(a: int, b: int, c: int, d: int) -> np.ndarray:
    """omega^c X^a Z^b: omega^((c + b*l) mod d) at (l + a mod d, l).

    a, b and c are reduced mod d as Python integers, so they may be of any
    size and only the table of roots of unity is ever rounded.
    """
    a, b, c = a % d, b % d, c % d
    out = np.zeros(d * d, dtype=complex)  # first: a too-large d fails at once
    roots2, expo, place = _tables[d]
    out[place[a]] = roots2[c:][expo[b]]
    return out.reshape(d, d)


def _weyl_exponents(g: np.ndarray) -> tuple[int, int] | None:
    """(a, b) in [0, d) when the square matrix g equals X^a Z^b exactly,
    else None.

    a is the row of column 0's nonzero entry and b the phase at
    (a + 1 mod d, 1); g is accepted only if it then holds exactly the
    entries of X^a Z^b and has no other nonzero entry.
    """
    d = g.shape[0]
    if d < 2 or g.dtype.kind not in "biufc" or np.count_nonzero(g) != d:
        return None
    (rows,) = g[:, 0].nonzero()
    if len(rows) != 1:
        return None
    a = int(rows[0])
    turns = cmath.phase(g[(a + 1) % d, 1]) * d / (2 * math.pi)
    if math.isnan(turns):
        return None
    b = round(turns) % d
    roots2, expo, place = _tables[d]
    if np.count_nonzero(g.reshape(-1)[place[a]] != roots2[expo[b]]):
        return None
    return a, b


def shift_clock(a: int, b: int, d: int) -> np.ndarray:
    """Exact X^a Z^b for any integers a, b: omega^(b*l) at (l+a mod d, l).

    Both exponents and the phase exponent b*l are reduced mod d with integer
    arithmetic before any complex number is formed, so X^d = Z^d = I hold
    exactly and a huge power such as Z^(10^18) costs the same and is as
    exact as Z^2.
    """
    d = check_dim(d)
    return _weyl(_check_integer(a), _check_integer(b), 0, d)


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


def require_finite(g: np.ndarray) -> None:
    """Raise ValueError naming the first NaN or infinite entry of a gate
    matrix or state vector g."""
    if not np.isfinite(g).all():
        at = tuple(int(x) for x in np.argwhere(~np.isfinite(g))[0])
        where = f"gate entry {at}" if g.ndim == 2 else f"state entry {at[0]}"
        raise ValueError(f"{where} is {g[at]}, not finite")


def _require_square(g: np.ndarray) -> None:
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"gate must be a square matrix, got shape {g.shape}")


def gate_power(g: np.ndarray, n: int) -> np.ndarray:
    """Integer power g^n of a square matrix; negative n means powers of the
    conjugate transpose.

    gate_power(g, 0) is the identity.  When g is exactly X^a Z^b for some
    integers a, b (everything :func:`shift_clock` and the ``make_*`` gates
    return, and exact permutations such as ``np.roll(np.eye(d), 1,
    axis=1)``), the power is built exactly from

        (X^a Z^b)^n = omega^(a*b*n*(n-1)/2) X^(a*n) Z^(b*n),

    with every exponent reduced mod d as an integer, so Z^(10^18) is exactly
    the identity.  Every other matrix takes the general matrix power by
    repeated squaring, whose rounding grows with log|n|.  A g that is not a
    square 2-D matrix, or (on the general path) has a NaN or infinite
    entry, raises ValueError.
    """
    n = _check_integer(n)
    g = np.asarray(g)
    _require_square(g)
    exponents = _weyl_exponents(g)
    if exponents is not None:
        a, b = exponents
        return _weyl(a * n, b * n, a * b * (n * (n - 1) // 2), g.shape[0])
    h = np.asarray(g, dtype=complex)
    require_finite(h)
    if n < 0:
        return np.linalg.matrix_power(dagger(h), -n)
    return np.linalg.matrix_power(h, n)


def apply_gate(g: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply a gate to a state vector (matrix-vector product).

    Raises ValueError when the operand shapes are incompatible or an entry
    of either is NaN or infinite.
    """
    g = np.asarray(g, dtype=complex)
    state = np.asarray(state, dtype=complex)
    _require_square(g)
    if state.shape != (g.shape[0],):
        raise ValueError(
            f"incompatible operands: gate is {g.shape[0]}x{g.shape[1]} "
            f"but state has shape {state.shape}"
        )
    require_finite(g)
    require_finite(state)
    return g @ state


def basis_state(d: int, j: int) -> np.ndarray:
    """Computational basis vector |j> of a d-level system."""
    d = check_dim(d)
    j = _check_integer(j, "basis index")
    if not 0 <= j < d:
        raise ValueError(f"basis index {j} out of range for dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[j] = 1.0
    return v


def is_unitary(g: np.ndarray, atol: float = ATOL) -> bool:
    """True when conj(g).T @ g is the identity within `atol` (Frobenius);
    ValueError unless g is a square matrix."""
    g = np.asarray(g)
    _require_square(g)
    return bool(np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0])) <= atol)


def is_hermitian(g: np.ndarray, atol: float = ATOL) -> bool:
    """True when g equals its conjugate transpose within `atol` (Frobenius);
    ValueError unless g is a square matrix."""
    g = np.asarray(g)
    _require_square(g)
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
        _check_integer(self.oam_offset, "oam_offset")

    @property
    def oam_labels(self) -> tuple[int, ...]:
        """All OAM labels of the window, in logical order."""
        return tuple(self.oam_offset + j for j in range(self.dim))

    def to_oam(self, logical: int) -> int:
        """OAM label of a logical index; raises on out-of-range input."""
        logical = _check_integer(logical, "logical index")
        if not 0 <= logical < self.dim:
            raise ValueError(
                f"logical index {logical} out of range [0, {self.dim - 1}]"
            )
        return logical + self.oam_offset

    def to_logical(self, ell: int) -> int:
        """Logical index of an OAM label; raises when outside the window."""
        j = _check_integer(ell, "OAM label") - self.oam_offset
        if not 0 <= j < self.dim:
            raise ValueError(
                f"OAM label {ell} outside window "
                f"[{self.oam_offset}, {self.oam_offset + self.dim - 1}]"
            )
        return j

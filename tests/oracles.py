"""Reference formulas for the index pattern of X^a Z^b, by integer index
arithmetic mod d on every call.

X^a Z^b holds omega^(b*l mod d) at (l + a mod d, l), so the flattened
matrix holds its phases on two strided runs: l < d - a from a*d with
step d + 1, and l >= d - a from d - a.  The library reads the same pattern
from cached index tables; these formulas are kept to check it entry for
entry.
"""

import numpy as np


def index_weyl(a, b, c, d):
    """omega^c X^a Z^b, phases omega^((c + b*l) mod d) written run by run."""
    a, b, c = a % d, b % d, c % d
    out = np.zeros(d * d, dtype=complex)
    step = b or d  # b = 0 steps by d, which is 0 mod d too
    phases = np.exp(2j * np.pi * np.arange(d) / d)[np.arange(c, c + step * d, step) % d]
    out[a * d :: d + 1] = phases[: d - a]
    out[d - a : a * d : d + 1] = phases[d - a :]
    return out.reshape(d, d)


def index_weyl_operator(l, m, d):
    """D(l, m) = exp(i*pi*l*m/d) Z^l X^m = exp(i*pi*l*m/d) omega^(lm) X^m Z^l."""
    return np.exp(1j * np.pi * l * m / d) * index_weyl(m, l, l * m, d)


def index_decompose(u):
    """Row l of the table is the FFT of the l-th cyclic diagonal u[(j + l) % d, j]."""
    d = u.shape[0]
    k = np.arange(d)
    return np.fft.fft(u[(k + k[:, None]) % d, k], axis=1) / d


def index_reconstruct(h):
    """d * ifft(h[l]) placed on the l-th cyclic diagonal."""
    d = h.shape[0]
    k = np.arange(d)
    return (d * np.fft.ifft(h, axis=1))[(k[:, None] - k) % d, k]

"""Reference implementations the library is checked against, entry for entry.

Index formulas for X^a Z^b, by integer index arithmetic mod d on every
call.  X^a Z^b holds omega^(b*l mod d) at (l + a mod d, l), so the
flattened matrix holds its phases on two strided runs: l < d - a from a*d
with step d + 1, and l >= d - a from d - a.  The library reads the same
pattern from cached index tables.

The per-amplitude optics engine: each element applied to a (path, OAM
label) -> amplitude map through its `routes`, one noise branch at a time,
with the weight factors' values on that branch written out here from the
two-point phase distribution +/- arccos V; every branch of the 2^k sign
patterns enumerated, and the ideal window transfer propagated one basis
mode at a time.  The library compiles the circuit into steps instead and
takes every result from the factors' means and mean squares; this engine
shares only the element definitions with it.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from quditgates import IDEAL, Recombiner


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


def _add(state, key, amp):
    if amp == 0:
        return
    new = state.get(key, 0j) + amp
    if new == 0:
        state.pop(key, None)
    else:
        state[key] = new


def branch_weights(element, noise, split_sign=1, phase_sign=1):
    """The values of `element`'s weight factors on one noise branch: a minus
    split sign negates the wrong-port leak, a minus phase sign conjugates the
    odd-arm phase e^(i arccos V)."""
    v = noise.visibility
    return {
        "keep": complex(math.sqrt((1 + v) / 2)),
        "leak": split_sign * 1j * math.sqrt((1 - v) / 2),
        "arm": complex(v, phase_sign * math.sqrt(1 - v * v)),
        "tau": complex(math.sqrt(noise.throughput)),
        **element.constants,
    }


def apply_element(element, state, noise=IDEAL, *, split_sign=1, phase_sign=1):
    """One element on an amplitude map, on the noise branch that the signs
    select, as a new map.  Keys off the element's input paths pass through;
    exact zeros are dropped."""
    weights = branch_weights(element, noise, split_sign, phase_sign)
    out = {}
    for key, amp in state.items():
        if key[0] not in element.inputs:
            _add(out, key, amp)
            continue
        for dst, names in element.routes(*key):
            a = amp
            for name in names:
                a = a * weights[name]
            _add(out, dst, a)
    return out


def total_probability(state):
    """Sum of |amplitude|^2 over the whole map."""
    return float(sum(abs(a) ** 2 for a in state.values()))


def propagate(circuit, state, noise=IDEAL, signs=None):
    """Left fold of apply_element over the elements; `signs` maps (element
    index, slot) to the branch sign, +1 where missing."""
    signs = signs or {}
    for pos, element in enumerate(circuit.elements):
        state = apply_element(
            element,
            state,
            noise,
            split_sign=signs.get((pos, "split"), 1),
            phase_sign=signs.get((pos, "phase"), 1),
        )
    return dict(state)


def enumerate_branches(circuit, state, noise=IDEAL):
    """(weight, whole output map) of every noise branch: one at V = 1, else
    all 2^k sign patterns with the first slot most significant."""
    slots = [(pos, s) for pos, e in enumerate(circuit.elements) for s in e.noise_slots]
    if noise.visibility == 1.0:
        patterns = [{}]
    else:
        patterns = [dict(zip(slots, p)) for p in itertools.product((1, -1), repeat=len(slots))]
    return [(1.0 / len(patterns), propagate(circuit, state, noise, p)) for p in patterns]


def dict_transfer(circuit):
    """T[i, j]: amplitude at output window mode i for input window mode j,
    with ideal noise and every recombiner made ideal (lossless)."""
    elements = tuple(
        replace(e, mode="ideal") if isinstance(e, Recombiner) else e
        for e in circuit.elements
    )
    ideal_circuit = replace(circuit, elements=elements)
    window = circuit.window.oam_labels
    transfer = np.zeros((circuit.dim, circuit.dim), dtype=complex)
    for j, ell in enumerate(window):
        final = propagate(ideal_circuit, {(circuit.input_path, ell): 1.0})
        for i, out in enumerate(window):
            transfer[i, j] = final.get((circuit.output_path, out), 0j)
    return transfer

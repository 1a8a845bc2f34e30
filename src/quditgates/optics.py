"""Element-level simulation of interferometric OAM mode-shift circuits.

A circuit is an ordered list of optical elements acting on labeled paths
that carry complex amplitudes indexed by (path, OAM label).  The element
vocabulary is small: spiral phase plates add an integer to the OAM label,
mirrors negate it, a parity sorter routes even and odd labels to separate
paths (its reflected output port also negates the label), and a recombiner
merges the two arms back onto one path.  Three builders assemble the
4-dimensional circuits that realize the cyclic shift gate, its square and
its inverse on a contiguous 4-mode window.

Imperfection model
------------------
A single sorter visibility V in [0, 1] governs every interferometric
element.  At a sorter, an amplitude reaches the correct port with weight
sqrt((1+V)/2) and leaks to the wrong port with weight sqrt((1-V)/2); at a
recombiner the two arms pick up a relative phase whose cosine averages to
V.  Both effects come from one internal phase error per element whose
distribution satisfies E[cos] = V, E[sin] = 0.  Because every output
probability is multilinear in (cos, sin) of each element phase, averaging
over the 2^k two-point sign patterns (phase = +/- arccos V) equals the
exact expectation: the model is sampled without Monte Carlo error.
Detection probabilities are those averages; a single propagation with all
signs positive is exposed as the deterministic "representative branch".

The signs are independent, so the statistics do not enumerate the 2^k
patterns (that is :func:`propagate_branches`, kept as the oracle).  A
circuit is compiled once onto the (path, OAM label) keys reachable from
its inputs, each noisy element becoming one Kraus pair (four operators for
an ideal recombiner, which has two slots), and a batch of density
operators goes through it in one pass: every noisy element maps rho to the
mean of K rho K^dagger over its operators (the operator-sum form), so the
cost grows linearly with k.  Runs of noise-free elements are folded into
the next noisy element.  Every element defines its per-key action once
(:class:`_Element`); :func:`apply_element` and the compiler both read it.

A bounded cache keyed by the frozen circuit keeps its compiled form and
ideal window transfer.  One pass can carry a batch of visibilities.  Each
noise slot's averaged map is affine in V, so window probabilities are
polynomials in V of degree <= k: calibration fits them from one pass at
k + 1 visibilities and solves E(V) = target on that closed form.

Recombiners come in two flavours: "ideal" routes by parity match like a
reversed sorter (losslessly at V=1), while "lossy_pbs" merges both arms
unconditionally and scales every amplitude by sqrt(throughput), modeling a
polarization-based recombination that trades a constant loss for
stability.  Row-normalized correlation matrices are invariant under that
loss.

Circuits and amplitude maps are immutable during propagation; all
functions are pure.  Monte Carlo counts derive one substream per
(seed, input row), so rows may be sampled concurrently.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .pauli import SubspaceMap, check_dim, shift_clock

#: Amplitude map: (path, OAM label) -> complex amplitude.
Amplitudes = dict[tuple[str, int], complex]

#: Circuit kinds accepted by :func:`build_gate_circuit`.
GATE_KINDS = ("X", "X2", "Xdagger")
#: Power of the shift X that each gate kind realizes.
_SHIFTS = {"X": 1, "X2": 2, "Xdagger": -1}


#: Entries of each compiled-form cache: room for the three gate circuits on
#: a few windows and a few dozen cascades of them.
_CACHE_SIZE = 64
#: Visibilities of the calibration grid: V = 0, 0.1, ..., 1.
_GRID = np.arange(11) / 10


class CircuitError(ValueError):
    """Raised for topologically invalid circuits or dead path references."""


class CalibrationError(RuntimeError):
    """Raised when visibility calibration cannot reach the requested target."""


def _noise_factors(v, throughput: float) -> dict:
    """Weight factors of the all-plus noise branch at visibility `v`, a
    number or an array: correct port, wrong port, odd-arm phase
    e^{i arccos v} and recombiner loss.  A minus split sign negates "leak",
    a minus phase sign conjugates "arm"."""
    return {
        "keep": np.sqrt((1 + v) / 2),
        "leak": 1j * np.sqrt((1 - v) / 2),
        "arm": v + 1j * np.sqrt(1 - v * v),
        "tau": math.sqrt(throughput),
    }


class _Element:
    """Per-key physics of one element, read by :func:`apply_element` and the
    compiled propagation alike.

    `inputs` names the paths the element acts on; amplitudes elsewhere pass
    through untouched.  `routes(path, ell)` lists where an amplitude on an
    input path goes, each destination with the names of the weight factors
    it is multiplied by, in order.  `weights(factors, split_sign, phase_sign)`
    gives those factors' values on one noise branch from the noise's
    :func:`_noise_factors`, and `noise_slots` names the element's random
    signs ('split', 'phase').
    """

    noise_slots = ()

    def weights(self, factors, split_sign, phase_sign):
        w = dict(factors)
        if split_sign < 0:
            w["leak"] = -w["leak"]
        if phase_sign < 0:
            w["arm"] = w["arm"].conjugate()
        return w


class _OnePath(_Element):
    @property
    def inputs(self):
        return (self.path,)


@dataclass(frozen=True)
class SpiralPhasePlate(_OnePath):
    """Adds `delta_ell` to the OAM label of every amplitude on `path`."""

    path: str
    delta_ell: int

    def routes(self, path, ell):
        return (((path, ell + self.delta_ell), ()),)


@dataclass(frozen=True)
class Mirror(_OnePath):
    """Single reflection on `path`: OAM label l -> -l, amplitude unchanged.

    Reflections carry no extra phase here; within an arm any fixed
    reflection phase is a global phase absorbed by path-length adjustment.
    """

    path: str

    def routes(self, path, ell):
        return (((path, -ell), ()),)


@dataclass(frozen=True)
class ParitySorter(_Element):
    """Routes even OAM labels to `out_even` and odd ones to `out_odd`.

    The output port named by `reflected_parity` sits behind a reflection,
    so every amplitude leaving through it (including wrong-port leakage)
    has its label negated.  With visibility V, the correct port receives
    amplitude weight sqrt((1+V)/2) and the wrong port sqrt((1-V)/2).
    """

    in_paths: tuple[str, ...]
    out_even: str
    out_odd: str
    reflected_parity: str = "even"

    noise_slots = ("split",)

    @property
    def inputs(self):
        return self.in_paths

    def routes(self, path, ell):
        even, odd = self.out_even, self.out_odd
        correct, wrong = (even, odd) if ell % 2 == 0 else (odd, even)
        flip = even if self.reflected_parity == "even" else odd
        return (
            ((correct, -ell if correct == flip else ell), ("keep",)),
            ((wrong, -ell if wrong == flip else ell), ("leak",)),
        )


@dataclass(frozen=True)
class Recombiner(_Element):
    """Merges the two arms onto `out`.

    mode "ideal": a reversed parity sorter; amplitudes whose parity matches
    their arm exit to `out` with weight sqrt((1+V)/2), mismatched ones with
    sqrt((1-V)/2), and the remainder leaves through a discard path named
    `out + ".discard"` (total probability is conserved).  mode "lossy_pbs":
    both arms merge unconditionally, every amplitude scaled by
    sqrt(throughput); the rest is dropped, so total probability scales by
    exactly `throughput`.

    The arm named by `reflect` exits through a reflection (label negated),
    and carries the relative inter-arm phase of the imperfection model.
    """

    in_even: str
    in_odd: str
    out: str
    mode: str = "lossy_pbs"
    reflect: str = "odd"

    @property
    def inputs(self):
        return (self.in_even, self.in_odd)

    @property
    def noise_slots(self):
        return ("phase",) if self.mode == "lossy_pbs" else ("phase", "split")

    def routes(self, path, ell):
        arm = "even" if path == self.in_even else "odd"
        phase = ("arm",) if arm == "odd" else ()
        key = (self.out, -ell if self.reflect == arm else ell)
        if self.mode == "lossy_pbs":
            return ((key, (*phase, "tau")),)
        matched = (ell % 2 == 0) == (arm == "even")
        out, discard = ("keep", "leak") if matched else ("leak", "keep")
        rejected = (_discard_path(self.out), key[1])
        return ((key, (*phase, out)), (rejected, (*phase, discard)))


@dataclass(frozen=True)
class PhaseShift(_OnePath):
    """Multiplies every amplitude on `path` by exp(i*phi)."""

    path: str
    phi: float

    def routes(self, path, ell):
        return (((path, ell), ("phase",)),)

    def weights(self, factors, split_sign, phase_sign):
        return {"phase": complex(np.exp(1j * self.phi))}


OpticalElement = SpiralPhasePlate | Mirror | ParitySorter | Recombiner | PhaseShift


@dataclass(frozen=True)
class NoiseParams:
    """Imperfection knobs: sorter visibility V and recombiner throughput.

    visibility = 1 and throughput = 1 is the ideal circuit.  The default
    throughput of 0.5 matches a polarization recombiner's constant loss.
    """

    visibility: float = 1.0
    throughput: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")
        if not 0.0 < self.throughput <= 1.0:
            raise ValueError(f"throughput must lie in (0, 1], got {self.throughput}")

    @cached_property
    def _factors(self) -> dict[str, complex]:
        factors = _noise_factors(self.visibility, self.throughput)
        return {name: complex(x) for name, x in factors.items()}


#: Noise-free parameters (lossless recombination included).
IDEAL = NoiseParams(visibility=1.0, throughput=1.0)


@dataclass(frozen=True)
class OpticalCircuit:
    """Ordered element sequence on a 4-mode (or general) OAM window."""

    dim: int
    window: SubspaceMap
    elements: tuple[OpticalElement, ...]
    input_path: str = "in"
    output_path: str = "out"

    def __post_init__(self) -> None:
        check_dim(self.dim)
        if self.window.dim != self.dim:
            raise CircuitError(
                f"window dimension {self.window.dim} does not match circuit "
                f"dimension {self.dim}"
            )
        object.__setattr__(self, "elements", tuple(self.elements))
        _validate_topology(self)


def _discard_path(out: str) -> str:
    return out + ".discard"


def _validate_topology(circuit: OpticalCircuit) -> None:
    """Walk the element sequence keeping the set of live paths."""
    live = {circuit.input_path}
    for pos, e in enumerate(circuit.elements):
        if isinstance(e, (SpiralPhasePlate, Mirror, PhaseShift)):
            if e.path not in live:
                raise CircuitError(f"element {pos}: dead path reference {e.path!r}")
        elif isinstance(e, ParitySorter):
            if len(e.in_paths) != 1:
                raise CircuitError(
                    f"element {pos}: parity sorter takes exactly one input path"
                )
            if e.reflected_parity not in ("even", "odd"):
                raise CircuitError(
                    f"element {pos}: reflected_parity must be 'even' or 'odd'"
                )
            (src,) = e.in_paths
            if src not in live:
                raise CircuitError(f"element {pos}: dead path reference {src!r}")
            if e.out_even in live or e.out_odd in live or e.out_even == e.out_odd:
                raise CircuitError(f"element {pos}: sorter outputs must be new paths")
            live.discard(src)
            live.update((e.out_even, e.out_odd))
        elif isinstance(e, Recombiner):
            if e.mode not in ("ideal", "lossy_pbs"):
                raise CircuitError(f"element {pos}: unknown recombiner mode {e.mode!r}")
            if e.reflect not in ("even", "odd", "none"):
                raise CircuitError(
                    f"element {pos}: reflect must be 'even', 'odd' or 'none'"
                )
            for src in (e.in_even, e.in_odd):
                if src not in live:
                    raise CircuitError(f"element {pos}: dead path reference {src!r}")
            if e.in_even == e.in_odd:
                raise CircuitError(f"element {pos}: recombiner arms must differ")
            if e.out in live or _discard_path(e.out) in live:
                raise CircuitError(f"element {pos}: recombiner output must be new")
            live.difference_update((e.in_even, e.in_odd))
            live.update((e.out, _discard_path(e.out)))
        else:
            raise CircuitError(f"element {pos}: unknown element {e!r}")
    if circuit.output_path not in live:
        raise CircuitError(
            f"output path {circuit.output_path!r} is not live after the last element"
        )


def _add(state: Amplitudes, key: tuple[str, int], amp: complex) -> None:
    if amp == 0:
        return
    new = state.get(key, 0j) + amp
    if new == 0:
        state.pop(key, None)
    else:
        state[key] = new


def apply_element(
    element: OpticalElement,
    state: Amplitudes,
    noise: NoiseParams = IDEAL,
    *,
    split_sign: int = 1,
    phase_sign: int = 1,
) -> Amplitudes:
    """Apply one element to an amplitude map, returning a new map.

    `split_sign` and `phase_sign` select the +/- branch of the element's
    internal phase error (see the module docstring); the defaults give the
    representative branch.  Sorters preserve total probability for every
    branch, and so does the ideal recombiner (its discard path keeps the
    rejected amplitude).  The lossy recombiner scales the merged total by
    exactly `noise.throughput`.
    """
    if not isinstance(element, _Element):
        raise CircuitError(f"unknown element {element!r}")
    weights = element.weights(noise._factors, split_sign, phase_sign)
    inputs, routes = element.inputs, element.routes
    out: Amplitudes = {}
    for key, amp in state.items():
        if key[0] not in inputs:
            _add(out, key, amp)
            continue
        for dst, factors in routes(*key):
            a = amp
            for name in factors:
                a = a * weights[name]
            _add(out, dst, a)
    return out


def total_probability(state: Amplitudes) -> float:
    """Sum of |amplitude|^2 over the whole map."""
    return float(sum(abs(a) ** 2 for a in state.values()))


def _sign_patterns(slots: list, ideal: bool) -> list[dict]:
    """Every +/- assignment to the noise `slots`, as slot -> sign maps.

    At V=1 (`ideal`) every assignment gives the same result, so only the
    all-plus one (the empty map, as missing signs default to +1) is returned.
    """
    if ideal:
        return [{}]
    return [dict(zip(slots, p)) for p in itertools.product((1, -1), repeat=len(slots))]


def _check_input(circuit: OpticalCircuit, state: Amplitudes) -> None:
    for path, _ in state:
        if path != circuit.input_path:
            raise CircuitError(
                f"input amplitudes must live on {circuit.input_path!r}, "
                f"found path {path!r}"
            )


def propagate(
    circuit: OpticalCircuit,
    state: Amplitudes,
    noise: NoiseParams = IDEAL,
    signs: dict[tuple[int, str], int] | None = None,
) -> Amplitudes:
    """Left-fold of :func:`apply_element` over the element sequence.

    The input must be supported on the circuit's input path only.  `signs`
    selects a noise branch per (element index, slot); missing entries
    default to +1.  With ideal noise and ideal recombiners the total
    probability is conserved.
    """
    _check_input(circuit, state)
    signs = signs or {}
    current = dict(state)
    for pos, element in enumerate(circuit.elements):
        current = apply_element(
            element,
            current,
            noise,
            split_sign=signs.get((pos, "split"), 1),
            phase_sign=signs.get((pos, "phase"), 1),
        )
    return current


def propagate_branches(
    circuit: OpticalCircuit,
    state: Amplitudes,
    noise: NoiseParams = IDEAL,
) -> list[tuple[float, Amplitudes]]:
    """All (weight, output map) noise branches; weights sum to 1.

    At V=1 there is a single branch.  Otherwise each noise slot takes both
    signs of its two-point phase distribution; averaging probabilities
    over these branches is the exact expectation under the model.  This
    enumeration costs 2^k propagations for k slots; the statistics below
    use the equivalent density-operator pass, and this stays as its oracle.
    """
    slots = [(pos, s) for pos, e in enumerate(circuit.elements) for s in e.noise_slots]
    patterns = _sign_patterns(slots, noise.visibility == 1.0)
    return [(1.0 / len(patterns), propagate(circuit, state, noise, s)) for s in patterns]


def _compile(circuit: OpticalCircuit, labels) -> tuple[list, dict[int, int]]:
    """The Kraus steps of `circuit` on the (path, ell) keys reachable from
    the input-path `labels`, and the final row of each output-path label.

    A step is (element, factors, basis): basis[f] is the (n_out, n_in)
    operator holding the constant weights of the routes whose element
    weight factors are `factors[f]`.  Noise-free elements map keys one to
    one, so they fold into the next noisy element's step (or one final
    step with a bare `_Element`, also the only step of a circuit without
    noise).  Keys on paths that no later element reads, other than the
    output path, are dropped as soon as they appear.
    """
    needed = [{circuit.output_path}]
    for e in reversed(circuit.elements[1:]):
        needed.append(needed[-1] | set(e.inputs))
    keys = [(circuit.input_path, ell) for ell in labels]
    # origin[i]: the row of the last step's output that key i comes from,
    # times the constant picked up on noise-free elements since then.
    origin = identity = [(i, 1.0) for i in range(len(keys))]
    steps = []

    def add_step(element, routes):
        factors = sorted({fs for _, _, _, fs in routes}) or [()]
        basis = np.zeros((len(factors), len(keys), len(identity)), dtype=complex)
        for src, dst, c, fs in routes:
            basis[factors.index(fs), dst, src] = c
        basis.flags.writeable = False  # steps may be cached and shared
        steps.append((element, factors, basis))

    for e, paths in zip(circuit.elements, reversed(needed)):
        inputs, index, routes = e.inputs, {}, []
        for key, (src, c) in zip(keys, origin):
            for dst, fs in e.routes(*key) if key[0] in inputs else ((key, ()),):
                if dst[0] in paths:
                    routes.append((src, index.setdefault(dst, len(index)), c, fs))
        keys = list(index)
        if e.noise_slots:
            add_step(e, routes)
            origin = identity = [(i, 1.0) for i in range(len(keys))]
        else:
            w = e.weights(IDEAL._factors, 1, 1)
            origin = [
                (src, c * math.prod(map(w.__getitem__, fs))) for src, _, c, fs in routes
            ]
    if origin != identity or not steps:
        add_step(_Element(), [(src, dst, c, ()) for dst, (src, c) in enumerate(origin)])
    out = circuit.output_path
    return steps, {ell: i for i, (path, ell) in enumerate(keys) if path == out}


class _Compiled:
    """A circuit compiled for its window labels (:func:`_compile`), with its
    ideal window transfer worked out on first use; both are read-only."""

    def __init__(self, circuit: OpticalCircuit) -> None:
        self.circuit = circuit
        self.steps, self.outputs = _compile(circuit, circuit.window.oam_labels)

    @cached_property
    def transfer(self) -> np.ndarray:
        transfer = _ideal_transfer(self.circuit)
        transfer.flags.writeable = False
        return transfer


_compiled_cached = functools.lru_cache(maxsize=_CACHE_SIZE)(_Compiled)


def _compiled(circuit: OpticalCircuit) -> _Compiled:
    """The cached :class:`_Compiled` of `circuit`, or a fresh one for a
    circuit with an unhashable field (a list of sorter inputs, say)."""
    try:
        return _compiled_cached(circuit)
    except TypeError:
        return _Compiled(circuit)


def _mix(steps: list, v, throughput: float, rhos: np.ndarray) -> np.ndarray:
    """Propagate a batch of density operators, `rhos[a, b, c]` = entry
    (a, c) of operator b, at visibility `v` or at each visibility of a 1-D
    array `v`: `out[k, a, b, c]` is the batch at visibility k.

    Each step maps every operator to the mean of K rho K^dagger over the
    step's Kraus operators K, one per sign pattern of the element's noise
    slots.  Two matrix products per step, stacked over the visibilities,
    cover the whole batch and all K (the first is a single product while
    the visibilities share the batch).
    """
    factors = _noise_factors(v, throughput)
    ideal = not isinstance(v, np.ndarray) and v == 1.0  # a batch takes every pattern
    one = 1 + 0 * v  # the empty product, shaped like v
    batch, rhos = rhos.shape[1], rhos[None]
    for e, names, basis in steps:
        ws = [
            e.weights(factors, signs.get("split", 1), signs.get("phase", 1))
            for signs in _sign_patterns(e.noise_slots, ideal)
        ]
        table = [
            [math.prod(map(w.__getitem__, fs), start=one) for w in ws] for fs in names
        ]
        (f, n_out, n_in), m, r = basis.shape, len(ws), len(rhos)
        table = np.array(table, dtype=complex).reshape(f, m, -1).T  # [k, pattern, f]
        nv = len(table)
        ops = table.reshape(nv * m, f) @ basis.reshape(f, n_out * n_in)
        rhos = rhos.reshape(r, n_in, batch * n_in)
        left = ops.reshape(r, nv // r * m * n_out, n_in) @ rhos
        left = left.reshape(nv, m, n_out * batch, n_in).transpose(0, 2, 1, 3)
        ops_h = ops.reshape(nv, m, n_out, n_in).conj().transpose(0, 1, 3, 2)
        ops_h = ops_h.reshape(nv, m * n_in, n_out)
        ops_h /= m
        rhos = left.reshape(nv, n_out * batch, m * n_in) @ ops_h
        rhos = rhos.reshape(nv, n_out, batch, n_out)
    return rhos


def output_mode_probabilities(
    circuit: OpticalCircuit,
    state: Amplitudes,
    noise: NoiseParams = IDEAL,
) -> dict[int, float]:
    """Noise-averaged detection probabilities per OAM label on the output
    path, from one density-operator pass; equal to the average over the
    :func:`propagate_branches` outputs."""
    _check_input(circuit, state)
    steps, outputs = _compile(circuit, [ell for _, ell in state])
    psi = np.array(list(state.values()), dtype=complex)
    rho = np.outer(psi, psi.conj())[:, None]
    rho = _mix(steps, noise.visibility, noise.throughput, rho)[0, :, 0]
    return {ell: p for ell, i in outputs.items() if (p := float(rho[i, i].real)) > 0}


def _window_probs(steps: list, outputs: dict, window, v, throughput: float) -> np.ndarray:
    """Detection probabilities P[k, i, j] at window mode j for input window
    mode i at visibility k of `v` (see :func:`_mix`), of the steps compiled
    for every mode of `window`, from one batch holding one density operator
    per input; not normalized."""
    d = len(window)
    rhos = np.zeros(d**3, dtype=complex)
    rhos[:: d * d + d + 1] = 1.0  # operator i is |i><i|
    rhos = _mix(steps, v, throughput, rhos.reshape(d, d, d))
    probs = np.zeros((len(rhos), d, d))
    for j, ell in enumerate(window):
        if ell in outputs:
            probs[:, :, j] = rhos[:, outputs[ell], :, outputs[ell]].real
    return probs


def _correlation(steps: list, outputs: dict, window, v, throughput: float) -> np.ndarray:
    """:func:`_window_probs` normalized per row (see :func:`correlation_matrix`)."""
    probs = _window_probs(steps, outputs, window, v, throughput)
    totals = probs.sum(axis=2, keepdims=True)
    if (totals <= 0).any():
        bad = int(np.nonzero(totals <= 0)[1][0])
        raise CircuitError(f"no amplitude reaches the window for input {bad}")
    return probs / totals


def correlation_matrix(
    circuit: OpticalCircuit,
    noise: NoiseParams | None = None,
) -> np.ndarray:
    """Row-normalized detection probabilities P[i, j] over the window.

    Row i: inject the basis mode with logical index i, propagate, project
    onto each window mode j on the output path, and divide by the
    within-window total, so each row sums to one regardless of loss or
    out-of-window leakage.  All rows come from one density-operator pass,
    whose batch holds d n^2 entries for the n >= d keys reachable from a
    d-mode window: sized for the 4-mode gate windows.
    """
    noise = NoiseParams() if noise is None else noise
    c = _compiled(circuit)
    window = circuit.window.oam_labels
    return _correlation(c.steps, c.outputs, window, noise.visibility, noise.throughput)[0]


def efficiency(
    matrix: np.ndarray,
    expected: "np.ndarray | list[int] | tuple[int, ...]",
) -> tuple[np.ndarray, float]:
    """Per-input efficiencies and their mean.

    E_i = matrix[i, expected[i]] / sum_j matrix[i, j]; accepts probability
    or count form.  Every expected column must be an integer in [0, d),
    every entry finite and non-negative, and a zero row total leaves the
    efficiency undefined; each raises ValueError.
    """
    m = np.asarray(matrix, dtype=float)
    expected = list(expected)
    if m.ndim != 2 or m.shape[0] != len(expected):
        raise ValueError(
            f"expected permutation of length {m.shape[0]}, got {len(expected)}"
        )
    d = m.shape[1]
    for i, col in enumerate(expected):
        if not isinstance(col, (int, np.integer)) or not 0 <= col < d:
            raise ValueError(f"expected[{i}] = {col!r} is not an integer in [0, {d})")
    _check_cells(m, "efficiency undefined")
    totals = m.sum(axis=1)
    if (totals <= 0).any():
        bad = int(np.nonzero(totals <= 0)[0][0])
        raise ValueError(f"efficiency undefined: row {bad} has zero total counts")
    per_input = m[np.arange(len(expected)), expected] / totals
    return per_input, float(per_input.mean())


def _check_cells(m: np.ndarray, context: str) -> None:
    """Raise ValueError naming the first entry of `m` that is negative or
    not finite."""
    bad = ~np.isfinite(m) | (m < 0)
    if bad.any():
        i, j = (int(x) for x in np.argwhere(bad)[0])
        raise ValueError(
            f"{context}: row {i}, column {j} holds {m[i, j]}, not a finite "
            f"non-negative number"
        )


def expected_permutation(kind: str, d: int = 4) -> list[int]:
    """Target output column for each input row under a given gate kind."""
    if kind not in _SHIFTS:
        raise ValueError(f"unsupported gate kind {kind!r}; expected one of {GATE_KINDS}")
    return [(i + _SHIFTS[kind]) % d for i in range(d)]


def build_gate_circuit(kind: str, window: SubspaceMap) -> OpticalCircuit:
    """Circuit realizing the cyclic shift ("X"), its square ("X2") or its
    inverse ("Xdagger") on a contiguous 4-mode OAM window.

    The parity-sorting constructions close the mode cycle only for d=4; a
    window centered elsewhere than {-2..1} is handled by shifting all
    modes onto the canonical window first and back afterwards.  The sorter
    reflects its even output and the recombiner its odd arm, which makes
    the reflection bookkeeping come out right for all three kinds:

    * X: shift +1, sort, one extra reflection in the odd arm, recombine
      (the even modes' single net reflection happens at the sorter).
    * X2: sort, one reflection in each arm, +2 on the even arm, recombine,
      final mirror on the merged path.
    * Xdagger: sort, two reflections in the even arm and one in the odd
      arm, recombine, then shift -1.
    """
    if kind not in GATE_KINDS:
        raise ValueError(f"unsupported gate kind {kind!r}; expected one of {GATE_KINDS}")
    if window.dim != 4:
        raise CircuitError(
            f"gate circuits require a 4-dimensional window, got dim {window.dim}"
        )
    sorter = ParitySorter(("in",), "even", "odd", reflected_parity="even")
    merge = Recombiner("even", "odd", "out", mode="lossy_pbs", reflect="odd")
    if kind == "X":
        core: list[OpticalElement] = [
            SpiralPhasePlate("in", +1),
            sorter,
            Mirror("odd"),
            merge,
        ]
    elif kind == "X2":
        core = [
            sorter,
            Mirror("even"),
            SpiralPhasePlate("even", +2),
            Mirror("odd"),
            merge,
            Mirror("out"),
        ]
    else:
        core = [
            sorter,
            Mirror("even"),
            Mirror("even"),
            Mirror("odd"),
            merge,
            SpiralPhasePlate("out", -1),
        ]
    to_canonical = -2 - window.oam_offset
    elements: list[OpticalElement] = []
    if to_canonical != 0:
        elements.append(SpiralPhasePlate("in", to_canonical))
    elements.extend(core)
    if to_canonical != 0:
        elements.append(SpiralPhasePlate("out", -to_canonical))
    return OpticalCircuit(4, window, tuple(elements))


def trace_modes(kind: str, inputs: tuple[int, ...] = (-2, -1, 0, 1)) -> tuple[int, ...]:
    """Symbolic bookkeeping oracle: trace (sign flips, plate shifts) per mode.

    Follows the textual recipe for each circuit with plain integer
    arithmetic, counting the reflections at the sorter (even modes) and at
    the recombination (odd modes) along with the in-arm mirrors.  Entirely
    independent of the amplitude machinery, so it cross-checks the element
    sequences of :func:`build_gate_circuit`.
    """
    if kind not in GATE_KINDS:
        raise ValueError(f"unsupported gate kind {kind!r}; expected one of {GATE_KINDS}")
    out = []
    for ell in inputs:
        if kind == "X":
            ell += 1  # input-side plate
            if ell % 2 == 0:
                ell = -ell  # one reflection at the sorter
            else:
                ell = -(-ell)  # arm mirror + recombination reflection
        elif kind == "X2":
            if ell % 2 == 0:
                ell = -ell  # sorter reflection
                ell = -ell  # arm mirror
                ell += 2  # even-arm plate
            else:
                ell = -ell  # arm mirror
                ell = -ell  # recombination reflection
            ell = -ell  # final mirror on the merged path
        else:
            if ell % 2 == 0:
                ell = -(-(-ell))  # sorter reflection + two arm mirrors
            else:
                ell = -(-ell)  # arm mirror + recombination reflection
            ell -= 1  # output-side plate
        out.append(ell)
    return tuple(out)


def _ideal_transfer(circuit: OpticalCircuit) -> np.ndarray:
    """Window transfer matrix T[i, j]: amplitude at output window mode i for
    input window mode j, with ideal noise and ideal (lossless) recombiners.
    """
    elements = tuple(
        replace(e, mode="ideal") if isinstance(e, Recombiner) else e
        for e in circuit.elements
    )
    ideal_circuit = replace(circuit, elements=elements)
    window = circuit.window.oam_labels
    transfer = np.zeros((circuit.dim, circuit.dim), dtype=complex)
    for j, ell in enumerate(window):
        final = propagate(ideal_circuit, {(circuit.input_path, ell): 1.0}, IDEAL)
        for i, out in enumerate(window):
            transfer[i, j] = final.get((circuit.output_path, out), 0j)
    return transfer


def circuit_unitary_fidelity(circuit: OpticalCircuit, gate: np.ndarray) -> float:
    """|tr(gate^dagger T)| / d for the circuit's window transfer matrix T.

    T is extracted by propagating each basis mode with ideal noise and
    ideal (lossless) recombination and projecting the output onto the
    window; the result is 1 exactly when the circuit realizes `gate` up to
    a global phase.  A non-finite gate entry raises ValueError.
    """
    gate = np.asarray(gate, dtype=complex)
    d = circuit.dim
    if gate.shape != (d, d):
        raise ValueError(f"gate shape {gate.shape} does not match dimension {d}")
    if not np.isfinite(gate).all():
        i, j = (int(x) for x in np.argwhere(~np.isfinite(gate))[0])
        raise ValueError(f"gate entry ({i}, {j}) is {gate[i, j]}, not finite")
    return float(abs(np.vdot(gate, _compiled(circuit).transfer)) / d)


def superposition_visibility(
    circuit: OpticalCircuit,
    noise: NoiseParams | None = None,
) -> float:
    """Mean post-selected probability of the expected superposition output.

    Inject (|a> +/- |b>)/sqrt(2) built from the window's last two logical
    modes.  The ideal transfer matrix (as in
    :func:`circuit_unitary_fidelity`) sends each of them to one window
    mode, a' and b', with a relative phase phi; project the noisy output
    onto (|a'> +/- e^{i phi} |b'>)/sqrt(2), normalize over the two
    projections, and average the expected outcome's probability over both
    input signs.  1.0 for the ideal circuit, 0.5 when the sorter visibility
    is zero (phases scrambled).  Raises CircuitError if either input mode
    does not map onto a single window mode.
    """
    noise = NoiseParams() if noise is None else noise
    w = circuit.window
    ins = [w.dim - 2, w.dim - 1]
    c = _compiled(circuit)
    transfer = c.transfer
    outs = [int(np.argmax(np.abs(transfer[:, j]))) for j in ins]
    for j, i in zip(ins, outs):
        if abs(abs(transfer[i, j]) ** 2 - 1) > 1e-9:
            raise CircuitError(
                f"logical mode {j} does not map onto a single window mode"
            )
    phase = transfer[outs[1], ins[1]] / transfer[outs[0], ins[0]]
    # the steps take every window mode; both inputs live on the last two
    psi = np.zeros((2, w.dim), dtype=complex)
    psi[:, ins] = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    rho = _mix(c.steps, noise.visibility, noise.throughput, psi.T[:, :, None] * psi)[0]
    a, b = (c.outputs[w.to_oam(i)] for i in outs)
    # <e|rho|e> / (rho_aa + rho_bb) is 1/2 + s cross for the expected outcome
    # |e> = (|a'> + s e^{i phi} |b'>)/sqrt(2) of input sign s = +1, -1
    cross = (phase * rho[a, :, b]).real / (rho[a, :, a] + rho[b, :, b]).real
    return float(0.5 + (cross[0] - cross[1]) / 2)


def mean_gate_efficiency(
    kind: str,
    noise: NoiseParams,
    window: SubspaceMap | None = None,
) -> float:
    """Simulated mean transformation efficiency of a gate circuit."""
    window = SubspaceMap(4, -2) if window is None else window
    circuit = build_gate_circuit(kind, window)
    matrix = correlation_matrix(circuit, noise)
    return efficiency(matrix, expected_permutation(kind))[1]


def _chebyshev(v, degree: int) -> np.ndarray:
    """Chebyshev polynomials T_0 .. T_degree of 2v - 1 at visibility `v`, a
    number or a 1-D array (one row per visibility)."""
    return np.cos(np.multiply.outer(np.arccos(2 * np.asarray(v) - 1), np.arange(degree + 1)))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _efficiency_curve(kind: str, throughput: float):
    """The mean efficiency E(V) of gate `kind` in closed form, and its values
    on the calibration grid `_GRID`.

    Per input row i, the expected column's probability N_i and the row
    total D_i are polynomials in V of degree at most k, the number of noise
    slots, so one pass at k + 1 Chebyshev points on [0, 1] fits them
    exactly; E(V) is the mean of N_i(V) / D_i(V).  The points include V = 0
    and V = 1, whose grid values are the pass's own.
    """
    circuit = build_gate_circuit(kind, SubspaceMap(4, -2))
    c = _compiled(circuit)
    k = sum(len(e.noise_slots) for e, _, _ in c.steps)
    nodes = (1 - np.cos(np.arange(k + 1) * math.pi / k)) / 2
    probs = _window_probs(c.steps, c.outputs, circuit.window.oam_labels, nodes, throughput)
    perm = expected_permutation(kind)
    rows = np.stack([probs[:, range(len(perm)), perm], probs.sum(axis=2)])
    coeffs = np.linalg.solve(_chebyshev(nodes, k), rows)  # [N or D, T_n, input]

    def curve(v):
        num, den = _chebyshev(v, k) @ coeffs
        return (num / den).mean(axis=-1)

    grid = curve(_GRID)
    grid[[0, -1]] = (rows[0] / rows[1]).mean(axis=-1)[[0, -1]]
    grid.flags.writeable = False
    return curve, grid


def _solve(curve, target: float, a: float, b: float) -> float:
    """V in [a, b] with curve(V) = target to about 1e-15, by regula falsi
    (at most 100 steps); curve(a) < target <= curve(b)."""
    fa, fb = curve(a) - target, curve(b) - target
    for _ in range(100):
        v = min(max((a * fb - b * fa) / (fb - fa), a), b)
        f = curve(v) - target
        if abs(f) <= 1e-15 or v in (a, b):
            break
        a, fa, b, fb = (v, f, b, fb) if f < 0 else (a, fa, v, f)
    return float(v)


def calibrate_visibility(
    kind: str,
    target_mean_efficiency: float,
    *,
    throughput: float = 0.5,
    tol: float = 1e-4,
) -> NoiseParams:
    """The visibility V at which the simulated mean efficiency hits the target.

    The target must lie in (0.25, 1] and `tol` must be finite and
    non-negative.  Mean efficiency is checked to be monotone non-decreasing
    over V in {0, 0.1, ..., 1.0} before searching; targets outside the
    achievable range raise CalibrationError naming it, and a target within
    `tol` of the value at V = 1 (else V = 0) returns that endpoint.

    The search runs on the closed form of :func:`_efficiency_curve`, fitted
    once per (kind, throughput): it solves E(V) = target to rounding inside
    the grid cell that brackets the target, and raises CalibrationError if
    the root it finds misses the target by more than `tol`.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if not 0.25 < target_mean_efficiency <= 1.0:
        raise CalibrationError(
            f"target mean efficiency must lie in (0.25, 1], got "
            f"{target_mean_efficiency}"
        )
    if kind not in GATE_KINDS:
        raise ValueError(f"unsupported gate kind {kind!r}; expected one of {GATE_KINDS}")
    NoiseParams(1.0, throughput)  # validates the throughput
    curve, values = _efficiency_curve(kind, float(throughput))
    if np.any(values[1:] < values[:-1] - 1e-12):
        raise CalibrationError("mean efficiency is not monotone in visibility")
    lo_eff, hi_eff = values[0], values[-1]
    if not lo_eff - tol <= target_mean_efficiency <= hi_eff + tol:
        raise CalibrationError(
            f"target {target_mean_efficiency} unreachable; achievable mean "
            f"efficiency range is [{lo_eff:.4f}, {hi_eff:.4f}]"
        )
    for v_exact, e_exact in ((1.0, hi_eff), (0.0, lo_eff)):
        if abs(e_exact - target_mean_efficiency) <= tol:
            return NoiseParams(v_exact, throughput)
    # the target now lies strictly between values[0] and values[-1]
    j = int(np.argmax(values >= target_mean_efficiency))
    v = _solve(curve, target_mean_efficiency, _GRID[j - 1], _GRID[j])
    if not abs(curve(v) - target_mean_efficiency) <= tol:
        raise CalibrationError(
            f"calibration failed to reach target {target_mean_efficiency} within {tol}"
        )
    return NoiseParams(v, throughput)


def monte_carlo_counts(
    matrix: np.ndarray,
    shots_per_input: int,
    seed: int,
) -> np.ndarray:
    """Seeded categorical sampling of each probability row.

    Row i draws `shots_per_input` samples from its distribution using the
    substream np.random.default_rng([seed, i]), so identical seeds give
    bit-identical counts and rows are independently reproducible.  The
    shot count must be an integer >= 1, the seed an integer >= 0, and every
    cell finite and non-negative; each raises ValueError otherwise.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"probability matrix must be 2-D, got shape {m.shape}")
    for name, value, least in (("shots_per_input", shots_per_input, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    _check_cells(m, "probability matrix")
    counts = np.zeros(m.shape, dtype=np.int64)
    for i, row in enumerate(m):
        total = row.sum()
        if total <= 0:
            raise ValueError(f"row {i} is not a probability distribution")
        rng = np.random.default_rng([int(seed), i])
        counts[i] = rng.multinomial(shots_per_input, row / total)
    return counts


def ideal_gate_matrix(kind: str, d: int = 4) -> np.ndarray:
    """The logical-space gate a given circuit kind is meant to realize."""
    if kind not in _SHIFTS:
        raise ValueError(f"unsupported gate kind {kind!r}; expected one of {GATE_KINDS}")
    return shift_clock(_SHIFTS[kind], 0, d)

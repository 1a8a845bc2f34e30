"""Element-level simulation of interferometric OAM mode-shift circuits.

A circuit is an ordered list of optical elements acting on labeled paths
that carry complex amplitudes indexed by (path, OAM label).  The element
vocabulary is small: spiral phase plates add an integer to the OAM label,
mirrors negate it, a parity sorter routes even and odd labels to separate
paths (its reflected output port also negates the label), and a recombiner
merges the two arms back onto one path.  :func:`build_gate_circuit`
assembles the 4-dimensional circuits that realize the cyclic shift gate,
its square and its inverse on a contiguous 4-mode window.

Imperfection model
------------------
A single sorter visibility V in [0, 1] governs every interferometric
element.  At a sorter, an amplitude reaches the correct port with weight
sqrt((1+V)/2) and leaks to the wrong port with weight sqrt((1-V)/2); at a
recombiner the two arms pick up a relative phase whose cosine averages to
V.  Both effects come from one internal phase error per element whose
distribution satisfies E[cos] = V, E[sin] = 0.  Every output probability
is multilinear in (cos, sin) of each element phase, so each weight factor
enters only by its mean and mean square (:func:`_moments`): detection
probabilities are exact expectations, without Monte Carlo error.

Every result reads one compiled form.  A circuit is compiled once onto the
(path, OAM label) keys reachable from its inputs: each noisy element
becomes one step of constant operators B_f, each carrying a product t_f of
weight factors, and runs of noise-free elements fold into the next noisy
one.  A batch of density operators goes through the steps in one pass, each
mapping rho to sum_fg E[t_f conj(t_g)] B_f rho B_g^dagger, so the cost grows
linearly with the number k of noise slots.  At V=1 the steps' mean
operators sum_f E[t_f] B_f multiply to the ideal window transfer, and
:func:`propagate_branches` lists the 2^k branches of the two-point phase
+/- arccos V, which has the same means.

Basis inputs need no density operators: their histories part only at
split slots, one keeping and one leaking, so no coherence survives and the
window probabilities are a product of real matrices, one per step, from
the diagonal E|t_f|^2.  Over the s steps with a split slot each is
sum_j V^(s-j) (1-V)^j P_j, P_j >= 0.  Bounded caches keep the gate
circuits, each circuit's compiled form and ideal transfer, and per
throughput those P_j: a warm correlation matrix at any V is one weighted
sum, and calibration solves E(V) = target on them.

Recombiners are "ideal" (a reversed sorter, lossless at V=1) or
"lossy_pbs" (an unconditional merge at a constant loss, which row
normalization removes).  All functions are pure, and Monte Carlo counts
derive one substream per (seed, input row).
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .pauli import SubspaceMap, _check_integer, check_dim, require_finite, shift_clock

#: Amplitude map: (path, OAM label) -> complex amplitude.
Amplitudes = dict[tuple[str, int], complex]

#: Power of the shift X that each gate kind realizes.
_SHIFTS = {"X": 1, "X2": 2, "Xdagger": -1}
#: Circuit kinds accepted by :func:`build_gate_circuit`.
GATE_KINDS = tuple(_SHIFTS)


#: Entries of each compiled-form cache: room for the three gate circuits on
#: a few windows and a few dozen cascades of them.
_CACHE_SIZE = 64
#: Visibilities of the calibration grid: V = 0, 0.1, ..., 1.
_GRID = tuple(i / 10 for i in range(11))
#: Types a noise parameter may have (bool aside).
_REALS = (int, float, np.integer, np.floating)


class CircuitError(ValueError):
    """Raised for topologically invalid circuits or dead path references."""


class CalibrationError(RuntimeError):
    """Raised when visibility calibration cannot reach the requested target."""


def _shown(value, show=repr) -> str:
    """`show(value)` for an error message, or the bit length of an int past
    the digit limit of str conversion."""
    try:
        return show(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _moments(v: float, throughput: float) -> tuple[dict, dict]:
    """The mean E[t] and the mean square E|t|^2 of each weight factor t at
    visibility `v`: correct port, wrong port (a random sign), odd-arm phase
    (cos +/- i sin of the element's phase error) and recombiner loss."""
    mean = {"keep": math.sqrt((1 + v) / 2), "leak": 0.0, "arm": v, "tau": math.sqrt(throughput)}
    square = {"keep": (1 + v) / 2, "leak": (1 - v) / 2, "arm": 1.0, "tau": throughput}
    return mean, square


#: The random weight factor behind each noise slot, with its own sign per element.
_SIGNED = {"split": "leak", "phase": "arm"}


class _Element:
    """Per-key physics and topology of one element.

    `inputs` names the paths the element acts on; amplitudes elsewhere pass
    through untouched.  `outputs` lists the new paths that replace them, if
    any (`outputs_rule` is the error when one is live), and `field_error()`
    names the first of the element's field rules it breaks, or is None.
    `routes(path, ell)` lists where an amplitude on an input path goes, each
    destination with the names of the weight factors it is multiplied by,
    in order: the noise's factors of :func:`_moments`, or the element's own
    `constants`.  `noise_slots` names the element's random signs ('split',
    'phase'; :data:`_SIGNED`).
    """

    noise_slots = ()
    outputs = ()
    constants = {}

    def field_error(self):
        return None


class _OnePath(_Element):
    @property
    def inputs(self):
        return (self.path,)


@dataclass(frozen=True)
class SpiralPhasePlate(_OnePath):
    """Adds `delta_ell` to the OAM label of every amplitude on `path`."""

    path: str
    delta_ell: int

    def field_error(self):
        if isinstance(self.delta_ell, bool) or not isinstance(self.delta_ell, (int, np.integer)):
            return f"delta_ell must be an integer, got {self.delta_ell!r}"

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
    outputs_rule = "sorter outputs must be new paths"

    def __post_init__(self) -> None:
        object.__setattr__(self, "in_paths", tuple(self.in_paths))

    @property
    def inputs(self):
        return self.in_paths

    @property
    def outputs(self):
        return (self.out_even, self.out_odd)

    def field_error(self):
        if len(self.in_paths) != 1:
            return "parity sorter takes exactly one input path"
        if self.reflected_parity not in ("even", "odd"):
            return "reflected_parity must be 'even' or 'odd'"

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

    outputs_rule = "recombiner output must be new"

    @property
    def inputs(self):
        return (self.in_even, self.in_odd)

    @property
    def outputs(self):
        return (self.out, self.out + ".discard")

    def field_error(self):
        if self.mode not in ("ideal", "lossy_pbs"):
            return f"unknown recombiner mode {self.mode!r}"
        if self.reflect not in ("even", "odd", "none"):
            return "reflect must be 'even', 'odd' or 'none'"
        if self.in_even == self.in_odd:
            return "recombiner arms must differ"

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
        rejected = (self.outputs[1], key[1])
        return ((key, (*phase, out)), (rejected, (*phase, discard)))


@dataclass(frozen=True)
class PhaseShift(_OnePath):
    """Multiplies every amplitude on `path` by exp(i*phi)."""

    path: str
    phi: float

    def field_error(self):
        phi = self.phi
        with contextlib.suppress(OverflowError):  # math.isfinite overflows on huge ints
            if not isinstance(phi, bool) and isinstance(phi, _REALS) and math.isfinite(phi):
                return None
        return f"phi must be a finite real number, got {_shown(phi)}"

    def routes(self, path, ell):
        return (((path, ell), ("phase",)),)

    @property
    def constants(self):
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
        for name, value in (("visibility", self.visibility), ("throughput", self.throughput)):
            if isinstance(value, bool) or not isinstance(value, _REALS):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {_shown(self.visibility, str)}")
        if not 0.0 < self.throughput <= 1.0:
            raise ValueError(f"throughput must lie in (0, 1], got {_shown(self.throughput, str)}")


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
                f"window dimension {self.window.dim} does not match circuit dimension {self.dim}"
            )
        object.__setattr__(self, "elements", tuple(self.elements))
        # walk the elements keeping the live paths: inputs live, outputs new
        live, types = {self.input_path}, OpticalElement.__args__
        for pos, e in enumerate(self.elements):
            if not isinstance(e, types):
                raise CircuitError(f"element {pos}: unknown element {e!r}")
            if problem := e.field_error():
                raise CircuitError(f"element {pos}: {problem}")
            for src in e.inputs:
                if src not in live:
                    raise CircuitError(f"element {pos}: dead path reference {src!r}")
            if new := e.outputs:
                if not live.isdisjoint(new) or len(set(new)) < len(new):
                    raise CircuitError(f"element {pos}: {e.outputs_rule}")
                live.difference_update(e.inputs)
                live.update(new)
        if self.output_path not in live:
            raise CircuitError(
                f"output path {self.output_path!r} is not live after the last element"
            )


def _check_input(circuit: OpticalCircuit, state: Amplitudes) -> tuple[list, np.ndarray]:
    """The OAM labels and the amplitude vector of an input map.  A key off
    the input path raises CircuitError; a label that is not an integer and
    an amplitude that is not finite raise ValueError."""
    labels = []
    for (path, ell), amp in state.items():
        if path != circuit.input_path:
            raise CircuitError(
                f"input amplitudes must live on {circuit.input_path!r}, "
                f"found path {path!r}"
            )
        labels.append(_check_integer(ell, "OAM label"))
        if not cmath.isfinite(amp):
            raise ValueError(f"input amplitude at {(path, ell)!r} is {amp}, not finite")
    return labels, np.array(list(state.values()), dtype=complex)


def _compile(circuit: OpticalCircuit, labels) -> tuple[list, dict[int, int]]:
    """The steps of `circuit` on the (path, ell) keys reachable from
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
            w = e.constants
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
        """T[i, j]: amplitude at output window mode i for input window mode
        j, with ideal noise and ideal (lossless) recombiners: the product of
        the compiled steps' mean operators sum_f E[t_f] B_f at IDEAL, where
        every weight factor is deterministic."""
        circuit, window = self.circuit, self.circuit.window.oam_labels
        elements = tuple(
            replace(e, mode="ideal") if isinstance(e, Recombiner) else e
            for e in circuit.elements
        )
        # a fresh compile: the variant is needed once, so it stays out of the cache
        steps, outputs = _compile(replace(circuit, elements=elements), window)
        mean = _moments(IDEAL.visibility, IDEAL.throughput)[0]
        amps = np.eye(len(window))
        for _, names, basis in steps:
            amps = np.tensordot([math.prod(mean[n] for n in fs) for fs in names], basis, 1) @ amps
        transfer = np.zeros((circuit.dim, circuit.dim), dtype=complex)
        for i, ell in enumerate(window):
            if ell in outputs:
                transfer[i] = amps[outputs[ell]]
        transfer.flags.writeable = False
        return transfer


#: The cached :class:`_Compiled` of a circuit (every circuit is hashable).
_compiled = functools.lru_cache(maxsize=_CACHE_SIZE)(_Compiled)


def _second_moments(names: list, v: float, throughput: float) -> np.ndarray:
    """M[f, g] = E[t_f conj(t_g)] for the weight factor products t_f named by
    `names[f]` of one compiled step at visibility `v` (:func:`_moments`).  A
    step's random factors have independent signs and real means, so a factor
    in both products enters by its mean square and one in either by its mean."""
    mean, square = _moments(v, throughput)

    def pair(f, g):
        return math.prod(square[n] if n in f and n in g else mean[n] for n in dict.fromkeys(f + g))

    return np.array([[pair(f, g) for g in names] for f in names])


def propagate_branches(
    circuit: OpticalCircuit,
    state: Amplitudes,
    noise: NoiseParams = IDEAL,
) -> list[tuple[float, Amplitudes]]:
    """Every noise branch as (weight, output-path amplitudes); weights sum to 1.

    At V=1 there is a single branch.  Otherwise each of the k noise slots
    gives its random factor (:data:`_SIGNED`) both values mean +/- i sqrt(mean
    square - mean^2) of :func:`_moments`, the first slot most significant in
    the order of the 2^k branches; averaging probabilities over them is the
    exact expectation under the model.  Each branch is the product of the
    compiled steps' operators on that sign pattern applied to `state`, which
    lives on the input path, and holds the nonzero amplitudes on the output
    path only.
    """
    noise = _checked(circuit, noise)
    labels, psi = _check_input(circuit, state)
    steps, outputs = _compile(circuit, labels)
    mean, square = _moments(noise.visibility, noise.throughput)
    amps = psi[None, :, None]  # [branch, key, 1]
    for e, names, basis in steps:
        patterns = [mean]
        for n in map(_SIGNED.get, e.noise_slots if noise.visibility != 1.0 else ()):
            spread = 1j * math.sqrt(square[n] - mean[n] * mean[n])
            patterns = [{**w, n: w[n] + s} for w in patterns for s in (spread, -spread)]
        table = np.array([[math.prod(w[n] for n in fs) for fs in names] for w in patterns])
        ops = np.tensordot(table, basis, 1)
        amps = (ops[None] @ amps[:, None]).reshape(len(amps) * len(ops), -1, 1)
    out = circuit.output_path
    return [
        (1.0 / len(amps), {(out, ell): complex(a[i]) for ell, i in outputs.items() if a[i] != 0})
        for a in amps[..., 0]
    ]


def _mix(steps: list, psi: np.ndarray, noise: NoiseParams) -> np.ndarray:
    """The noise-averaged output density operators of the pure inputs held
    in the columns of the (n_in, batch) `psi`: `rhos[a, b, c]` is entry
    (a, c) of input b's operator.  Each step maps rho to
    sum_fg M[f, g] B_f rho B_g^dagger over its operators B_f = basis[f], with
    M its :func:`_second_moments` at `noise`."""
    batch = psi.shape[1]
    rhos = psi[:, :, None] * psi.conj().T
    for _, names, basis in steps:
        m, n_out, n_in = basis.shape
        left = basis.reshape(m * n_out, n_in) @ rhos.reshape(n_in, batch * n_in)
        left = left.reshape(m, n_out * batch, n_in).transpose(1, 0, 2)
        moments = _second_moments(names, noise.visibility, noise.throughput)
        right = moments @ basis.conj().reshape(m, n_out * n_in)  # right[f] = sum_g M_fg B_g*
        right = right.reshape(m, n_out, n_in).transpose(0, 2, 1).reshape(m * n_in, n_out)
        rhos = (left.reshape(n_out * batch, m * n_in) @ right).reshape(n_out, batch, n_out)
    return rhos


def output_mode_probabilities(
    circuit: OpticalCircuit,
    state: Amplitudes,
    noise: NoiseParams = IDEAL,
) -> dict[int, float]:
    """Noise-averaged detection probabilities per OAM label on the output
    path, from one density-operator pass through the compiled steps
    (:func:`_mix`): the exact expectation, equal to the weighted mean of
    |amplitude|^2 over the :func:`propagate_branches` branches."""
    noise = _checked(circuit, noise)
    labels, psi = _check_input(circuit, state)
    steps, outputs = _compile(circuit, labels)
    rho = _mix(steps, psi[:, None], noise)[:, 0]
    return {ell: p for ell, i in outputs.items() if (p := float(rho[i, i].real)) > 0}


def _grades(v, k: int) -> np.ndarray:
    """The weights V^(k-j) (1-V)^j of grades j = 0..k at visibility `v`, a
    number or a 1-D array (one row per visibility); one-hot at V = 1, 0."""
    j = np.arange(k + 1.0)
    return np.power.outer(v, k - j) * np.power.outer(1 - v, j)


def _transport(step: tuple, v: float, throughput: float) -> np.ndarray:
    """A[dst, src]: the mean probability that a compiled `step` takes a basis
    input from key src to dst at visibility v, sum_f E|t_f|^2 |basis[f]|^2 with
    E|t_f|^2 the diagonal of the step's :func:`_second_moments`."""
    weights = np.diag(_second_moments(step[1], v, throughput))
    return np.tensordot(weights, (step[2] * step[2].conj()).real, 1)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _table(c: _Compiled, throughput: float) -> np.ndarray:
    """The read-only P[j, i, m] of the compiled circuit `c` at `throughput`,
    whose sum over j weighted by V^(s-j) (1-V)^j (:func:`_grades`) is the
    probability at window mode m for input window mode i at V, unnormalized:
    the product of the steps' :func:`_transport`, where each of the s steps
    with a split slot is V A(1) + (1-V) A(0) and adds one grade."""
    window = c.circuit.window.oam_labels
    probs = np.eye(len(window))[None]  # [grade, key, input]
    for step in c.steps:
        kept = _transport(step, 1.0, throughput) @ probs
        if "split" in step[0].noise_slots:
            kept = np.concatenate([kept, np.zeros_like(kept[:1])])
            kept[1:] += _transport(step, 0.0, throughput) @ probs
        probs = kept
    table = np.zeros((len(probs), len(window), len(window)))
    for m, ell in enumerate(window):
        if ell in c.outputs:
            table[:, :, m] = probs[:, c.outputs[ell]]
    table.flags.writeable = False
    return table


def _checked(circuit: OpticalCircuit, noise: NoiseParams | None = None) -> NoiseParams:
    """`noise`, or NoiseParams() for None; TypeError naming an argument that
    is not an OpticalCircuit or NoiseParams."""
    if not isinstance(circuit, OpticalCircuit):
        raise TypeError(f"circuit must be an OpticalCircuit, got {type(circuit).__name__}")
    if not isinstance(noise, NoiseParams | None):
        raise TypeError(f"noise must be NoiseParams, got {type(noise).__name__}")
    return NoiseParams() if noise is None else noise


def correlation_matrix(
    circuit: OpticalCircuit,
    noise: NoiseParams | None = None,
) -> np.ndarray:
    """Row-normalized detection probabilities P[i, j] over the window.

    Row i: inject the basis mode with logical index i, propagate, project
    onto each window mode j on the output path, and divide by the
    within-window total, so each row sums to one regardless of loss or
    out-of-window leakage.  The probabilities are one weighted sum of the
    grades of :func:`_table`, built once per throughput, and at V = 1 and
    V = 0 single grades bit for bit.
    """
    noise = _checked(circuit, noise)
    table = _table(_compiled(circuit), float(noise.throughput))
    k = len(table) - 1
    probs = (_grades(noise.visibility, k) @ table.reshape(k + 1, -1)).reshape(table.shape[1:])
    totals = probs.sum(axis=1, keepdims=True)
    if not totals.min() > 0:  # no total is negative, so argmin is the first zero row
        raise CircuitError(f"no amplitude reaches the window for input {np.argmin(totals)}")
    return probs / totals


def efficiency(
    matrix: np.ndarray,
    expected: "np.ndarray | list[int] | tuple[int, ...]",
) -> tuple[np.ndarray, float]:
    """Per-input efficiencies and their mean.

    E_i = matrix[i, expected[i]] / sum_j matrix[i, j]; accepts probability
    or count form.  Every expected column must be an integer in [0, d) and
    not a bool, every entry finite and non-negative and every row total
    finite, and a zero row total or a matrix without rows leaves the
    efficiency undefined; each raises ValueError.
    """
    m = np.asarray(matrix, dtype=float)
    expected = list(expected)
    if m.ndim != 2 or m.shape[0] != len(expected):
        raise ValueError(f"expected permutation of length {m.shape[0]}, got {len(expected)}")
    if not expected:
        raise ValueError("efficiency undefined: the matrix has no rows")
    d = m.shape[1]
    for i, col in enumerate(expected):
        if isinstance(col, bool) or not isinstance(col, (int, np.integer)) or not 0 <= col < d:
            raise ValueError(f"expected[{i}] = {col!r} is not an integer in [0, {d})")
    zero = "efficiency undefined: row {} has zero total counts"
    totals = _row_totals(m, "efficiency undefined", zero)
    per_input = m[np.arange(len(expected)), expected] / totals
    return per_input, float(per_input.sum() / len(per_input))


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


def _row_totals(m: np.ndarray, context: str, zero: str) -> np.ndarray:
    """Row sums of the 2-D `m`, all finite and positive; else ValueError naming
    the first entry that :func:`_check_cells` rejects, else the first row whose
    finite entries sum to infinity, else (message `zero`) the first zero row."""
    with np.errstate(over="ignore", invalid="ignore"):
        totals = m.sum(axis=1)
    # a NaN or infinite cell makes its row total non-finite as well
    if not totals.size or 0 < totals.min() <= totals.max() < math.inf and m.min() >= 0:
        return totals
    _check_cells(m, context)
    if totals.max() == math.inf:  # cells are finite and non-negative: argmax is the first inf row
        raise ValueError(f"{context}: row {np.argmax(totals)} sums to inf, not a finite number")
    raise ValueError(zero.format(np.argmin(totals)))


def _shift(kind: str) -> int:
    """The power of X that gate `kind` realizes; ValueError for any other kind."""
    if kind not in GATE_KINDS:
        raise ValueError(f"unsupported gate kind {kind!r}; expected one of {GATE_KINDS}")
    return _SHIFTS[kind]


def expected_permutation(kind: str, d: int = 4) -> list[int]:
    """Target output column for each input row under gate `kind` in dimension `d`."""
    shift = _shift(kind)
    check_dim(d)
    return [(i + shift) % d for i in range(d)]


def build_gate_circuit(kind: str, window: SubspaceMap) -> OpticalCircuit:
    """Circuit realizing the cyclic shift ("X"), its square ("X2") or its
    inverse ("Xdagger") on a contiguous 4-mode OAM window, built once per
    (kind, window): equal arguments return one shared immutable circuit.

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
    _shift(kind)
    if not isinstance(window, SubspaceMap):
        raise TypeError(f"window must be a SubspaceMap, got {type(window).__name__}")
    return _gate_circuit(kind, window)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _gate_circuit(kind: str, window: SubspaceMap) -> OpticalCircuit:
    if window.dim != 4:
        raise CircuitError(f"gate circuits require a 4-dimensional window, got dim {window.dim}")
    sorter = ParitySorter(("in",), "even", "odd", reflected_parity="even")
    merge = Recombiner("even", "odd", "out", mode="lossy_pbs", reflect="odd")
    if kind == "X":
        core: list[OpticalElement] = [SpiralPhasePlate("in", +1), sorter, Mirror("odd"), merge]
    elif kind == "X2":
        arms = [Mirror("even"), SpiralPhasePlate("even", +2), Mirror("odd")]
        core = [sorter, *arms, merge, Mirror("out")]
    else:
        arms = [Mirror("even"), Mirror("even"), Mirror("odd")]
        core = [sorter, *arms, merge, SpiralPhasePlate("out", -1)]
    to_canonical = -2 - window.oam_offset
    if to_canonical != 0:
        core = [SpiralPhasePlate("in", to_canonical), *core, SpiralPhasePlate("out", -to_canonical)]
    return OpticalCircuit(4, window, tuple(core))


def trace_modes(kind: str, inputs: tuple[int, ...] = (-2, -1, 0, 1)) -> tuple[int, ...]:
    """Symbolic bookkeeping oracle: trace (sign flips, plate shifts) per mode.

    Follows the textual recipe for each circuit with plain integer
    arithmetic, counting the reflections at the sorter (even modes) and at
    the recombination (odd modes) along with the in-arm mirrors.  Entirely
    independent of the amplitude machinery, so it cross-checks the element
    sequences of :func:`build_gate_circuit`.
    """
    _shift(kind)
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


def circuit_unitary_fidelity(circuit: OpticalCircuit, gate: np.ndarray) -> float:
    """|tr(gate^dagger T)| / d for the circuit's window transfer matrix T.

    T is extracted by propagating each basis mode with ideal noise and
    ideal (lossless) recombination and projecting the output onto the
    window; the result is 1 exactly when the circuit realizes `gate` up to
    a global phase.  A non-finite gate entry raises ValueError.
    """
    _checked(circuit)
    gate = np.asarray(gate, dtype=complex)
    d = circuit.dim
    if gate.shape != (d, d):
        raise ValueError(f"gate shape {gate.shape} does not match dimension {d}")
    require_finite(gate)
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
    does not map onto a single window mode, or no amplitude of the noisy
    circuit reaches it.  The coherences are not polynomials in V, so this
    takes a density-operator pass of its own.
    """
    noise = _checked(circuit, noise)
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
        if w.to_oam(i) not in c.outputs:
            raise CircuitError(f"no amplitude reaches window mode {i} for input {j}")
    phase = transfer[outs[1], ins[1]] / transfer[outs[0], ins[0]]
    # the steps take every window mode; both inputs live on the last two
    psi = np.zeros((w.dim, 2), dtype=complex)
    psi[ins] = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    rho = _mix(c.steps, psi, noise)
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


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _efficiency_curve(kind: str, throughput: float):
    """The mean efficiency E(V) of gate `kind` in closed form, and its
    read-only values on the calibration grid `_GRID`.

    Per input row i, E_i(V) is N_i(V) / D_i(V), the expected column's entry
    over the row total, each a weighted sum of the grades of the gate
    circuit's :func:`_table` (single grades at V = 0 and V = 1); E(V) is
    their mean.  The grades are kept per row as Python floats, so E(V) at
    one V costs a few float operations and no numpy call.
    """
    circuit = build_gate_circuit(kind, SubspaceMap(4, -2))
    table = _table(_compiled(circuit), throughput)
    k = len(table) - 1
    rows = [  # (N_i, D_i) grades of each input row i
        (table[:, i, col].tolist(), table[:, i].sum(axis=1).tolist())
        for i, col in enumerate(expected_permutation(kind))
    ]

    def curve(v):
        w = [v ** (k - j) * (1 - v) ** j for j in range(k + 1)]  # as _grades
        total = 0.0
        for num, den in rows:
            total += sum(map(operator.mul, w, num)) / sum(map(operator.mul, w, den))
        return total / len(rows)

    grid = np.array([curve(v) for v in _GRID])
    grid.flags.writeable = False
    return curve, grid


def _solve(curve, target: float, a: float, b: float, fa: float, fb: float):
    """V in [a, b] with curve(V) = target to about 1e-15, by regula falsi
    (at most 100 steps), and its residual curve(V) - target; fa = curve(a) -
    target < 0 <= fb = curve(b) - target, so neither end is evaluated."""
    for _ in range(100):
        v = min(max((a * fb - b * fa) / (fb - fa), a), b)
        if v == a or v == b:  # no point of the bracket is left between its ends
            return v, fa if v == a else fb
        f = curve(v) - target
        if abs(f) <= 1e-15:
            break
        a, fa, b, fb = (v, f, b, fb) if f < 0 else (a, fa, v, f)
    return v, f


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

    The search runs on the closed form of :func:`_efficiency_curve`, built
    once per (kind, throughput): it solves E(V) = target to rounding inside
    the grid cell that brackets the target, starting from the cached grid
    values at the cell's ends, and raises CalibrationError if the root it
    finds misses the target by more than `tol`.
    """
    target = target_mean_efficiency
    try:
        eps = float(tol) if 0 <= tol < math.inf else None
    except OverflowError:  # an int past the float range
        eps = None
    if eps is None:
        raise ValueError(f"tol must be finite and non-negative, got {_shown(tol, str)}")
    if isinstance(target, bool) or not isinstance(target, _REALS):
        raise ValueError(f"target_mean_efficiency must be a real number, got {target!r}")
    if not 0.25 < target <= 1.0:
        raise CalibrationError(
            f"target mean efficiency must lie in (0.25, 1], got {_shown(target, str)}"
        )
    _shift(kind)
    NoiseParams(1.0, throughput)  # validates the throughput
    curve, grid = _efficiency_curve(kind, float(throughput))
    values, t = grid.tolist(), float(target)
    if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
        raise CalibrationError("mean efficiency is not monotone in visibility")
    lo_eff, hi_eff = values[0], values[-1]
    if not lo_eff - eps <= t <= hi_eff + eps:
        raise CalibrationError(
            f"target {target} unreachable; achievable mean "
            f"efficiency range is [{lo_eff:.4f}, {hi_eff:.4f}]"
        )
    for v_exact, e_exact in ((1.0, hi_eff), (0.0, lo_eff)):
        if abs(e_exact - t) <= eps:
            return NoiseParams(v_exact, throughput)
    # the target now lies strictly between values[0] and values[-1]
    j = next(j for j, e in enumerate(values) if e >= t)
    v, residual = _solve(curve, t, _GRID[j - 1], _GRID[j], values[j - 1] - t, values[j] - t)
    if not abs(residual) <= eps:
        raise CalibrationError(f"calibration failed to reach target {target} within {tol}")
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
    shot count must be an integer in [1, 2**63 - 1] (numpy draws int64
    counts), the seed an integer >= 0, every cell finite and non-negative,
    and every row total finite and positive; each raises ValueError
    otherwise.
    """
    m = np.asarray(matrix, dtype=float, order="C")  # so totals equal each row.sum()
    if m.ndim != 2:
        raise ValueError(f"probability matrix must be 2-D, got shape {m.shape}")
    for name, value, least in (("shots_per_input", shots_per_input, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if shots_per_input > 2**63 - 1:
        raise ValueError(
            f"shots_per_input must be at most 2**63 - 1, got {_shown(shots_per_input, str)}"
        )
    totals = _row_totals(m, "probability matrix", "row {} is not a probability distribution")
    counts = np.zeros(m.shape, dtype=np.int64)
    for i, (row, total) in enumerate(zip(m, totals)):
        counts[i] = np.random.default_rng([int(seed), i]).multinomial(shots_per_input, row / total)
    return counts


def ideal_gate_matrix(kind: str, d: int = 4) -> np.ndarray:
    """The logical-space gate a given circuit kind is meant to realize."""
    return shift_clock(_shift(kind), 0, d)

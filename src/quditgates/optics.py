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

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .pauli import SubspaceMap, check_dim, shift_clock

#: Amplitude map: (path, OAM label) -> complex amplitude.
Amplitudes = dict[tuple[str, int], complex]

#: Circuit kinds accepted by :func:`build_gate_circuit`.
GATE_KINDS = ("X", "X2", "Xdagger")
#: Power of the shift X that each gate kind realizes.
_SHIFTS = {"X": 1, "X2": 2, "Xdagger": -1}


class CircuitError(ValueError):
    """Raised for topologically invalid circuits or dead path references."""


class CalibrationError(RuntimeError):
    """Raised when visibility calibration cannot reach the requested target."""


@dataclass(frozen=True)
class SpiralPhasePlate:
    """Adds `delta_ell` to the OAM label of every amplitude on `path`."""

    path: str
    delta_ell: int


@dataclass(frozen=True)
class Mirror:
    """Single reflection on `path`: OAM label l -> -l, amplitude unchanged.

    Reflections carry no extra phase here; within an arm any fixed
    reflection phase is a global phase absorbed by path-length adjustment.
    """

    path: str


@dataclass(frozen=True)
class ParitySorter:
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


@dataclass(frozen=True)
class Recombiner:
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


@dataclass(frozen=True)
class PhaseShift:
    """Multiplies every amplitude on `path` by exp(i*phi)."""

    path: str
    phi: float


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
    v = noise.visibility
    out: Amplitudes = {}
    if isinstance(element, SpiralPhasePlate):
        for (path, ell), amp in state.items():
            key = (path, ell + element.delta_ell) if path == element.path else (path, ell)
            _add(out, key, amp)
    elif isinstance(element, Mirror):
        for (path, ell), amp in state.items():
            key = (path, -ell) if path == element.path else (path, ell)
            _add(out, key, amp)
    elif isinstance(element, PhaseShift):
        rot = complex(np.exp(1j * element.phi))
        for (path, ell), amp in state.items():
            _add(out, (path, ell), amp * rot if path == element.path else amp)
    elif isinstance(element, ParitySorter):
        (src,) = element.in_paths
        keep = math.sqrt((1 + v) / 2)
        leak = 1j * split_sign * math.sqrt((1 - v) / 2)
        for (path, ell), amp in state.items():
            if path != src:
                _add(out, (path, ell), amp)
                continue
            correct = element.out_even if ell % 2 == 0 else element.out_odd
            wrong = element.out_odd if ell % 2 == 0 else element.out_even
            for port, weight in ((correct, keep), (wrong, leak)):
                reflected = (port == element.out_even) == (
                    element.reflected_parity == "even"
                )
                _add(out, (port, -ell if reflected else ell), amp * weight)
    elif isinstance(element, Recombiner):
        arm_phase = complex(np.exp(1j * phase_sign * math.acos(v)))
        keep = math.sqrt((1 + v) / 2)
        leak = 1j * split_sign * math.sqrt((1 - v) / 2)
        root_tau = math.sqrt(noise.throughput)
        for (path, ell), amp in state.items():
            if path not in (element.in_even, element.in_odd):
                _add(out, (path, ell), amp)
                continue
            arm = "even" if path == element.in_even else "odd"
            a = amp * arm_phase if arm == "odd" else amp
            ell2 = -ell if element.reflect == arm else ell
            if element.mode == "lossy_pbs":
                _add(out, (element.out, ell2), a * root_tau)
            else:
                matched = (ell % 2 == 0) == (arm == "even")
                to_out, to_discard = (keep, leak) if matched else (leak, keep)
                _add(out, (element.out, ell2), a * to_out)
                _add(out, (_discard_path(element.out), ell2), a * to_discard)
    else:
        raise CircuitError(f"unknown element {element!r}")
    return out


def total_probability(state: Amplitudes) -> float:
    """Sum of |amplitude|^2 over the whole map."""
    return float(sum(abs(a) ** 2 for a in state.values()))


def _noise_slots(circuit: OpticalCircuit) -> list[tuple[int, str]]:
    """(element index, 'split'|'phase') pairs that carry a random sign."""
    slots: list[tuple[int, str]] = []
    for pos, e in enumerate(circuit.elements):
        if isinstance(e, ParitySorter):
            slots.append((pos, "split"))
        elif isinstance(e, Recombiner):
            slots.append((pos, "phase"))
            if e.mode == "ideal":
                slots.append((pos, "split"))
    return slots


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
    for path, _ in state:
        if path != circuit.input_path:
            raise CircuitError(
                f"input amplitudes must live on {circuit.input_path!r}, "
                f"found path {path!r}"
            )
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
    over these branches is the exact expectation under the model.
    """
    slots = _noise_slots(circuit)
    if noise.visibility == 1.0 or not slots:
        return [(1.0, propagate(circuit, state, noise))]
    branches = []
    weight = 1.0 / 2 ** len(slots)
    for pattern in itertools.product((1, -1), repeat=len(slots)):
        signs = dict(zip(slots, pattern))
        branches.append((weight, propagate(circuit, state, noise, signs)))
    return branches


def output_mode_probabilities(
    circuit: OpticalCircuit,
    state: Amplitudes,
    noise: NoiseParams = IDEAL,
) -> dict[int, float]:
    """Branch-averaged detection probabilities per OAM label on the output path."""
    probs: dict[int, float] = {}
    for weight, final in propagate_branches(circuit, state, noise):
        for (path, ell), amp in final.items():
            if path == circuit.output_path:
                probs[ell] = probs.get(ell, 0.0) + weight * abs(amp) ** 2
    return probs


def correlation_matrix(
    circuit: OpticalCircuit,
    noise: NoiseParams | None = None,
) -> np.ndarray:
    """Row-normalized detection probabilities P[i, j] over the window.

    Row i: inject the basis mode with logical index i, propagate, project
    onto each window mode j on the output path, and divide by the
    within-window total, so each row sums to one regardless of loss or
    out-of-window leakage.
    """
    noise = NoiseParams() if noise is None else noise
    d = circuit.dim
    window = circuit.window.oam_labels
    matrix = np.zeros((d, d))
    for i in range(d):
        probs = output_mode_probabilities(
            circuit, {(circuit.input_path, window[i]): 1.0}, noise
        )
        row = np.array([probs.get(ell, 0.0) for ell in window])
        total = row.sum()
        if total <= 0:
            raise CircuitError(f"no amplitude reaches the window for input {i}")
        matrix[i] = row / total
    return matrix


def efficiency(
    matrix: np.ndarray,
    expected: "np.ndarray | list[int] | tuple[int, ...]",
) -> tuple[np.ndarray, float]:
    """Per-input efficiencies and their mean.

    E_i = matrix[i, expected[i]] / sum_j matrix[i, j]; accepts probability
    or count form.  A zero row total leaves the efficiency undefined and
    raises ValueError.
    """
    m = np.asarray(matrix, dtype=float)
    expected = list(expected)
    if m.ndim != 2 or m.shape[0] != len(expected):
        raise ValueError(
            f"expected permutation of length {m.shape[0]}, got {len(expected)}"
        )
    totals = m.sum(axis=1)
    if np.any(totals <= 0):
        bad = int(np.nonzero(totals <= 0)[0][0])
        raise ValueError(f"efficiency undefined: row {bad} has zero total counts")
    per_input = np.array([m[i, expected[i]] / totals[i] for i in range(m.shape[0])])
    return per_input, float(per_input.mean())


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


def circuit_unitary_fidelity(circuit: OpticalCircuit, gate: np.ndarray) -> float:
    """|tr(gate^dagger T)| / d for the circuit's window transfer matrix T.

    T is extracted by propagating each basis mode with ideal noise and
    ideal (lossless) recombination and projecting the output onto the
    window; the result is 1 exactly when the circuit realizes `gate` up to
    a global phase.
    """
    gate = np.asarray(gate, dtype=complex)
    d = circuit.dim
    if gate.shape != (d, d):
        raise ValueError(f"gate shape {gate.shape} does not match dimension {d}")
    elements = tuple(
        replace(e, mode="ideal") if isinstance(e, Recombiner) else e
        for e in circuit.elements
    )
    ideal_circuit = replace(circuit, elements=elements)
    window = circuit.window.oam_labels
    transfer = np.zeros((d, d), dtype=complex)
    for j in range(d):
        final = propagate(ideal_circuit, {(circuit.input_path, window[j]): 1.0}, IDEAL)
        for i in range(d):
            transfer[i, j] = final.get((circuit.output_path, window[i]), 0j)
    return float(abs(np.trace(gate.conj().T @ transfer)) / d)


def superposition_visibility(
    circuit: OpticalCircuit,
    noise: NoiseParams | None = None,
) -> float:
    """Mean post-selected probability of the expected superposition output.

    For the cyclic-shift circuit: inject (|a> +/- |b>)/sqrt(2) built from
    the window's logical modes 2 and 3, project the output onto the
    correspondingly shifted pair (logical 3 and 0) and its orthogonal
    partner, normalize over the two projections, and average the expected
    outcome's probability over both input signs.  1.0 for the ideal
    circuit, 0.5 when the sorter visibility is zero (phases scrambled).
    """
    noise = NoiseParams() if noise is None else noise
    w = circuit.window
    in_a, in_b = w.to_oam(2), w.to_oam(3)
    out_a, out_b = w.to_oam(3), w.to_oam(0)
    values = []
    for sign in (1.0, -1.0):
        state = {
            (circuit.input_path, in_a): 1 / math.sqrt(2),
            (circuit.input_path, in_b): sign / math.sqrt(2),
        }
        p_plus = p_minus = 0.0
        for weight, final in propagate_branches(circuit, state, noise):
            amp_a = final.get((circuit.output_path, out_a), 0j)
            amp_b = final.get((circuit.output_path, out_b), 0j)
            p_plus += weight * abs((amp_a + amp_b) / math.sqrt(2)) ** 2
            p_minus += weight * abs((amp_a - amp_b) / math.sqrt(2)) ** 2
        expected = p_plus if sign > 0 else p_minus
        orthogonal = p_minus if sign > 0 else p_plus
        values.append(expected / (expected + orthogonal))
    return float(np.mean(values))


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


def calibrate_visibility(
    kind: str,
    target_mean_efficiency: float,
    *,
    throughput: float = 0.5,
    tol: float = 1e-4,
) -> NoiseParams:
    """Bisection over V until the simulated mean efficiency hits the target.

    The target must lie in (0.25, 1].  Mean efficiency is checked to be
    monotone non-decreasing over V in {0, 0.1, ..., 1.0} before searching;
    targets outside the achievable range raise CalibrationError naming it.
    """
    if not 0.25 < target_mean_efficiency <= 1.0:
        raise CalibrationError(
            f"target mean efficiency must lie in (0.25, 1], got "
            f"{target_mean_efficiency}"
        )

    def eff(v: float) -> float:
        return mean_gate_efficiency(kind, NoiseParams(v, throughput))

    grid = [i / 10 for i in range(11)]
    values = [eff(v) for v in grid]
    if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
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
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        e = eff(mid)
        if abs(e - target_mean_efficiency) <= tol:
            return NoiseParams(mid, throughput)
        if e < target_mean_efficiency:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"bisection failed to reach target {target_mean_efficiency} within {tol}"
    )


def monte_carlo_counts(
    matrix: np.ndarray,
    shots_per_input: int,
    seed: int,
) -> np.ndarray:
    """Seeded categorical sampling of each probability row.

    Row i draws `shots_per_input` samples from its distribution using the
    substream np.random.default_rng([seed, i]), so identical seeds give
    bit-identical counts and rows are independently reproducible.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"probability matrix must be 2-D, got shape {m.shape}")
    if shots_per_input < 1:
        raise ValueError(f"shots_per_input must be >= 1, got {shots_per_input}")
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

"""The four benchmark workloads: inputs, the timed op, and its checks.

Each workload is built from the freshly imported quditgates modules and the
run's seed.  ``cycle(c)`` generates the op inputs of cycle ``c`` from the
seed alone; every cycle holds each size of the workload once, in a seeded
order, so a run that stops at a cycle boundary always has the same mix.
``op(spec, t)`` is the timed part and calls only public quditgates
functions, each through the tracer ``t``.  ``check(spec, out)`` runs after
the timer stops and raises :class:`CheckFailed` on a wrong result.
``extras(spec, out, t)`` runs in traced cycles only, after the op, for
counters that would cost work inside the op.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

#: The paper's measured mean efficiencies per gate kind.
PAPER_REFS = {"X": 0.873, "X2": 0.904, "Xdagger": 0.884}
KINDS = ("X", "X2", "Xdagger")
#: Bisection tolerance of calibrate_visibility (its default).
CALIBRATION_TOL = 1e-4
SHOTS = 10_000


class CheckFailed(AssertionError):
    """An op's output failed its correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def canonical_window(lib):
    return lib.pauli.SubspaceMap(4, -2)


# --- paper_d4 -------------------------------------------------------------


class PaperD4:
    """The paper's full report for one d=4 gate kind per op."""

    name = "paper_d4"

    def __init__(self, lib, seed: int) -> None:
        self.lib, self.seed = lib, seed
        o = lib.optics
        self.window = canonical_window(lib)
        self.ideal = {k: o.ideal_gate_matrix(k) for k in KINDS}
        self.expected = {k: o.expected_permutation(k) for k in KINDS}

    def cycle(self, c: int) -> list:
        rng = np.random.default_rng([self.seed, c])
        return [(kind, int(rng.integers(2**32))) for kind in KINDS]

    def op(self, spec, t):
        kind, mc_seed = spec
        o, f = self.lib.optics, self.lib.formats
        circuit = t.call("optics.build_gate_circuit", o.build_gate_circuit, kind, self.window)
        noise = t.call(
            "optics.calibrate_visibility", o.calibrate_visibility, kind, PAPER_REFS[kind]
        )
        probs = t.call("optics.correlation_matrix", o.correlation_matrix, circuit, noise)
        _, mean = t.call("optics.efficiency", o.efficiency, probs, self.expected[kind])
        sup = None
        if kind == "X":
            sup = t.call(
                "optics.superposition_visibility", o.superposition_visibility, circuit, noise
            )
        fidelity = t.call(
            "optics.circuit_unitary_fidelity",
            o.circuit_unitary_fidelity, circuit, self.ideal[kind],
        )
        counts = t.call("optics.monte_carlo_counts", o.monte_carlo_counts, probs, SHOTS, mc_seed)
        text = t.call("formats.circuit_to_json", f.circuit_to_json, circuit)
        parsed = t.call("formats.circuit_from_json", f.circuit_from_json, text)
        text2 = t.call("formats.circuit_to_json", f.circuit_to_json, parsed)
        csv = t.call("formats.count_matrix_to_csv", f.count_matrix_to_csv, counts, self.window)
        table, window = t.call("formats.count_matrix_from_csv", f.count_matrix_from_csv, csv)
        csv2 = t.call(
            "formats.count_matrix_to_csv",
            f.count_matrix_to_csv, table.astype(np.int64), window,
        )
        t.count("formats.bytes", 3 * len(text) + 3 * len(csv))
        return SimpleNamespace(
            circuit=circuit, noise=noise, probs=probs, mean=mean, sup=sup,
            fidelity=fidelity, counts=counts, text=text, parsed=parsed, text2=text2,
            csv=csv, table=table, window=window, csv2=csv2,
        )

    def check(self, spec, out) -> None:
        kind, mc_seed = spec
        ref = PAPER_REFS[kind]
        require(
            abs(out.mean - ref) <= CALIBRATION_TOL,
            f"{kind}: calibrated mean efficiency {out.mean} is not within "
            f"{CALIBRATION_TOL} of {ref}",
        )
        require(abs(out.fidelity - 1.0) <= 1e-12, f"{kind}: fidelity {out.fidelity!r} != 1")
        require(
            np.all(np.abs(out.probs.sum(axis=1) - 1.0) <= 1e-12),
            f"{kind}: correlation rows do not sum to 1",
        )
        again = self.lib.optics.monte_carlo_counts(out.probs, SHOTS, mc_seed)
        require(np.array_equal(again, out.counts), f"{kind}: counts changed on re-seed")
        require(np.all(out.counts.sum(axis=1) == SHOTS), f"{kind}: shots lost")
        require(
            out.text2 == out.text and out.parsed == out.circuit,
            f"{kind}: circuit JSON round trip is not byte-exact",
        )
        require(
            out.csv2 == out.csv
            and np.array_equal(out.table, out.counts)
            and out.window == self.window,
            f"{kind}: count CSV round trip is not byte-exact",
        )
        if out.sup is not None:
            require(0.5 <= out.sup <= 1.0, f"superposition statistic {out.sup} outside [0.5, 1]")

    def extras(self, spec, out, t) -> None:
        branches = len(self.lib.optics.propagate_branches(out.circuit, {}, out.noise))
        inputs = 4 + (2 if out.sup is not None else 0)
        t.count("optics.noise_branches", inputs * branches)

    def smallest(self):
        return ("X", self.seed)


# --- weyl_sweep -----------------------------------------------------------

WEYL_DIMS = (4, 8, 16, 24, 32)
#: Generators as (a, b) in X^a Z^b: X, Z and Y = X Z.
GENERATORS = {"X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def exact_power(d: int, a: int, b: int, n: int) -> np.ndarray:
    """(X^a Z^b)^n built from integer arithmetic mod d, a, b in {0, 1}.

    (X^a Z^b)^n |l> = omega^(b (n l + a n (n-1)/2)) |l + a n>, valid for
    every integer n; the phase exponent is reduced mod d before it is
    turned into a complex number, so nothing accumulates.
    """
    l = np.arange(d)
    phase = (b * (n * l + a * n * (n - 1) // 2)) % d
    out = np.zeros((d, d), dtype=complex)
    out[(l + a * n) % d, l] = np.exp(2j * np.pi * phase / d)
    return out


class WeylSweep:
    """Synthesis and analysis round trip at one dimension per op."""

    name = "weyl_sweep"

    def __init__(self, lib, seed: int) -> None:
        self.lib, self.seed = lib, seed

    def cycle(self, c: int) -> list:
        rng = np.random.default_rng([self.seed, c])
        return [(int(d), rng.normal(size=(d, d))) for d in rng.permutation(WEYL_DIMS)]

    def op(self, spec, t):
        d, coeffs = spec
        w, p = self.lib.weyl, self.lib.pauli
        a = t.call("weyl.hermitian_from_coeffs", w.hermitian_from_coeffs, coeffs)
        u = t.call("weyl.exp_i_hermitian", w.exp_i_hermitian, a)
        h = t.call("weyl.decompose", w.decompose, u)
        back = t.call("weyl.reconstruct", w.reconstruct, h)
        gens = {
            "X": t.call("pauli.make_x", p.make_x, d),
            "Z": t.call("pauli.make_z", p.make_z, d),
            "Y": t.call("pauli.make_y", p.make_y, d),
        }
        powers = {
            (name, n): t.call("pauli.gate_power", p.gate_power, g, n)
            for name, g in gens.items()
            for n in range(-2 * d, 2 * d + 1)
        }
        return SimpleNamespace(u=u, h=h, back=back, gens=gens, powers=powers)

    def check(self, spec, out) -> None:
        d, _ = spec
        residual = np.linalg.norm(out.back - out.u)
        require(residual <= 1e-10, f"d={d}: round-trip residual {residual:.3e} > 1e-10")
        parseval = abs(np.sum(np.abs(out.h) ** 2) - np.linalg.norm(out.u) ** 2 / d)
        require(parseval <= 1e-10, f"d={d}: Parseval violated by {parseval:.3e}")
        unitarity = np.linalg.norm(out.u.conj().T @ out.u - np.eye(d))
        require(unitarity <= 1e-10, f"d={d}: U is not unitary ({unitarity:.3e})")
        for name, (a, b) in GENERATORS.items():
            require(
                np.abs(out.gens[name] - exact_power(d, a, b, 1)).max() <= 1e-12,
                f"d={d}: make_{name.lower()} differs from the exact gate",
            )
        for (name, n), got in out.powers.items():
            err = np.abs(got - exact_power(d, *GENERATORS[name], n)).max()
            require(err <= 1e-12, f"d={d}: gate_power({name}, {n}) off by {err:.3e}")

    def extras(self, spec, out, t) -> None:
        pass

    def smallest(self):
        return (4, np.random.default_rng([self.seed, 4]).normal(size=(4, 4)))


# --- noisy_cascade --------------------------------------------------------

CASCADE_DEPTHS = (1, 2, 3, 4, 5)
#: Chain patterns as (start, stride): stage j runs KINDS[(start + stride j) % 3].
CHAIN_PATTERNS = tuple((start, stride) for stride in (1, 2) for start in range(3))


def _renamed(optics, element, names: dict[str, str]):
    if isinstance(element, optics.ParitySorter):
        return replace(
            element,
            in_paths=tuple(names[p] for p in element.in_paths),
            out_even=names[element.out_even],
            out_odd=names[element.out_odd],
        )
    if isinstance(element, optics.Recombiner):
        return replace(
            element,
            in_even=names[element.in_even],
            in_odd=names[element.in_odd],
            out=names[element.out],
        )
    return replace(element, path=names[element.path])


def build_cascade(lib, kinds, t):
    """One circuit running the gate circuits `kinds` in sequence.

    Stage s takes the gate circuit's public elements on the canonical
    window and renames its paths: "in" becomes the previous stage's output,
    "even"/"odd"/"out" become "s<s>.even"/"s<s>.odd"/"s<s>.out", and the
    last stage ends on "out".
    """
    o = lib.optics
    window = canonical_window(lib)
    elements = []
    src = "in"
    for s, kind in enumerate(kinds):
        out = "out" if s == len(kinds) - 1 else f"s{s}.out"
        names = {"in": src, "even": f"s{s}.even", "odd": f"s{s}.odd", "out": out}
        stage = t.call("optics.build_gate_circuit", o.build_gate_circuit, kind, window)
        elements.extend(_renamed(o, e, names) for e in stage.elements)
        src = out
    return o.OpticalCircuit(4, window, tuple(elements))


def composed_permutation(lib, kinds) -> list[int]:
    """Logical output of each input after the gates `kinds`, in order."""
    perm = list(range(4))
    for kind in kinds:
        step = lib.optics.expected_permutation(kind)
        perm = [step[j] for j in perm]
    return perm


def traced_permutation(lib, kinds) -> list[int]:
    """The same composition from the symbolic trace_modes oracle."""
    window = canonical_window(lib)
    labels = window.oam_labels
    for kind in kinds:
        labels = lib.optics.trace_modes(kind, labels)
    return [window.to_logical(ell) for ell in labels]


class NoisyCascade:
    """A chain of n gate circuits per op, at a seeded visibility.

    The chains of depth n take the CHAIN_PATTERNS in a seeded order, one
    per cycle, so any six consecutive cycles run each pattern once.  A
    chain's latency depends on its kinds by up to 1.3x at equal depth;
    with kinds drawn freely, each seed ran its own mix and the median op
    moved with it.
    """

    name = "noisy_cascade"

    def __init__(self, lib, seed: int) -> None:
        self.lib, self.seed = lib, seed
        self.orders = {
            n: np.random.default_rng([seed, n]).permutation(len(CHAIN_PATTERNS))
            for n in CASCADE_DEPTHS
        }

    def cycle(self, c: int) -> list:
        rng = np.random.default_rng([self.seed, c])
        ops = []
        for n in rng.permutation(CASCADE_DEPTHS):
            order = self.orders[int(n)]
            start, stride = CHAIN_PATTERNS[order[c % len(order)]]
            kinds = tuple(KINDS[(start + stride * j) % len(KINDS)] for j in range(n))
            ops.append((kinds, float(rng.uniform(0.80, 0.95))))
        return ops

    def op(self, spec, t):
        kinds, v = spec
        o = self.lib.optics
        circuit = build_cascade(self.lib, kinds, t)
        noise = o.NoiseParams(v, 0.5)
        probs = t.call("optics.correlation_matrix", o.correlation_matrix, circuit, noise)
        perm = composed_permutation(self.lib, kinds)
        _, mean = t.call("optics.efficiency", o.efficiency, probs, perm)
        return SimpleNamespace(circuit=circuit, noise=noise, probs=probs, perm=perm, mean=mean)

    def check(self, spec, out) -> None:
        kinds, _ = spec
        o = self.lib.optics
        require(
            out.perm == traced_permutation(self.lib, kinds),
            f"{kinds}: composed permutation disagrees with trace_modes",
        )
        ideal = o.correlation_matrix(out.circuit, o.NoiseParams(1.0, 0.5))
        require(
            np.array_equal(ideal, np.eye(4)[out.perm]),
            f"{kinds}: V=1 cascade is not exactly the composed permutation",
        )
        p = out.probs
        require(
            np.all(np.isfinite(p)) and np.all(p >= 0)
            and np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12),
            f"{kinds}: noisy correlation rows are not probability distributions",
        )
        require(0.0 < out.mean <= 1.0, f"{kinds}: mean efficiency {out.mean} outside (0, 1]")

    def extras(self, spec, out, t) -> None:
        # The branch count does not depend on the input amplitudes, so an
        # empty map counts the branches without propagating anything.
        branches = len(self.lib.optics.propagate_branches(out.circuit, {}, out.noise))
        t.count("optics.noise_branches", 4 * branches)

    def smallest(self):
        return (("X", "X2"), 0.87)


# --- cli_sim --------------------------------------------------------------

CLI_GATES = {"X": "X", "X2": "X2", "Xdg": "Xdagger"}


class CliSim:
    """One `quditgates sim` command per op, run in-process through click.

    Output goes to two StringIO buffers that every op reuses.  click caches
    a wrapper per output stream and never frees it, so a fresh stream per
    op (as click.testing.CliRunner makes) would grow the process by ~2 KiB
    per op and make peak RSS depend on the run length.
    """

    name = "cli_sim"

    def __init__(self, lib, seed: int) -> None:
        self.lib, self.seed = lib, seed
        self.stdout, self.stderr = io.StringIO(), io.StringIO()
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.window = canonical_window(lib)

    def cycle(self, c: int) -> list:
        rng = np.random.default_rng([self.seed, c])
        ops = []
        for gate in rng.permutation(sorted(CLI_GATES)):
            ops.append((
                str(gate),
                float(rng.uniform(0.8, 1.0)),
                int(rng.choice([0, SHOTS])),
                str(rng.choice(["text", "json", "csv"])),
                int(rng.integers(2**32)),
            ))
        return ops

    @staticmethod
    def args(spec) -> list[str]:
        gate, v, shots, fmt, seed = spec
        return [
            "sim", "--gate", gate, "--visibility", repr(v), "--shots", str(shots),
            "--seed", str(seed), "--format", fmt,
        ]

    def op(self, spec, t):
        for buf in (self.stdout, self.stderr):
            buf.seek(0)
            buf.truncate()
        try:
            with redirect_stdout(self.stdout), redirect_stderr(self.stderr):
                t.call(
                    "cli.main", self.lib.cli.main.main, self.args(spec),
                    prog_name="quditgates", standalone_mode=False,
                )
            code = 0
        except SystemExit as exc:  # the CLI's documented error exits
            code = exc.code
        return SimpleNamespace(
            exit_code=code,
            exception=self.stderr.getvalue().strip() if code else None,
            stdout=self.stdout.getvalue(),
        )

    def check(self, spec, out) -> None:
        gate, v, shots, fmt, seed = spec
        require(
            out.exit_code == 0 and out.exception is None,
            f"sim {spec} exited {out.exit_code}: {out.exception!r}",
        )
        o, f = self.lib.optics, self.lib.formats
        kind = CLI_GATES[gate]
        circuit = o.build_gate_circuit(kind, self.window)
        probs = o.correlation_matrix(circuit, o.NoiseParams(v, 0.5))
        counts = o.monte_carlo_counts(probs, shots, seed) if shots else None
        table = probs if counts is None else counts
        if fmt == "json":
            payload = json.loads(out.stdout)
            require(
                np.allclose(payload["probabilities"], probs, rtol=0, atol=1e-12),
                f"sim {spec}: JSON probabilities differ from correlation_matrix",
            )
            if counts is not None:
                require(
                    np.array_equal(payload["counts"], counts),
                    f"sim {spec}: JSON counts differ from monte_carlo_counts",
                )
        elif fmt == "csv":
            require(
                out.stdout == f.count_matrix_to_csv(table, self.window),
                f"sim {spec}: CSV differs from the in-process table",
            )
        else:
            _, mean = o.efficiency(table, o.expected_permutation(kind))
            require(
                f"mean efficiency: {mean:.4f}" in out.stdout.splitlines(),
                f"sim {spec}: text report lacks the in-process mean efficiency",
            )

    def extras(self, spec, out, t) -> None:
        pass

    def smallest(self):
        return ("X", 0.9, SHOTS, "json", self.seed)


class CliSubprocess(CliSim):
    """The cli_sim command as `python -m quditgates.cli`, start-up included.

    Only the probe pass of a traced run uses it: on a shared host its wall
    time swings by up to 1.6x between runs, too much for an end-to-end bound.
    """

    name = "cli_subprocess"

    def op(self, spec, t):
        proc = t.call(
            "cli.subprocess",
            subprocess.run,
            [sys.executable, "-m", "quditgates.cli", *self.args(spec)],
            env=self.env, capture_output=True, text=True, timeout=60, check=False,
        )
        return SimpleNamespace(
            exit_code=proc.returncode,
            exception=proc.stderr.strip() if proc.returncode else None,
            stdout=proc.stdout,
        )


WORKLOADS = {w.name: w for w in (PaperD4, WeylSweep, NoisyCascade, CliSim)}

"""Command-line front end: gate matrices, synthesis, circuit simulation.

Exit codes: 0 success, 2 usage error, 3 input-file error, 4 numeric or
calibration failure or a --dim too large to allocate.  Machine formats
(json/csv) sit behind --format; the default is human-readable text.  All
user-facing mode labels are OAM labels, not logical indices.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import formats, optics, pauli, weyl

EXIT_INPUT = 3
EXIT_NUMERIC = 4

#: CLI gate names for the simulator mapped to circuit kinds.
SIM_GATES = {"X": "X", "X2": "X2", "Xdg": "Xdagger"}


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        _fail(EXIT_INPUT, f"cannot read {path}: {exc}")
        raise AssertionError  # unreachable


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            _fail(EXIT_INPUT, f"cannot write {out}: {exc}")


def _matrix_output(m: np.ndarray, fmt: str) -> str:
    return formats.matrix_to_json(m) if fmt == "json" else _matrix_text(m)


def _matrix_text(m: np.ndarray) -> str:
    cells = [[f"{x.real:+.6f}{x.imag:+.6f}j" for x in row] for row in m]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells) + "\n"


def _coefficients_text(h: np.ndarray) -> str:
    lines = ["(l, m)  coefficient of X^l Z^m"]
    for l in range(h.shape[0]):
        for m in range(h.shape[1]):
            lines.append(f"({l}, {m})  {h[l, m].real:+.6f}{h[l, m].imag:+.6f}j")
    return "\n".join(lines) + "\n"


def _verify_round_trip(err: float) -> None:
    if err > 1e-10:
        _fail(EXIT_NUMERIC, f"round-trip residual {err:.3e} exceeds 1e-10")
    click.echo(f"verify: round-trip residual {err:.3e}", err=True)


@contextmanager
def _dense_dim(dim: int):
    """Turn a failed allocation of the dense dim x dim matrices into exit 4."""
    try:
        yield
    except MemoryError:
        _fail(EXIT_NUMERIC, f"--dim {dim}: a {dim}x{dim} matrix does not fit in memory")


def _not_nan(ctx, param, value: float) -> float:
    """Reject NaN, which every comparison of click.FloatRange lets through."""
    if value != value:
        raise click.BadParameter(f"{value} is not a number")
    return value


def _require_finite(m: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(m)):
        _fail(EXIT_NUMERIC, f"{what} contains non-finite entries")


@click.group()
def main() -> None:
    """Qudit shift/clock gates, operator-basis synthesis, and an
    element-level simulator for the interferometric OAM gate circuits."""


@main.command()
@click.option("--dim", default=4, show_default=True, type=click.IntRange(min=2))
@click.option("--gate", required=True, type=click.Choice(["X", "Z", "Y"]))
@click.option("--power", default=1, show_default=True, type=int)
@click.option(
    "--format", "fmt", default="text", show_default=True,
    type=click.Choice(["text", "json"]),
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def gates(dim: int, gate: str, power: int, fmt: str, out: str | None) -> None:
    """Print a generalized Pauli gate matrix raised to an integer power."""
    make = {"X": pauli.make_x, "Z": pauli.make_z, "Y": pauli.make_y}[gate]
    with _dense_dim(dim):
        text = _matrix_output(pauli.gate_power(make(dim), power), fmt)
    _emit(text, out)


@main.command()
@click.argument("mode", type=click.Choice(["decompose", "reconstruct", "random-unitary"]))
@click.option("--in", "in_path", type=click.Path(dir_okay=False), default=None)
@click.option("--dim", default=4, show_default=True, type=click.IntRange(min=2))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(0, 2**64 - 1))
@click.option(
    "--format", "fmt", default="json", show_default=True,
    type=click.Choice(["text", "json"]),
)
@click.option(
    "--verify", is_flag=True,
    help="Check the inverse operation round-trips within 1e-10.",
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def synth(
    mode: str, in_path: str | None, dim: int, seed: int, fmt: str,
    verify: bool, out: str | None,
) -> None:
    """Decompose a matrix over the X^l Z^m basis, rebuild one from
    coefficients, or emit a seeded random unitary for pipeline tests."""
    if mode == "random-unitary":
        with _dense_dim(dim):
            text = _matrix_output(weyl.random_unitary(dim, seed), fmt)
        _emit(text, out)
        return
    if in_path is None:
        raise click.UsageError(f"synth {mode} requires --in <path>")
    raw = _read_text(in_path)
    if mode == "decompose":
        try:
            matrix = formats.matrix_from_json(raw)
        except formats.SchemaError as exc:
            _fail(EXIT_INPUT, str(exc))
        _require_finite(matrix, "input matrix")
        h = weyl.decompose(matrix)
        if verify:
            _verify_round_trip(float(np.linalg.norm(weyl.reconstruct(h) - matrix)))
        text = formats.coefficients_to_json(h) if fmt == "json" else _coefficients_text(h)
    else:
        try:
            h = formats.coefficients_from_json(raw)
        except formats.SchemaError as exc:
            _fail(EXIT_INPUT, str(exc))
        _require_finite(h, "input coefficients")
        matrix = weyl.reconstruct(h)
        if verify:
            _verify_round_trip(float(np.linalg.norm(weyl.decompose(matrix) - h)))
        text = _matrix_output(matrix, fmt)
    _emit(text, out)


def _heatmap(matrix: np.ndarray, window: pauli.SubspaceMap, as_counts: bool) -> str:
    labels = window.oam_labels
    norm = matrix / matrix.sum(axis=1, keepdims=True)
    shades = " .:-=+*#%@"
    header = "  ".join(f"{l:>8d}" for l in labels)
    lines = [f"{formats.CSV_CORNER:>12}  " + header]
    for i, row in enumerate(matrix):
        cells = []
        for j, value in enumerate(row):
            mark = shades[min(int(norm[i, j] * (len(shades) - 1) + 0.5), len(shades) - 1)]
            cells.append(f"{mark} {int(value):>6d}" if as_counts else f"{mark} {value:6.3f}")
        lines.append(f"{labels[i]:>12d}  " + "  ".join(cells))
    return "\n".join(lines) + "\n"


@main.command()
@click.option("--gate", required=True, type=click.Choice(sorted(SIM_GATES)))
@click.option(
    "--visibility", default=1.0, show_default=True, type=click.FloatRange(0.0, 1.0),
    callback=_not_nan,
)
@click.option("--shots", default=0, show_default=True, type=click.IntRange(0, 2**63 - 1))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(0, 2**64 - 1))
@click.option(
    "--format", "fmt", default="text", show_default=True,
    type=click.Choice(["text", "json", "csv"]),
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def sim(
    gate: str, visibility: float, shots: int, seed: int, fmt: str, out: str | None
) -> None:
    """Simulate a gate circuit: correlation matrix plus efficiency report.

    With --shots 0 the analytic probabilities are reported; otherwise each
    input row is sampled with the given number of shots and seed."""
    kind = SIM_GATES[gate]
    window = pauli.SubspaceMap(4, -2)
    circuit = optics.build_gate_circuit(kind, window)
    noise = optics.NoiseParams(visibility, 0.5)
    probabilities = optics.correlation_matrix(circuit, noise)
    counts = optics.monte_carlo_counts(probabilities, shots, seed) if shots else None
    table = counts if counts is not None else probabilities
    per_input, mean = optics.efficiency(table, optics.expected_permutation(kind))
    sup = optics.superposition_visibility(circuit, noise) if kind == "X" else None
    labels = window.oam_labels
    report = [
        "efficiency per input: "
        + "  ".join(f"{l}: {e:.4f}" for l, e in zip(labels, per_input)),
        f"mean efficiency: {mean:.4f}",
    ]
    if sup is not None:
        report.append(f"superposition statistic: {sup:.4f}")

    if fmt == "csv":
        click.echo("\n".join(report), err=True)
        _emit(formats.count_matrix_to_csv(table, window), out)
        return
    if fmt == "json":
        payload = {
            "gate": gate,
            "dim": 4,
            "oam_labels": list(labels),
            "visibility": visibility,
            "shots": shots,
            "seed": seed,
            "probabilities": [[float(x) for x in row] for row in probabilities],
            "efficiencies": [float(e) for e in per_input],
            "mean_efficiency": float(mean),
        }
        if counts is not None:
            payload["counts"] = [[int(x) for x in row] for row in counts]
        if sup is not None:
            payload["superposition_visibility"] = float(sup)
        _emit(formats._dumps(payload), out)
        return
    title = {"X": "cyclic shift", "X2": "double shift", "Xdg": "inverse shift"}[gate]
    source = f"{shots} shots per input, seed {seed}" if shots else "analytic probabilities"
    lines = [
        f"{title} circuit (gate {gate}), visibility {visibility:.3f}, {source}",
        "",
        _heatmap(table, window, as_counts=counts is not None).rstrip("\n"),
        "",
        *report,
    ]
    _emit("\n".join(lines) + "\n", out)


if __name__ == "__main__":
    main()

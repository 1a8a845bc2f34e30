#!/usr/bin/env python3
"""Closed-loop quditgates benchmark: one workload, one seed, one client.

Run from the root of a quditgates checkout:

    python3 quditbench/run.py --workload paper_d4 --seed 1 --seconds 25 --trace 0

The run imports quditgates from ``src``, builds the workload, runs one
warm-up cycle, then times whole cycles of ops until ``--seconds`` have
passed (and, untraced, at least MIN_OPS ops are timed).  Every op's output
is checked; a failed check or an exception counts the op as failed and the
run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles, reports per-layer span totals from the traced
ones and their slowdown against the untraced ones as the tracing overhead,
then runs the probe pass (one smallest op of every workload, one cycle of
cli_sim commands as subprocesses, and the scaling probes) and writes the
spans to .bench_build/quditbench/.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import probes
from tracing import NullTracer, Tracer
from workloads import WORKLOADS, CliSubprocess

#: A nearest-rank p90 over at least 100 samples leaves at least 10 above it.
MIN_OPS = 100
#: The timed loop stops here even if MIN_OPS is not reached.
LOOP_CAP_S = 120.0
SETUP_REPS = 15

#: Public calls wrapped in spans; each reports <name>.calls and <name>.busy_s.
SPANS = (
    "weyl.hermitian_from_coeffs", "weyl.exp_i_hermitian", "weyl.decompose",
    "weyl.reconstruct",
    "pauli.make_x", "pauli.make_z", "pauli.make_y", "pauli.gate_power",
    "optics.build_gate_circuit", "optics.calibrate_visibility",
    "optics.correlation_matrix", "optics.efficiency",
    "optics.superposition_visibility", "optics.circuit_unitary_fidelity",
    "optics.monte_carlo_counts",
    "formats.circuit_to_json", "formats.circuit_from_json",
    "formats.count_matrix_to_csv", "formats.count_matrix_from_csv",
    "cli.subprocess", "cli.main",
)


def load_quditgates() -> SimpleNamespace:
    """Import quditgates afresh, so each call pays the package's import."""
    for name in [m for m in sys.modules if m == "quditgates" or m.startswith("quditgates.")]:
        del sys.modules[name]
    pkg = importlib.import_module("quditgates")
    return SimpleNamespace(
        pkg=pkg,
        pauli=importlib.import_module("quditgates.pauli"),
        weyl=importlib.import_module("quditgates.weyl"),
        optics=importlib.import_module("quditgates.optics"),
        formats=importlib.import_module("quditgates.formats"),
        cli=importlib.import_module("quditgates.cli"),
    )


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_op(workload, spec, t, tally: Tally, span: str = "bench.op") -> float | None:
    """Run, time and check one op; its latency, or None when it failed."""
    tally.attempted += 1
    try:
        with t.span(span):
            start = time.perf_counter()
            out = workload.op(spec, t)
            elapsed = time.perf_counter() - start
        workload.check(spec, out)
        if t.enabled:
            workload.extras(spec, out, t)
    except Exception as exc:  # a failed op is counted and the run goes on
        tally.failed += 1
        if len(tally.errors) < 5:
            tally.errors.append(f"{workload.name}: {type(exc).__name__}: {exc}")
        return None
    return elapsed


def git_commit() -> str:
    """HEAD of the checkout's .git, or "unknown" outside a git checkout."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def os_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "os_threads": os_threads(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def set_up(workload_name: str, seed: int):
    """Import quditgates afresh and build the workload; (lib, workload, seconds)."""
    start = time.perf_counter()
    lib = load_quditgates()
    workload = WORKLOADS[workload_name](lib, seed)
    return lib, workload, time.perf_counter() - start


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS) -> tuple[dict, list[str]]:
    """One benchmark run; the result object and the report lines before it.

    The first set-up builds the workload the run uses.  The other
    SETUP_REPS - 1 set-ups are spread evenly over the timed loop, between
    cycles, so that the median set-up time samples the machine over the
    whole run rather than during one burst.
    """
    lib, workload, first = set_up(workload_name, seed)
    setup_times = [first]

    tally = Tally()
    null = NullTracer()
    tracer = Tracer() if trace else None
    warmup = workload.cycle(0)
    for spec in warmup:
        run_op(workload, spec, null, tally)

    plain: list[float] = []
    traced: list[float] = []
    cycle = 1
    start = time.perf_counter()
    while True:
        on = trace and cycle % 2 == 0
        t, sink = (tracer, traced) if on else (null, plain)
        for spec in workload.cycle(cycle):
            elapsed = run_op(workload, spec, t, tally)
            if elapsed is not None:
                sink.append(elapsed)
        cycle += 1
        loop_s = time.perf_counter() - start
        if len(setup_times) < SETUP_REPS and loop_s >= len(setup_times) * seconds / SETUP_REPS:
            setup_times.append(set_up(workload_name, seed)[2])
        enough = len(traced) > 0 if trace else len(plain) >= min_ops
        if loop_s >= LOOP_CAP_S or (loop_s >= seconds and enough):
            break
    while len(setup_times) < SETUP_REPS:
        setup_times.append(set_up(workload_name, seed)[2])
    if not plain or (trace and not traced):
        raise SystemExit(f"no op of {workload_name} completed: {tally.errors}")

    if trace:
        for cls in WORKLOADS.values():
            probe = cls(lib, seed)
            run_op(probe, probe.smallest(), tracer, tally, span="bench.probe")
        sub = CliSubprocess(lib, seed)
        for spec in sub.cycle(0):
            run_op(sub, spec, tracer, tally, span="bench.probe")
        busy = tracer.busy()
        metrics = {}
        for name in SPANS:
            calls, busy_s = busy.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.busy_s"] = (busy_s, "s")
        overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1.0
        metrics.update({
            "optics.noise_branches": (tracer.counts["optics.noise_branches"], "count"),
            "formats.bytes": (tracer.counts["formats.bytes"], "B"),
            "cli.import_ms": (probes.cli_import_ms(), "ms"),
            "bench.glue_s": (tracer.self_time("bench.op"), "s"),
            "bench.trace_overhead_pct": (100.0 * overhead, "%"),
        })
        metrics.update({k: (v, "ms") for k, v in probes.weyl_scaling(lib, seed).items()})
        metrics.update({k: (v, "ms") for k, v in probes.depth_scaling(lib).items()})
        spans_path = Path(".bench_build/quditbench") / f"spans-{workload_name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        samples = f"{len(plain)} untraced + {len(traced)} traced timed ops; spans in {spans_path}"
    else:
        lat = sorted(plain)
        rank90 = math.ceil(0.9 * len(lat))
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(lat) / math.fsum(lat), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": (lat[rank90 - 1] * 1e3, "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        samples = f"{len(lat)} timed ops, {len(lat) - rank90} above p90"
        if len(lat) - rank90 < 10:
            print(f"warning: only {len(lat) - rank90} samples above p90", file=sys.stderr)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = [
        f"samples: {samples}; {len(warmup)} warm-up ops; "
        f"failed {tally.failed} of {tally.attempted} attempted",
        *(f"failure: {e}" for e in tally.errors),
    ]
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/quditgates/__init__.py").is_file():
        print("error: src/quditgates not found; run from the root of a quditgates checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(environment(args), sort_keys=True))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

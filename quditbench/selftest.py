#!/usr/bin/env python3
"""Fast self-test of the benchmark: a tiny run of every workload.

Run from the repository root:

    python3 quditbench/selftest.py

For every workload in BENCHMARK.json it makes one short untraced and one
short traced run in-process and asserts that each emits exactly the
end-to-end or per-layer metrics BENCHMARK.json names, each with its unit,
and that no op failed.  It also runs the command line once and checks the
shape of the result line.  The traced runs include the scaling probes, so
the whole test takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run as bench


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    sys.path.insert(0, str(Path("src").resolve()))
    for workload in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = bench.run(workload["name"], seed=1, seconds=0.1, trace=trace, min_ops=1)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload["name"], key, set(got) ^ set(want))
            assert result["failed"] == 0 and result["correct"], result
            assert result["attempted"] >= 1, result
            print(f"ok {workload['name']} trace={int(trace)} ({len(got)} metrics)")

    proc = subprocess.run(
        [sys.executable, "quditbench/run.py", "--workload", "paper_d4", "--seed", "2",
         "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    assert last["failed"] == 0 and last["correct"], last
    print("ok command line result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

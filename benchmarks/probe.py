"""Scaling probe: direct-mode ``run_match`` at 25, 50, 100 and 200 per side.

    python3 benchmarks/probe.py

Untimed by the benchmark and never gated; it prints one line per size
(median of three runs below 200, one run at 200) for NOTES.md. Scenarios
come from ``gen.direct`` with seed 0 and are validated in memory, so the
time is ``run_match`` alone, without file I/O.
"""

from __future__ import annotations

import os
import platform
import sys
from time import perf_counter

import workloads

SIZES = (25, 50, 100, 200)


def main() -> int:
    for pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[pin] = "1"
    sys.path.insert(0, str(workloads.SRC))
    import numpy

    import gen
    from uavmarket.pipeline import run_match
    from uavmarket.scenario import scenario_from_dict

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} blas_threads=1")
    for n in SIZES:
        scenario = scenario_from_dict(gen.direct(n, n, 0))
        times = []
        for _ in range(3 if n < 200 else 1):
            start = perf_counter()
            run_match(scenario)
            times.append(perf_counter() - start)
        print(f"run_match direct {n}x{n}: {sorted(times)[len(times) // 2]:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Shared fixtures for the figure/table regeneration benchmarks.

One :class:`ParallelSuiteRunner` is shared by every benchmark module so
each (benchmark, technique) pair is simulated exactly once per pytest
session; the per-figure benchmarks then measure the figure-assembly step
and, more importantly, print the regenerated numbers next to the paper's
values.

The grid is populated up front by ``run_suite`` — fanned out over
``REPRO_WORKERS`` processes (or the ``--workers`` option) and backed by
the on-disk result cache under ``benchmarks/.figure-cache`` — so re-runs
with unchanged configuration skip simulation entirely.  Delete that
directory (or change any configuration input) to force re-simulation.

The instruction budget is 100k instructions (20k warm-up) per cell:
windowed trace replay (:mod:`repro.uarch.trace`) streams each
benchmark's pre-decoded stream in ~16k-instruction windows, so decode
memory no longer grows with the budget and the figure suite runs at a
meaningfully higher fidelity than the earlier 16k-instruction compromise
(figure 6's SPECINT noop loss re-anchors against the paper's 2.2% at
this budget).  A cold grid takes a few minutes of simulation on one
core; re-runs with unchanged configuration load from the cache instead.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.harness import ParallelSuiteRunner, RunConfig

CACHE_DIR = Path(__file__).parent / ".figure-cache"
#: The committed perf history the perf benches gate against.
TRAJECTORY_FILE = Path(__file__).with_name("BENCH_trace.json")


@pytest.fixture(scope="session")
def bench_trajectory(request, tmp_path_factory) -> Path:
    """The trajectory file the perf benches append to and gate against.

    With ``--record-bench`` it is the tracked ``BENCH_trace.json``.
    Otherwise it is a session-scoped copy of the committed trajectory:
    every fresh sample is still gated against the committed history plus
    the session's own earlier samples, but no tracked file is written.
    """
    if request.config.getoption("--record-bench"):
        return TRAJECTORY_FILE
    session_copy = tmp_path_factory.mktemp("bench-trajectory") / TRAJECTORY_FILE.name
    if TRAJECTORY_FILE.exists():
        shutil.copyfile(TRAJECTORY_FILE, session_copy)
    return session_copy


@pytest.fixture(scope="session")
def runner(suite_workers) -> ParallelSuiteRunner:
    runner = ParallelSuiteRunner(
        RunConfig(max_instructions=100_000, warmup_instructions=20_000),
        workers=suite_workers,
        cache_dir=str(CACHE_DIR),
    )
    runner.run_suite()
    return runner

"""Micro-benchmark: queue-backend wall-clock on a small figure grid.

Measures how long a (benchmark × technique) grid takes end to end
through ``backend="queue"`` — enqueue, two worker subprocesses leasing
over the shared cache directory, heartbeats, completion markers, the
driver folding counters — against the same grid on the in-process local
backend.  The point is to keep the queue protocol's coordination
overhead honest: leases and markers are filesystem round-trips, so a
grid of seconds-long simulations should spend almost all of its wall
clock simulating, not coordinating.

Each run appends a ``"kind": "queue_grid"`` entry to
``BENCH_trace.json`` next to the per-cycle throughput history, so later
PRs can track the backend's overhead trajectory alongside the hot
path's.

The run is parametrised over the chaoskit injection state.  Only
``"disabled"`` is measured: the fault hooks ship on every filesystem
touchpoint of this path (atomicio publications, queue listings,
heartbeats), and their no-op contract — one ``is None`` test while no
injector is installed — is exactly what this floor guards.  An
injection-enabled grid is a correctness soak (``tests/test_faults.py``),
not a benchmark.
"""

from __future__ import annotations

import time

import pytest

from repro.harness import ParallelSuiteRunner, RunConfig
from repro.harness.faults import active_injector

from repro.telemetry import trend

from test_perf_simulator import _record_trajectory

GRID_CONFIG = RunConfig(
    benchmarks=("gzip", "mcf"),
    max_instructions=4_000,
    warmup_instructions=1_000,
)
TECHNIQUES = ("baseline", "abella", "noop")
QUEUE_WORKERS = 2


@pytest.mark.parametrize("injection", ["disabled"])
def test_queue_grid_wall_clock(benchmark, tmp_path, injection, bench_trajectory):
    # The hooks must be dormant: the floor below is only meaningful as a
    # zero-overhead guarantee if nothing is injecting during the run.
    assert active_injector() is None, "fault injector active in a perf run"
    def _queue_run() -> float:
        runner = ParallelSuiteRunner(
            GRID_CONFIG,
            workers=1,
            cache_dir=str(tmp_path / f"run-{time.monotonic_ns()}"),
            backend="queue",
            queue_workers=QUEUE_WORKERS,
            queue_assist=False,  # measure the workers, not the driver
            queue_poll=0.05,
            queue_ttl=30,
            queue_timeout=600,
        )
        start = time.perf_counter()
        runner.run_suite(techniques=TECHNIQUES)
        elapsed = time.perf_counter() - start
        assert runner.simulations_run == len(GRID_CONFIG.benchmarks) * len(TECHNIQUES)
        return elapsed

    queue_elapsed = benchmark.pedantic(_queue_run, rounds=1, iterations=1)

    local = ParallelSuiteRunner(GRID_CONFIG, workers=1)
    start = time.perf_counter()
    local.run_suite(techniques=TECHNIQUES)
    local_elapsed = time.perf_counter() - start

    cells = len(GRID_CONFIG.benchmarks) * len(TECHNIQUES)
    benchmark.extra_info["cells"] = cells
    benchmark.extra_info["queue_workers"] = QUEUE_WORKERS
    benchmark.extra_info["injection"] = injection
    benchmark.extra_info["queue_seconds"] = round(queue_elapsed, 2)
    benchmark.extra_info["local_seconds"] = round(local_elapsed, 2)
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "queue_grid",
            "cells": cells,
            "max_instructions": GRID_CONFIG.max_instructions,
            "queue_workers": QUEUE_WORKERS,
            "injection": injection,
            "queue_seconds": round(queue_elapsed, 2),
            "local_seconds": round(local_elapsed, 2),
        },
        bench_trajectory,
    )
    print(
        f"\n  {cells}-cell grid: {queue_elapsed:.1f}s over the queue with "
        f"{QUEUE_WORKERS} workers vs {local_elapsed:.1f}s locally in-process"
    )
    # Generous bound: worker startup (~1s of interpreter+imports each)
    # plus coordination must not blow the run up past a small multiple
    # of the serial time; a protocol regression (e.g. a stuck lease
    # forcing a TTL wait) trips this long before it hurts real grids.
    assert queue_elapsed < max(30.0, 10.0 * local_elapsed)

    # Perf-trajectory gate (PR 9): the wall clock just recorded must sit
    # inside the MAD noise band of the queue grid's own history.
    evaluation = trend.gate_series("queue_grid/seconds", bench_trajectory)
    assert evaluation is None or evaluation["regressed"] is not True, (
        f"perf trajectory regression on queue_grid/seconds: "
        f"latest {evaluation['latest']:,.2f}s vs median "
        f"{evaluation['median']:,.2f}s "
        f"(tolerance {evaluation['tolerance']:,.2f}); see "
        f"python -m repro.telemetry.trend"
    )

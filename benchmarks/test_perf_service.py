"""Micro-benchmark: service-mediated wall-clock on a small figure grid.

Measures the full daemon path end to end — a client connects over a
socket, submits the 6-cell grid, the daemon validates/dedupes/enqueues,
two worker subprocesses lease and execute, and the daemon's event loop
streams progress and the result back — against the same grid run
directly on the in-process local backend.  The service adds a socket
hop and a JSON envelope per event on top of the queue protocol, so its
overhead should be indistinguishable from ``backend="queue"``'s.

Each run appends a ``"kind": "service_grid"`` entry to
``BENCH_trace.json``.  Besides the usual small-multiple-of-local floor,
the run is compared against the recorded ``queue_grid`` history: the
sleep-poll driver loop those entries were measured under is gone
(``QueueEventCore`` waits on an adaptive selector now), and the
event-driven path must not be slower than the polling one it replaced.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from pathlib import Path

import pytest

from repro.harness import ParallelSuiteRunner, RunConfig
from repro.harness.faults import active_injector
from repro.harness.queue import spawn_local_workers
from repro.service.client import ServiceClient
from repro.service.daemon import ExperimentService

from repro.telemetry import trend

from test_perf_simulator import _record_trajectory

GRID_CONFIG = RunConfig(
    benchmarks=("gzip", "mcf"),
    max_instructions=4_000,
    warmup_instructions=1_000,
)
TECHNIQUES = ("baseline", "abella", "noop")
CONFIG_OVERRIDES = {
    "max_instructions": GRID_CONFIG.max_instructions,
    "warmup_instructions": GRID_CONFIG.warmup_instructions,
}
QUEUE_WORKERS = 2


def _queue_grid_baseline(trajectory: Path) -> float | None:
    """Median queue_seconds of the recorded sleep-poll-era history."""
    try:
        history = json.loads(trajectory.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    samples = [
        entry["queue_seconds"]
        for entry in history
        if entry.get("kind") == "queue_grid"
        and isinstance(entry.get("queue_seconds"), (int, float))
    ]
    return statistics.median(samples) if samples else None


def test_service_grid_wall_clock(benchmark, tmp_path, bench_trajectory):
    assert active_injector() is None, "fault injector active in a perf run"

    def _service_run() -> float:
        cache_dir = tmp_path / f"run-{time.monotonic_ns()}"
        service = ExperimentService(
            cache_dir,
            config=GRID_CONFIG,
            queue_ttl=30,
            assist=False,  # measure the workers, not the daemon loop
        )
        host, port = service.open()
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        workers = spawn_local_workers(
            cache_dir, QUEUE_WORKERS, ttl=30, poll_interval=0.05
        )
        try:
            start = time.perf_counter()
            with ServiceClient(host, port, timeout=600) as client:
                cells = client.grid(
                    GRID_CONFIG.benchmarks, TECHNIQUES, config=CONFIG_OVERRIDES
                )
            elapsed = time.perf_counter() - start
        finally:
            for proc in workers:
                proc.terminate()
            for proc in workers:
                proc.wait(timeout=10)
            service.stop()
            thread.join(timeout=30)
        assert len(cells) == len(GRID_CONFIG.benchmarks) * len(TECHNIQUES)
        assert service.cells_enqueued == len(cells)
        return elapsed

    service_elapsed = benchmark.pedantic(_service_run, rounds=1, iterations=1)

    local = ParallelSuiteRunner(GRID_CONFIG, workers=1)
    start = time.perf_counter()
    local.run_suite(techniques=TECHNIQUES)
    local_elapsed = time.perf_counter() - start

    cells = len(GRID_CONFIG.benchmarks) * len(TECHNIQUES)
    poll_baseline = _queue_grid_baseline(bench_trajectory)
    benchmark.extra_info["cells"] = cells
    benchmark.extra_info["queue_workers"] = QUEUE_WORKERS
    benchmark.extra_info["service_seconds"] = round(service_elapsed, 2)
    benchmark.extra_info["local_seconds"] = round(local_elapsed, 2)
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "service_grid",
            "cells": cells,
            "max_instructions": GRID_CONFIG.max_instructions,
            "queue_workers": QUEUE_WORKERS,
            "service_seconds": round(service_elapsed, 2),
            "local_seconds": round(local_elapsed, 2),
            "queue_grid_baseline_seconds": (
                round(poll_baseline, 2) if poll_baseline is not None else None
            ),
        },
        bench_trajectory,
    )
    print(
        f"\n  {cells}-cell grid: {service_elapsed:.1f}s through the service "
        f"with {QUEUE_WORKERS} workers vs {local_elapsed:.1f}s locally "
        f"(sleep-poll queue-grid median {poll_baseline})"
    )
    # Same generous protocol-regression floor as the queue-grid bench.
    assert service_elapsed < max(30.0, 10.0 * local_elapsed)
    # The event-driven wait must not lose to the sleep-poll loop it
    # replaced: allow 2x the recorded polling-era median for noise on a
    # shared container, which still catches a reintroduced fixed-interval
    # wait (the old loop's worst case added a full poll per completion).
    if poll_baseline is not None:
        assert service_elapsed < max(10.0, 2.0 * poll_baseline), (
            f"service path ({service_elapsed:.2f}s) slower than the "
            f"sleep-poll era baseline ({poll_baseline:.2f}s median)"
        )

    # Perf-trajectory gate (PR 9): the wall clock just recorded must sit
    # inside the MAD noise band of the service grid's own history.
    evaluation = trend.gate_series("service_grid/seconds", bench_trajectory)
    assert evaluation is None or evaluation["regressed"] is not True, (
        f"perf trajectory regression on service_grid/seconds: "
        f"latest {evaluation['latest']:,.2f}s vs median "
        f"{evaluation['median']:,.2f}s "
        f"(tolerance {evaluation['tolerance']:,.2f}); see "
        f"python -m repro.telemetry.trend"
    )

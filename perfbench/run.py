"""Benchmark of the figure pipeline: one workload, one run, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload figures-cold --seed 0 --seconds 1 --trace 0

The run sets the workload up, repeats it until ``--seconds`` have been
spent measuring (at least once), checks every output, prints each
metric by name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``, ``paper_gap_pp``); ``--trace 1`` adds one traced run
after the timed ones and reports the per-layer metrics instead (see
``perfbench/traced.py``).  ``attempted`` counts cells simulated or
loaded, ``failed`` the cells that raised or whose statistics digest
differs from ``perfbench/reference.json``; their ratio is printed as
``failed_ratio``.

Everything the run writes stays under ``.bench_build/`` in the checkout
(the native kernel's build, the caches, the span file), and the caches
are removed when it ends.  ``--record-reference`` re-simulates every
cell of every input variant and rewrites the reference: only a change
that means to alter the model's statistics does that.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
#: Set-up is repeated this many times per run (fresh processes) and the
#: median reported; figures-warm sets up once, its set-up being a whole
#: cold grid.
SETUP_REPEATS = {"figures-cold": 5, "figures-warm": 1, "sweep-retime": 3}
#: Knobs that would change what the library does under the benchmark.
_PINNED_ENV = (
    "REPRO_TRACE_WINDOW",
    "REPRO_LIVE_EMULATION",
    "REPRO_REPLAY_KERNEL",
    "REPRO_TELEMETRY",
    "REPRO_FAULT_PLAN",
    "REPRO_WORKERS",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("figures-cold", "figures-warm", "sweep-retime"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    # Test hooks: a smaller grid, and a reference recorded for it.
    parser.add_argument("--budget", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--benchmarks", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--reference", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def _environment() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no src/repro under {ROOT}; run from a full checkout")
    for name in _PINNED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_NATIVE_BUILD_DIR"] = str(BUILD / "native")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _workload(args, suite, scratch: Path):
    """The workload of ``args``, its inputs registered from the seed."""
    kwargs = {}
    if args.budget:
        kwargs["budget"] = tuple(int(part) for part in args.budget.split(","))
    base = tuple(args.benchmarks.split(",")) if args.benchmarks else suite.SPECINT_BENCHMARKS
    return suite.Workload(args.workload, suite.suite_for_seed(args.seed, base), scratch, **kwargs)


def _hooks(args) -> list[str]:
    """The test-hook arguments a set-up process must inherit."""
    hooks = []
    for flag in ("budget", "benchmarks"):
        if getattr(args, flag):
            hooks += [f"--{flag}", getattr(args, flag)]
    return hooks


def _set_up(args, scratch: Path) -> tuple[list[float], Path]:
    """Time the workload's set-up in fresh processes; keep the last one's caches."""
    times = []
    target = None
    for index in range(SETUP_REPEATS[args.workload]):
        target = scratch / f"setup-{index}"
        command = [
            sys.executable,
            __file__,
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-into",
            str(target),
            *_hooks(args),
        ]
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=170, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        if index + 1 < SETUP_REPEATS[args.workload]:
            shutil.rmtree(target, ignore_errors=True)
    return times, target


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:34s} {value:14.6f} {unit}{note}")


def main(argv=None) -> int:
    args = _parse(argv)
    _environment()
    from perfbench import suite

    if args.setup_into:
        workload = _workload(args, suite, Path(args.setup_into))
        workload.scratch.mkdir(parents=True)
        workload.prepare_inputs()
        workload.warm_up()
        return 0

    BUILD.mkdir(exist_ok=True)
    (BUILD / "perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD / "perfbench"))
    try:
        if args.record_reference:
            suite.load_native_module()
            payload = suite.record_reference(scratch)
            print(f"recorded {sum(map(len, payload['cells'].values()))} cell digests")
            return 0
        return _run(args, suite, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, suite, scratch: Path) -> int:
    setup_times, warmed = _set_up(args, scratch)
    workload = _workload(args, suite, warmed)
    workload.prepare_inputs()
    reference = suite.load_reference(Path(args.reference) if args.reference else suite.REFERENCE_PATH)
    print(f"host: {json.dumps(suite.host_identity(), sort_keys=True)}")
    print(f"workload {workload.name}, seed {args.seed}: {', '.join(workload.benchmarks)}")

    walls, gaps = [], []
    attempted = failed = 0
    complete = True
    spent = 0.0
    while not walls or spent < args.seconds:
        started = time.perf_counter()
        cells = len(workload.cells())
        attempted += cells
        try:
            rep = workload.run_once()
        except Exception as error:  # noqa: BLE001 - a failed run is counted, not fatal
            traceback.print_exception(error)
            failed += cells
            complete = False
            walls.append(time.perf_counter() - started)
        else:
            walls.append(rep.wall_s)
            failed += suite.count_mismatches(workload.campaign, rep.cells, reference)
            complete = complete and suite.outputs_complete(
                workload, rep.cells, rep.figures, rep.savings
            )
            if complete:
                gaps.append(suite.paper_gap_pp(workload, rep))
        spent += time.perf_counter() - started

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    q1, wall, q3 = suite.quartiles(walls)
    print(f"{len(walls)} repetition(s); {attempted} cells attempted, {failed} failed")
    metrics = {}
    if args.trace:
        from perfbench import traced

        run = traced.TracedRun(workload, scratch / "traced")
        run.run()
        attempted += len(workload.cells())
        failed += run.failures + suite.count_mismatches(workload.campaign, run.cells, reference)
        complete = complete and suite.outputs_complete(workload, run.cells, run.figures, run.savings)
        layers = traced.layer_metrics(run.recorder, wall)
        spans_path = BUILD / "perfbench" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        run.recorder.write(
            spans_path,
            {"workload": workload.name, "seed": args.seed, "host": suite.host_identity()},
        )
        print(f"spans: {len(run.recorder.spans)} written to {spans_path.relative_to(ROOT)}")
        for name, unit in traced.LAYER_UNITS.items():
            _print_metric(name, layers[name], unit)
            metrics[name] = {"value": layers[name], "unit": unit}
    else:
        setup = statistics.median(setup_times)
        end_to_end = {
            "wall_s": (wall, "s", f"  (median of {len(walls)}; q1 {q1:.4f}, q3 {q3:.4f})"),
            "setup_s": (setup, "s", f"  (median of {len(setup_times)})"),
            "peak_rss_mb": (peak_rss_mb, "MB", ""),
            "paper_gap_pp": (statistics.median(gaps) if gaps else 0.0, "pp", ""),
        }
        for name, (value, unit, note) in end_to_end.items():
            _print_metric(name, value, unit, note)
            metrics[name] = {"value": value, "unit": unit}
    _print_metric("failed_ratio", failed / attempted, "ratio")
    correct = complete and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

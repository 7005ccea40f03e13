"""The traced run: one workload's cells driven layer by layer, with spans.

Kept apart from the timed runs, whose ``wall_s`` is measured with no
tracing at all.  The traced run performs the same layer work that
``ParallelSuiteRunner.run_suite`` does for the workload, but calls each
layer's public function itself, one cell at a time, in this order::

    build_benchmark → compile_program → ResultCache.load
      → get_trace_columns (emulate, or a trace-cache load)
      → get_trace_stream, drained (decode)
      → get_engine(...).run over the drained windows (replay; the
        policy's on_hint / on_cycle_end hooks wrapped to count and time
        the callbacks into Python)
      → ResultCache.store → build_power_report

and then the figure builders and ``overall_processor_savings``.  A cell
whose result is cached skips emulate, decode, replay and store, exactly
as ``run_suite`` does; compilations are memoised per (benchmark, mode)
as the runner memoises them.

Each call records a span (name, start, end, parent, cell id).  Spans are
kept in memory, written out once at the end, and reduced to per-layer
metrics by self time: a span's duration minus the time its child spans
cover.  Children of one span never overlap (the run is single-threaded
and sequential), so the covered time is the sum of their durations.
The callbacks of one replay are recorded as one aggregate child span
whose duration is the summed time of the calls.
"""

from __future__ import annotations

import dataclasses
import json
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from repro.core import compile_program
from repro.harness import SimulationJob, figures
from repro.harness.cache import ResultCache
from repro.harness.experiment import (
    SOFTWARE_TECHNIQUES,
    TECHNIQUES,
    BenchmarkResult,
    SuiteRunner,
    make_policy,
)
from repro.harness.reporting import overall_processor_savings
from repro.power import build_power_report
from repro.uarch.engine import get_engine
from repro.uarch.trace import (
    TraceCache,
    TraceWindowStream,
    clear_trace_memo,
    get_trace_columns,
    get_trace_stream,
    resolve_trace_window,
    trace_events,
)
from repro.workloads import build_benchmark

from perfbench.suite import (
    ENGINE,
    SAVINGS_TECHNIQUES,
    SWEEP_TECHNIQUES,
    Workload,
    figure_config,
    sweep_configs,
)


@dataclasses.dataclass
class Span:
    """One timed call: its parent span's id and the cell it belongs to."""

    id: int
    name: str
    cell: Optional[str]
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store; spans nest by the order they are opened."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None, **attrs):
        parent = self._open[-1] if self._open else None
        if cell is None and parent is not None:
            cell = parent.cell
        span = Span(
            len(self.spans),
            name,
            cell,
            parent.id if parent else None,
            time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def aggregate(self, name: str, start: float, duration: float, **attrs) -> None:
        """A child of the open span standing for many calls' summed time."""
        parent = self._open[-1]
        self.spans.append(
            Span(len(self.spans), name, parent.cell, parent.id, start, start + duration, attrs)
        )

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - covered[span.id] for span in self.spans]

    def write(self, path: Path, header: dict) -> None:
        """Write the header and every span, one JSON object a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(dataclasses.asdict(span), sort_keys=True) + "\n")


class _Recorded(SuiteRunner):
    """Serves the traced cells to the figure builders."""

    def __init__(self, config, results):
        super().__init__(config)
        self.traced = results

    def result(self, benchmark, technique):
        return self.traced[(benchmark, technique)]


def _time_hooks(policy, tally: list) -> None:
    """Wrap the policy's Python callbacks to count calls and sum their time."""
    for hook in ("on_hint", "on_cycle_end"):
        inner = getattr(policy, hook)

        def timed(*args, _inner=inner):
            start = time.perf_counter()
            try:
                return _inner(*args)
            finally:
                tally[0] += 1
                tally[1] += time.perf_counter() - start

        setattr(policy, hook, timed)


class TracedRun:
    """Drives one workload's cells through the layers, recording spans."""

    def __init__(self, workload: Workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.recorder = SpanRecorder()
        self.cells: dict[str, object] = {}
        self.failures = 0
        self.figures: dict = {}
        self.savings: dict = {}

    def run(self) -> float:
        """Run the workload traced; return the root span's duration."""
        clear_trace_memo()
        with self.recorder.span("bench.run", cell=None) as root:
            if self.workload.campaign == "figures":
                self._figures()
            else:
                self._sweep()
        return root.duration

    # ------------------------------------------------------------------
    def _figures(self) -> None:
        workload = self.workload
        config = figure_config(workload.benchmarks, workload.budget)
        if workload.name == "figures-warm":
            cache = ResultCache(workload.warm_results)
            traces = None
        else:
            cache = ResultCache(self.scratch / "results")
            traces = TraceCache(self.scratch / "results" / "traces")
        compiled: dict = {}
        results = {}
        for b in workload.benchmarks:
            for t in TECHNIQUES:
                result = self._cell(f"{b}/{t}", b, t, config, cache, traces, compiled)
                if result is not None:
                    results[(b, t)] = result
        if len(results) != len(workload.cells()):
            return
        runner = _Recorded(config, results)
        span = self.recorder.span
        for name, build in figures.ALL_FIGURES.items():
            with span(f"repro.harness.figures.{name}", cell="figures"):
                self.figures[name] = build(runner)
        for technique in SAVINGS_TECHNIQUES:
            with span("repro.harness.reporting.overall_processor_savings", cell="figures"):
                self.savings[technique] = overall_processor_savings(runner, technique)

    def _sweep(self) -> None:
        workload = self.workload
        traces = TraceCache(workload.sweep_traces)
        for size, config in sweep_configs(workload.benchmarks, workload.budget).items():
            cache = ResultCache(self.scratch / f"iq{size}")
            for b in workload.benchmarks:
                for t in SWEEP_TECHNIQUES:
                    self._cell(f"iq{size}/{b}/{t}", b, t, config, cache, traces, {})

    def _cell(self, key, benchmark, technique, config, cache, traces, compiled):
        """One cell through every layer; None if it raised."""
        span = self.recorder.span
        try:
            with span("repro.harness.cell", cell=key):
                with span("repro.workloads.build_benchmark"):
                    program = build_benchmark(benchmark)
                compilation = None
                if technique in SOFTWARE_TECHNIQUES:
                    if (benchmark, technique) not in compiled:
                        with span("repro.core.compile_program"):
                            compiled[(benchmark, technique)] = compile_program(
                                program, config.compiler_config, mode=technique
                            )
                    compilation = compiled[(benchmark, technique)]
                    program = compilation.instrumented_program
                fingerprint = SimulationJob(benchmark, technique, config).fingerprint()
                with span("repro.harness.cache.ResultCache.load") as load:
                    stats = cache.load(fingerprint)
                load.attrs["hit"] = stats is not None
                if stats is None:
                    stats = self._simulate(program, technique, config, traces)
                    with span("repro.harness.cache.ResultCache.store"):
                        cache.store(fingerprint, stats, benchmark=benchmark, technique=technique)
                policy = make_policy(technique, config)
                with span("repro.power.build_power_report"):
                    power = build_power_report(stats, policy, config.energy_params)
        except Exception as error:  # noqa: BLE001 - a failed cell is counted, not fatal
            traceback.print_exception(error)
            self.failures += 1
            return None
        self.cells[key] = stats
        return BenchmarkResult(benchmark, technique, stats, power, policy.name, compilation)

    def _simulate(self, program, technique, config, traces):
        span = self.recorder.span
        budget = config.max_instructions
        before = dict(trace_events)
        with span("repro.uarch.trace.get_trace_columns") as columns_span:
            columns = get_trace_columns(program, budget, cache=traces)
        if trace_events["emulations"] > before["emulations"]:
            tier = "emulate"
        elif trace_events["disk_hits"] > before["disk_hits"]:
            tier = "disk"
        else:
            tier = "memo"
        columns_span.attrs.update(
            tier=tier,
            instructions=len(columns[0]),
            disk_stores=trace_events["disk_stores"] - before["disk_stores"],
        )
        window_size = resolve_trace_window(None)
        with span("repro.uarch.trace.decode") as decode:
            stream = get_trace_stream(program, budget, window_size=window_size, cache=traces)
            windows = list(iter(stream.next_window, None))
        decode.attrs.update(windows=len(windows), instructions=sum(map(len, windows)))
        policy = make_policy(technique, config)
        tally = [0, 0.0]
        _time_hooks(policy, tally)
        with span("repro.uarch.engine.run") as replay:
            stats = get_engine(ENGINE).run(
                TraceWindowStream(windows, window_size or None),
                policy,
                config=config.processor_config,
                warmup_instructions=config.warmup_instructions,
            )
            self.recorder.aggregate(
                "repro.techniques.callbacks", replay.start, tally[1], calls=tally[0]
            )
        replay.attrs["cycles"] = stats.cycles
        return stats


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metric name → unit, in report order.
LAYER_UNITS = {
    "workloads.build_s": "s",
    "core.compile_s": "s",
    "core.compiles": "count",
    "uarch.trace.emulate_s": "s",
    "uarch.trace.emulations": "count",
    "uarch.trace.emulate_kinstr_per_s": "kinstr/s",
    "uarch.trace.decode_s": "s",
    "uarch.trace.decode_windows": "count",
    "uarch.trace.decode_kinstr_per_s": "kinstr/s",
    "uarch.trace.load_s": "s",
    "uarch.trace.disk_hits": "count",
    "uarch.trace.disk_stores": "count",
    "uarch.trace.memo_hits": "count",
    "uarch.trace.memo_hit_ratio": "ratio",
    "uarch.engine.replay_s": "s",
    "uarch.engine.cycles": "count",
    "uarch.engine.cycles_per_s": "cycles/s",
    "techniques.callbacks": "count",
    "techniques.callback_s": "s",
    "power.report_s": "s",
    "harness.cache.load_s": "s",
    "harness.cache.hits": "count",
    "harness.cache.store_s": "s",
    "harness.cache.stores": "count",
    "harness.figures.assemble_s": "s",
    "harness.self_s": "s",
    "bench.trace_overhead_s": "s",
}


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(recorder: SpanRecorder, untraced_wall_s: float) -> dict[str, float]:
    """Reduce the spans to :data:`LAYER_UNITS` (every value a number)."""
    selfs = recorder.self_times()
    m = {name: 0 for name in LAYER_UNITS}
    emulated = decoded = 0
    lookups = 0
    for span, own in zip(recorder.spans, selfs):
        name, attrs = span.name, span.attrs
        if name in ("bench.run", "repro.harness.cell"):
            m["harness.self_s"] += own
        elif name == "repro.workloads.build_benchmark":
            m["workloads.build_s"] += own
        elif name == "repro.core.compile_program":
            m["core.compile_s"] += own
            m["core.compiles"] += 1
        elif name == "repro.uarch.trace.get_trace_columns":
            lookups += 1
            m["uarch.trace.disk_stores"] += attrs["disk_stores"]
            if attrs["tier"] == "emulate":
                m["uarch.trace.emulate_s"] += own
                m["uarch.trace.emulations"] += 1
                emulated += attrs["instructions"]
            elif attrs["tier"] == "disk":
                m["uarch.trace.load_s"] += own
                m["uarch.trace.disk_hits"] += 1
            else:
                m["uarch.trace.memo_hits"] += 1
        elif name == "repro.uarch.trace.decode":
            m["uarch.trace.decode_s"] += own
            m["uarch.trace.decode_windows"] += attrs["windows"]
            decoded += attrs["instructions"]
        elif name == "repro.uarch.engine.run":
            m["uarch.engine.replay_s"] += own
            m["uarch.engine.cycles"] += attrs["cycles"]
        elif name == "repro.techniques.callbacks":
            m["techniques.callback_s"] += own
            m["techniques.callbacks"] += attrs["calls"]
        elif name == "repro.power.build_power_report":
            m["power.report_s"] += own
        elif name == "repro.harness.cache.ResultCache.load":
            m["harness.cache.load_s"] += own
            m["harness.cache.hits"] += int(attrs["hit"])
        elif name == "repro.harness.cache.ResultCache.store":
            m["harness.cache.store_s"] += own
            m["harness.cache.stores"] += 1
        elif name.startswith(("repro.harness.figures.", "repro.harness.reporting.")):
            m["harness.figures.assemble_s"] += own
    m["uarch.trace.emulate_kinstr_per_s"] = _rate(emulated / 1000, m["uarch.trace.emulate_s"])
    m["uarch.trace.decode_kinstr_per_s"] = _rate(decoded / 1000, m["uarch.trace.decode_s"])
    m["uarch.trace.memo_hit_ratio"] = _rate(m["uarch.trace.memo_hits"], lookups)
    m["uarch.engine.cycles_per_s"] = _rate(m["uarch.engine.cycles"], m["uarch.engine.replay_s"])
    root = recorder.spans[0]
    m["bench.trace_overhead_s"] = root.duration - untraced_wall_s
    return m

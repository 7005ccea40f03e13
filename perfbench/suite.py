"""Workload inputs, set-up, one timed repetition, and the output check.

Every workload drives the entry points a user calls —
``ParallelSuiteRunner.run_suite``, ``figures.figure6..12`` and
``overall_processor_savings`` — in this one process, in-process
(``workers=1``, no pool) under the ``native`` replay kernel.  The
workloads:

* ``figures-cold`` — the whole figure grid (eleven benchmarks × six
  techniques = 66 cells at the figure CLI's default 100k/20k budgets)
  from an empty result cache, an empty trace cache and a cleared
  in-process trace memo: what a user pays after any model change.
* ``figures-warm`` — the same grid and figures from a result cache
  filled during set-up: the "re-render the figures" path, where
  nothing is simulated and only result assembly (including the
  recompiles ``_build_result`` does) is left.
* ``sweep-retime`` — an issue-queue bank-size ablation {4, 8, 16} over
  the same programs under ``baseline``, ``nonempty`` and ``abella``
  (99 cells), each design point with a fresh result cache and all of
  them sharing a trace cache warmed during set-up: the researcher's
  sweep, which re-times stored traces and neither emulates nor
  compiles.

Inputs come from the seed.  Seed 0 runs the paper's registered suite.
Any other seed replaces every benchmark's generator seed with one of
``ALT_VARIANTS`` alternates (chosen per benchmark from a hash of the run
seed), so a claim can be rechecked on programs it was not tuned on
while every cell still has a recorded reference digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.harness import ParallelSuiteRunner, RunConfig, SimulationJob, figures
from repro.harness.cache import stats_to_dict
from repro.harness.experiment import TECHNIQUES, SuiteRunner
from repro.harness.reporting import overall_processor_savings
from repro.uarch import ProcessorConfig
from repro.uarch.engine.build import ExtensionCompiler
from repro.uarch.engine.native import load_native_module
from repro.uarch.trace import TraceCache, clear_trace_memo, get_trace_columns
from repro.workloads import ALL_TRAITS, SPECINT_BENCHMARKS, build_benchmark

WORKLOADS = ("figures-cold", "figures-warm", "sweep-retime")

#: The figure CLI's default budgets (``benchmarks/figure_report.py``).
MAX_INSTRUCTIONS = 100_000
WARMUP_INSTRUCTIONS = 20_000

ENGINE = "native"
SWEEP_BANK_SIZES = (4, 8, 16)
SWEEP_TECHNIQUES = ("baseline", "nonempty", "abella")
#: The paper's bank size: the sweep's design point compared to the paper.
PAPER_BANK_SIZE = 8
SAVINGS_TECHNIQUES = ("noop", "extension", "improved")

#: Alternate generator seeds per benchmark that non-zero run seeds draw
#: from; each has recorded reference digests.
ALT_VARIANTS = 3

REFERENCE_PATH = Path(__file__).with_name("reference.json")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _hash_int(text: str) -> int:
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def variant_of(seed: int, benchmark: str) -> int:
    """The generator-seed variant run seed ``seed`` uses for ``benchmark``."""
    if seed == 0:
        return 0
    return 1 + _hash_int(f"{seed}/{benchmark}") % ALT_VARIANTS


def register_variant(benchmark: str, variant: int) -> str:
    """Register ``benchmark`` regenerated under ``variant``; return its name.

    Variant 0 is the registered benchmark itself.  Other variants are
    entered into the suite registry under a new name, so the runner,
    its cache fingerprints and the figures see them as benchmarks of
    their own.
    """
    if variant == 0:
        return benchmark
    name = f"{benchmark}~v{variant}"
    if name not in ALL_TRAITS:
        ALL_TRAITS[name] = dataclasses.replace(
            ALL_TRAITS[benchmark], seed=_hash_int(f"{benchmark}/variant{variant}")
        )
    return name


def suite_for_seed(seed: int, base=SPECINT_BENCHMARKS) -> tuple[str, ...]:
    """Benchmark names of the run seed's inputs, registering variants."""
    return tuple(register_variant(name, variant_of(seed, name)) for name in base)


def figure_config(benchmarks, budget=None) -> RunConfig:
    max_instructions, warmup = budget or (MAX_INSTRUCTIONS, WARMUP_INSTRUCTIONS)
    return RunConfig(
        benchmarks=tuple(benchmarks),
        max_instructions=max_instructions,
        warmup_instructions=warmup,
    )


def sweep_configs(benchmarks, budget=None) -> dict[int, RunConfig]:
    """One campaign configuration per issue-queue bank size."""
    configs = {}
    for bank_size in SWEEP_BANK_SIZES:
        processor = ProcessorConfig.hpca2005()
        processor.iq_bank_size = bank_size
        config = figure_config(benchmarks, budget)
        config.processor_config = processor
        configs[bank_size] = config
    return configs


# ----------------------------------------------------------------------
# Set-up and one repetition
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Workload:
    """One workload bound to its inputs and scratch directory.

    Attributes:
        name: one of :data:`WORKLOADS`.
        benchmarks: the run seed's benchmark names.
        scratch: directory for this run's caches (removed by the caller).
        budget: (max, warm-up) instructions; tests pass a small one.
    """

    name: str
    benchmarks: tuple[str, ...]
    scratch: Path
    budget: tuple[int, int] = (MAX_INSTRUCTIONS, WARMUP_INSTRUCTIONS)

    @property
    def campaign(self) -> str:
        """Reference section: cold and warm share the figure grid's cells."""
        return "sweep" if self.name == "sweep-retime" else "figures"

    @property
    def warm_results(self) -> Path:
        return self.scratch / "warm-results"

    @property
    def sweep_traces(self) -> Path:
        return self.scratch / "sweep-traces"

    def cells(self) -> list[str]:
        """Cell keys one repetition produces, in grid order."""
        if self.campaign == "figures":
            return [f"{b}/{t}" for b in self.benchmarks for t in TECHNIQUES]
        return [
            f"iq{size}/{b}/{t}"
            for size in SWEEP_BANK_SIZES
            for b in self.benchmarks
            for t in SWEEP_TECHNIQUES
        ]

    def prepare_inputs(self) -> None:
        """Generate every program and touch the cache-key code digest."""
        for name in self.benchmarks:
            build_benchmark(name)
        config = figure_config(self.benchmarks, self.budget)
        SimulationJob(self.benchmarks[0], "baseline", config).fingerprint()
        load_native_module()

    def warm_up(self) -> None:
        """The workload's cache warm-up (part of set-up, not of a run)."""
        clear_trace_memo()  # a memo hit would leave the disk cache cold
        if self.name == "figures-warm":
            config = figure_config(self.benchmarks, self.budget)
            self.runner(config, self.warm_results).run_suite()
        elif self.name == "sweep-retime":
            cache = TraceCache(self.sweep_traces)
            for name in self.benchmarks:
                get_trace_columns(build_benchmark(name), self.budget[0], cache=cache)
        clear_trace_memo()

    def runner(self, config: RunConfig, cache_dir: Path, **kwargs) -> ParallelSuiteRunner:
        return ParallelSuiteRunner(
            config, workers=1, cache_dir=str(cache_dir), engine=ENGINE, **kwargs
        )

    def run_once(self) -> "Repetition":
        """One timed repetition; caches it may not reuse are reset first."""
        clear_trace_memo()
        rep_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=self.scratch))
        try:
            if self.campaign == "figures":
                cache_dir = self.warm_results if self.name == "figures-warm" else rep_dir
                config = figure_config(self.benchmarks, self.budget)
                start = time.perf_counter()
                runner = self.runner(config, cache_dir)
                results = runner.run_suite()
                built = {name: build(runner) for name, build in figures.ALL_FIGURES.items()}
                savings = {t: overall_processor_savings(runner, t) for t in SAVINGS_TECHNIQUES}
                wall = time.perf_counter() - start
                cells = {f"{b}/{t}": r.stats for (b, t), r in results.items()}
                return Repetition(wall, cells, built, savings, runner)
            configs = sweep_configs(self.benchmarks, self.budget)
            start = time.perf_counter()
            runners = {}
            cells = {}
            for size, config in configs.items():
                runner = self.runner(
                    config, rep_dir / f"iq{size}", trace_cache_dir=str(self.sweep_traces)
                )
                for (b, t), result in runner.run_suite(SWEEP_TECHNIQUES).items():
                    cells[f"iq{size}/{b}/{t}"] = result.stats
                runners[size] = runner
            wall = time.perf_counter() - start
            return Repetition(wall, cells, {}, {}, runners[PAPER_BANK_SIZE])
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)


@dataclasses.dataclass
class Repetition:
    """What one timed repetition produced.

    ``runner`` is the figure grid's runner, or the sweep's runner at the
    paper's bank size; :func:`paper_gap_pp` reads its cached results.
    """

    wall_s: float
    cells: dict
    figures: dict
    savings: dict
    runner: SuiteRunner


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def stats_digest(stats) -> str:
    """Content digest of one cell's statistics."""
    text = json.dumps(stats_to_dict(stats), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """The recorded ``{campaign: {cell: digest}}`` reference, or empty."""
    try:
        return json.loads(path.read_text())["cells"]
    except FileNotFoundError:
        return {}


def count_mismatches(campaign: str, cells: dict, reference: dict) -> int:
    """Cells whose digest differs from (or is missing in) the reference."""
    recorded = reference.get(campaign, {})
    return sum(recorded.get(key) != stats_digest(stats) for key, stats in cells.items())


def outputs_complete(workload: Workload, cells: dict, built: dict, savings: dict) -> bool:
    """Every cell, and for the figure grid all seven figures and the three
    whole-processor savings, came out with finite values."""
    if sorted(cells) != sorted(workload.cells()):
        return False
    if workload.campaign == "sweep":
        return True
    if sorted(built) != sorted(figures.ALL_FIGURES):
        return False
    for figure in built.values():
        values = [v for series in figure.series.values() for v in series.values()]
        if not values or not all(math.isfinite(v) for v in values):
            return False
    return sorted(savings) == sorted(SAVINGS_TECHNIQUES) and all(
        math.isfinite(v) for v in savings.values()
    )


class _ReferenceOnly(SuiteRunner):
    """A runner with no results, for reading the figures' paper references."""

    def suite_metrics(self, technique):
        return []

    def average(self, technique, attribute):
        return 0.0


def paper_references() -> dict[str, dict[str, float]]:
    """``FigureData.paper_reference`` of every figure, by figure name."""
    probe = _ReferenceOnly(RunConfig(benchmarks=()))
    return {name: build(probe).paper_reference for name, build in figures.ALL_FIGURES.items()}


#: The sweep's bars that the paper reports: reference (figure, key) and
#: the suite-mean attribute of the ``abella`` cells it compares with.
_ABELLA_BARS = (
    ("figure6", "abella", "ipc_loss_pct"),
    ("figure8", "dynamic abella", "iq_dynamic_saving_pct"),
    ("figure8", "static abella", "iq_static_saving_pct"),
    ("figure9", "dynamic abella", "rf_dynamic_saving_pct"),
    ("figure9", "static abella", "rf_static_saving_pct"),
)


def paper_gap_pp(workload: Workload, rep: Repetition) -> float:
    """Mean absolute gap, in percentage points, from the paper's bars.

    The figure grid compares every SPECINT bar of figures 6–12 that the
    figure's ``paper_reference`` names (``"<series> SPECINT"`` matches
    the series of that name or ending in it; a bare ``"SPECINT"`` every
    series).  The sweep compares its ``abella`` suite means at the
    paper's bank size with the paper's abella bars.
    """
    gaps = []
    if workload.campaign == "figures":
        for figure in rep.figures.values():
            for key, paper in figure.paper_reference.items():
                if not key.endswith("SPECINT"):
                    continue
                prefix = key[: -len("SPECINT")].strip()
                for series_name, series in figure.series.items():
                    if not prefix or series_name == prefix or series_name.endswith(" " + prefix):
                        gaps.append(abs(series["SPECINT"] - paper))
    else:
        references = paper_references()
        for figure_name, key, attribute in _ABELLA_BARS:
            value = rep.runner.average("abella", attribute)
            gaps.append(abs(value - references[figure_name][key]))
    return sum(gaps) / len(gaps)


def record_reference(
    scratch: Path,
    path: Path = REFERENCE_PATH,
    base=SPECINT_BENCHMARKS,
    budget=(MAX_INSTRUCTIONS, WARMUP_INSTRUCTIONS),
    variants: int = ALT_VARIANTS + 1,
) -> dict:
    """Simulate every cell of every input variant and write the reference."""
    cells: dict[str, dict[str, str]] = {"figures": {}, "sweep": {}}
    for variant in range(variants):
        names = tuple(register_variant(b, variant) for b in base)
        for name in ("figures-cold", "sweep-retime"):
            workload = Workload(name, names, scratch, budget=budget)
            workload.warm_up()
            rep = workload.run_once()
            if not outputs_complete(workload, rep.cells, rep.figures, rep.savings):
                raise RuntimeError(f"{name} variant {variant}: incomplete outputs")
            for key, stats in rep.cells.items():
                cells[workload.campaign][key] = stats_digest(stats)
    payload = {
        "format": 1,
        "budget": list(budget),
        "engine": ENGINE,
        "cells": {c: dict(sorted(d.items())) for c, d in cells.items()},
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def native_compiler() -> ExtensionCompiler:
    """A compiler harness over the native kernel's source, for its identity."""
    import repro.uarch.engine.native as native

    return ExtensionCompiler(str(Path(native.__file__).with_name("_native.c")), "_native_replay")


def host_identity() -> dict:
    """Hardware and toolchain identity of this host (never its hostname)."""
    harness = native_compiler()
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = harness.compiler()
    cc_version = None
    if compiler:
        done = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        cc_version = (done.stdout.splitlines() or [""])[0]
    artifact = harness.artifact_path()
    digest = None
    if os.path.exists(artifact):
        digest = hashlib.sha256(Path(artifact).read_bytes()).hexdigest()[:16]
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "cc": cc_version,
        "native_artifact": os.path.relpath(artifact),
        "native_digest": digest,
    }

"""The replay-engine architecture: selection, equivalence, invariance.

The contract under test (see :mod:`repro.uarch.engine`):

* **Selection** — an explicit ``engine=`` wins, else
  ``REPRO_REPLAY_KERNEL``, else ``native`` when it loads, else
  ``scalar``; the default path never raises on a missing or broken
  toolchain.
* **Bit-identity** — the native kernel's statistics, and those of
  whatever kernel the default rule picks, are byte-identical to the
  scalar reference for all six techniques, at every trace window size
  including 1, across warm-up boundaries, and through the
  freeze-at-commit measure-span entry the shard stitcher uses.
* **Fingerprint neutrality** — the engine never changes result-cache
  keys: a grid simulated under one kernel is a pure cache hit under the
  other.
* **Guarded availability** — selecting the native kernel without a C
  toolchain fails with one clear error naming the install extra, not a
  raw build error from callsite depth.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import compile_program
from repro.harness import ParallelSuiteRunner, RunConfig
from repro.harness.cache import stats_to_dict
from repro.harness.experiment import SOFTWARE_TECHNIQUES, TECHNIQUES, make_policy
from repro.harness.parallel import SimulationJob
from repro.harness.shard import ShardJob, ShardSpan, run_sharded
from repro.uarch import available_engines, get_engine, resolve_engine_name, simulate
from repro.uarch.core import simulate_span
from repro.uarch.engine import base as engine_base
from repro.uarch.engine import native as native_module
from repro.uarch.engine.native import NativeUnavailableError
from repro.uarch.engine.scalar import OutOfOrderCore
from repro.workloads import build_benchmark

#: The native kernel needs a C toolchain; hosts without one skip its
#: equivalence matrix but still run the availability-guard tests.
needs_native = pytest.mark.skipif(
    not native_module.native_available(),
    reason=f"native kernel unavailable: {native_module.native_unavailable_reason()}",
)

BENCHMARK = "gzip"
BUDGET = 2_500
WARMUP = 400

_CONFIG = RunConfig(max_instructions=BUDGET, warmup_instructions=WARMUP)
_PROGRAMS: dict[str, object] = {}


def _program_for(technique: str):
    """The (possibly instrumented) program for ``technique``, memoised."""
    key = technique if technique in SOFTWARE_TECHNIQUES else "plain"
    program = _PROGRAMS.get(key)
    if program is None:
        if technique in SOFTWARE_TECHNIQUES:
            program = compile_program(
                build_benchmark(BENCHMARK),
                _CONFIG.compiler_config,
                mode=technique,
            ).instrumented_program
        else:
            program = build_benchmark(BENCHMARK)
        _PROGRAMS[key] = program
    return program


def _stats_bytes(stats) -> bytes:
    return json.dumps(stats_to_dict(stats), sort_keys=True).encode()


def _run(technique: str, engine: str | None, window: int, warmup: int = WARMUP):
    return simulate(
        _program_for(technique),
        make_policy(technique, _CONFIG),
        max_instructions=BUDGET,
        warmup_instructions=warmup,
        trace_window=window,
        engine=engine,
    )


_SPAN = dict(
    max_instructions=BUDGET,
    first_entry=0,
    last_entry=2_000,
    warmup_commits=300,
    measure_commits=700,
    trace_window=512,
)


def _span_bytes(technique: str, engine: str | None) -> bytes:
    return _stats_bytes(
        simulate_span(
            _program_for(technique),
            make_policy(technique, _CONFIG),
            engine=engine,
            **_SPAN,
        )
    )


@functools.lru_cache(maxsize=None)
def _scalar_bytes(technique: str, window: int, warmup: int = WARMUP) -> bytes:
    """The scalar reference, memoised: both equivalence classes compare
    against it, so each case simulates it once per session."""
    return _stats_bytes(_run(technique, "scalar", window, warmup=warmup))


@functools.lru_cache(maxsize=None)
def _scalar_span_bytes(technique: str) -> bytes:
    return _span_bytes(technique, "scalar")


@pytest.fixture()
def fresh_native_load(monkeypatch):
    """Forget this process's memoised native load, success or failure,
    for the duration of one test."""
    monkeypatch.setattr(native_module, "_MODULE", None)
    monkeypatch.setattr(native_module, "_FAILURE", None)


@pytest.fixture()
def no_toolchain(monkeypatch, fresh_native_load):
    """Simulate a host without a C compiler, whatever this one has."""
    monkeypatch.setattr(
        native_module._COMPILER,
        "unavailable_reason",
        lambda: "no C compiler (cc/gcc/$CC) on PATH",
    )


class TestEngineSelection:
    def test_all_kernels_are_registered(self):
        # Registration is unconditional; availability is a separate,
        # per-host question answered at build_core time.
        assert set(available_engines()) == {"scalar", "native"}

    @needs_native
    def test_default_is_native_when_it_loads(self, monkeypatch):
        monkeypatch.delenv(engine_base.ENGINE_ENV_VAR, raising=False)
        assert resolve_engine_name() == "native"

    def test_default_falls_back_to_scalar_without_a_toolchain(
        self, monkeypatch, no_toolchain
    ):
        monkeypatch.delenv(engine_base.ENGINE_ENV_VAR, raising=False)
        assert resolve_engine_name() == "scalar"
        assert get_engine().build_core([]).__class__ is OutOfOrderCore

    def test_default_falls_back_to_scalar_when_the_build_fails(
        self, monkeypatch, tmp_path, fresh_native_load
    ):
        """A *broken* toolchain (the load raises), not a missing one,
        must not raise from the default path either."""
        from repro.uarch.engine.build import ExtensionCompiler

        bad_source = tmp_path / "broken.c"
        bad_source.write_text("this is not C\n")
        monkeypatch.setattr(
            native_module,
            "_COMPILER",
            ExtensionCompiler(
                str(bad_source), "_native_replay", build_dir=str(tmp_path)
            ),
        )
        monkeypatch.delenv(engine_base.ENGINE_ENV_VAR, raising=False)
        assert resolve_engine_name() == "scalar"

    def test_a_failed_build_is_attempted_once_per_process(
        self, monkeypatch, tmp_path, fresh_native_load
    ):
        """Unpinned runs on a host whose compile fails must not re-run
        the failing compile on every resolve."""
        from repro.uarch.engine.build import ExtensionBuildError, ExtensionCompiler

        builds = []

        class FailingCompiler(ExtensionCompiler):
            def unavailable_reason(self):
                return None

            def build(self):
                builds.append(1)
                raise ExtensionBuildError("C compile failed")

        monkeypatch.setattr(
            native_module,
            "_COMPILER",
            FailingCompiler("broken.c", "_native_replay", build_dir=str(tmp_path)),
        )
        monkeypatch.delenv(engine_base.ENGINE_ENV_VAR, raising=False)
        assert resolve_engine_name() == "scalar"
        assert resolve_engine_name() == "scalar"
        assert len(builds) == 1

    def test_environment_supplies_the_default(self, monkeypatch):
        monkeypatch.setenv(engine_base.ENGINE_ENV_VAR, "native")
        assert resolve_engine_name() == "native"
        # An explicit argument still wins over the environment.
        assert resolve_engine_name("scalar") == "scalar"

    def test_environment_pin_outranks_native(self, monkeypatch):
        """An operator pin wins even where the native kernel loads."""
        monkeypatch.setenv(engine_base.ENGINE_ENV_VAR, "scalar")
        assert resolve_engine_name() == "scalar"

    def test_unknown_engine_fails_naming_the_choices(self, monkeypatch):
        with pytest.raises(ValueError, match="scalar"):
            resolve_engine_name("vector9000")
        monkeypatch.setenv(engine_base.ENGINE_ENV_VAR, "vector9000")
        with pytest.raises(ValueError, match="native"):
            resolve_engine_name()

    def test_unknown_engine_is_rejected_at_runner_construction(self):
        with pytest.raises(ValueError, match="vector9000"):
            ParallelSuiteRunner(_CONFIG, workers=1, engine="vector9000")

    def test_engine_instances_are_shared(self):
        assert get_engine("scalar") is get_engine("scalar")
        assert get_engine("scalar").build_core([]) .__class__ is OutOfOrderCore


class TestEngineEquivalence:
    """Scalar vs the default kernel (``engine=None``): whatever the
    selection rule picks on this host must be bit-identical to the
    reference, so an unpinned run never changes a figure.  On a native
    host this is the native matrix again, minus the scalar runs (the
    reference is memoised); on a host without a toolchain it is a smoke
    test of the fallback path."""

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("window", (1, 7, 4096))
    def test_bit_identical_across_techniques_and_windows(self, technique, window):
        """All six techniques × window sizes {1, 7, 4096} (4096 exceeds
        the budget, covering the monolithic single-window path)."""
        default = _run(technique, None, window)
        assert _scalar_bytes(technique, window) == _stats_bytes(default)

    @pytest.mark.parametrize("warmup", (0, 1, WARMUP, BUDGET // 2))
    def test_bit_identical_across_warmup_boundaries(self, warmup):
        """The warm-up clock rebase (completion events, ready cycles,
        fetch queue) must agree wherever the boundary falls."""
        default = _run("abella", None, 640, warmup=warmup)
        assert _scalar_bytes("abella", 640, warmup) == _stats_bytes(default)

    @pytest.mark.parametrize("technique", ("baseline", "abella", "improved"))
    def test_measure_span_freeze_is_bit_identical(self, technique):
        """The freeze-at-commit entry (``simulate_span``) the shard
        stitcher depends on: statistics frozen mid-commit must match."""
        assert _scalar_span_bytes(technique) == _span_bytes(technique, None)


@needs_native
class TestNativeEquivalence:
    """Scalar vs native (compiled C) bit-identity, plus the C loop's own
    boundary cases."""

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("window", (1, 7, 4096))
    def test_bit_identical_across_techniques_and_windows(self, technique, window):
        native = _run(technique, "native", window)
        assert _scalar_bytes(technique, window) == _stats_bytes(native)

    @pytest.mark.parametrize("warmup", (0, 1, WARMUP, BUDGET // 2))
    def test_bit_identical_across_warmup_boundaries(self, warmup):
        """The C kernel replaces the scalar rebase walk with an absolute
        clock and a base flip; every reported cycle and every in-flight
        event must still agree wherever the boundary falls."""
        native = _run("abella", "native", 640, warmup=warmup)
        assert _scalar_bytes("abella", 640, warmup) == _stats_bytes(native)

    @pytest.mark.parametrize("technique", ("baseline", "abella", "improved"))
    def test_measure_span_freeze_is_bit_identical(self, technique):
        assert _scalar_span_bytes(technique) == _span_bytes(technique, "native")

    def test_native_shard_stitch_matches_sequential(self):
        sequential = _run("abella", "native", 640)
        stitched = run_sharded(
            BENCHMARK,
            "abella",
            _CONFIG,
            span_entries=800,
            overlap="full",
            trace_window=640,
            engine="native",
        )
        assert _stats_bytes(stitched) == _stats_bytes(sequential)

    def test_empty_trace_runs(self):
        from repro.uarch.trace import DecodedTrace

        scalar = get_engine("scalar").run(DecodedTrace())
        native = get_engine("native").run(DecodedTrace())
        assert _stats_bytes(scalar) == _stats_bytes(native)

    def test_max_cycles_budget_is_respected(self):
        from repro.uarch.trace import get_decoded_trace

        trace = get_decoded_trace(_program_for("baseline"), 2_000)
        scalar = get_engine("scalar").run(trace, max_cycles=123)
        native = get_engine("native").run(trace, max_cycles=123)
        assert _stats_bytes(scalar) == _stats_bytes(native)


class TestFingerprintInvariance:
    """Engines are transport: cache keys must not see them."""

    def test_simulation_job_fingerprint_ignores_the_engine(self):
        jobs = [
            SimulationJob(BENCHMARK, "baseline", _CONFIG, engine=engine)
            for engine in (None, "scalar", "native")
        ]
        assert len({job.fingerprint() for job in jobs}) == 1

    def test_shard_job_fingerprint_ignores_the_engine(self):
        span = ShardSpan(
            index=0,
            start=0,
            stop=1_000,
            warm_start=0,
            feed_stop=1_500,
            warmup_commits=0,
            measure_commits=800,
        )
        jobs = [
            ShardJob(
                BENCHMARK,
                "baseline",
                _CONFIG,
                span,
                cell_fingerprint="cell",
                engine=engine,
            )
            for engine in (None, "scalar", "native")
        ]
        assert len({job.fingerprint() for job in jobs}) == 1

    @needs_native
    def test_grid_cached_under_scalar_is_pure_hit_under_native(self, tmp_path):
        """The ISSUE's acceptance criterion verbatim: a grid simulated
        and cached under the scalar kernel replays as a pure cache hit
        under the native one — zero simulations run."""
        config = RunConfig(
            max_instructions=1_500, warmup_instructions=200, benchmarks=(BENCHMARK,)
        )
        first = ParallelSuiteRunner(
            config, workers=1, cache_dir=str(tmp_path), engine="scalar"
        )
        first.run_suite(techniques=("baseline", "abella"))
        assert first.simulations_run == 2
        second = ParallelSuiteRunner(
            config, workers=1, cache_dir=str(tmp_path), engine="native"
        )
        results = second.run_suite(techniques=("baseline", "abella"))
        assert second.simulations_run == 0  # engine-invariant fingerprints
        assert set(results) == {(BENCHMARK, "baseline"), (BENCHMARK, "abella")}

    def test_grid_cached_under_one_kernel_is_hit_under_the_other(self, tmp_path):
        """The reverse direction: a grid cached under the default kernel
        is a pure hit under the scalar reference."""
        config = RunConfig(
            max_instructions=1_500, warmup_instructions=200, benchmarks=(BENCHMARK,)
        )
        first = ParallelSuiteRunner(config, workers=1, cache_dir=str(tmp_path))
        first.run_suite(techniques=("baseline", "abella"))
        assert first.simulations_run == 2
        second = ParallelSuiteRunner(
            config, workers=1, cache_dir=str(tmp_path), engine="scalar"
        )
        results = second.run_suite(techniques=("baseline", "abella"))
        assert second.simulations_run == 0  # engine-invariant fingerprints
        assert set(results) == {(BENCHMARK, "baseline"), (BENCHMARK, "abella")}


def test_import_repro_uarch_leaves_numpy_unloaded():
    """The scalar path is stdlib-only at runtime, not just by lint."""
    src_root = Path(next(iter(repro.__path__))).parent
    result = subprocess.run(
        [sys.executable, "-c", "import sys, repro.uarch; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src_root)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestNativeAvailabilityGuard:
    """The degraded path: no C toolchain must mean one named error."""

    def test_missing_toolchain_raises_a_clear_error(self, no_toolchain):
        assert not native_module.native_available()
        with pytest.raises(NativeUnavailableError) as excinfo:
            get_engine("native").build_core([])
        message = str(excinfo.value)
        assert "native" in message  # names the install extra
        assert "scalar" in message  # and the fallback kernel
        assert "C compiler" in message  # and the actual missing piece

    def test_simulate_surfaces_the_guard_not_a_build_error(self, no_toolchain):
        with pytest.raises(NativeUnavailableError):
            simulate(
                _program_for("baseline"),
                make_policy("baseline", _CONFIG),
                max_instructions=200,
                engine="native",
            )

    def test_compile_failure_is_wrapped_into_the_named_error(
        self, monkeypatch, tmp_path, fresh_native_load
    ):
        """A *broken* toolchain (compile error), not a missing one, must
        surface as the same named error — never a raw build traceback."""
        from repro.uarch.engine.build import ExtensionCompiler

        bad_source = tmp_path / "broken.c"
        bad_source.write_text("this is not C\n")
        compiler = ExtensionCompiler(str(bad_source), "_native_replay")
        monkeypatch.setattr(native_module, "_COMPILER", compiler)
        if compiler.unavailable_reason() is not None:
            pytest.skip("no toolchain on this host to fail the compile with")
        with pytest.raises(NativeUnavailableError, match="native"):
            native_module.load_native_module()


def test_artifact_digest_covers_the_compile_flags(monkeypatch, tmp_path):
    """A changed compile flag must never load a stale shared object."""
    from repro.uarch.engine import build

    compiler = build.ExtensionCompiler(
        native_module._COMPILER.source_path, "_native_replay", build_dir=str(tmp_path)
    )
    before = compiler.artifact_path()
    monkeypatch.setattr(build, "COMPILE_FLAGS", ("-O0", "-fPIC", "-shared"))
    assert compiler.artifact_path() != before

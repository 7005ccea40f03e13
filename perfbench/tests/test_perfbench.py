"""The benchmark's own tests, on a two-benchmark grid at a small budget."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from perfbench import run, suite, traced
from repro.uarch.engine import native_available

pytestmark = pytest.mark.skipif(
    not native_available(), reason="the benchmark runs the native replay kernel"
)

BUDGET = (3_000, 1_000)
BENCHMARKS = ("gzip", "mcf")
SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _restore_environment():
    """``run.main`` pins the library's environment knobs; undo that after."""
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> Path:
    """A reference recorded for the small grid (seed 0 inputs only)."""
    directory = tmp_path_factory.mktemp("reference")
    path = directory / "reference.json"
    suite.record_reference(directory, path=path, base=BENCHMARKS, budget=BUDGET, variants=1)
    return path


def _main(capsys, workload: str, trace: int, reference: Path) -> tuple[str, dict]:
    argv = [
        "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace),
        "--budget", ",".join(map(str, BUDGET)), "--benchmarks", ",".join(BENCHMARKS),
        "--reference", str(reference),
    ]
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


def _traced(name: str, scratch: Path) -> traced.TracedRun:
    scratch.mkdir(parents=True, exist_ok=True)
    workload = suite.Workload(name, BENCHMARKS, scratch, budget=BUDGET)
    workload.prepare_inputs()
    workload.warm_up()
    traced_run = traced.TracedRun(workload, scratch / "traced")
    traced_run.run()
    return traced_run


def _assert_reported(out: str, result: dict, metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    lines = out.splitlines()
    for metric in metrics:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
            for line in lines
        ), metric["name"]


def test_end_to_end_metrics_are_printed_with_units(capsys, reference):
    out, result = _main(capsys, "figures-cold", 0, reference)
    _assert_reported(out, result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(BENCHMARKS) * 6
    assert "failed_ratio" in out


def test_per_layer_metrics_are_printed_with_units(capsys, reference):
    out, result = _main(capsys, "sweep-retime", 1, reference)
    _assert_reported(out, result, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0


def test_corrupted_reference_digest_counts_as_failed(capsys, reference, tmp_path):
    payload = json.loads(reference.read_text())
    key = sorted(payload["cells"]["figures"])[0]
    payload["cells"]["figures"][key] = "0" * 20
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(payload))
    out, result = _main(capsys, "figures-warm", 0, corrupted)
    assert result["failed"] == 1 and not result["correct"]
    ratio = next(line for line in out.splitlines() if line.startswith("failed_ratio"))
    assert float(ratio.split()[1]) > 0


@pytest.mark.parametrize("name", suite.WORKLOADS)
def test_spans_nest_share_cell_ids_and_have_nonnegative_self_time(name, tmp_path):
    traced_run = _traced(name, tmp_path)
    spans = traced_run.recorder.spans
    assert traced_run.failures == 0
    assert spans[0].name == "bench.run" and spans[0].parent is None
    for span in spans[1:]:
        parent = spans[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end
        if parent.parent is not None:
            assert span.cell == parent.cell
    cells = {span.cell for span in spans if span.name == "repro.harness.cell"}
    assert cells == set(suite.Workload(name, BENCHMARKS, Path()).cells())
    assert min(traced_run.recorder.self_times()) >= -1e-9


def test_predicted_zero_counts_hold_exactly(tmp_path):
    sweep = traced.layer_metrics(_traced("sweep-retime", tmp_path / "sweep").recorder, 0.0)
    assert sweep["uarch.trace.emulations"] == 0
    assert sweep["core.compiles"] == 0
    assert sweep["uarch.trace.disk_hits"] > 0
    warm = traced.layer_metrics(_traced("figures-warm", tmp_path / "warm").recorder, 0.0)
    assert warm["uarch.engine.cycles"] == 0
    assert warm["uarch.trace.decode_windows"] == 0
    assert warm["core.compiles"] == len(BENCHMARKS) * 3


def test_nonzero_seed_regenerates_every_program():
    registered = set(suite.ALL_TRAITS)
    try:
        assert suite.suite_for_seed(0, BENCHMARKS) == BENCHMARKS
        names = suite.suite_for_seed(7, BENCHMARKS)
        assert names == suite.suite_for_seed(7, BENCHMARKS)
        for base, name in zip(BENCHMARKS, names):
            assert name != base and name.startswith(base + "~v")
            assert suite.ALL_TRAITS[name].seed != suite.ALL_TRAITS[base].seed
    finally:
        # The registry is process-wide: later tests must not see these names.
        for name in set(suite.ALL_TRAITS) - registered:
            del suite.ALL_TRAITS[name]

"""Figure 10: IPC loss for the Extension and Improved techniques."""

from figure_report import report
from repro.harness.figures import figure10


def test_figure10_ipc_loss_extensions(benchmark, runner):
    figure = benchmark.pedantic(figure10, args=(runner,), rounds=1, iterations=1)
    report(
        "Figure 10 - IPC loss, Extension & Improved (paper: 1.7% and <1.3%, "
        "both below NOOP's 2.2% and abella's 3.1%)",
        figure,
    )
    extension = figure.series["extension"]
    improved = figure.series["improved"]
    noop_avg = extension["noop"]
    # The paper's ordering: removing the NOOP overhead helps, and the
    # inter-procedural refinement helps further (or at least does not hurt).
    assert extension["SPECINT"] <= noop_avg + 0.5
    assert improved["SPECINT"] <= extension["SPECINT"] + 0.5
    # vortex is the showcase: its loss drops sharply once hints ride on
    # tags — at least halved against NOOP's vortex loss.
    noop_vortex = runner.metrics("vortex", "noop").ipc_loss_pct
    assert extension["vortex"] <= 0.5 * noop_vortex
    assert improved["vortex"] <= noop_avg + 2.0

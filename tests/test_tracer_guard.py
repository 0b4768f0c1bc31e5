"""The benchmark tracer still reads the kernel table and functions it wraps.

`perfbench/tracer.py` wraps the table entries `mc_step` and `gw_sizes` and
counts samples and trees from `len(args[0])`.  It also wraps
`dists.convolve`, naming each span direct or FFT by reading
`dists._DIRECT_CONV_OPS` at call time, and `dists.pgf_eval` and
`dists.log_pgf_eval`.  A change that renames an entry, one of these
functions or that constant, or moves the pool or the seeds from the first
argument would break only the traced benchmark, which the test suite does
not run; these tests run them under an installed tracer.
"""

from pathlib import Path

from drphase import dists, evolution
from drphase.dists import FinitePmf, ModelSpec, OffspringLaw
from drphase.montecarlo import ancestor_counts, init_population, mc_step

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counts_pool_samples_and_trees(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    law = OffspringLaw.finite_support({1: 0.5, 3: 0.5})
    model = ModelSpec(1, FinitePmf.from_dict({0: 0.5, 2: 0.5}), law)
    pop = init_population(model, 1500, 7)
    tracer = Tracer()
    tracer.install()
    try:
        stepped = mc_step(pop, model)
        sizes = ancestor_counts(law, 4, 25, 7)
    finally:
        tracer.uninstall()
    assert stepped.size == 1500 and len(sizes) == 25
    assert tracer.counts["kernels.mc_step.calls"] == 1
    assert tracer.counts["kernels.mc_step.samples"] == 1500
    assert tracer.counts["kernels.gw_sizes.calls"] == 1
    assert tracer.counts["kernels.gw_sizes.trees"] == 25
    # uninstalled: the table entries are the kernels again
    from drphase import kernels
    assert kernels.get_backend().mc_step is kernels._mc_step
    assert kernels.get_backend().gw_sizes is kernels._gw_sizes


def test_tracer_names_convolve_and_counts_pgf_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    model = ModelSpec(1, FinitePmf.from_dict({0: 0.5, 2: 0.5}),
                      OffspringLaw.deterministic(2))
    tracer = Tracer()
    tracer.install()
    try:
        stepped = evolution.step(model.x0, model)
        dists.pgf_eval(stepped, 1.5)
        dists.log_pgf_eval(stepped, 1.5)
    finally:
        tracer.uninstall()
    assert tracer.counts["evolution.step.calls"] == 1
    assert tracer.counts["dists.convolve.direct_calls"] >= 1
    assert tracer.counts["dists.convolve.fft_calls"] == 0
    assert tracer.counts["dists.pgf.calls"] == 1
    assert tracer.counts["dists.log_pgf.calls"] == 1

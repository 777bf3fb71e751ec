"""The traced benchmark run (perfbench/tracing.py) wraps gwldp functions by
module and name, and raises if one is gone: every such name must resolve,
and every hook must read what its function returns, so a rename, a move or
a reshaped return fails here and not only in a traced run."""

import importlib.util
from pathlib import Path

import pytest

from gwldp import montecarlo as mc
from gwldp import offspring, progeny, ratefn

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = load_tracing()
    wrapped = [(offspring, "pgf_exact")] + [
        (module, name) for module, names in tracing.LAYERS.values()
        for name in names]
    missing = [f"{module.__name__}.{name}" for module, name in wrapped
               if not callable(getattr(module, name, None))]
    assert not missing


def test_hooks_read_real_values():
    # each hook fed what its function returns (or, before a call, takes) on
    # a tiny input, so a reshaped return or signature fails here too
    tracing = load_tracing()
    tracer = tracing.Tracer()
    bern_spec = {"family": "bernoulli", "params": {"p": 0.5}}
    bern = offspring.pmf_from_spec(bern_spec)
    g13_spec = {"family": "explicit", "params": {"probs": [[1, 0.5], [3, 0.5]]}}
    scenario = mc.LdpScenario(f_spec=bern_spec, g_spec=g13_spec,
                              n_schedule=(2, 3), trials=5, master_seed=1)
    sums = mc._replicate_sums([(scenario, scenario.model(),
                                mc._PURPOSE_REPLICATE)])
    tracing._count_individuals(tracer, sums)
    assert tracer.individuals == sum(int(y.sum()) for _, y, _ in sums) > 0
    tracing._count_rows(tracer, progeny.total_progeny_pmf_dwass(bern, 10))
    assert tracer.dwass_rows == 10
    tracing._count_branch(tracer,
                          ratefn.legendre(ratefn.cgf_of_pmf(bern), 0.25))
    assert tracer.branches == {"interior": 1}
    args = tracing._count_golden_evals(tracer,
                                       (lambda z: (z - 1.5) ** 2, 1.0, 2.0))
    assert ratefn.golden_min(*args)[0] == pytest.approx(1.5)
    assert tracer.golden_evals > 0
    hooks = {name: hook for name, pair in tracing._HOOKS.items()
             for hook in pair if hook is not None}
    assert hooks == {
        "progeny.total_progeny_pmf_dwass": tracing._count_rows,
        "ratefn.golden_min": tracing._count_golden_evals,
        "ratefn.legendre": tracing._count_branch,
        "montecarlo._replicate_sums": tracing._count_individuals}

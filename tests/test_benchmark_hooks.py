"""The traced benchmark run (perfbench/tracing.py) wraps gwldp functions by
module and name, and raises if one is gone: every such name must resolve,
so a rename or a move fails here and not only in a traced run."""

import importlib.util
from pathlib import Path

from gwldp import offspring

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

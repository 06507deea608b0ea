"""The names the traced benchmark (perfbench/run.py) requires of ekd still
exist with the signatures it calls, checked in seconds instead of after a
traced run. The benchmark script is parsed, not imported."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _bench_constant(name: str):
    for node in ast.parse(BENCH_RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{BENCH_RUN} defines no {name}")


WORKLOADS = _bench_constant("WORKLOADS")
REQUIRED_LAYERS = _bench_constant("REQUIRED_LAYERS")
STAGE_KWARGS = _bench_constant("STAGE_KWARGS")


@pytest.mark.parametrize("layer", sorted({layer for groups in REQUIRED_LAYERS.values()
                                          for group in groups for layer in group}))
def test_required_layer_is_a_public_ekd_function(layer):
    module_name, func_name = layer.split(".")
    module = importlib.import_module(f"ekd.{module_name}")
    if layer == "lm.log10_prob":  # counted on the NgramLm method, not a module function
        assert inspect.isfunction(module.NgramLm.log10_prob)
        return
    func = getattr(module, func_name, None)
    assert not func_name.startswith("_")
    assert inspect.isfunction(func) and func.__module__ == module.__name__, (
        f"ekd.{module_name} defines no public function {func_name}")


@pytest.mark.parametrize("stage", sorted({stage for setup, timed in WORKLOADS.values()
                                          for stage in (*setup, *timed)}))
def test_benchmark_stage_call_binds(stage):
    from ekd import pipeline

    fn = getattr(pipeline, "stage_" + stage.replace("-", "_"))
    kwargs = {"force": False, **STAGE_KWARGS.get(stage, {})}
    inspect.signature(fn).bind("config", "seed", "paths", **kwargs)

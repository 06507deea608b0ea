"""The names the traced benchmark (perfbench/run.py) requires of ekd still
exist with the signatures it calls, and the arguments its span hooks
(perfbench/spans.py) read by position are still the parameters they mean,
checked in seconds instead of after a traced run. The benchmark files are
parsed, not imported, except by the one test that runs the eval_stages
timed part under the benchmark's own tracer."""
import ast
import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

BENCH_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
BENCH_SPANS = BENCH_RUN.parent / "spans.py"


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


def _args_positions(node) -> set[int]:
    """The constant indices ``i`` of every ``args[i]`` under ``node``."""
    return {n.slice.value for n in ast.walk(node)
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
            and n.value.id == "args" and isinstance(n.slice, ast.Constant)}


def _span_argument_reads() -> dict[str, dict[int, str | None]]:
    """Span name -> {position in ``args`` a hook reads: the keyword the same
    value is looked up by first, or None}. The counter hooks come from the
    ``_COUNT_HOOKS`` table, the keyword lookups from ``_variant``."""
    tree = ast.parse(BENCH_SPANS.read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    hooks = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_COUNT_HOOKS" for t in n.targets))
    reads: dict[str, dict[int, str | None]] = defaultdict(dict)
    for span, entry in zip(hooks.keys, hooks.values):
        for pos in _args_positions(defs[entry.elts[0].id]):
            reads[span.value][pos] = None
    for branch in ast.walk(defs["_variant"]):
        if not (isinstance(branch, ast.If) and isinstance(branch.test, ast.Compare)):
            continue
        span = branch.test.comparators[0].value
        for call in (n for stmt in branch.body for n in ast.walk(stmt)):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "get" and call.func.value.id == "kwargs"):
                for pos in _args_positions(call.args[1]):
                    reads[span][pos] = call.args[0].value
    return reads


SPAN_ARGUMENT_READS = _span_argument_reads()

# The parameter each position read by perfbench/spans.py stands for.
# ctc.ctc_loss's first argument is counted as one [T, z] utterance.
SPAN_PARAMETERS = {
    "ctc.ctc_loss": {0: "log_probs", 1: "target"},
    "model.forward_features": {1: "features", 2: "with_cache"},
    "beam.beam_decode": {0: "posteriors", 1: "lm"},
    "binio.write_container": {0: "path"},
    "binio.read_container": {0: "path"},
    "selection.save_posteriors": {0: "path"},
    "selection.save_selection": {0: "path"},
}


@pytest.mark.parametrize("span", sorted(SPAN_ARGUMENT_READS.keys() | SPAN_PARAMETERS.keys()))
def test_span_hook_reads_the_parameter_it_means(span):
    reads, names = SPAN_ARGUMENT_READS.get(span, {}), SPAN_PARAMETERS.get(span, {})
    assert reads.keys() == names.keys(), (
        f"{BENCH_SPANS.name} reads args {sorted(reads)} of {span}; this test names {sorted(names)}")
    module_name, func_name = span.split(".")
    func = getattr(importlib.import_module(f"ekd.{module_name}"), func_name)
    params = list(inspect.signature(func).parameters.values())
    for pos, name in names.items():
        assert pos < len(params) and params[pos].name == name, (
            f"ekd.{span} argument {pos} is no longer {name!r}")
        assert params[pos].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert reads[pos] in (None, name), f"{BENCH_SPANS.name} looks up {reads[pos]!r}"


@pytest.fixture(scope="module")
def eval_setup(tmp_path_factory):
    """(config, seed, paths) of a compact run after the eval_stages set-up."""
    from conftest import compact_config
    from ekd import pipeline

    root = tmp_path_factory.mktemp("eval_setup")
    cfg = compact_config(str(root))
    seed = cfg.seeds[0]
    paths = pipeline.SeedPaths(root, seed)
    for stage in WORKLOADS["eval_stages"][0]:
        pipeline.run_stage(stage, cfg, seed, paths)
    return cfg, seed, paths


def test_evaluate_passes_beam_decode_what_the_span_hooks_read(eval_setup, monkeypatch):
    # spans._beam_counts adds np.shape(args[0])[0] per beam.beam_decode call
    # and _variant splits the calls by args[1]: each call must get one
    # posterior per utterance it decodes, and the LM or None, by position.
    from ekd import pipeline
    from ekd.lm import NgramLm

    cfg, seed, paths = eval_setup
    real, calls = pipeline.beam_decode, []

    def recording(*args, **kwargs):
        words = real(*args, **kwargs)
        calls.append((args, kwargs, len(words)))
        return words

    monkeypatch.setattr(pipeline, "beam_decode", recording)
    pipeline.stage_evaluate(cfg, seed, paths, **STAGE_KWARGS["evaluate"])
    # Every model's test sets are decoded with the LM in one call; without
    # the LM, evaluate decodes greedily and calls no beam search.
    [(args, kwargs, n_utts)] = calls
    assert not kwargs and len(args) == 4
    assert np.shape(args[0])[0] == n_utts
    assert isinstance(args[1], NgramLm)
    assert n_utts == (len(cfg.teacher_domains) * sum(r.test_size for r in cfg.all_domains())
                      + len(cfg.strategies) * cfg.student_domain.test_size)


def test_eval_stages_call_every_required_layer(eval_setup):
    # A traced eval_stages run fails when its tracer (perfbench/spans.py)
    # records no call of a REQUIRED_LAYERS entry; the same tracer watches the
    # same timed stages here, on the compact run.
    from ekd import pipeline

    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    cfg, seed, paths = eval_setup
    tracer = spans.Tracer()
    tracer.install()
    try:
        for stage in WORKLOADS["eval_stages"][1]:
            fn = getattr(pipeline, "stage_" + stage.replace("-", "_"))
            fn(cfg, seed, paths, **STAGE_KWARGS.get(stage, {}))
    finally:
        tracer.uninstall()
    required, probe_only = REQUIRED_LAYERS["eval_stages"]
    assert required and not probe_only
    assert [layer for layer in required if not spans.called(tracer, layer)] == []


def test_report_api_the_benchmark_checks_outputs_with(eval_setup):
    # run.check_outputs and run.elitist_wer read the eval_stages results.tsv
    # through these names of ekd.report.
    from ekd import pipeline
    from ekd.report import ResultTable

    cfg, seed, paths = eval_setup
    for stage in WORKLOADS["eval_stages"][1]:
        fn = getattr(pipeline, "stage_" + stage.replace("-", "_"))
        fn(cfg, seed, paths, **STAGE_KWARGS.get(stage, {}))
    table = ResultTable.from_tsv((paths.report / "results.tsv").read_text())
    assert len(table.cells) == 2 * (len(cfg.teacher_domains) * len(cfg.all_domains())
                                    + len(cfg.strategies))
    keys = table.ordered_keys()
    assert len(keys) == len(table.cells)
    for key in keys:
        cell = table.cells[key]
        assert cell.status == "ok" and cell.breakdown is not None
        assert table.get(key.test_set, key.model, key.lm_on) is cell
    test_set = f"{cfg.student_domain.name}_test"
    assert "elitist" in cfg.strategies and len(cfg.strategies) > 1
    for strategy in cfg.strategies:
        wer = table.get(test_set, f"student_{strategy}", True).breakdown.wer
        assert isinstance(wer, float) and wer >= 0.0

"""In-memory span tracing of the ekd modules, applied from outside the package.

``Tracer.install`` wraps every public function of every ``ekd`` module (plus
``NgramLm.log10_prob``) and rebinds the wrapper at every place the original
is reachable: the defining module, every module that did ``from .x import f``
and module-level dicts that store the function. ``Tracer.uninstall`` puts the
originals back. Each call records a span (name, start, end, parent); the
LM query, made hundreds of thousands of times per seed, is kept as aggregate
counters instead. ``layer_metrics`` turns the spans into per-layer values,
of which the harness reports those BENCHMARK.json lists.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import defaultdict

import numpy as np

# Functions the harness itself times as pipeline stages.
_HARNESS_TIMED = {"ekd.pipeline": {"stage_gen_data", "stage_train_teacher", "stage_decode",
                                   "stage_select", "stage_train_student", "stage_evaluate",
                                   "stage_svcca", "stage_report", "run_seed", "run_pipeline"}}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _frames(x) -> int:
    arr = getattr(x, "probs", x)
    return int(np.shape(arr)[0])


def _ctc_counts(args, _kwargs, _result, stats):
    log_probs, target = args[0], args[1]
    T = _frames(log_probs)
    stats["frames"] += T
    stats["cells"] += T * (2 * int(np.size(target)) + 1)


def _forward_counts(args, _kwargs, _result, stats):
    stats["frames"] += _frames(args[1])


def _kd_counts(_args, _kwargs, result, stats):
    stats["skipped"] += result is None


def _beam_counts(args, _kwargs, _result, stats):
    stats["frames"] += _frames(args[0])


def _file_bytes(args, _kwargs, _result, stats):
    stats["bytes"] += _file_size(args[0])


# Per-call counters, keyed by span name: the hook and the counters it
# keeps. Each hook gets the call's positional and keyword arguments, its
# result and the span's counter dict.
_COUNT_HOOKS = {
    "ctc.ctc_loss": (_ctc_counts, ("frames", "cells")),
    "model.forward_features": (_forward_counts, ("frames",)),
    "kd.soft_ctc_kd_loss": (_kd_counts, ("skipped",)),
    "beam.beam_decode": (_beam_counts, ("frames",)),
    "binio.write_container": (_file_bytes, ("bytes",)),
    "binio.read_container": (_file_bytes, ("bytes",)),
    "selection.save_posteriors": (_file_bytes, ("bytes",)),
    "selection.save_selection": (_file_bytes, ("bytes",)),
}
# Spans that ``_variant`` splits by an argument: function -> name suffixes.
_VARIANTS = {"model.forward_features": ("train", "infer"),
             "beam.beam_decode": ("lm_on", "lm_off")}


def _variant(name: str, args, kwargs) -> str:
    """Spans that the metrics split by an argument get a suffixed name."""
    if name == "model.forward_features":
        with_cache = kwargs.get("with_cache", args[2] if len(args) > 2 else False)
        return name + (".train" if with_cache else ".infer")
    if name == "beam.beam_decode":
        lm = kwargs.get("lm", args[1] if len(args) > 1 else None)
        return name + (".lm_on" if lm is not None else ".lm_off")
    return name


class Tracer:
    """Spans are ``[name, start, end, parent_index, child_seconds]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.lm_calls = 0
        self.lm_seconds = 0.0
        self.lm_repeats = 0
        self._lm_seen: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []   # span name of every wrapped function

    # -- spans ----------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, name: str, fn):
        hook = _COUNT_HOOKS.get(name, (None,))[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(_variant(name, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                hook(args, kwargs, result, self.stats[name])
            return result

        return traced

    def _wrap_lm_query(self, fn):
        @functools.wraps(fn)
        def traced(lm, word, context=()):
            start = time.perf_counter()
            result = fn(lm, word, context)
            elapsed = time.perf_counter() - start
            self.lm_calls += 1
            self.lm_seconds += elapsed
            if self._stack:
                self.spans[self._stack[-1]][4] += elapsed
            key = (word, tuple(context))
            if key in self._lm_seen:
                self.lm_repeats += 1
            else:
                self._lm_seen.add(key)
            return result

        return traced

    def _set(self, owner, key, value) -> None:
        """Rebind ``owner.key`` (or ``owner[key]`` for a dict), remembering the old value."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every public ekd function at every module-level binding."""
        import ekd

        modules = [importlib.import_module(f"ekd.{info.name}")
                   for info in pkgutil.iter_modules(ekd.__path__)]
        wrappers = {}   # original function -> wrapper
        for module in modules:
            short = module.__name__.split(".", 1)[1]
            skip = _HARNESS_TIMED.get(module.__name__, set())
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in skip):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                    self.names.append(f"{short}.{attr}")

        def wrapped(obj) -> bool:
            return inspect.isfunction(obj) and obj in wrappers

        for namespace in [ekd, *modules]:
            for attr, obj in list(vars(namespace).items()):
                if wrapped(obj):
                    self._set(namespace, attr, wrappers[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if wrapped(value):
                            self._set(obj, key, wrappers[value])
        lm_cls = importlib.import_module("ekd.lm").NgramLm
        self._set(lm_cls, "log10_prob", self._wrap_lm_query(lm_cls.log10_prob))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, _parent, child in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _c in self.spans if n == name]

    def write_tsv(self, path) -> None:
        with open(path, "w") as f:
            f.write("index\tname\tstart_s\tend_s\tparent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, _c) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer value of one traced run, in wall seconds: ``.calls``,
    ``.s`` and ``.self_s`` of every wrapped function (split variants are also
    summed into their function), each hook counter as ``<span>.<counter>``,
    and a few derived values. The ``pipeline.*`` stage times and the run-level
    values are the harness's."""
    totals = tracer.totals()
    values: dict[str, float] = {}
    for name in tracer.names:
        variants = [f"{name}.{v}" for v in _VARIANTS.get(name, ())]
        for span, parts in ((name, [name, *variants]), *((v, [v]) for v in variants)):
            for stat in ("calls", "s", "self_s"):
                values[f"{span}.{stat}"] = sum(totals.get(p, {}).get(stat, 0.0) for p in parts)
    for name, (_hook, counters) in _COUNT_HOOKS.items():
        for counter in counters:
            values[f"{name}.{counter}"] = tracer.stats[name][counter]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kd_calls = values["kd.soft_ctc_kd_loss.calls"]
    values["kd.soft_ctc_kd_loss.skipped"] = ratio(values["kd.soft_ctc_kd_loss.skipped"], kd_calls)
    beam_ms = [1e3 * d for d in tracer.durations("beam.beam_decode.lm_on")
               + tracer.durations("beam.beam_decode.lm_off")]
    for q in (50, 99):
        values[f"beam.beam_decode.ms_p{q}"] = float(np.percentile(beam_ms, q)) if beam_ms else 0.0
    values["lm.log10_prob.calls"] = tracer.lm_calls
    values["lm.log10_prob.s"] = tracer.lm_seconds
    values["lm.log10_prob.repeat_frac"] = ratio(tracer.lm_repeats, tracer.lm_calls)
    return values


def called(tracer: Tracer, layer: str) -> bool:
    """Whether any span (or the LM counter) of ``<module>.<function>`` ran."""
    if layer == "lm.log10_prob":
        return tracer.lm_calls > 0
    return any(name == layer or name.startswith(layer + ".") for name, *_ in tracer.spans)

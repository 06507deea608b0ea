#!/usr/bin/env python3
"""Benchmark one seed of the ekd pipeline, end to end and per module.

    python3 perfbench/run.py --workload train_stages --seed 11 --seconds 10 --trace 0

Run it from the repository root. It imports ``ekd`` from ``src/`` and drives
it only through the ``ekd.pipeline.stage_*`` functions, for the default
config restricted to the seed given by ``--seed``. Each workload is a closed
loop: one caller runs the stages in order, each after the previous one returns.

* ``train_stages``: set-up runs ``gen-data``; the timed part runs
  ``train-teacher``, ``decode``, ``select``, ``train-student`` and ``svcca``
  in an otherwise empty run directory.
* ``eval_stages``: set-up builds the seed up to ``train-student``; the timed
  part runs ``evaluate`` (LM on and off, forced) and ``report``.

Set-up runs in this process. The timed part runs in a child process, a
fresh interpreter that imports ekd and reads the set-up artifacts, so that
its peak RSS covers the timed part only. There the timed part repeats until
``--seconds`` have passed (at least once; with the default 10 s, once) and
the medians over repetitions are reported. Times are reference seconds
(see hostspeed.py): wall time corrected for how fast the shared host ran
meanwhile. ``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs
the same untraced repetitions, then one more with every public ekd function
wrapped in a span, and prints the per-layer metrics. Every run checks the
outputs; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` and the full record, with
the environment, goes to ``.perfbench_results/``.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".perfbench_runs"
RESULTS_DIR = ROOT / ".perfbench_results"
DEFAULT_SEED = 11

# workload -> (set-up stages, timed stages)
WORKLOADS = {
    "train_stages": (("gen-data",),
                     ("train-teacher", "decode", "select", "train-student", "svcca")),
    "eval_stages": (("gen-data", "train-teacher", "decode", "select", "train-student"),
                    ("evaluate", "report")),
}
# Set-up repetitions per run; the median is reported. eval_stages trains
# every model in set-up, which is too long to repeat.
SETUP_REPEATS = {"train_stages": 3, "eval_stages": 1}
STAGE_KWARGS = {"evaluate": {"lm_mode": "both", "force": True}}
# Files of the timed part whose bytes are pinned by digests.json.
DIGEST_FILES = {"train_stages": ("svcca/layer_diffs.tsv",),
                "eval_stages": ("report/results.tsv", "report/win_counts.txt")}
# Layers the traced run must see called: (always, only when the teacher probe runs).
REQUIRED_LAYERS = {
    "train_stages": (("ctc.ctc_loss", "kd.soft_ctc_kd_loss", "model.forward_features",
                      "model.backward_features", "model.save_checkpoint",
                      "model.load_checkpoint", "training.train_teacher",
                      "training.train_student", "training.corpus_posteriors",
                      "training.dump_activations", "selection.select_corpus",
                      "selection.save_posteriors", "selection.load_posteriors",
                      "selection.save_selection", "selection.load_selection",
                      "svcca.correlation_trajectory", "svcca.svcca", "corpus.load_corpus",
                      "binio.write_container", "binio.read_container",
                      "binio.atomic_write_text"),
                     ("training.greedy_corpus_wer", "corpus.generate_corpus", "wer.wer")),
    "eval_stages": (("beam.beam_decode", "lm.load_arpa", "lm.log10_prob", "wer.wer",
                     "model.forward_features", "model.load_checkpoint",
                     "training.corpus_posteriors", "corpus.load_corpus",
                     "selection.load_selection", "binio.read_container",
                     "binio.atomic_write_text"), ()),
}


def import_ekd() -> None:
    """Import ekd from this checkout's sources, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ekd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ekd sources under {src}")
    sys.path.insert(0, str(src))
    import ekd
    if Path(ekd.__file__).resolve().parent != (src / "ekd").resolve():
        sys.exit(f"perfbench: imported ekd from {ekd.__file__}, not from {src}")


def make_config(seed: int, mini: bool):
    """default_config() restricted to one seed (or, with ``mini``, a miniature
    of it), validated."""
    from ekd.config import default_config

    cfg = mini_config() if mini else default_config()
    cfg.seeds = [seed]
    cfg.validate_ood()
    return cfg


def mini_config():
    """The compact pipeline config of the test suite: seconds, not minutes."""
    import dataclasses

    from ekd.beam import BeamConfig
    from ekd.config import SvccaSettings, default_config
    from ekd.model import ModelConfig
    from ekd.training import TrainConfig

    cfg = default_config()
    cfg.teacher_domains = [dataclasses.replace(r, train_size=24, test_size=8)
                           for r in cfg.teacher_domains]
    cfg.student_domain = dataclasses.replace(cfg.student_domain, train_size=30, test_size=10)
    cfg.model = ModelConfig(context_window=1, hidden_sizes=(16, 12), activation="tanh", seed=0)
    cfg.train = TrainConfig(epochs=4, batch_size=8, learning_rate=3e-3, optimizer="adam",
                            gradient_clip=5.0, seed=0, eval_every=2)
    cfg.student_train = cfg.train
    cfg.beam = BeamConfig(beam_width=6, lm_weight=0.4, word_insertion_bonus=0.5)
    cfg.svcca = SvccaSettings(n_frames=160, variance_fraction=0.99, sample_seed=2024)
    cfg.probe_wer_threshold = None
    return cfg


def config_digest(cfg) -> str:
    import yaml

    return hashlib.sha256(yaml.safe_dump(cfg.to_dict(), sort_keys=True).encode()).hexdigest()


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def snapshot(base: Path, subdirs=None) -> dict[str, str]:
    """sha256 of every file under ``base`` (or under the given subdirs)."""
    roots = [base / d for d in subdirs] if subdirs else [base]
    out = {}
    for root in roots:
        for path in sorted(root.rglob("*")):
            if path.is_file():
                out[path.relative_to(base).as_posix()] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return out


def blas_threads():
    """The thread count OpenBLAS uses in this process, read from the library
    NumPy loaded; None if that library exposes no such query."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return getattr(handle, symbol)()
    return None


def environment(args, cfg) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    threads = {k: os.environ.get(k, "unset") for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name", "unknown"),
        "thread_env": threads,
        "blas_threads_in_effect": blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "config": "mini" if args.mini else "default",
        "config_digest": config_digest(cfg),
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Run:
    """Stage calls and output checks of one benchmark run, with their failures."""

    def __init__(self, seed: int, mini: bool, speed: HostSpeed):
        self.seed = seed
        self.mini = mini
        self.speed = speed
        self.cfg = None
        self.attempted = 0
        self.failures: list[str] = []
        self.stage_s: dict[str, list[float]] = defaultdict(list)   # reference seconds
        self.tracer = None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def stage(self, name: str, paths) -> bool:
        """One stage call, timed by the harness; False if it raised."""
        from ekd import corpus, pipeline

        fn = getattr(pipeline, "stage_" + name.replace("-", "_"))
        reads = corpus.transcript_read_count()
        span = (self.tracer.span(f"pipeline.{name}") if self.tracer is not None
                else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with span:
                fn(self.cfg, self.seed, paths, **STAGE_KWARGS.get(name, {}))
        except Exception:
            traceback.print_exc()
            return self.check(False, f"stage {name} raised")
        if self.tracer is None:
            self.stage_s[name].append(self.speed.reference_seconds(start, time.perf_counter()))
        self.attempted += 1
        if name == "train-student":
            delta = corpus.transcript_read_count() - reads
            self.check(delta == 0, f"train-student read {delta} transcripts")
        return True


def set_up(run: Run, workload: str, work_dir: Path):
    """Config validation plus the set-up stages, repeated; returns the first
    set-up's SeedPaths and the median set-up time in reference seconds."""
    from ekd.pipeline import SeedPaths

    first, times = None, []
    for i in range(SETUP_REPEATS[workload]):
        start = time.perf_counter()
        run.cfg = make_config(run.seed, run.mini)
        paths = SeedPaths(work_dir / f"setup_{i}", run.seed)
        paths.ensure()
        for name in WORKLOADS[workload][0]:
            if not run.stage(name, paths):
                return None, 0.0
        times.append(run.speed.reference_seconds(start, time.perf_counter()))
        first = first or paths
    return first, statistics.median(times)


def fresh_paths(setup_paths, work_dir: Path, rep: int):
    """An empty run directory holding only the gen-data artifacts."""
    from ekd.pipeline import SeedPaths

    paths = SeedPaths(work_dir / f"rep_{rep}", setup_paths.seed)
    paths.ensure()
    for d in ("corpora", "lm"):
        shutil.rmtree(getattr(paths, d))
        shutil.copytree(getattr(setup_paths, d), getattr(paths, d))
    return paths


def timed_rep(run: Run, workload: str, setup_paths, work_dir: Path, rep: int) -> dict:
    """One repetition of the timed part; returns its times and output digests."""
    if workload == "train_stages":
        paths = fresh_paths(setup_paths, work_dir, rep)
        outputs = None
    else:
        paths = setup_paths
        outputs = ("eval", "report")
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    ok = all(run.stage(name, paths) for name in WORKLOADS[workload][1])
    wall1, cpu = time.perf_counter(), cpu_seconds() - cpu0
    wall_ref = run.speed.reference_seconds(wall0, wall1)
    rep_record = {"wall_s": wall1 - wall0, "wall_ref_s": wall_ref, "cpu_s": cpu,
                  "cpu_ref_s": cpu * wall_ref / (wall1 - wall0),
                  "kernel_ms": run.speed.kernel_ms(wall0, wall1),
                  "ok": ok, "files": {}, "elitist": (0.0, 0.0)}
    if ok:
        rep_record["files"] = snapshot(paths.base, outputs)
        check_outputs(run, workload, paths, rep_record)
    if workload == "train_stages":
        shutil.rmtree(paths.base.parent)
    return rep_record


def check_outputs(run: Run, workload: str, paths, rep_record: dict) -> None:
    if workload == "eval_stages":
        from ekd.report import ResultTable

        table = ResultTable.from_tsv((paths.report / "results.tsv").read_text())
        cfg = run.cfg
        expected = 2 * (len(cfg.teacher_domains) * len(cfg.all_domains()) + len(cfg.strategies))
        run.check(len(table.cells) == expected,
                  f"results.tsv has {len(table.cells)} cells, expected {expected}")
        for key in table.ordered_keys():
            cell = table.cells[key]
            run.check(cell.status == "ok" and cell.breakdown is not None,
                      f"evaluate cell {key.model}/{key.test_set}/lm_{key.lm_on}: {cell.status}")
        rep_record["elitist"] = elitist_wer(table, cfg)
    else:
        text = (paths.svcca / "layer_diffs.tsv").read_text().splitlines()[1:]
        values = [float(line.split("\t")[1]) for line in text]
        run.check(len(values) == len(run.cfg.model.hidden_sizes)
                  and all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values),
                  f"svcca/layer_diffs.tsv values {values}")
    digests = {} if run.mini else json.loads(
        (BENCH_DIR / "digests.json").read_text()).get(str(run.seed), {})
    for name in DIGEST_FILES[workload]:
        if name in digests:
            got = rep_record["files"].get(name)
            run.check(got == digests[name], f"{name} digest {got} != recorded {digests[name]}")


def elitist_wer(table, cfg) -> tuple[float, float]:
    """(elitist student WER %, best baseline student WER % minus it), LM on."""
    test_set = f"{cfg.student_domain.name}_test"
    wers = {s: 100.0 * table.get(test_set, f"student_{s}", True).breakdown.wer
            for s in cfg.strategies}
    elitist = wers.pop("elitist")
    return elitist, min(wers.values()) - elitist


def timed_reps(run: Run, workload: str, setup_paths, work_dir: Path,
               seconds: float) -> list[dict]:
    """Untraced repetitions until ``seconds`` have passed (at least one)."""
    reps: list[dict] = []
    start = time.perf_counter()
    while not reps or (time.perf_counter() - start < seconds and not run.failures):
        reps.append(timed_rep(run, workload, setup_paths, work_dir, len(reps)))
    for i, rep in enumerate(reps[1:], 1):
        run.check(rep["files"] == reps[0]["files"],
                  f"repetition {i} outputs differ from repetition 0")
    return reps


def traced_rep(run: Run, workload: str, setup_paths, work_dir: Path, reference: dict,
               rep_index: int) -> tuple[dict, object]:
    """One repetition with every public ekd function traced, checked against
    an untraced repetition and for the layers the workload must call."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    run.tracer = tracer
    try:
        rep = timed_rep(run, workload, setup_paths, work_dir, rep_index)
    finally:
        run.tracer = None
        tracer.uninstall()
    run.check(rep["files"] == reference["files"],
              "traced outputs differ from untraced outputs")
    required, probe_only = REQUIRED_LAYERS[workload]
    if run.cfg.probe_wer_threshold is not None:
        required = required + probe_only
    for layer in required:
        run.check(spans.called(tracer, layer), f"traced run recorded no call of {layer}")
    return rep, tracer


def benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


REP_KEYS = ("wall_s", "wall_ref_s", "cpu_s", "cpu_ref_s", "kernel_ms", "elitist")


def run_timed_part(run: Run, args, setup_root: Path, work_dir: Path,
                   spans_tsv: Path) -> dict | None:
    """Run the timed part in a child interpreter; merge its stage times and
    checks into ``run`` and return its record (None if it did not finish)."""
    spec = {"workload": args.workload, "seed": args.seed, "mini": args.mini,
            "seconds": args.seconds, "trace": args.trace, "setup_root": str(setup_root),
            "work_dir": str(work_dir), "spans_tsv": str(spans_tsv),
            "out": str(work_dir / "timed_part.json"), "parent_pid": os.getpid()}
    spec_path = work_dir / "timed_part_spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--timed-part",
                           str(spec_path)], cwd=ROOT)
    out = Path(spec["out"])
    if not run.check(proc.returncode == 0 and out.is_file(),
                     f"timed part exited with code {proc.returncode}"):
        return None
    part = json.loads(out.read_text())
    run.attempted += part["attempted"]
    run.failures += part["failures"]
    for name, times in part["stage_s"].items():
        run.stage_s[name] += times
    return part


def die_with_parent(parent_pid: int) -> None:
    """Have Linux kill this process when the benchmark process that started
    it dies, so that no timed part outlives an interrupted run."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)   # PR_SET_PDEATHSIG
    if os.getppid() != parent_pid:
        os._exit(1)


def timed_part_main(spec_path: Path) -> int:
    """The child process: untraced repetitions of the timed part, their peak
    RSS, then (with --trace 1) one traced repetition; writes its record."""
    spec = json.loads(spec_path.read_text())
    die_with_parent(spec["parent_pid"])
    speed = HostSpeed()
    speed.start()
    try:
        import_ekd()
        from ekd.pipeline import SeedPaths

        run = Run(spec["seed"], spec["mini"], speed)
        run.cfg = make_config(run.seed, run.mini)
        setup_paths = SeedPaths(Path(spec["setup_root"]), run.seed)
        work_dir, workload = Path(spec["work_dir"]), spec["workload"]
        reps = timed_reps(run, workload, setup_paths, work_dir, spec["seconds"])
        rss = peak_rss_mb()
        traced = layers = None
        if spec["trace"] and not run.failures:
            from spans import layer_metrics

            traced, tracer = traced_rep(run, workload, setup_paths, work_dir, reps[0],
                                        len(reps))
            layers = layer_metrics(tracer)
            tracer.write_tsv(spec["spans_tsv"])
    finally:
        speed.stop()
    record = {"attempted": run.attempted, "failures": run.failures,
              "stage_s": dict(run.stage_s), "peak_rss_mb": rss,
              "reps": [{k: r[k] for k in REP_KEYS} for r in reps],
              "traced": traced and {k: traced[k] for k in REP_KEYS},
              "layers": layers,
              "host_samples": len(speed.samples), "host_samples_rejected": speed.rejected}
    Path(spec["out"]).write_text(json.dumps(record))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mini", action="store_true",
                        help="miniature config (smoke test); no digest check")
    args = parser.parse_args(argv)

    speed = HostSpeed()
    speed.start()
    work_dir = None
    part = None
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-mini' if args.mini else ''}"
    try:
        import_ekd()
        end_to_end, per_layer = benchmark_metrics()
        import_s = speed.reference_seconds(T_START, time.perf_counter())
        run = Run(args.seed, args.mini, speed)
        RUNS_DIR.mkdir(exist_ok=True)
        RESULTS_DIR.mkdir(exist_ok=True)
        work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
        setup_paths, setup_s = set_up(run, args.workload, work_dir)
        # The timed part samples the host itself; this process only waits.
        speed.stop()
        if setup_paths is not None:
            part = run_timed_part(run, args, setup_paths.base.parent, work_dir,
                                  RESULTS_DIR / f"{tag}.spans.tsv")
    finally:
        speed.stop()
        if work_dir is not None:
            shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {}
    reps = part["reps"] if part else []
    if reps and not run.failures:
        wall_ref = statistics.median(r["wall_ref_s"] for r in reps)
        values = {
            "wall_ref_s": wall_ref,
            "cpu_ref_s": statistics.median(r["cpu_ref_s"] for r in reps),
            "setup_s": import_s + setup_s,
            "peak_rss_mb": part["peak_rss_mb"],
        }
        if args.trace:
            from ekd.pipeline import STAGES

            # Span times are wall times of the traced repetition; convert
            # them to reference seconds with that repetition's host speed.
            traced = part["traced"]
            scale = traced["wall_ref_s"] / traced["wall_s"]
            units = {m["name"]: m["unit"] for m in per_layer}
            values = {name: value * scale if units.get(name) in ("s", "ms") else value
                      for name, value in part["layers"].items()}
            for name in STAGES:
                times = run.stage_s.get(name)
                values[f"pipeline.{name}.s"] = statistics.median(times) if times else 0.0
            values["trace.overhead_s"] = traced["wall_ref_s"] - wall_ref
            values["run.wall_s"] = statistics.median(r["wall_s"] for r in reps)
            values["run.cpu_s"] = statistics.median(r["cpu_s"] for r in reps)
            values["host.kernel_ms"] = statistics.median(r["kernel_ms"] for r in reps)
            wer, margin = reps[0]["elitist"]
            values["quality.elitist_wer_pct"] = wer
            values["quality.elitist_margin_pct"] = margin
        wanted = per_layer if args.trace else end_to_end
        missing = [m["name"] for m in wanted if m["name"] not in values]
        run.check(not missing, f"metrics not measured: {missing}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in values}

    env = environment(args, run.cfg) if run.cfg is not None else {}
    record = {"environment": env, "import_s": import_s, "stage_s": dict(run.stage_s),
              "reps": reps, "failures": run.failures, "metrics": metrics}
    if part:
        record.update({k: part[k] for k in ("traced", "host_samples", "host_samples_rejected")})
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    result = {"correct": not run.failures, "attempted": max(run.attempted, 1),
              "failed": len(run.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--timed-part"]:
        sys.exit(timed_part_main(Path(sys.argv[2])))
    sys.exit(main())

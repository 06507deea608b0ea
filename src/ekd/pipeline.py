"""End-to-end experiment orchestration.

Per seed: synthesize the domain corpora and the out-of-domain LM, train one
teacher per teacher domain, decode the unlabeled student-domain training
split with every teacher, build training targets with each selection
strategy, train one student per strategy, evaluate every model with and
without the LM, and run the representation-trajectory comparison. Every
stage persists its artifacts and can be re-run independently; one rule
(``_run_units``) decides which of its outputs to skip or rebuild, so deleting
one unit's outputs and re-running its stage rebuilds only that unit. Resume
is keyed on file existence only: after changing the config on an existing
root, pass ``force`` or use a new root, or the old artifacts are reused
(those of another vocabulary are refused).
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import logging
import shutil
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import binio
from .beam import beam_decode
from .config import ExperimentConfig, derive_seed, save_config
from .corpus import Corpus, generate_corpus, load_corpus, save_corpus, split_corpus
from .ctc import PosteriorSequence
from .lm import NgramLm, load_arpa, save_arpa, train_lm
from .model import ModelCheckpoint, load_checkpoint, save_checkpoint
from .report import ResultTable, summarize
from .selection import (Strategy, TeacherBundle, load_posteriors, load_selection,
                        save_posteriors, save_selection, select_corpus)
from .svcca import ActivationMatrix, correlation_trajectory
from .training import (corpus_posteriors, dump_activations, greedy_corpus_wer, train_student,
                       train_teacher)
from .wer import WerBreakdown, accumulate, wer

logger = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    pass


class TeacherQualityError(RuntimeError):
    """In-domain probe WER above the configured gate after training."""


def output_root(config: ExperimentConfig, override: str | None = None) -> Path:
    """The ``--output-root`` flag's ``override`` if given, else the config's."""
    return Path(override or config.output_root)


class SeedPaths:
    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.base = root / f"seed_{seed}"
        self.corpora = self.base / "corpora"
        self.lm = self.base / "lm"
        self.teachers = self.base / "teachers"
        self.decode = self.base / "decode"
        self.select = self.base / "select"
        self.students = self.base / "students"
        self.eval_cells = self.base / "eval" / "cells"
        self.svcca = self.base / "svcca"
        self.report = self.base / "report"

    def ensure(self) -> None:
        for d in (self.corpora, self.lm, self.teachers, self.decode, self.select,
                  self.students, self.eval_cells, self.svcca, self.report):
            d.mkdir(parents=True, exist_ok=True)

    def corpus_path(self, domain: str, part: str) -> Path:
        return self.corpora / f"{domain}_{part}.ekdc"

    def teacher_path(self, domain: str) -> Path:
        return self.teachers / f"{domain}.ekdm"

    def posteriors_path(self, domain: str) -> Path:
        return self.decode / f"{domain}_on_student_train.ekdp"

    def selection_path(self, strategy: str) -> Path:
        return self.select / f"{strategy}.ekds"

    def student_path(self, strategy: str) -> Path:
        return self.students / f"{strategy}.ekdm"

    def snapshot_dir(self, run_name: str) -> Path:
        return self.base / "snapshots" / run_name

    def cell_path(self, model: str, test_set: str, lm_on: bool) -> Path:
        return self.eval_cells / f"{model}--{test_set}--lm_{'on' if lm_on else 'off'}.tsv"


# -- the resume rule ------------------------------------------------------------

# The stage that writes the artifacts of each SeedPaths directory (by name).
_PRODUCERS = {"corpora": "gen-data", "lm": "gen-data", "teachers": "train-teacher",
              "decode": "decode", "select": "select", "students": "train-student",
              "snapshots": "train-student", "cells": "evaluate"}


def _require(path: Path) -> Path:
    if not path.exists():
        raise PipelineError(f"missing required artifact {path}; "
                            f"run '{_PRODUCERS[path.parent.name]}' first")
    return path


class _Unit(NamedTuple):
    name: str
    outputs: Sequence[Path]
    build: Callable[[object], None]
    needs: Sequence[Path] = ()


def _run_units(stage: str, units: list[_Unit], force: bool, needs: Sequence[Path] = (),
               load: Callable[[], object] = lambda: None) -> list[_Unit]:
    """A unit is one piece of a stage's work: the files and directories it
    writes, its build step and the artifacts of earlier stages it reads.
    Each unit whose outputs all exist is skipped unless ``force``; every
    other unit has its existing outputs deleted and is built. Only if some
    unit is built are the stage's and those units' ``needs`` checked and the
    inputs loaded, once, by ``load``; every build step is called with them.
    Returns the units built."""
    todo = []
    for unit in units:
        if all(p.exists() for p in unit.outputs) and not force:
            logger.info("%s %s: outputs exist, skipping", stage, unit.name)
        else:
            todo.append(unit)
    if not todo:
        return todo
    for path in [*needs, *(p for unit in todo for p in unit.needs)]:
        _require(path)
    inputs = load()
    for unit in todo:
        for path in unit.outputs:
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        unit.build(inputs)
    return todo


def _check_vocabulary(path: Path, vocabulary_hash: str, config: ExperimentConfig) -> None:
    """A PipelineError naming ``path`` if ``vocabulary_hash``, the one it
    records, is not the config's. Every artifact takes its vocabulary from
    the corpora, so only rebuilding from gen-data on helps."""
    if vocabulary_hash != config.vocabulary().content_hash():
        raise PipelineError(f"{path} was built for another vocabulary; re-run 'pipeline' "
                            "with --force, or use a new output root")


def _load_checked(load: Callable, path: Path, config: ExperimentConfig):
    """The artifact that ``load`` returns with its header, checked by
    ``_check_vocabulary``."""
    header, artifact = load(path)
    _check_vocabulary(path, header["vocabulary_hash"], config)
    return artifact


def _seeded_configs(config: ExperimentConfig, seed: int, run: str):
    """The (model, train) configs of one training run, seeded for ``run``."""
    return (dataclasses.replace(config.model, seed=derive_seed(seed, "model", run)),
            dataclasses.replace(config.train, seed=derive_seed(seed, "train", run)))


# -- stages -------------------------------------------------------------------

def stage_gen_data(config: ExperimentConfig, seed: int, paths: SeedPaths,
                   force: bool = False) -> None:
    """synthesize corpora, splits, and the n-gram LM"""
    paths.ensure()
    lm_path = paths.lm / "ngram.arpa"

    def require_svcca_frames(student_train: Corpus) -> None:
        # svcca samples config.svcca.n_frames frames from the student train split.
        frames = sum(u.num_frames for u in student_train.utterances)
        if frames < config.svcca.n_frames:
            raise PipelineError(f"config key 'svcca.n_frames' is {config.svcca.n_frames}, but "
                                f"the student train split has only {frames} frames")

    def build(_) -> None:
        specs = config.expand_domains()
        vocab = config.vocabulary()
        transcripts = []  # the LM's: teacher-domain training transcripts, in teacher order
        for recipe in config.all_domains():
            total = recipe.train_size + recipe.test_size
            corpus = generate_corpus(specs[recipe.name], vocab, total,
                                     derive_seed(seed, "data", recipe.name))
            train_part, test_part = split_corpus(corpus, recipe.train_size,
                                                 derive_seed(seed, "split", recipe.name))
            save_corpus(train_part, paths.corpus_path(recipe.name, "train"))
            save_corpus(test_part, paths.corpus_path(recipe.name, "test"))
            if recipe is not config.student_domain:
                transcripts += [vocab.indices_to_words(u.transcript) for u in train_part.utterances]
            else:
                # Raised before the LM is written, so a re-run builds gen-data again.
                require_svcca_frames(train_part)
        save_arpa(train_lm(transcripts, config.lm_order), lm_path)

    outputs = [paths.corpus_path(r.name, part)
               for r in config.all_domains() for part in ("train", "test")]
    if not _run_units("gen-data", [_Unit("corpora and LM", [*outputs, lm_path], build)], force):
        # The corpora exist already, perhaps from a config with another
        # vocabulary or fewer svcca frames.
        student_train = paths.corpus_path(config.student_domain.name, "train")
        corpus = load_corpus(student_train)
        _check_vocabulary(student_train, corpus.vocabulary.content_hash(), config)
        require_svcca_frames(corpus)


def _probe_gate(model: ModelCheckpoint, corpus: Corpus, spec, train_seed: int,
                threshold: float) -> None:
    """Record the teacher's greedy WER on a zero-noise in-domain probe set as
    ``training_meta["probe_wer"]``; raise TeacherQualityError above ``threshold``.
    This gates selection experiments on adequately trained teachers."""
    probe = generate_corpus(dataclasses.replace(spec, emission_noise_std=0.0), corpus.vocabulary,
                            n_utterances=16, seed=(train_seed * 9973 + 17) % (2 ** 31))
    probe_wer = greedy_corpus_wer(model, probe)
    model.training_meta["probe_wer"] = probe_wer
    if probe_wer > threshold:
        raise TeacherQualityError(f"teacher on {corpus.name!r}: probe WER {probe_wer:.3f} "
                                  f"exceeds gate {threshold:.3f}")


def stage_train_teacher(config: ExperimentConfig, seed: int, paths: SeedPaths,
                        force: bool = False) -> None:
    """train teacher model(s) on their domains"""
    names = [r.name for r in config.teacher_domains]

    def build(name, specs) -> None:
        corpus = load_corpus(paths.corpus_path(name, "train"))
        model_cfg, train_cfg = _seeded_configs(config, seed, name)
        model = train_teacher(corpus, model_cfg, train_cfg)
        if config.probe_wer_threshold is not None:
            _probe_gate(model, corpus, specs[name], train_cfg.seed, config.probe_wer_threshold)
        save_checkpoint(model, paths.teacher_path(name))
        logger.info("trained teacher %s (final loss: mean %.4f, sum %.2f)", name,
                    model.training_meta["final_mean_loss"],
                    model.training_meta["final_sum_loss"])

    units = [_Unit(n, [paths.teacher_path(n)], functools.partial(build, n),
                   [paths.corpus_path(n, "train")]) for n in names]
    _run_units("train-teacher", units, force, load=config.expand_domains)


def stage_decode(config: ExperimentConfig, seed: int, paths: SeedPaths,
                 force: bool = False) -> None:
    """dump teacher posteriors for the student-domain train split"""
    student_train = paths.corpus_path(config.student_domain.name, "train")

    def build(name, corpus) -> None:
        model = load_checkpoint(paths.teacher_path(name))
        save_posteriors(paths.posteriors_path(name), corpus_posteriors(model, corpus),
                        f"teacher_{name}", corpus.vocabulary.content_hash())

    units = [_Unit(r.name, [paths.posteriors_path(r.name)], functools.partial(build, r.name),
                   [paths.teacher_path(r.name)]) for r in config.teacher_domains]
    _run_units("decode", units, force, needs=[student_train],
               load=lambda: load_corpus(student_train))


def stage_select(config: ExperimentConfig, seed: int, paths: SeedPaths,
                 force: bool = False) -> None:
    """build training targets with the selection strategies"""
    vocab = config.vocabulary()
    dumps = [paths.posteriors_path(r.name) for r in config.teacher_domains]

    def load_bundles() -> list[TeacherBundle]:
        per_teacher = [_load_checked(load_posteriors, path, config) for path in dumps]
        ids = [p.utterance_id for p in per_teacher[0]]
        for path, posts in zip(dumps[1:], per_teacher[1:]):
            if [p.utterance_id for p in posts] != ids:
                raise PipelineError(f"teacher posterior dumps {dumps[0]} and {path} cover "
                                    "different utterances; re-run 'decode' with --force")
        return [TeacherBundle(uid, [p[i] for p in per_teacher]) for i, uid in enumerate(ids)]

    def build(strat, bundles) -> None:
        selection = select_corpus(Strategy(strat), bundles, vocab.blank_index)
        save_selection(paths.selection_path(strat), selection, vocab.content_hash())

    units = [_Unit(s, [paths.selection_path(s)], functools.partial(build, s))
             for s in config.strategies]
    _run_units("select", units, force, needs=dumps, load=load_bundles)


def _snapshots_into(snap_dir: Path):
    """A snapshot hook that writes each epoch's checkpoint into a new ``snap_dir``."""
    snap_dir.mkdir(parents=True)
    return lambda epoch, ckpt: save_checkpoint(ckpt, snap_dir / f"epoch_{epoch:04d}.ekdm")


def _sample_snapshots(snap_dir: Path, corpus: Corpus,
                      config: ExperimentConfig) -> dict[int, dict[str, ActivationMatrix]]:
    """``{epoch: {layer: activations}}`` of every snapshot in ``snap_dir``,
    each sampled on the same frames of ``corpus``."""
    return {int(p.stem.split("_")[1]): dump_activations(load_checkpoint(p), corpus,
                                                        config.svcca.n_frames,
                                                        config.svcca.sample_seed)
            for p in sorted(snap_dir.glob("epoch_*.ekdm"))}


def stage_train_student(config: ExperimentConfig, seed: int, paths: SeedPaths,
                        force: bool = False) -> None:
    """train student model(s) on selected soft labels"""
    student_train = paths.corpus_path(config.student_domain.name, "train")
    model_cfg, train_cfg = _seeded_configs(config, seed, "student")
    # Only the student that the svcca stage analyses keeps per-epoch snapshots.
    analysed = Strategy.ELITIST.value
    snap_dir = paths.snapshot_dir(f"student_{analysed}")

    def build(strat, unlabeled) -> None:
        selection = _load_checked(load_selection, paths.selection_path(strat), config)
        hook = _snapshots_into(snap_dir) if strat == analysed else None
        # Older runs kept snapshots of every student; nothing reads the others.
        stale = paths.snapshot_dir(f"student_{strat}")
        if hook is None and stale.is_dir():
            shutil.rmtree(stale)
        model = train_student(selection.outcomes, unlabeled, model_cfg, train_cfg,
                              snapshot_hook=hook)
        save_checkpoint(model, paths.student_path(strat))
        logger.info("trained student (%s), final loss: mean %.4f, sum %.2f", strat,
                    model.training_meta["final_mean_loss"],
                    model.training_meta["final_sum_loss"])

    units = [_Unit(s, [paths.student_path(s), *([snap_dir] if s == analysed else [])],
                   functools.partial(build, s), [paths.selection_path(s)])
             for s in config.strategies]
    _run_units("train-student", units, force, needs=[student_train],
               load=lambda: load_corpus(student_train).without_transcripts())


def _eval_matrix(config: ExperimentConfig, paths: SeedPaths) -> list[tuple[str, Path, str, Path]]:
    """(model name, checkpoint, test set, test corpus) rows: teachers on every
    domain's test set, students on the student-domain test set."""
    domains = [r.name for r in config.all_domains()]
    models = [(f"teacher_{r.name}", paths.teacher_path(r.name), domains)
              for r in config.teacher_domains]
    models += [(f"student_{s}", paths.student_path(s), [config.student_domain.name])
               for s in config.strategies]
    return [(name, ckpt, f"{d}_test", paths.corpus_path(d, "test"))
            for name, ckpt, test_domains in models for d in test_domains]


def evaluate_model(corpora: Sequence[Corpus], posteriors: Sequence[list[PosteriorSequence]],
                   lm: NgramLm | None, config: ExperimentConfig) -> list[WerBreakdown]:
    """The WER breakdown of one model on each corpus, from its posteriors on
    each (``posteriors[i]`` on ``corpora[i]``), decoded as one batch."""
    vocab = corpora[0].vocabulary  # the model's, checked by corpus_posteriors
    # The word bonus exists to offset the LM's per-word cost; without an LM
    # the acoustic score stands alone.
    beam_cfg = config.beam if lm is not None else dataclasses.replace(
        config.beam, lm_weight=0.0, word_insertion_bonus=0.0)
    hyps = iter(beam_decode([p for posts in posteriors for p in posts], lm, beam_cfg, vocab))
    return [accumulate([wer(vocab.indices_to_words(utt.transcript), next(hyps))
                        for utt in corpus.utterances]) for corpus in corpora]


def stage_evaluate(config: ExperimentConfig, seed: int, paths: SeedPaths,
                   lm_mode: str = "both", force: bool = False) -> None:
    """decode test sets and score WER"""
    if lm_mode not in ("on", "off", "both"):
        raise PipelineError(f"lm mode must be on/off/both, got {lm_mode!r}")
    lm_flags = [False, True] if lm_mode == "both" else [lm_mode == "on"]
    lm_path = paths.lm / "ngram.arpa"
    test_corpus = functools.cache(load_corpus)

    def build(model_name, checkpoint, test_sets, lm) -> None:
        model = load_checkpoint(checkpoint)
        corpora = [test_corpus(corpus_path) for _, corpus_path in test_sets]
        posteriors = [corpus_posteriors(model, corpus) for corpus in corpora]
        for lm_on in lm_flags:
            # A failure propagates before this flag's cells are written, and a
            # model with a missing cell is evaluated again on resume.
            breakdowns = evaluate_model(corpora, posteriors, lm if lm_on else None, config)
            for (test_set, _), breakdown in zip(test_sets, breakdowns):
                table = ResultTable()
                table.set(test_set, model_name, lm_on, breakdown)
                binio.atomic_write_text(paths.cell_path(model_name, test_set, lm_on),
                                        table.to_tsv())
                logger.info("evaluated %s on %s (lm %s): WER %.2f%%", model_name, test_set,
                            "on" if lm_on else "off", 100 * breakdown.wer)

    units = []
    for (name, ckpt), rows in itertools.groupby(_eval_matrix(config, paths),
                                                key=lambda row: row[:2]):
        test_sets = [(test_set, corpus_path) for _, _, test_set, corpus_path in rows]
        units.append(_Unit(name, [paths.cell_path(name, test_set, lm_on)
                                  for test_set, _ in test_sets for lm_on in lm_flags],
                           functools.partial(build, name, ckpt, test_sets),
                           [ckpt, *(corpus_path for _, corpus_path in test_sets)]))
    _run_units("evaluate", units, force, needs=[lm_path] if True in lm_flags else [],
               load=lambda: load_arpa(lm_path) if True in lm_flags else None)


def stage_svcca(config: ExperimentConfig, seed: int, paths: SeedPaths,
                force: bool = False) -> None:
    """layer-correlation trajectories: original vs pseudo labels"""
    student_train = paths.corpus_path(config.student_domain.name, "train")
    pseudo_dir = paths.snapshot_dir(f"student_{Strategy.ELITIST.value}")
    original_dir = paths.snapshot_dir("student_original_labels")
    out_txt = paths.svcca / "trajectory.txt"
    out_diffs = paths.svcca / "layer_diffs.tsv"

    def reference_run(corpus) -> None:
        # Analysis-only supervised run on the target domain's true labels,
        # sharing init and batching with the pseudo-label student.
        model_cfg, train_cfg = _seeded_configs(config, seed, "student")
        train_teacher(corpus, model_cfg, train_cfg, snapshot_hook=_snapshots_into(original_dir))

    def build_report(corpus) -> None:
        layers = [f"hidden_{i}" for i in range(len(config.model.hidden_sizes))]
        report = correlation_trajectory(_sample_snapshots(original_dir, corpus, config),
                                        _sample_snapshots(pseudo_dir, corpus, config), layers,
                                        config.svcca.variance_fraction)
        binio.atomic_write_text(out_txt, report.to_text())
        binio.atomic_write_text(out_diffs, report.diffs_text())

    # _run_training always snapshots its last epoch, so an interrupted run
    # lacks that file and is rebuilt on resume.
    last = original_dir / f"epoch_{config.train.epochs:04d}.ekdm"
    units = [_Unit("reference run", [original_dir, last], reference_run),
             _Unit("report", [out_txt, out_diffs], build_report)]
    _run_units("svcca", units, force, needs=[student_train, pseudo_dir],
               load=lambda: load_corpus(student_train))


def stage_report(config: ExperimentConfig, seed: int, paths: SeedPaths,
                 force: bool = False) -> ResultTable:
    """assemble result tables from a run directory"""
    cells = [_require(paths.cell_path(name, test_set, lm_on))
             for name, _, test_set, _ in _eval_matrix(config, paths) for lm_on in (False, True)]
    selections = [_require(paths.selection_path(strat)) for strat in config.strategies]
    win_counts = "\n".join(_load_checked(load_selection, path, config).summary_text()
                           for path in selections)
    table = ResultTable.from_cell_files(cells)
    binio.atomic_write_text(paths.report / "results.tsv", table.to_tsv())
    binio.atomic_write_text(paths.report / "results.txt", table.to_text())
    binio.atomic_write_text(paths.report / "win_counts.txt", win_counts)
    return table


# Every stage in run order; each is called as (config, seed, paths, force=...).
STAGES = {
    "gen-data": stage_gen_data,
    "train-teacher": stage_train_teacher,
    "decode": stage_decode,
    "select": stage_select,
    "train-student": stage_train_student,
    "evaluate": stage_evaluate,
    "svcca": stage_svcca,
    "report": stage_report,
}


def run_seed(config: ExperimentConfig, seed: int, root: Path, force: bool = False) -> ResultTable:
    """Every stage for one seed; returns the report stage's table."""
    paths = SeedPaths(root, seed)
    paths.ensure()
    for stage in STAGES:
        result = run_stage(stage, config, seed, paths, force=force)
    return result


def run_stage(stage: str, config: ExperimentConfig, seed: int, paths: SeedPaths, **kwargs):
    """``STAGES[stage]``; any failure other than a PipelineError is re-raised
    as one naming the stage and seed."""
    try:
        return STAGES[stage](config, seed, paths, **kwargs)
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError(f"stage '{stage}' (seed {seed}) failed: {e}; "
                            f"artifacts under {paths.base} are resumable") from e


def write_summary(root: Path, per_seed: dict[int, ResultTable]) -> str:
    """Write the cross-seed ``summary/summary.tsv`` and ``summary/per_seed.txt``
    under ``root``; returns the text of summary.tsv."""
    summary_dir = root / "summary"
    summary_dir.mkdir(parents=True, exist_ok=True)
    text = summarize(per_seed)
    binio.atomic_write_text(summary_dir / "summary.tsv", text)
    binio.atomic_write_text(summary_dir / "per_seed.txt", "\n".join(
        f"### seed {seed}\n{table.to_text()}" for seed, table in per_seed.items()))
    return text


def run_pipeline(config: ExperimentConfig, output_root_override: str | None = None,
                 force: bool = False) -> ResultTable:
    """Execute every stage for every configured seed and write the cross-seed
    summary files. Returns the last seed's result table."""
    config.validate_ood()
    root = output_root(config, output_root_override)
    root.mkdir(parents=True, exist_ok=True)
    save_config(config, root / "config.yaml")
    per_seed = {seed: run_seed(config, seed, root, force=force) for seed in config.seeds}
    write_summary(root, per_seed)
    return per_seed[config.seeds[-1]]

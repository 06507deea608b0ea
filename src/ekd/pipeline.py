"""End-to-end experiment orchestration.

Per seed: synthesize the domain corpora and the out-of-domain LM, train one
teacher per teacher domain, decode the unlabeled student-domain training
split with every teacher, build training targets with each selection
strategy, train one student per strategy, evaluate every model with and
without the LM, and run the representation-trajectory comparison. Every
stage persists its artifacts, skips itself when they already exist, and can
be re-run independently, so a run directory is resumable at any point.
"""
from __future__ import annotations

import dataclasses
import logging
import os
from pathlib import Path

from . import binio
from .beam import beam_decode
from .config import ExperimentConfig, derive_seed, save_config
from .corpus import Corpus, generate_corpus, load_corpus, save_corpus, split_corpus
from .lm import NgramLm, load_arpa, save_arpa, train_lm
from .model import ModelCheckpoint, load_checkpoint, save_checkpoint
from .report import ResultTable, summarize
from .selection import (Strategy, TeacherBundle, load_posteriors, load_selection,
                        save_posteriors, save_selection, select_corpus)
from .svcca import correlation_trajectory
from .training import corpus_posteriors, train_student, train_teacher
from .wer import accumulate, wer

logger = logging.getLogger(__name__)

STAGES = ("gen-data", "train-teacher", "decode", "select", "train-student",
          "evaluate", "svcca", "report")


class PipelineError(RuntimeError):
    pass


def output_root(config: ExperimentConfig, override: str | None = None) -> Path:
    """CLI flag wins over the EKD_OUTPUT_ROOT env var wins over the config."""
    if override:
        return Path(override)
    env = os.environ.get("EKD_OUTPUT_ROOT")
    if env:
        return Path(env) / Path(config.output_root).name
    return Path(config.output_root)


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


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise PipelineError(f"missing required artifact {path}; run '{producer}' first")
    return path


def _model_name(kind: str, name: str) -> str:
    return f"{kind}_{name}"


# -- stages -------------------------------------------------------------------

def stage_gen_data(config: ExperimentConfig, seed: int, paths: SeedPaths,
                   force: bool = False) -> None:
    paths.ensure()
    specs = config.expand_domains()
    vocab = config.vocabulary()
    lm_path = paths.lm / "ngram.arpa"
    done = all(paths.corpus_path(r.name, part).exists()
               for r in config.all_domains() for part in ("train", "test"))
    if done and lm_path.exists() and not force:
        logger.info("gen-data: artifacts exist, skipping")
        return
    for recipe in config.all_domains():
        total = recipe.train_size + recipe.test_size
        corpus = generate_corpus(specs[recipe.name], vocab, total,
                                 derive_seed(seed, "data", recipe.name))
        train_part, test_part = split_corpus(
            corpus, [recipe.train_size / total, recipe.test_size / total],
            derive_seed(seed, "split", recipe.name))
        save_corpus(train_part, paths.corpus_path(recipe.name, "train"))
        save_corpus(test_part, paths.corpus_path(recipe.name, "test"))
    transcripts = []
    for recipe in config.teacher_domains:
        train_part = load_corpus(paths.corpus_path(recipe.name, "train"))
        for utt in train_part.utterances:
            transcripts.append(vocab.indices_to_words(utt.transcript))
    save_arpa(train_lm(transcripts, config.lm_order), lm_path)


def stage_train_teacher(config: ExperimentConfig, seed: int, paths: SeedPaths,
                        domain: str | None = None, force: bool = False) -> None:
    specs = config.expand_domains()
    recipes = [r for r in config.teacher_domains if domain in (None, r.name)]
    if not recipes:
        raise PipelineError(f"no teacher domain named {domain!r}")
    for recipe in recipes:
        out = paths.teacher_path(recipe.name)
        if out.exists() and not force:
            logger.info("train-teacher %s: checkpoint exists, skipping", recipe.name)
            continue
        corpus = load_corpus(_require(paths.corpus_path(recipe.name, "train"), "gen-data"))
        model_cfg = dataclasses.replace(config.model,
                                        seed=derive_seed(seed, "model", recipe.name))
        train_cfg = dataclasses.replace(config.train,
                                        seed=derive_seed(seed, "train", recipe.name))
        model = train_teacher(corpus, model_cfg, train_cfg, probe_spec=specs[recipe.name],
                              probe_wer_threshold=config.probe_wer_threshold)
        save_checkpoint(model, out)
        logger.info("trained teacher %s (final loss: mean %.4f, sum %.2f)", recipe.name,
                    model.training_meta["final_mean_loss"],
                    model.training_meta["final_sum_loss"])


def stage_decode(config: ExperimentConfig, seed: int, paths: SeedPaths,
                 teacher: str | None = None, force: bool = False) -> None:
    student_train = load_corpus(_require(
        paths.corpus_path(config.student_domain.name, "train"), "gen-data"))
    vocab_hash = student_train.vocabulary.content_hash()
    for recipe in config.teacher_domains:
        if teacher not in (None, recipe.name):
            continue
        out = paths.posteriors_path(recipe.name)
        if out.exists() and not force:
            logger.info("decode %s: posterior dump exists, skipping", recipe.name)
            continue
        model = load_checkpoint(_require(paths.teacher_path(recipe.name), "train-teacher"))
        posts = corpus_posteriors(model, student_train)
        save_posteriors(out, posts, _model_name("teacher", recipe.name), vocab_hash)


def stage_select(config: ExperimentConfig, seed: int, paths: SeedPaths,
                 strategy: str | None = None, force: bool = False) -> None:
    vocab = config.vocabulary()
    per_teacher = []
    for recipe in config.teacher_domains:
        _, posts = load_posteriors(_require(paths.posteriors_path(recipe.name), "decode"))
        per_teacher.append(posts)
    n = len(per_teacher[0])
    if any(len(p) != n for p in per_teacher):
        raise PipelineError("teacher posterior dumps cover different utterance sets")
    bundles = [TeacherBundle(per_teacher[0][i].utterance_id, [p[i] for p in per_teacher])
               for i in range(n)]
    for strat in config.strategies:
        if strategy not in (None, strat):
            continue
        out = paths.selection_path(strat)
        if out.exists() and not force:
            logger.info("select %s: selection file exists, skipping", strat)
            continue
        selection = select_corpus(Strategy(strat), bundles, vocab.blank_index)
        save_selection(out, selection, vocab.content_hash())
        binio.atomic_write_text(out.with_suffix(".summary.txt"), selection.summary_text())


def _student_configs(config: ExperimentConfig, seed: int):
    model_cfg = dataclasses.replace(config.model, seed=derive_seed(seed, "model", "student"))
    train_cfg = dataclasses.replace(config.student_train,
                                    seed=derive_seed(seed, "train", "student"))
    return model_cfg, train_cfg


def stage_train_student(config: ExperimentConfig, seed: int, paths: SeedPaths,
                        strategy: str | None = None, force: bool = False) -> None:
    student_train = load_corpus(_require(
        paths.corpus_path(config.student_domain.name, "train"), "gen-data"))
    unlabeled = student_train.without_transcripts()
    model_cfg, train_cfg = _student_configs(config, seed)
    for strat in config.strategies:
        if strategy not in (None, strat):
            continue
        out = paths.student_path(strat)
        if out.exists() and not force:
            logger.info("train-student %s: checkpoint exists, skipping", strat)
            continue
        selection = load_selection(_require(paths.selection_path(strat), "select"))
        snap_dir = paths.snapshot_dir(f"student_{strat}")
        snap_dir.mkdir(parents=True, exist_ok=True)

        def snapshot(epoch: int, ckpt: ModelCheckpoint, _dir=snap_dir) -> None:
            save_checkpoint(ckpt, _dir / f"epoch_{epoch:04d}.ekdm")

        model = train_student(selection.outcomes, unlabeled, model_cfg, train_cfg, config.kd,
                              snapshot_hook=snapshot)
        save_checkpoint(model, out)
        logger.info("trained student (%s), final loss: mean %.4f, sum %.2f", strat,
                    model.training_meta["final_mean_loss"],
                    model.training_meta["final_sum_loss"])


def _eval_matrix(config: ExperimentConfig) -> list[tuple[str, str]]:
    """(model name, test set) pairs: teachers on every domain's test set,
    students on the student-domain test set."""
    test_sets = [f"{r.name}_test" for r in config.all_domains()]
    student_test = f"{config.student_domain.name}_test"
    pairs = []
    for recipe in config.teacher_domains:
        for ts in test_sets:
            pairs.append((_model_name("teacher", recipe.name), ts))
    for strat in config.strategies:
        pairs.append((_model_name("student", strat), student_test))
    return pairs


def _checkpoint_for(config: ExperimentConfig, paths: SeedPaths, model_name: str) -> Path:
    kind, _, name = model_name.partition("_")
    if kind == "teacher":
        return _require(paths.teacher_path(name), "train-teacher")
    if kind == "student":
        return _require(paths.student_path(name), "train-student")
    raise PipelineError(f"unknown model {model_name!r}")


def evaluate_model(model: ModelCheckpoint, corpus: Corpus, lm: NgramLm | None,
                   config: ExperimentConfig):
    vocab = corpus.vocabulary
    # The word bonus exists to offset the LM's per-word cost; without an LM
    # the acoustic score stands alone.
    beam_cfg = config.beam if lm is not None else dataclasses.replace(
        config.beam, lm_weight=0.0, word_insertion_bonus=0.0)
    parts = []
    for utt, posts in zip(corpus.utterances, corpus_posteriors(model, corpus)):
        hyp = beam_decode(posts, lm, beam_cfg, vocab)
        ref = vocab.indices_to_words(utt.transcript)
        parts.append(wer(ref, hyp))
    return accumulate(parts)


def stage_evaluate(config: ExperimentConfig, seed: int, paths: SeedPaths,
                   lm_mode: str = "both", models: list[str] | None = None,
                   force: bool = False) -> None:
    if lm_mode not in ("on", "off", "both"):
        raise PipelineError(f"lm mode must be on/off/both, got {lm_mode!r}")
    lm_flags = [False, True] if lm_mode == "both" else [lm_mode == "on"]
    lm = None
    if True in lm_flags:
        lm = load_arpa(_require(paths.lm / "ngram.arpa", "gen-data"))
    corpora: dict[str, Corpus] = {}
    for model_name, test_set in _eval_matrix(config):
        if models and model_name not in models:
            continue
        for lm_on in lm_flags:
            cell = paths.cell_path(model_name, test_set, lm_on)
            if cell.exists() and not force:
                continue
            if test_set not in corpora:
                domain = test_set.removesuffix("_test")
                corpora[test_set] = load_corpus(_require(
                    paths.corpus_path(domain, "test"), "gen-data"))
            model = load_checkpoint(_checkpoint_for(config, paths, model_name))
            # A failure propagates without writing the cell, so resume retries it.
            breakdown = evaluate_model(model, corpora[test_set], lm if lm_on else None, config)
            table = ResultTable()
            table.set(test_set, model_name, lm_on, breakdown)
            binio.atomic_write_text(cell, table.to_tsv())
            logger.info("evaluated %s on %s (lm %s): WER %.2f%%", model_name, test_set,
                        "on" if lm_on else "off", 100 * breakdown.wer)


def stage_svcca(config: ExperimentConfig, seed: int, paths: SeedPaths,
                force: bool = False) -> None:
    out_txt = paths.svcca / "trajectory.txt"
    out_diffs = paths.svcca / "layer_diffs.tsv"
    if out_txt.exists() and out_diffs.exists() and not force:
        logger.info("svcca: report exists, skipping")
        return
    student_train = load_corpus(_require(
        paths.corpus_path(config.student_domain.name, "train"), "gen-data"))
    model_cfg, train_cfg = _student_configs(config, seed)

    pseudo_dir = paths.snapshot_dir("student_elitist")
    pseudo_files = sorted(pseudo_dir.glob("epoch_*.ekdm"))
    if not pseudo_files:
        raise PipelineError(f"missing required artifact {pseudo_dir}/epoch_*.ekdm; "
                            "run 'train-student' first")
    pseudo_run = [(int(p.stem.split("_")[1]), load_checkpoint(p)) for p in pseudo_files]

    original_dir = paths.snapshot_dir("student_original_labels")
    original_files = sorted(original_dir.glob("epoch_*.ekdm"))
    if not original_files or force:
        original_dir.mkdir(parents=True, exist_ok=True)

        def snapshot(epoch: int, ckpt: ModelCheckpoint) -> None:
            save_checkpoint(ckpt, original_dir / f"epoch_{epoch:04d}.ekdm")

        # Analysis-only supervised run on the target domain's true labels,
        # sharing init and batching with the pseudo-label student.
        train_teacher(student_train, model_cfg, train_cfg, snapshot_hook=snapshot)
        original_files = sorted(original_dir.glob("epoch_*.ekdm"))
    original_run = [(int(p.stem.split("_")[1]), load_checkpoint(p)) for p in original_files]

    layers = [f"hidden_{i}" for i in range(len(config.model.hidden_sizes))]
    report = correlation_trajectory(
        original_run, pseudo_run, student_train, layers,
        n_frames=config.svcca.n_frames, seed=config.svcca.sample_seed,
        variance_fraction=config.svcca.variance_fraction,
        dump_dir=paths.svcca / "activations",
        run_names=("original_labels", "pseudo_labels"))
    binio.atomic_write_text(out_txt, report.to_text())
    lines = ["layer\tmean_abs_diff"]
    for layer in report.layers:
        lines.append(f"{layer}\t{report.mean_abs_diff(layer)!r}")
    binio.atomic_write_text(out_diffs, "\n".join(lines) + "\n")


def stage_report(config: ExperimentConfig, seed: int, paths: SeedPaths,
                 force: bool = False) -> ResultTable:
    cells = []
    for model_name, test_set in _eval_matrix(config):
        for lm_on in (False, True):
            cells.append(_require(paths.cell_path(model_name, test_set, lm_on), "evaluate"))
    table = ResultTable.from_cell_files(cells)
    binio.atomic_write_text(paths.report / "results.tsv", table.to_tsv())
    binio.atomic_write_text(paths.report / "results.txt", table.to_text())
    win_lines = []
    for strat in config.strategies:
        path = paths.selection_path(strat)
        if path.exists():
            selection = load_selection(path)
            win_lines.append(selection.summary_text())
    binio.atomic_write_text(paths.report / "win_counts.txt", "\n".join(win_lines))
    return table


_STAGE_FUNCS = {
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
    paths = SeedPaths(root, seed)
    paths.ensure()
    table = None
    for stage in STAGES:
        try:
            result = _STAGE_FUNCS[stage](config, seed, paths, force=force)
        except PipelineError:
            raise
        except Exception as e:
            raise PipelineError(
                f"stage '{stage}' (seed {seed}) failed: {e}; "
                f"artifacts under {paths.base} are resumable") from e
        if stage == "report":
            table = result
    return table


def run_pipeline(config: ExperimentConfig, output_root_override: str | None = None,
                 force: bool = False) -> ResultTable:
    """Execute every stage for every configured seed and write the cross-seed
    summary. Returns the summary as a ResultTable keyed on mean WER cells of
    the final seed run plus summary files on disk."""
    config.validate_ood()
    root = output_root(config, output_root_override)
    root.mkdir(parents=True, exist_ok=True)
    save_config(config, root / "config.yaml")
    per_seed: dict[int, ResultTable] = {}
    for seed in config.seeds:
        per_seed[seed] = run_seed(config, seed, root, force=force)
    summary_dir = root / "summary"
    summary_dir.mkdir(parents=True, exist_ok=True)
    binio.atomic_write_text(summary_dir / "summary.tsv", summarize(per_seed))
    lines = []
    for seed in config.seeds:
        lines.append(f"### seed {seed}")
        lines.append(per_seed[seed].to_text())
    binio.atomic_write_text(summary_dir / "per_seed.txt", "\n".join(lines))
    return per_seed[config.seeds[-1]]

"""End-to-end experiment orchestration.

Per seed: synthesize the domain corpora and the out-of-domain LM, train one
teacher per teacher domain, decode the unlabeled student-domain training
split with every teacher, build training targets with each selection
strategy, train one student per strategy, evaluate every model with and
without the LM, and run the representation-trajectory comparison. Every
stage persists its artifacts and can be re-run independently. A stage is a
list of units, plain data that one rule (``_run_units``) skips or rebuilds,
so deleting one unit's outputs and re-running its stage rebuilds only that
unit. Resume is keyed on presence: a file exists at the current format
version (``binio.VERSION``), so a stale file is rebuilt like a missing one.
After changing the config on an existing root, pass ``force`` or use a new
root, or the old artifacts are reused (those of another vocabulary are refused).
"""
from __future__ import annotations

import dataclasses
import logging
import shutil
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import binio
from .beam import beam_decode
from .config import ExperimentConfig, derive_seed, save_config
from .corpus import Corpus, generate_corpus, load_corpus, save_corpus, split_corpus
from .ctc import PosteriorSequence, greedy_decode_batch
from .lm import NgramLm, load_arpa, save_arpa, train_lm
from .model import ModelCheckpoint, load_checkpoint, save_checkpoint
from .report import CellKey, ResultTable, summarize
from .selection import (Strategy, TeacherBundle, load_posteriors, load_selection,
                        save_posteriors, save_selection, select_corpus)
from .svcca import ActivationMatrix, correlation_trajectory
from .training import (corpus_posteriors, dump_activations, greedy_corpus_wer, snapshot_epochs,
                       train_student, train_teacher)
from .vocab import Vocabulary
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
        self.eval = self.base / "eval"
        self.svcca = self.base / "svcca"
        self.report = self.base / "report"

    def ensure(self) -> None:
        for d in (self.corpora, self.lm, self.teachers, self.decode, self.select,
                  self.students, self.eval, self.svcca, self.report):
            d.mkdir(parents=True, exist_ok=True)

    def corpus_path(self, domain: str, part: str) -> Path:
        return self.corpora / f"{domain}_{part}.ekdc"

    def student_train(self, config: ExperimentConfig) -> Path:
        """The unlabeled student-domain training split."""
        return self.corpus_path(config.student_domain.name, "train")

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

    def snapshots(self, run_name: str, config: ExperimentConfig) -> list[Path]:
        """The per-epoch checkpoints of a run, one per ``snapshot_epochs``."""
        return [self.snapshot_dir(run_name) / f"epoch_{epoch:04d}.ekdm"
                for epoch in snapshot_epochs(config.train)]


# -- the resume rule ------------------------------------------------------------

_ANALYSED = Strategy.ELITIST.value  # svcca's student, the only one keeping per-epoch snapshots
_ORIGINAL = "student_original_labels"  # svcca's own run, on the true labels

# The stage that writes the files of each directory an earlier stage's
# artifact lies in, by the directory's name.
_PRODUCERS = {"corpora": "gen-data", "lm": "gen-data", "teachers": "train-teacher",
              "decode": "decode", "select": "select", "students": "train-student",
              f"student_{_ANALYSED}": "train-student", "eval": "evaluate"}


def _present(path: Path) -> bool:
    """The one resume rule: ``path`` exists at the current format version."""
    return path.exists() and not binio.stale(path)


def _require(path: Path) -> Path:
    if not _present(path):
        raise PipelineError(f"missing or out-of-date artifact {path}; "
                            f"run '{_PRODUCERS[path.parent.name]}' first")
    return path


class _Unit(NamedTuple):
    name: str
    outputs: Sequence[Path]
    needs: Sequence[Path]
    build: Callable[[ExperimentConfig, int, SeedPaths, object, str], None]


def _run_units(stage: str, units: list[_Unit], config: ExperimentConfig, seed: int,
               paths: SeedPaths, force: bool,
               load: Callable[[ExperimentConfig, SeedPaths], object] | None = None) -> list[_Unit]:
    """A unit is one piece of a stage's work: its name (a teacher domain, a
    strategy or a step), the files it writes, the artifacts of earlier
    stages that it or the stage's ``load`` reads, and a module-level build
    step. Each unit whose outputs are all present (``_present``) is skipped
    unless ``force``. If any unit is left to build, the needs of every such
    unit are checked and the inputs loaded, once, by ``load(config, paths)``;
    then each has its outputs deleted and is built as ``unit.build(config,
    seed, paths, inputs, unit.name)``. Returns the units built."""
    todo = []
    for unit in units:
        if not force and all(map(_present, unit.outputs)):
            logger.info("%s %s: outputs exist, skipping", stage, unit.name)
        else:
            todo.append(unit)
    if not todo:
        return todo
    for path in (p for unit in todo for p in unit.needs):
        _require(path)
    inputs = load(config, paths) if load else None
    for unit in todo:
        for path in unit.outputs:
            path.unlink(missing_ok=True)
        unit.build(config, seed, paths, inputs, unit.name)
    return todo


def _check_vocabulary(path: Path, vocabulary_hash: str, config: ExperimentConfig) -> None:
    """A PipelineError naming ``path`` if ``vocabulary_hash``, the one it
    records, is not the config's. Every artifact takes its vocabulary from
    the corpora, so only rebuilding from gen-data on helps."""
    if vocabulary_hash != config.vocabulary().content_hash():
        raise PipelineError(f"{path} was built for another vocabulary; re-run 'pipeline' "
                            "with --force, or use a new output root")


def _load_checked(load: Callable, path: Path, config: ExperimentConfig):
    """The artifact of ``load(path)``, its header checked by ``_check_vocabulary``."""
    header, artifact = load(path)
    _check_vocabulary(path, header["vocabulary_hash"], config)
    return artifact


def _seeded_configs(config: ExperimentConfig, seed: int, run: str):
    """The (model, train) configs of one training run, seeded for ``run``."""
    return (dataclasses.replace(config.model, seed=derive_seed(seed, "model", run)),
            dataclasses.replace(config.train, seed=derive_seed(seed, "train", run)))


def _load_student_train(config: ExperimentConfig, paths: SeedPaths) -> Corpus:
    return load_corpus(paths.student_train(config))


# -- stages -------------------------------------------------------------------

def _require_svcca_frames(student_train: Corpus, config: ExperimentConfig) -> None:
    # svcca samples config.svcca.n_frames frames from the student train split.
    frames = sum(u.num_frames for u in student_train.utterances)
    if frames < config.svcca.n_frames:
        raise PipelineError(f"config key 'svcca.n_frames' is {config.svcca.n_frames}, but "
                            f"the student train split has only {frames} frames")


def _gen_data(config, seed, paths, _inputs, _name) -> None:
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
            _require_svcca_frames(train_part, config)
    save_arpa(train_lm(transcripts), paths.lm / "ngram.arpa")


def stage_gen_data(config: ExperimentConfig, seed: int, paths: SeedPaths,
                   force: bool = False) -> None:
    """synthesize corpora, splits, and the n-gram LM"""
    paths.ensure()
    outputs = [paths.corpus_path(r.name, part)
               for r in config.all_domains() for part in ("train", "test")]
    unit = _Unit("corpora and LM", [*outputs, paths.lm / "ngram.arpa"], [], _gen_data)
    if not _run_units("gen-data", [unit], config, seed, paths, force):
        # The corpora exist already, perhaps from a config with another
        # vocabulary or fewer svcca frames.
        corpus = _load_student_train(config, paths)
        _check_vocabulary(paths.student_train(config), corpus.vocabulary.content_hash(), config)
        _require_svcca_frames(corpus, config)


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


def _train_teacher(config, seed, paths, specs, name) -> None:
    corpus = load_corpus(paths.corpus_path(name, "train"))
    model_cfg, train_cfg = _seeded_configs(config, seed, name)
    model = train_teacher(corpus, model_cfg, train_cfg)
    if config.probe_wer_threshold is not None:
        _probe_gate(model, corpus, specs[name], train_cfg.seed, config.probe_wer_threshold)
    save_checkpoint(model, paths.teacher_path(name))
    logger.info("trained teacher %s (final loss: mean %.4f, sum %.2f)", name,
                model.training_meta["final_mean_loss"], model.training_meta["final_sum_loss"])


def stage_train_teacher(config: ExperimentConfig, seed: int, paths: SeedPaths,
                        force: bool = False) -> None:
    """train teacher model(s) on their domains"""
    units = [_Unit(r.name, [paths.teacher_path(r.name)], [paths.corpus_path(r.name, "train")],
                   _train_teacher) for r in config.teacher_domains]
    _run_units("train-teacher", units, config, seed, paths, force,
               load=lambda config, _: config.expand_domains())


def _decode(config, seed, paths, corpus, name) -> None:
    model = load_checkpoint(paths.teacher_path(name))
    save_posteriors(paths.posteriors_path(name), corpus_posteriors(model, corpus),
                    f"teacher_{name}", corpus.vocabulary.content_hash())


def stage_decode(config: ExperimentConfig, seed: int, paths: SeedPaths,
                 force: bool = False) -> None:
    """dump teacher posteriors for the student-domain train split"""
    units = [_Unit(r.name, [paths.posteriors_path(r.name)],
                   [paths.student_train(config), paths.teacher_path(r.name)], _decode)
             for r in config.teacher_domains]
    _run_units("decode", units, config, seed, paths, force, load=_load_student_train)


def _load_bundles(config: ExperimentConfig, paths: SeedPaths) -> list[TeacherBundle]:
    dumps = [paths.posteriors_path(r.name) for r in config.teacher_domains]
    per_teacher = [_load_checked(load_posteriors, path, config) for path in dumps]
    ids = [p.utterance_id for p in per_teacher[0]]
    for path, posts in zip(dumps[1:], per_teacher[1:]):
        if [p.utterance_id for p in posts] != ids:
            raise PipelineError(f"teacher posterior dumps {dumps[0]} and {path} cover "
                                "different utterances; re-run 'decode' with --force")
    return [TeacherBundle(uid, [p[i] for p in per_teacher]) for i, uid in enumerate(ids)]


def _select(config, seed, paths, bundles, strategy) -> None:
    vocab = config.vocabulary()
    selection = select_corpus(Strategy(strategy), bundles, vocab.blank_index)
    save_selection(paths.selection_path(strategy), selection, vocab.content_hash())


def stage_select(config: ExperimentConfig, seed: int, paths: SeedPaths,
                 force: bool = False) -> None:
    """build training targets with the selection strategies"""
    dumps = [paths.posteriors_path(r.name) for r in config.teacher_domains]
    units = [_Unit(s, [paths.selection_path(s)], dumps, _select) for s in config.strategies]
    _run_units("select", units, config, seed, paths, force, load=_load_bundles)


def _snapshots_into(files: list[Path], config: ExperimentConfig):
    """A hook saving the checkpoint of each of ``snapshot_epochs`` as its one of
    ``files``, in their directory started afresh: no earlier run's snapshot stays."""
    shutil.rmtree(files[0].parent, ignore_errors=True)
    files[0].parent.mkdir(parents=True)
    by_epoch = dict(zip(snapshot_epochs(config.train), files))
    return lambda epoch, ckpt: save_checkpoint(ckpt, by_epoch[epoch])


def _sample_snapshots(files: list[Path], corpus: Corpus,
                      config: ExperimentConfig) -> dict[int, dict[str, ActivationMatrix]]:
    """``{epoch: {layer: activations}}`` of a run's snapshot ``files``, each
    sampled on the same frames of ``corpus``."""
    return {epoch: dump_activations(load_checkpoint(path), corpus, config.svcca.n_frames,
                                    config.svcca.sample_seed)
            for epoch, path in zip(snapshot_epochs(config.train), files)}


def _train_student(config, seed, paths, unlabeled, strategy) -> None:
    selection = _load_checked(load_selection, paths.selection_path(strategy), config)
    hook = (_snapshots_into(paths.snapshots(f"student_{strategy}", config), config)
            if strategy == _ANALYSED else None)
    model_cfg, train_cfg = _seeded_configs(config, seed, "student")
    model = train_student(selection.outcomes, unlabeled, model_cfg, train_cfg, snapshot_hook=hook)
    save_checkpoint(model, paths.student_path(strategy))
    logger.info("trained student (%s), final loss: mean %.4f, sum %.2f", strategy,
                model.training_meta["final_mean_loss"], model.training_meta["final_sum_loss"])


def stage_train_student(config: ExperimentConfig, seed: int, paths: SeedPaths,
                        force: bool = False) -> None:
    """train student model(s) on selected soft labels"""
    snapshots = paths.snapshots(f"student_{_ANALYSED}", config)
    units = [_Unit(s, [paths.student_path(s), *(snapshots if s == _ANALYSED else [])],
                   [paths.student_train(config), paths.selection_path(s)], _train_student)
             for s in config.strategies]
    _run_units("train-student", units, config, seed, paths, force,
               load=lambda config, paths: _load_student_train(config, paths).without_transcripts())


def _eval_matrix(config: ExperimentConfig,
                 paths: SeedPaths) -> list[tuple[str, Path, list[tuple[str, Path]]]]:
    """(model name, checkpoint, [(test set, test corpus), ...]) of every model:
    teachers on every domain's test set, students on the student-domain one."""
    domains = [r.name for r in config.all_domains()]
    models = [(f"teacher_{r.name}", paths.teacher_path(r.name), domains)
              for r in config.teacher_domains]
    models += [(f"student_{s}", paths.student_path(s), [config.student_domain.name])
               for s in config.strategies]
    return [(name, ckpt, [(f"{d}_test", paths.corpus_path(d, "test")) for d in test_domains])
            for name, ckpt, test_domains in models]


def evaluate_model(references: Sequence[list[list[str]]],
                   posteriors: Sequence[list[PosteriorSequence]], lm: NgramLm | None,
                   config: ExperimentConfig, vocab: Vocabulary) -> list[WerBreakdown]:
    """The WER breakdown of each test set of one or more models, from the
    model's posteriors and the reference words on it (``posteriors[i]``
    against ``references[i]``). With the LM, every utterance is decoded in
    one beam search. Without it, every utterance is decoded greedily in one
    pass (:func:`~ekd.ctc.greedy_decode_batch`): the acoustic score stands
    alone (the word bonus exists to offset the LM's per-word cost), and the
    best CTC hypothesis is then the best path."""
    batch = [p for posts in posteriors for p in posts]
    if lm is None:
        hyps = map(vocab.indices_to_words, greedy_decode_batch(batch, vocab.blank_index))
    else:
        hyps = iter(beam_decode(batch, lm, config.beam, vocab))
    return [accumulate([wer(words, next(hyps)) for words in refs]) for refs in references]


def _evaluate(config, seed, paths, lm, _name) -> None:
    # (test set, model) of each test set of every model, in _eval_matrix
    # order, with its reference words and the model's posteriors on it.
    keys, references, posteriors = [], [], []
    test_corpora = {}  # path -> (test corpus, reference words), built once for all its models
    for model_name, checkpoint, test_sets in _eval_matrix(config, paths):
        model = load_checkpoint(checkpoint)
        for test_set, corpus_path in test_sets:
            if corpus_path not in test_corpora:
                corpus = load_corpus(corpus_path)
                test_corpora[corpus_path] = corpus, [corpus.vocabulary.indices_to_words(
                    u.transcript) for u in corpus.utterances]
            corpus, words = test_corpora[corpus_path]
            keys.append((test_set, model_name))
            references.append(words)
            posteriors.append(corpus_posteriors(model, corpus))
    # The test corpora's one vocabulary, that of every model (checked by
    # corpus_posteriors).
    vocab = corpus.vocabulary
    table = ResultTable()
    for lm_on in (False, True):
        breakdowns = evaluate_model(references, posteriors, lm if lm_on else None, config, vocab)
        for (test_set, model_name), breakdown in zip(keys, breakdowns):
            table.set(test_set, model_name, lm_on, breakdown)
            logger.info("evaluated %s on %s (lm %s): WER %.2f%%", model_name, test_set,
                        "on" if lm_on else "off", 100 * breakdown.wer)
    binio.atomic_write_text(paths.eval / "results.tsv", table.to_tsv())


def stage_evaluate(config: ExperimentConfig, seed: int, paths: SeedPaths,
                   lm_mode: str = "both", force: bool = False) -> None:
    """decode test sets and score WER, LM off and on"""
    # Both LM modes are always scored; lm_mode stays for callers that pass it.
    if lm_mode != "both":
        raise PipelineError(f"lm mode must be 'both', got {lm_mode!r}")
    needs = [paths.lm / "ngram.arpa", *(p for _, ckpt, test_sets in _eval_matrix(config, paths)
                                        for p in (ckpt, *(corpus for _, corpus in test_sets)))]
    _run_units("evaluate", [_Unit("results", [paths.eval / "results.tsv"], needs, _evaluate)],
               config, seed, paths, force, load=lambda _, paths: load_arpa(paths.lm / "ngram.arpa"))


def _svcca_reference_run(config, seed, paths, corpus, _name) -> None:
    # Analysis-only supervised run on the target domain's true labels,
    # sharing init and batching with the pseudo-label student.
    model_cfg, train_cfg = _seeded_configs(config, seed, "student")
    train_teacher(corpus, model_cfg, train_cfg,
                  snapshot_hook=_snapshots_into(paths.snapshots(_ORIGINAL, config), config))


def _svcca_report(config, seed, paths, corpus, _name) -> None:
    layers = [f"hidden_{i}" for i in range(len(config.model.hidden_sizes))]
    report = correlation_trajectory(
        _sample_snapshots(paths.snapshots(_ORIGINAL, config), corpus, config),
        _sample_snapshots(paths.snapshots(f"student_{_ANALYSED}", config), corpus, config), layers,
        config.svcca.variance_fraction)
    binio.atomic_write_text(paths.svcca / "trajectory.txt", report.to_text())
    binio.atomic_write_text(paths.svcca / "layer_diffs.tsv", report.diffs_text())


def stage_svcca(config: ExperimentConfig, seed: int, paths: SeedPaths,
                force: bool = False) -> None:
    """layer-correlation trajectories: original vs pseudo labels"""
    units = [_Unit("reference run", paths.snapshots(_ORIGINAL, config),
                   [paths.student_train(config)], _svcca_reference_run),
             _Unit("report", [paths.svcca / "trajectory.txt", paths.svcca / "layer_diffs.tsv"],
                   [paths.student_train(config), *paths.snapshots(f"student_{_ANALYSED}", config)],
                   _svcca_report)]
    _run_units("svcca", units, config, seed, paths, force, load=_load_student_train)


def stage_report(config: ExperimentConfig, seed: int, paths: SeedPaths,
                 force: bool = False) -> ResultTable:
    """assemble result tables from a run directory"""
    results = _require(paths.eval / "results.tsv")
    selections = [_require(paths.selection_path(strat)) for strat in config.strategies]
    win_counts = "\n".join(_load_checked(load_selection, path, config).summary_text()
                           for path in selections)
    table = ResultTable.from_tsv(results.read_text(), str(results))
    if table.cells.keys() != {CellKey(test_set, name, lm_on)
                              for name, _, test_sets in _eval_matrix(config, paths)
                              for test_set, _ in test_sets for lm_on in (False, True)}:
        raise PipelineError(f"{results} does not hold exactly the cells of every model, test "
                            "set and LM mode; delete it and re-run 'evaluate'")
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

import dataclasses
import functools
import os
import pickle
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from ekd import binio
from ekd.config import SvccaSettings, derive_seed
from ekd.corpus import generate_corpus, load_corpus, transcript_read_count
from ekd.ctc import greedy_decode_batch
from ekd.model import ModelConfig, load_checkpoint
from ekd.pipeline import (STAGES, PipelineError, SeedPaths, TeacherQualityError,
                          _eval_matrix, output_root, run_pipeline, run_seed, run_stage,
                          stage_decode, stage_evaluate, stage_gen_data, stage_report,
                          stage_select, stage_svcca, stage_train_student, stage_train_teacher)
from ekd.report import ResultTable
from ekd.selection import load_posteriors, load_selection, save_posteriors
from ekd.training import corpus_posteriors, greedy_corpus_wer
from ekd.wer import accumulate, wer

from conftest import compact_config


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    cfg = compact_config(str(root / "out"))
    table = run_pipeline(cfg)
    return cfg, root / "out", table


def test_pipeline_produces_all_cells(finished_run):
    cfg, root, table = finished_run
    teacher_models = [f"teacher_{r.name}" for r in cfg.teacher_domains]
    test_sets = [f"{r.name}_test" for r in cfg.all_domains()]
    for m in teacher_models:
        for ts in test_sets:
            for lm_on in (False, True):
                assert table.get(ts, m, lm_on).breakdown is not None
    for strat in cfg.strategies:
        for lm_on in (False, True):
            cell = table.get(f"{cfg.student_domain.name}_test", f"student_{strat}", lm_on)
            assert cell.breakdown is not None


def test_three_strategies_three_student_rows(finished_run):
    cfg, root, table = finished_run
    students = {k.model for k in table.cells if k.model.startswith("student_")}
    assert students == {f"student_{s}" for s in cfg.strategies}


def test_report_command_matches_pipeline_table(finished_run):
    cfg, root, table = finished_run
    paths = SeedPaths(root, cfg.seeds[0])
    again = stage_report(cfg, cfg.seeds[0], paths)
    assert again.to_tsv() == table.to_tsv()


def test_win_counts_sum_to_corpus_size(finished_run):
    cfg, root, _ = finished_run
    paths = SeedPaths(root, cfg.seeds[0])
    _, selection = load_selection(paths.selection_path("elitist"))
    assert sum(selection.win_counts) == cfg.student_domain.train_size - len(selection.skipped)
    text = (paths.report / "win_counts.txt").read_text()
    assert "win counts" in text
    # the selection files are the select stage's only outputs
    assert sorted(p.name for p in paths.select.iterdir()) == sorted(
        f"{s}.ekds" for s in cfg.strategies)


def test_each_student_trains_on_its_selection(finished_run):
    cfg, root, _ = finished_run
    paths = SeedPaths(root, cfg.seeds[0])
    for strategy in cfg.strategies:
        _, selection = load_selection(paths.selection_path(strategy))
        meta = load_checkpoint(paths.student_path(strategy)).training_meta
        assert meta["covered_utterances"] == len(selection.outcomes)


def test_checkpoints_name_their_domain(finished_run):
    cfg, root, _ = finished_run
    paths = SeedPaths(root, cfg.seeds[0])
    teachers = [load_checkpoint(paths.teacher_path(r.name)) for r in cfg.teacher_domains]
    assert [t.training_meta["corpus"] for t in teachers] == ["alpha", "beta", "gamma"]
    for s in cfg.strategies:
        assert load_checkpoint(paths.student_path(s)).training_meta["corpus"] == "delta"


def test_svcca_outputs_exist(finished_run):
    cfg, root, _ = finished_run
    paths = SeedPaths(root, cfg.seeds[0])
    diffs = (paths.svcca / "layer_diffs.tsv").read_text().splitlines()
    assert diffs[0] == "layer\tmean_abs_diff"
    assert len(diffs) == 1 + len(cfg.model.hidden_sizes)
    trajectory = (paths.svcca / "trajectory.txt").read_text()
    assert "rho_run_a" in trajectory
    assert sorted(p.name for p in paths.svcca.iterdir()) == ["layer_diffs.tsv", "trajectory.txt"]


def _readme_layout() -> list[str]:
    """The ``<root>/...`` entries of the README's run directory layout."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Run directory layout", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    return [line.split()[0] for line in block.splitlines() if line.startswith("<root>/")]


def _layout_pattern(entry: str) -> re.Pattern:
    """``entry`` as a pattern over paths under the root: ``*`` and each
    ``<...>`` stand for part of one path segment, and a trailing ``/``
    covers everything under the directory."""
    parts = re.split(r"(\*|<[^>]*>)", entry.removeprefix("<root>/"))
    body = "".join("[^/]+" if part.startswith("<") else "[^/]*" if part == "*"
                   else re.escape(part) for part in parts)
    return re.compile(body + (".+" if entry.endswith("/") else ""))


def test_readme_layout_matches_a_run(finished_run):
    """Every file a run writes matches exactly one entry of the README's run
    directory layout, and every entry matches some file."""
    _, root, _ = finished_run
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    entries = {entry: _layout_pattern(entry) for entry in _readme_layout()}
    unmatched = [f for f in files if sum(bool(pat.fullmatch(f)) for pat in entries.values()) != 1]
    unwritten = [e for e, pat in entries.items() if not any(pat.fullmatch(f) for f in files)]
    assert (unmatched, unwritten) == ([], [])


def test_svcca_resume_from_dumps(finished_run):
    cfg, root, _ = finished_run
    seed = cfg.seeds[0]
    paths = SeedPaths(root, seed)
    before = (paths.svcca / "trajectory.txt").read_bytes()
    (paths.svcca / "trajectory.txt").unlink()
    (paths.svcca / "layer_diffs.tsv").unlink()
    from ekd.pipeline import stage_svcca

    stage_svcca(cfg, seed, paths)  # rebuilds the report
    assert (paths.svcca / "trajectory.txt").read_bytes() == before


def test_resume_downstream_reproduces_outputs(finished_run):
    cfg, root, _ = finished_run
    seed = cfg.seeds[0]
    paths = SeedPaths(root, seed)
    before_results = (paths.report / "results.tsv").read_bytes()
    # evaluate writes the table that report checks and copies
    assert (paths.eval / "results.tsv").read_bytes() == before_results
    # wipe evaluation + report, re-run only downstream stages
    shutil.rmtree(paths.eval)
    shutil.rmtree(paths.report)
    paths.ensure()
    stage_evaluate(cfg, seed, paths)
    stage_report(cfg, seed, paths)
    assert (paths.report / "results.tsv").read_bytes() == before_results
    assert (paths.eval / "results.tsv").read_bytes() == before_results


def _copy_run(finished_run, tmp_path):
    cfg, root, _ = finished_run
    shutil.copytree(root, tmp_path / "copy")
    return cfg, SeedPaths(tmp_path / "copy", cfg.seeds[0])


def test_forced_evaluate_decodes_once_and_rewrites_the_same_bytes(finished_run, tmp_path,
                                                                  monkeypatch):
    # LM on, every model's test utterances go through one beam search; LM
    # off is greedy and runs none.
    cfg, paths = _copy_run(finished_run, tmp_path)
    results = paths.eval / "results.tsv"
    before = results.read_bytes()
    os.utime(results, ns=(0, 0))
    import ekd.pipeline as pl

    real = pl.beam_decode
    calls = []

    def recording(posteriors, lm, config, vocab):
        calls.append([p.utterance_id for p in posteriors])
        return real(posteriors, lm, config, vocab)

    monkeypatch.setattr(pl, "beam_decode", recording)
    pl.stage_evaluate(cfg, paths.seed, paths, force=True)
    test_ids = {d: [u.id for u in load_corpus(paths.corpus_path(d, "test")).utterances]
                for d in [r.name for r in cfg.all_domains()]}
    teachers = [i for ids in test_ids.values() for i in ids] * len(cfg.teacher_domains)
    students = test_ids[cfg.student_domain.name] * len(cfg.strategies)
    assert calls == [teachers + students]
    assert results.stat().st_mtime_ns != 0  # written again, not left in place
    assert results.read_bytes() == before


def test_failed_evaluate_writes_no_results(finished_run, tmp_path, monkeypatch):
    cfg, paths = _copy_run(finished_run, tmp_path)
    results = paths.eval / "results.tsv"
    before = results.read_bytes()
    import ekd.pipeline as pl

    real = pl.evaluate_model
    calls = []

    def fail_once_with_lm(references, posteriors, lm, config, vocab):
        calls.append(lm is not None)
        if calls == [False, True]:
            raise RuntimeError("synthetic evaluate failure")
        return real(references, posteriors, lm, config, vocab)

    monkeypatch.setattr(pl, "evaluate_model", fail_once_with_lm)
    with pytest.raises(RuntimeError, match="synthetic"):
        pl.stage_evaluate(cfg, paths.seed, paths, force=True)
    # LM off was scored, then the LM-on search failed: nothing is written.
    assert not results.exists()
    pl.stage_evaluate(cfg, paths.seed, paths)
    assert calls == [False, True, False, True]
    assert results.read_bytes() == before


@pytest.mark.parametrize("lm_mode", ["on", "off"])
def test_one_lm_mode_is_refused_before_any_file_is_touched(finished_run, tmp_path, lm_mode):
    cfg, paths = _copy_run(finished_run, tmp_path)
    results = paths.eval / "results.tsv"
    os.utime(results, ns=(0, 0))
    with pytest.raises(PipelineError, match=f"lm mode must be 'both', got '{lm_mode}'$"):
        stage_evaluate(cfg, paths.seed, paths, lm_mode=lm_mode, force=True)
    assert results.stat().st_mtime_ns == 0


def test_lm_off_evaluate_scores_the_greedy_words(finished_run):
    # Without the LM the best CTC hypothesis is the best path: each LM-off
    # row is the WER of every utterance's greedy decoding (and the one beam
    # search of test_forced_evaluate_decodes_once_... is LM-on's).
    cfg, root, _ = finished_run
    paths = SeedPaths(root, cfg.seeds[0])
    held = ResultTable.from_tsv((paths.eval / "results.tsv").read_text())
    rows = 0
    for name, checkpoint, test_sets in _eval_matrix(cfg, paths):
        model = load_checkpoint(checkpoint)
        for test_set, corpus_path in test_sets:
            corpus = load_corpus(corpus_path)
            vocab = corpus.vocabulary
            greedy = greedy_decode_batch(corpus_posteriors(model, corpus), vocab.blank_index)
            want = accumulate([wer(vocab.indices_to_words(utt.transcript),
                                   vocab.indices_to_words(symbols))
                               for utt, symbols in zip(corpus.utterances, greedy)])
            assert held.get(test_set, name, False).breakdown == want
            rows += 1
    assert rows == len(cfg.teacher_domains) * len(cfg.all_domains()) + len(cfg.strategies)


def test_evaluate_reads_each_reference_once_per_test_corpus(finished_run, tmp_path):
    # Every model and both LM modes score against one list of reference
    # words per test corpus.
    cfg, paths = _copy_run(finished_run, tmp_path)
    before = (paths.eval / "results.tsv").read_bytes()
    reads = transcript_read_count()
    stage_evaluate(cfg, cfg.seeds[0], paths, force=True)
    assert transcript_read_count() - reads == sum(r.test_size for r in cfg.all_domains())
    assert (paths.eval / "results.tsv").read_bytes() == before


def test_select_rejects_dumps_of_different_utterances(finished_run, tmp_path):
    # Same count and frame counts: only the renamed id tells the dumps apart.
    cfg, paths = _copy_run(finished_run, tmp_path)
    first, second = (paths.posteriors_path(r.name) for r in cfg.teacher_domains[:2])
    header, posts = load_posteriors(second)
    posts[-1].utterance_id = "renamed"
    save_posteriors(second, posts, header["model_id"], header["vocabulary_hash"])
    with pytest.raises(PipelineError, match=f"{re.escape(str(first))} and "
                                            f"{re.escape(str(second))} cover different"):
        stage_select(cfg, paths.seed, paths, force=True)


def test_stages_refuse_artifacts_of_another_vocabulary(finished_run, tmp_path):
    # Same size, other order: every index means another grapheme.
    cfg, paths = _copy_run(finished_run, tmp_path)
    permuted = dataclasses.replace(cfg, vocabulary_letters=cfg.vocabulary_letters[::-1])
    remedy = ("was built for another vocabulary; re-run 'pipeline' with --force, "
              "or use a new output root")
    selection = paths.selection_path(cfg.strategies[0])
    for stage, path in ((stage_gen_data, paths.corpus_path(cfg.student_domain.name, "train")),
                        (functools.partial(stage_select, force=True),
                         paths.posteriors_path(cfg.teacher_domains[0].name)),
                        (functools.partial(stage_train_student, force=True), selection),
                        (stage_report, selection)):
        with pytest.raises(PipelineError, match=f"{re.escape(str(path))} {re.escape(remedy)}"):
            stage(permuted, paths.seed, paths)
    # The remedy works: every artifact is rebuilt on the new vocabulary.
    table = run_pipeline(permuted, str(paths.base.parent), force=True)
    assert len(table.cells) == len(finished_run[2].cells)
    stage_select(permuted, paths.seed, paths, force=True)
    assert stage_report(permuted, paths.seed, paths).to_tsv() == table.to_tsv()


def test_gen_data_refuses_more_svcca_frames_than_the_student_split_has(tmp_path):
    cfg = compact_config(str(tmp_path / "out"))
    cfg.svcca = SvccaSettings(n_frames=100000)
    with pytest.raises(PipelineError, match=r"config key 'svcca.n_frames' is 100000, but the "
                                            r"student train split has only \d+ frames"):
        run_pipeline(cfg)
    paths = SeedPaths(tmp_path / "out", cfg.seeds[0])
    assert not (paths.lm / "ngram.arpa").exists()  # so a re-run builds gen-data again
    assert not any(paths.teachers.iterdir())


def test_gen_data_checks_svcca_frames_on_an_existing_root(tmp_path):
    cfg = compact_config(str(tmp_path / "out"))
    paths = SeedPaths(tmp_path / "out", cfg.seeds[0])
    stage_gen_data(cfg, cfg.seeds[0], paths)
    cfg.svcca = SvccaSettings(n_frames=100000)
    with pytest.raises(PipelineError, match=r"config key 'svcca.n_frames' is 100000, but the "
                                            r"student train split has only \d+ frames"):
        run_seed(cfg, cfg.seeds[0], tmp_path / "out")
    assert not any(paths.teachers.iterdir())


def _trajectory_steps(paths) -> list[int]:
    rows = (paths.svcca / "trajectory.txt").read_text().split("\n\n")[0].splitlines()[1:]
    return sorted({int(row.split("\t")[1]) for row in rows})


def test_forced_student_and_svcca_drop_stale_snapshots(finished_run, tmp_path):
    cfg, paths = _copy_run(finished_run, tmp_path)
    assert _trajectory_steps(paths) == [2, 4]
    shorter = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, epochs=3))
    stage_train_student(shorter, paths.seed, paths, force=True)
    snaps = sorted(p.name for p in paths.snapshot_dir("student_elitist").iterdir())
    assert snaps == ["epoch_0002.ekdm", "epoch_0003.ekdm"]
    stage_svcca(shorter, paths.seed, paths, force=True)
    assert _trajectory_steps(paths) == [2, 3]


def test_only_the_analysed_student_keeps_snapshots(finished_run):
    cfg, root, _ = finished_run
    paths = SeedPaths(root, cfg.seeds[0])
    assert sorted(p.name for p in (paths.base / "snapshots").iterdir()) == [
        "student_elitist", "student_original_labels"]


def test_probe_gate_passes_and_records(finished_run, tmp_path):
    """The gate adds ``probe_wer``, the greedy WER on 16 zero-noise utterances
    of the teacher's own domain, and leaves the weights as trained."""
    cfg, paths = _copy_run(finished_run, tmp_path)
    name = cfg.teacher_domains[0].name
    ungated = load_checkpoint(paths.teacher_path(name))
    assert "probe_wer" not in ungated.training_meta
    gated = dataclasses.replace(cfg, probe_wer_threshold=10.0)
    paths.teacher_path(name).unlink()  # the other teachers exist and are skipped
    stage_train_teacher(gated, paths.seed, paths)
    model = load_checkpoint(paths.teacher_path(name))
    spec = dataclasses.replace(cfg.expand_domains()[name], emission_noise_std=0.0)
    probe_seed = (derive_seed(paths.seed, "train", name) * 9973 + 17) % (2 ** 31)
    probe = generate_corpus(spec, cfg.vocabulary(), 16, probe_seed)
    assert model.training_meta["probe_wer"] == greedy_corpus_wer(model, probe)
    assert model.training_meta.keys() - ungated.training_meta.keys() == {"probe_wer"}
    assert all(np.array_equal(a, b) for a, b in zip(model.weights, ungated.weights))


def test_probe_gate_rejects_undertrained(finished_run, tmp_path):
    cfg, paths = _copy_run(finished_run, tmp_path)
    name = cfg.teacher_domains[0].name
    strict = dataclasses.replace(cfg, probe_wer_threshold=0.0)
    paths.teacher_path(name).unlink()
    with pytest.raises(TeacherQualityError,
                       match="teacher on 'alpha': probe WER .* exceeds gate 0.000"):
        stage_train_teacher(strict, paths.seed, paths)
    assert not paths.teacher_path(name).exists()


def test_report_requires_every_selection(finished_run, tmp_path):
    cfg, paths = _copy_run(finished_run, tmp_path)
    missing = paths.selection_path("framewise_max")
    missing.unlink()
    with pytest.raises(PipelineError, match=f"{re.escape(str(missing))}; run 'select' first"):
        stage_report(cfg, paths.seed, paths)


def _other_model(row: str) -> str:
    test_set, _, rest = row.split("\t", 2)
    return "\t".join([test_set, "teacher_epsilon", rest])


@pytest.mark.parametrize("damage, error", [
    (lambda lines: None, "; run 'evaluate' first"),  # deleted
    (lambda lines: lines[:1], " does not hold exactly the cells"),  # cut to its header
    (lambda lines: lines[:2] + lines[3:], " does not hold exactly the cells"),  # row deleted
    (lambda lines: lines + lines[1:2], " line 32: cell teacher_alpha on alpha_test (lm off) "
                                       "is repeated"),
    (lambda lines: lines + [_other_model(lines[1])], " does not hold exactly the cells")],
    ids=["missing", "header-only", "row-deleted", "row-repeated", "other-model"])
def test_report_refuses_a_cell_file_without_its_cells(finished_run, tmp_path, damage, error):
    # The cell file is eval/results.tsv: one row per model, test set and LM mode.
    cfg, paths = _copy_run(finished_run, tmp_path)
    results = paths.eval / "results.tsv"
    lines = damage(results.read_text().splitlines())
    results.unlink()
    if lines is not None:
        results.write_text("\n".join(lines) + "\n")
    report = (paths.report / "results.tsv").read_bytes()
    with pytest.raises((PipelineError, ValueError), match=re.escape(f"{results}{error}")):
        stage_report(cfg, paths.seed, paths)
    assert (paths.report / "results.tsv").read_bytes() == report


def test_forced_svcca_applies_new_settings(finished_run, tmp_path):
    cfg, paths = _copy_run(finished_run, tmp_path)
    before = (paths.svcca / "trajectory.txt").read_bytes()
    changed = dataclasses.replace(cfg, svcca=SvccaSettings(n_frames=100, variance_fraction=0.99,
                                                           sample_seed=99))
    stage_svcca(changed, paths.seed, paths, force=True)
    assert (paths.svcca / "trajectory.txt").read_bytes() != before


def _cut_after_first_snapshot(monkeypatch):
    """Make every training run with snapshots stop right after its first one."""
    import ekd.pipeline as pl

    real = pl._snapshots_into

    def cut_after_first(files, config):
        hook = real(files, config)

        def snapshot_then_stop(epoch, ckpt):
            hook(epoch, ckpt)
            raise KeyboardInterrupt

        return snapshot_then_stop

    monkeypatch.setattr(pl, "_snapshots_into", cut_after_first)


def test_interrupted_svcca_reference_run_is_rebuilt(finished_run, tmp_path, monkeypatch):
    # Every snapshot file is an output of the reference run, so a cut run,
    # which lacks its later ones, is rebuilt.
    cfg, paths = _copy_run(finished_run, tmp_path)
    before = (paths.svcca / "trajectory.txt").read_bytes()
    reference = paths.snapshot_dir("student_original_labels")
    shutil.rmtree(reference)
    for name in ("trajectory.txt", "layer_diffs.tsv"):
        (paths.svcca / name).unlink()
    _cut_after_first_snapshot(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        stage_svcca(cfg, paths.seed, paths)
    first = cfg.train.eval_every
    assert sorted(p.name for p in reference.iterdir()) == [f"epoch_{first:04d}.ekdm"]
    monkeypatch.undo()
    stage_svcca(cfg, paths.seed, paths)
    epochs = range(first, cfg.train.epochs + 1, first)
    assert sorted(p.name for p in reference.iterdir()) == [f"epoch_{e:04d}.ekdm" for e in epochs]
    assert (paths.svcca / "trajectory.txt").read_bytes() == before


def test_svcca_refuses_an_interrupted_elitist_student(finished_run, tmp_path, monkeypatch):
    # A cut elitist run leaves a snapshot directory with only its first
    # epochs; svcca must wait for train-student instead of comparing them,
    # and names the first snapshot file missing.
    cfg, paths = _copy_run(finished_run, tmp_path)
    before = (paths.svcca / "layer_diffs.tsv").read_bytes()
    student, pseudo = paths.student_path("elitist"), paths.snapshot_dir("student_elitist")
    student.unlink()
    shutil.rmtree(pseudo)
    for name in ("trajectory.txt", "layer_diffs.tsv"):
        (paths.svcca / name).unlink()
    _cut_after_first_snapshot(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        stage_train_student(cfg, paths.seed, paths)
    assert sorted(p.name for p in pseudo.iterdir()) == [f"epoch_{cfg.train.eval_every:04d}.ekdm"]
    monkeypatch.undo()
    missing = paths.snapshots("student_elitist", cfg)[1]
    with pytest.raises(PipelineError, match=_refused(missing, "train-student")):
        stage_svcca(cfg, paths.seed, paths)
    assert not (paths.svcca / "layer_diffs.tsv").exists()
    stage_train_student(cfg, paths.seed, paths)
    stage_svcca(cfg, paths.seed, paths)
    assert (paths.svcca / "layer_diffs.tsv").read_bytes() == before


def test_resume_touches_nothing(finished_run):
    cfg, root, _ = finished_run
    paths = SeedPaths(root, cfg.seeds[0])

    def artifacts():
        files = [p for p in root.rglob("*") if p.suffix.startswith(".ekd")]
        files.append(paths.eval / "results.tsv")
        return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in files}

    before = artifacts()
    assert len(before) > len(cfg.strategies)
    run_pipeline(cfg)
    assert artifacts() == before


@pytest.fixture(scope="module")
def forced_units(finished_run, tmp_path_factory):
    """A forced ``run_pipeline`` over a copy of the run, recording every unit
    each stage hands to ``_run_units`` as (stage, unit) and each unit built as
    (stage, unit, paths that its stage's load and its build step read)."""
    cfg, root, _ = finished_run
    copy = tmp_path_factory.mktemp("forced") / "out"
    shutil.copytree(root, copy)
    import ekd.pipeline as pl

    reads, seen, built = [], [], []

    def reading(load):
        def recorded(path, *args, **kwargs):
            reads.append(Path(path))
            return load(path, *args, **kwargs)
        return recorded

    def run_units(stage, units, config, seed, paths, force, load=None):
        seen.extend((stage, unit) for unit in units)
        shared = []

        def recorded_load(config, paths):
            start = len(reads)
            inputs = load(config, paths) if load else None
            shared.extend(reads[start:])
            return inputs

        def recorded(unit):
            def build(*args):
                start = len(reads)
                unit.build(*args)
                built.append((stage, unit, [*shared, *reads[start:]]))
            return unit._replace(build=build)

        return real_run_units(stage, [recorded(unit) for unit in units], config, seed, paths,
                              force, recorded_load)

    real_run_units = pl._run_units
    with pytest.MonkeyPatch.context() as mp:
        for name in ("load_corpus", "load_checkpoint", "load_posteriors", "load_selection",
                     "load_arpa"):
            mp.setattr(pl, name, reading(getattr(pl, name)))
        mp.setattr(pl, "_run_units", run_units)
        run_pipeline(cfg, str(copy), force=True)
    return cfg, seen, built


def test_every_unit_is_plain_data(forced_units):
    # What a worker process needs: a unit pickles to an equal unit.
    cfg, seen, _ = forced_units
    assert [stage for stage in STAGES if any(s == stage for s, _ in seen)] == list(STAGES)[:-1]
    assert len(seen) == 4 + 2 * len(cfg.teacher_domains) + 2 * len(cfg.strategies)
    for _, unit in seen:
        assert pickle.loads(pickle.dumps(unit)) == unit


def test_every_unit_needs_what_it_reads_from_earlier_stages(forced_units):
    # Resume keyed on a unit's inputs needs every one of them declared.
    _, seen, built = forced_units
    assert [(stage, unit) for stage, unit, _ in built] == seen

    def under(path, roots) -> bool:
        return any(path == root or root in path.parents for root in roots)

    stages_reading = set()
    for stage, unit, reads in built:
        own = [p for s, u in seen if s == stage for p in u.outputs]
        for path in (p for p in reads if not under(p, own)):
            stages_reading.add(stage)
            assert under(path, unit.needs), f"{stage} {unit.name} reads {path} undeclared"
    assert stages_reading == set(STAGES) - {"gen-data", "report"}


def test_missing_upstream_artifact_names_file(tmp_path):
    cfg = compact_config(str(tmp_path / "out"))
    paths = SeedPaths(tmp_path / "out", cfg.seeds[0])
    paths.ensure()
    with pytest.raises(PipelineError, match="gen-data"):
        stage_decode(cfg, cfg.seeds[0], paths)


def _make_stale(path: Path, version: int = binio.VERSION - 1) -> None:
    """Rewrite the container's u32 format version (bytes 4-7) as an older
    ekd wrote it; resume reads that and nothing after it."""
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", version)
    path.write_bytes(bytes(data))


def _refused(path: Path, producer: str) -> str:
    return (f"^missing or out-of-date artifact {re.escape(str(path))}; "
            f"run '{producer}' first$")


def _mtimes(root: Path) -> dict[Path, int]:
    return {p: p.stat().st_mtime_ns for p in root.rglob("*") if p.is_file()}


# Each kind of binary artifact, and the stage that writes it.
_OWN_STAGE = {
    "corpus": (lambda cfg, paths: paths.corpus_path("alpha", "test"), "gen-data"),
    "teacher": (lambda cfg, paths: paths.teacher_path("beta"), "train-teacher"),
    "posteriors": (lambda cfg, paths: paths.posteriors_path("gamma"), "decode"),
    "selection": (lambda cfg, paths: paths.selection_path("teacher_average"), "select"),
    "student": (lambda cfg, paths: paths.student_path("framewise_max"), "train-student"),
    "elitist-snapshot": (lambda cfg, paths: paths.snapshots("student_elitist", cfg)[0],
                         "train-student"),
    "reference-snapshot": (lambda cfg, paths: paths.snapshots("student_original_labels", cfg)[0],
                           "svcca")}


@pytest.mark.parametrize("kind", list(_OWN_STAGE))
def test_stale_output_is_rebuilt_by_its_own_stage(finished_run, tmp_path, kind):
    # A file of another format version counts as absent: its own stage
    # rebuilds it without --force, byte for byte at the current version.
    cfg, paths = _copy_run(finished_run, tmp_path)
    output, stage = _OWN_STAGE[kind]
    path = output(cfg, paths)
    want = path.read_bytes()
    _make_stale(path)
    stale = path.read_bytes()
    before = _mtimes(paths.base)
    run_stage(stage, cfg, paths.seed, paths)
    assert path.read_bytes() == want != stale
    rewritten = {p for p, t in _mtimes(paths.base).items() if before.get(p) != t}
    assert path in rewritten
    # The stage's other units stay as they are.
    if kind in ("teacher", "posteriors", "selection", "student"):
        assert rewritten == {path}


def test_every_binary_artifact_read_names_its_producer_if_stale(forced_units):
    # A unit reads earlier stages' artifacts only through its needs (see
    # test_every_unit_needs_what_it_reads_from_earlier_stages), and
    # _require names, for a missing or stale need, the stage whose unit
    # writes it.
    import ekd.pipeline as pl

    _, seen, _ = forced_units
    writers = {path: stage for stage, unit in seen for path in unit.outputs}
    needs = {path for _, unit in seen for path in unit.needs}
    assert {p: pl._PRODUCERS[p.parent.name] for p in needs} == {p: writers[p] for p in needs}
    assert {p.parent.name for p in needs} == set(pl._PRODUCERS) - {"eval"}  # report's need


# Each stale need, read by one stage run alone, is named with the stage that
# rebuilds it: (the file, the stage run, an output deleted so that the stage
# reads the file, the stage named).
@pytest.mark.parametrize("stale, stage, deleted, producer", [
    (lambda cfg, paths: paths.student_train(cfg), "train-student",
     lambda cfg, paths: paths.student_path("elitist"), "gen-data"),
    (lambda cfg, paths: paths.corpus_path("alpha", "train"), "train-teacher",
     lambda cfg, paths: paths.teacher_path("alpha"), "gen-data"),
    (lambda cfg, paths: paths.corpus_path("alpha", "test"), "evaluate",
     lambda cfg, paths: paths.eval / "results.tsv", "gen-data"),
    (lambda cfg, paths: paths.posteriors_path("alpha"), "select",
     lambda cfg, paths: paths.selection_path("elitist"), "decode"),
    (lambda cfg, paths: paths.snapshots("student_elitist", cfg)[0], "svcca",
     lambda cfg, paths: paths.svcca / "trajectory.txt", "train-student")],
    ids=["student-corpus", "teacher-corpus", "test-corpus", "posteriors", "elitist-snapshot"])
def test_stale_artifact_names_the_stage_that_rebuilds_it(finished_run, tmp_path, stale, stage,
                                                         deleted, producer):
    cfg, paths = _copy_run(finished_run, tmp_path)
    path = stale(cfg, paths)
    _make_stale(path)
    deleted(cfg, paths).unlink()
    with pytest.raises(PipelineError, match=_refused(path, producer)):
        run_stage(stage, cfg, paths.seed, paths)
    # The named stage, then the one run, mend it without --force.
    run_stage(producer, cfg, paths.seed, paths)
    run_stage(stage, cfg, paths.seed, paths)
    assert not binio.stale(path)


def test_resume_over_version_1_checkpoint_names_stage(finished_run, tmp_path):
    # Decode, resumed on its own, cannot mend an old teacher: it names the
    # stage that rebuilds it, and that stage needs no --force.
    cfg, paths = _copy_run(finished_run, tmp_path)
    name = cfg.teacher_domains[0].name
    teacher, dump = paths.teacher_path(name), paths.posteriors_path(name)
    want = teacher.read_bytes(), dump.read_bytes()
    _make_stale(teacher, 1)
    dump.unlink()
    with pytest.raises(PipelineError, match=_refused(teacher, "train-teacher")):
        run_stage("decode", cfg, paths.seed, paths)
    run_stage("train-teacher", cfg, paths.seed, paths)
    run_stage("decode", cfg, paths.seed, paths)
    assert (teacher.read_bytes(), dump.read_bytes()) == want


def test_evaluate_over_version_1_student_checkpoint_names_train_student(finished_run, tmp_path):
    cfg, paths = _copy_run(finished_run, tmp_path)
    student = paths.student_path(cfg.strategies[-1])
    _make_stale(student, 1)
    (paths.eval / "results.tsv").unlink()
    with pytest.raises(PipelineError, match=_refused(student, "train-student")):
        run_stage("evaluate", cfg, paths.seed, paths)
    # The remedy works: the rebuilt student gives the same results.
    run_stage("train-student", cfg, paths.seed, paths)
    run_stage("evaluate", cfg, paths.seed, paths)
    assert ((paths.eval / "results.tsv").read_bytes()
            == (finished_run[1] / paths.base.name / "eval" / "results.tsv").read_bytes())


@pytest.mark.parametrize("stage", ["train-student", "report"])
def test_version_2_selection_is_refused_naming_select(finished_run, tmp_path, stage):
    # Version 2 kept one record per outcome. Without its student,
    # train-student reads the selection; report always does.
    cfg, paths = _copy_run(finished_run, tmp_path)
    old = paths.selection_path("elitist")
    old.write_bytes(binio.MAGIC + struct.pack("<IQ", 2, 2) + b"{}")
    paths.student_path("elitist").unlink()
    with pytest.raises(PipelineError, match=_refused(old, "select")):
        run_stage(stage, cfg, paths.seed, paths)


def test_older_root_is_rebuilt_by_one_run(finished_run, tmp_path):
    # Every container of an older ekd is stale: one resumed run rebuilds
    # each, byte for byte, and a second run rewrites none of them.
    cfg, paths = _copy_run(finished_run, tmp_path)
    containers = sorted(p for p in paths.base.rglob("*") if p.suffix.startswith(".ekd"))
    want = {p: p.read_bytes() for p in containers}
    for path in containers:
        _make_stale(path)
    run_seed(cfg, paths.seed, paths.base.parent)
    assert {p: p.read_bytes() for p in containers} == want
    assert sorted(p for p in paths.base.rglob("*") if p.suffix.startswith(".ekd")) == containers
    before = {p: p.stat().st_mtime_ns for p in containers}
    run_seed(cfg, paths.seed, paths.base.parent)
    assert {p: p.stat().st_mtime_ns for p in containers} == before


def test_stage_failure_names_stage(tmp_path, monkeypatch):
    cfg = compact_config(str(tmp_path / "out"))
    import ekd.pipeline as pl

    def boom(*a, **k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(pl.STAGES, "decode", boom)
    with pytest.raises(PipelineError, match="stage 'decode'"):
        run_seed(cfg, cfg.seeds[0], tmp_path / "out")


def _make_indomain(cfg):
    """Give the student the exact content of teacher alpha (different name)."""
    t0 = dataclasses.replace(cfg.teacher_domains[0],
                             shared_words=cfg.shared_lexicon_size, unique_words=0)
    cfg.teacher_domains = [t0, *cfg.teacher_domains[1:]]
    cfg.student_domain = dataclasses.replace(
        cfg.student_domain, emission_noise_std=t0.emission_noise_std,
        transform_strength=t0.transform_strength, transform_seed=t0.transform_seed,
        shared_words=cfg.shared_lexicon_size, unique_words=0,
        frames_per_symbol=t0.frames_per_symbol, utterance_words=t0.utterance_words)
    return cfg


def test_ood_guard_refuses_matching_domains(tmp_path):
    cfg = _make_indomain(compact_config(str(tmp_path / "out")))
    with pytest.raises(ValueError, match="student domain 'delta' does not differ from teacher "
                                         "domain 'alpha'$"):
        cfg.validate_ood()


def test_identical_domains_rejected(tmp_path):
    cfg = compact_config(str(tmp_path / "out"))
    base = dataclasses.replace(cfg.teacher_domains[0],
                               shared_words=cfg.shared_lexicon_size, unique_words=0)
    twin = dataclasses.replace(base, name="twin")
    cfg.teacher_domains = [base, twin, cfg.teacher_domains[2]]
    with pytest.raises(ValueError, match="identical"):
        cfg.expand_domains()


def test_unknown_strategy_rejected_before_any_stage(tmp_path, capsys):
    from ekd.cli import main

    out = tmp_path / "out"
    rc = main(["gen-data", "--output-root", str(out),
               "--set", "strategies=[elitist, median_teacher]"])
    assert rc == 1
    assert "median_teacher" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_strategy_rejected_before_any_stage(tmp_path, capsys):
    # A repeated strategy would list its student twice in the evaluate
    # matrix, train it twice and print its win counts twice.
    from ekd.cli import main

    out = tmp_path / "out"
    rc = main(["gen-data", "--output-root", str(out),
               "--set", "strategies=[elitist, elitist, teacher_average]"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'strategies'" in err and "['elitist'] more than once" in err
    assert not out.exists()


def test_config_without_elitist_rejected(tmp_path):
    with pytest.raises(ValueError, match="elitist"):
        dataclasses.replace(compact_config(str(tmp_path / "out")),
                            strategies=["teacher_average", "framewise_max"])


@pytest.mark.parametrize("change, error", [
    (lambda cfg: setattr(cfg, "seeds", [11, 11]), "config key 'seeds' lists [11] more than once"),
    (lambda cfg: setattr(cfg, "strategies", ["teacher_average", "framewise_max"]),
     "strategies must include 'elitist'"),
    (lambda cfg: setattr(cfg, "probe_wer_threshold", -1),
     "config key 'probe_wer_threshold' must be null or >= 0"),
    (lambda cfg: setattr(cfg, "model", ModelConfig(seed=1)), "config key 'model.seed' must be 0"),
    (lambda cfg: setattr(cfg.student_domain, "name", "../../escape"),
     "domain '../../escape': name must be letters, digits, '_' or '-'"),
    (lambda cfg: setattr(cfg.train, "epochs", 0),
     "epochs, batch_size and eval_every must be >= 1")],
    ids=["repeated-seed", "no-elitist", "negative-probe-threshold", "model-seed",
         "domain-name", "train-epochs"])
def test_fields_set_after_the_config_is_built_are_checked_when_a_run_starts(tmp_path, change,
                                                                            error):
    # compact_config sets its fields one by one, after the config was built.
    cfg = compact_config(str(tmp_path / "out"))
    change(cfg)
    with pytest.raises(ValueError, match=re.escape(error)):
        cfg.validate_ood()
    with pytest.raises(ValueError, match=re.escape(error)):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()


def test_output_root_precedence(tmp_path, monkeypatch):
    cfg = compact_config(str(tmp_path / "from-config"))
    monkeypatch.setenv("EKD_OUTPUT_ROOT", str(tmp_path / "from-env"))  # read by nothing
    assert output_root(cfg) == tmp_path / "from-config"
    assert output_root(cfg, str(tmp_path / "flag")) == tmp_path / "flag"


def test_full_rerun_bit_identical(tmp_path):
    cfg1 = compact_config(str(tmp_path / "a"))
    cfg2 = compact_config(str(tmp_path / "b"))
    t1 = run_pipeline(cfg1)
    t2 = run_pipeline(cfg2)
    assert t1.to_tsv() == t2.to_tsv()
    s1 = (tmp_path / "a" / "summary" / "summary.tsv").read_bytes()
    s2 = (tmp_path / "b" / "summary" / "summary.tsv").read_bytes()
    assert s1 == s2


def test_result_table_round_trip(finished_run):
    _, _, table = finished_run
    again = ResultTable.from_tsv(table.to_tsv())
    assert again.to_tsv() == table.to_tsv()

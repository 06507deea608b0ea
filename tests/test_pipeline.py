import dataclasses
import functools
import re
import shutil

import numpy as np
import pytest

from ekd import binio
from ekd.config import SvccaSettings, derive_seed
from ekd.corpus import generate_corpus
from ekd.model import load_checkpoint
from ekd.pipeline import (PipelineError, SeedPaths, TeacherQualityError, output_root,
                          run_pipeline, run_seed, stage_decode, stage_gen_data, stage_report,
                          stage_select, stage_svcca, stage_train_student, stage_train_teacher)
from ekd.report import ResultTable
from ekd.selection import load_posteriors, load_selection, save_posteriors
from ekd.training import greedy_corpus_wer

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
    before_cells = {p.name: p.read_bytes() for p in paths.eval_cells.iterdir()}
    # wipe evaluation + report, re-run only downstream stages
    shutil.rmtree(paths.eval_cells)
    shutil.rmtree(paths.report)
    paths.ensure()
    from ekd.pipeline import stage_evaluate

    stage_evaluate(cfg, seed, paths)
    stage_report(cfg, seed, paths)
    assert (paths.report / "results.tsv").read_bytes() == before_results
    after_cells = {p.name: p.read_bytes() for p in paths.eval_cells.iterdir()}
    assert after_cells == before_cells


def test_failed_evaluate_cell_is_retried(finished_run, monkeypatch):
    cfg, root, _ = finished_run
    seed = cfg.seeds[0]
    paths = SeedPaths(root, seed)
    cell = paths.cell_path("student_elitist", f"{cfg.student_domain.name}_test", False)
    before = cell.read_bytes()
    cell.unlink()
    import ekd.pipeline as pl

    real = pl.evaluate_model
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("synthetic evaluate failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(pl, "evaluate_model", fail_once)
    with pytest.raises(RuntimeError, match="synthetic"):
        pl.stage_evaluate(cfg, seed, paths, lm_mode="off")
    assert not cell.exists()
    pl.stage_evaluate(cfg, seed, paths, lm_mode="off")
    assert cell.read_bytes() == before
    # The unit is the model: only the student whose cell is missing is
    # evaluated again; every other model has all its cells and is skipped.
    assert len(calls) == 2


def _copy_run(finished_run, tmp_path):
    cfg, root, _ = finished_run
    shutil.copytree(root, tmp_path / "copy")
    return cfg, SeedPaths(tmp_path / "copy", cfg.seeds[0])


def _cell_stamps(paths):
    """Each cell file's (inode, mtime); a rewrite replaces the file."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in paths.eval_cells.iterdir()}


def test_deleted_teacher_cell_reevaluates_only_that_teacher(finished_run, tmp_path, monkeypatch):
    # One decode per LM flag over all of the teacher's test sets; no other
    # model's cell is written.
    cfg, paths = _copy_run(finished_run, tmp_path)
    teacher = f"teacher_{cfg.teacher_domains[1].name}"
    before = {p.name: p.read_bytes() for p in paths.eval_cells.iterdir()}
    stamps = _cell_stamps(paths)
    paths.cell_path(teacher, f"{cfg.teacher_domains[0].name}_test", False).unlink()
    import ekd.pipeline as pl

    real = pl.evaluate_model
    calls = []

    def recording(corpora, posteriors, lm, config):
        calls.append(([corpus.name for corpus in corpora], lm is not None))
        return real(corpora, posteriors, lm, config)

    monkeypatch.setattr(pl, "evaluate_model", recording)
    pl.stage_evaluate(cfg, cfg.seeds[0], paths)
    domains = [r.name for r in cfg.all_domains()]
    assert calls == [(domains, False), (domains, True)]
    assert {p.name: p.read_bytes() for p in paths.eval_cells.iterdir()} == before
    rewritten = {name for name, stamp in _cell_stamps(paths).items() if stamp != stamps[name]}
    assert rewritten == {name for name in before if name.startswith(f"{teacher}--")}
    assert len(rewritten) == 2 * len(domains)


def test_lm_off_then_on_writes_the_cells_of_both(finished_run, tmp_path):
    cfg, paths = _copy_run(finished_run, tmp_path)
    both = {p.name: p.read_bytes() for p in paths.eval_cells.iterdir()}
    shutil.rmtree(paths.eval_cells)
    paths.ensure()
    from ekd.pipeline import stage_evaluate

    stage_evaluate(cfg, cfg.seeds[0], paths, lm_mode="off")
    assert sorted(p.name for p in paths.eval_cells.iterdir()) == sorted(
        name for name in both if name.endswith("--lm_off.tsv"))
    stage_evaluate(cfg, cfg.seeds[0], paths, lm_mode="on")
    assert {p.name: p.read_bytes() for p in paths.eval_cells.iterdir()} == both
    assert len(both) == 30


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


def test_forced_student_drops_snapshots_of_unanalysed_strategies(finished_run, tmp_path):
    # Older runs kept per-epoch snapshots of every student.
    cfg, paths = _copy_run(finished_run, tmp_path)
    stale = paths.snapshot_dir("student_framewise_max")
    shutil.copytree(paths.snapshot_dir("student_elitist"), stale)
    stage_train_student(cfg, paths.seed, paths, force=True)
    assert not stale.exists()
    assert sorted(p.name for p in (paths.base / "snapshots").iterdir()) == [
        "student_elitist", "student_original_labels"]


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


def test_forced_svcca_applies_new_settings(finished_run, tmp_path):
    cfg, paths = _copy_run(finished_run, tmp_path)
    before = (paths.svcca / "trajectory.txt").read_bytes()
    changed = dataclasses.replace(cfg, svcca=SvccaSettings(n_frames=100, variance_fraction=0.99,
                                                           sample_seed=99))
    stage_svcca(changed, paths.seed, paths, force=True)
    assert (paths.svcca / "trajectory.txt").read_bytes() != before


def test_interrupted_svcca_reference_run_is_rebuilt(finished_run, tmp_path, monkeypatch):
    # The snapshot directory exists from the first snapshot on, so only the
    # final epoch's snapshot tells a finished reference run from a cut one.
    cfg, paths = _copy_run(finished_run, tmp_path)
    before = (paths.svcca / "trajectory.txt").read_bytes()
    reference = paths.snapshot_dir("student_original_labels")
    shutil.rmtree(reference)
    for name in ("trajectory.txt", "layer_diffs.tsv"):
        (paths.svcca / name).unlink()
    import ekd.pipeline as pl

    real = pl._snapshots_into

    def cut_after_first(snap_dir):
        hook = real(snap_dir)

        def snapshot_then_stop(epoch, ckpt):
            hook(epoch, ckpt)
            raise KeyboardInterrupt

        return snapshot_then_stop

    monkeypatch.setattr(pl, "_snapshots_into", cut_after_first)
    with pytest.raises(KeyboardInterrupt):
        stage_svcca(cfg, paths.seed, paths)
    first = cfg.train.eval_every
    assert sorted(p.name for p in reference.iterdir()) == [f"epoch_{first:04d}.ekdm"]
    monkeypatch.undo()
    stage_svcca(cfg, paths.seed, paths)
    epochs = range(first, cfg.train.epochs + 1, first)
    assert sorted(p.name for p in reference.iterdir()) == [f"epoch_{e:04d}.ekdm" for e in epochs]
    assert (paths.svcca / "trajectory.txt").read_bytes() == before


def test_resume_touches_nothing(finished_run):
    cfg, root, _ = finished_run
    paths = SeedPaths(root, cfg.seeds[0])

    def artifacts():
        files = [p for p in root.rglob("*") if p.suffix.startswith(".ekd")]
        files += list(paths.eval_cells.iterdir())
        return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in files}

    before = artifacts()
    assert len(before) > len(cfg.strategies)
    run_pipeline(cfg)
    assert artifacts() == before


def test_missing_upstream_artifact_names_file(tmp_path):
    cfg = compact_config(str(tmp_path / "out"))
    paths = SeedPaths(tmp_path / "out", cfg.seeds[0])
    paths.ensure()
    with pytest.raises(PipelineError, match="gen-data"):
        stage_decode(cfg, cfg.seeds[0], paths)


def test_resume_over_version_1_checkpoint_names_stage(finished_run, tmp_path):
    # A root written before checkpoints moved to one record per weight array:
    # version 1 kept the shapes in the header and every weight in one blob.
    cfg, paths = _copy_run(finished_run, tmp_path)
    name = cfg.teacher_domains[0].name
    model = load_checkpoint(paths.teacher_path(name))
    header = {"config": dataclasses.asdict(model.config), "feature_dim": model.feature_dim,
              "vocab_size": model.vocab_size, "vocabulary_hash": model.vocabulary_hash,
              "layout": [list(w.shape) for w in model.weights],
              "training_meta": model.training_meta}
    blob = np.concatenate([w.ravel() for w in model.weights]).astype("<f8").tobytes()
    binio.write_container(paths.teacher_path(name), "checkpoint", 1, header, [blob])
    paths.posteriors_path(name).unlink()
    with pytest.raises(PipelineError, match=r"stage 'decode'.*version mismatch \(file 1, "
                                            r"expected 2\)"):
        run_seed(cfg, paths.seed, tmp_path / "copy")


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
    with pytest.raises(ValueError, match="set config key 'allow_indomain' to true"):
        cfg.validate_ood()
    cfg.allow_indomain = True
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

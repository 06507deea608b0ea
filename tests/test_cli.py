import pytest

from ekd.cli import main
from ekd.config import load_config, save_config

from conftest import compact_config


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """Drive every stage through the CLI on the compact config."""
    base = tmp_path_factory.mktemp("cli")
    out = base / "run"
    cfg = compact_config(str(out))
    cfg_path = base / "experiment.yaml"
    save_config(cfg, cfg_path)
    seed = cfg.seeds[0]
    for argv in (
        ["gen-data", "-c", str(cfg_path), "--seed", str(seed)],
        ["train-teacher", "-c", str(cfg_path), "--seed", str(seed)],
        ["decode", "-c", str(cfg_path), "--seed", str(seed)],
        ["select", "-c", str(cfg_path), "--seed", str(seed), "--strategy", "elitist"],
        ["select", "-c", str(cfg_path), "--seed", str(seed)],
        ["train-student", "-c", str(cfg_path), "--seed", str(seed)],
        ["evaluate", "-c", str(cfg_path), "--seed", str(seed), "--lm", "off"],
        ["evaluate", "-c", str(cfg_path), "--seed", str(seed), "--lm", "on"],
        ["svcca", "-c", str(cfg_path), "--seed", str(seed)],
    ):
        assert main(argv) == 0, f"command failed: {argv}"
    return cfg, cfg_path, out, seed


def test_report_after_stages(cli_run, capsys):
    cfg, cfg_path, out, seed = cli_run
    assert main(["report", "-c", str(cfg_path), "--seed", str(seed), "--win-counts"]) == 0
    printed = capsys.readouterr().out
    assert "test set:" in printed
    assert "win counts" in printed


def test_report_summary_across_seeds(cli_run, capsys):
    cfg, cfg_path, out, seed = cli_run
    assert main(["report", "-c", str(cfg_path), "--summary"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("test_set\tmodel\tlm\tmean_wer")
    assert "student_elitist" in printed


def test_evaluate_populates_both_lm_columns(cli_run):
    cfg, cfg_path, out, seed = cli_run
    from ekd.pipeline import SeedPaths
    from ekd.report import ResultTable

    paths = SeedPaths(out, seed)
    table = ResultTable.from_cell_files(sorted(paths.eval_cells.iterdir()))
    student_test = f"{cfg.student_domain.name}_test"
    assert table.get(student_test, "student_elitist", False).breakdown is not None
    assert table.get(student_test, "student_elitist", True).breakdown is not None


def test_init_config_round_trips(tmp_path):
    out = tmp_path / "default.yaml"
    assert main(["init-config", "-o", str(out)]) == 0
    cfg = load_config(out)
    assert cfg.seeds and cfg.teacher_domains


def test_config_overrides(tmp_path):
    out = tmp_path / "default.yaml"
    main(["init-config", "-o", str(out)])
    cfg = load_config(out, overrides=["lm_order=2", "beam.beam_width=3",
                                      "train.epochs=2"])
    assert cfg.lm_order == 2
    assert cfg.beam.beam_width == 3
    assert cfg.train.epochs == 2


def test_bad_override_reports_error(tmp_path):
    out = tmp_path / "default.yaml"
    main(["init-config", "-o", str(out)])
    with pytest.raises(ValueError, match="dotted"):
        load_config(out, overrides=["no-equals-sign"])


@pytest.mark.parametrize("override, key", [("kd.alpha=0", "kd.alpha"), ("bogus=1", "bogus")])
def test_unknown_config_key_is_a_cli_error(tmp_path, capsys, override, key):
    out = tmp_path / "out"
    assert main(["gen-data", "--output-root", str(out), "--set", override]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_missing_artifact_is_a_cli_error(tmp_path, capsys):
    cfg = compact_config(str(tmp_path / "none"))
    cfg_path = tmp_path / "c.yaml"
    save_config(cfg, cfg_path)
    rc = main(["decode", "-c", str(cfg_path)])
    assert rc == 1
    assert "gen-data" in capsys.readouterr().err


def test_indomain_guard_via_cli(tmp_path, capsys):
    import dataclasses

    cfg = compact_config(str(tmp_path / "x"))
    t0 = dataclasses.replace(cfg.teacher_domains[0],
                             shared_words=cfg.shared_lexicon_size, unique_words=0)
    cfg.teacher_domains = [t0, *cfg.teacher_domains[1:]]
    cfg.student_domain = dataclasses.replace(
        cfg.student_domain, emission_noise_std=t0.emission_noise_std,
        transform_strength=t0.transform_strength, transform_seed=t0.transform_seed,
        shared_words=cfg.shared_lexicon_size, unique_words=0,
        frames_per_symbol=t0.frames_per_symbol, utterance_words=t0.utterance_words)
    cfg_path = tmp_path / "c.yaml"
    save_config(cfg, cfg_path)
    assert main(["gen-data", "-c", str(cfg_path)]) == 1
    assert "allow-indomain" in capsys.readouterr().err
    # the override flag lets the in-domain experiment proceed
    assert main(["gen-data", "-c", str(cfg_path), "--allow-indomain"]) == 0

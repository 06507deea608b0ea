import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from ekd.beam import BeamConfig
from ekd.cli import main
from ekd.config import (SHARED_LEXICON_SIZE, DomainRecipe, SvccaSettings, default_config,
                        load_config, save_config)
from ekd.model import ModelConfig
from ekd.training import TrainConfig

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
        ["select", "-c", str(cfg_path), "--seed", str(seed)],
        ["train-student", "-c", str(cfg_path), "--seed", str(seed)],
        ["evaluate", "-c", str(cfg_path), "--seed", str(seed)],
        ["svcca", "-c", str(cfg_path), "--seed", str(seed)],
    ):
        assert main(argv) == 0, f"command failed: {argv}"
    return cfg, cfg_path, out, seed


def test_report_after_stages(cli_run, capsys):
    cfg, cfg_path, out, seed = cli_run
    assert main(["report", "-c", str(cfg_path), "--seed", str(seed)]) == 0
    assert "test set:" in capsys.readouterr().out
    assert "win counts" in (out / f"seed_{seed}" / "report" / "win_counts.txt").read_text()


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

    table = ResultTable.from_tsv((SeedPaths(out, seed).eval / "results.tsv").read_text())
    student_test = f"{cfg.student_domain.name}_test"
    for lm_on in (False, True):
        assert table.get(student_test, "student_elitist", lm_on).breakdown is not None


def test_init_config_round_trips(tmp_path):
    out = tmp_path / "default.yaml"
    assert main(["init-config", "-o", str(out)]) == 0
    cfg = load_config(out)
    assert cfg.seeds and cfg.teacher_domains


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_init_config_is_a_cli_error(tmp_path, capsys, target):
    out = {"directory": tmp_path, "missing-parent": tmp_path / "missing" / "x.yaml"}[target]
    assert main(["init-config", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert not (tmp_path / "missing").exists()
    assert not out.with_name(out.name + ".tmp").exists()


def test_config_overrides(tmp_path):
    out = tmp_path / "default.yaml"
    main(["init-config", "-o", str(out)])
    cfg = load_config(out, overrides=["svcca.sample_seed=7", "beam.beam_width=3",
                                      "train.epochs=2"])
    assert cfg.svcca.sample_seed == 7
    assert cfg.beam.beam_width == 3
    assert cfg.train.epochs == 2


def test_bad_override_reports_error(tmp_path):
    out = tmp_path / "default.yaml"
    main(["init-config", "-o", str(out)])
    with pytest.raises(ValueError, match="dotted"):
        load_config(out, overrides=["no-equals-sign"])


@pytest.mark.parametrize("override, key", [("beam.alpha=0", "beam.alpha"), ("bogus=1", "bogus"),
                                           # students train with `train`
                                           ("student_train.epochs=3",
                                            "unknown config key(s): student_train"),
                                           # students always weight by confidence
                                           ("kd.soft_label_mode=hard_pseudo_label",
                                            "unknown config key(s): kd"),
                                           # the synthetic world is fixed in ekd.config
                                           ("vocabulary_letters=abc", "vocabulary_letters"),
                                           ("feature_dim=2.5", "feature_dim"),
                                           ("shared_lexicon_size=16", "shared_lexicon_size"),
                                           ("shared_lexicon_seed=7000", "shared_lexicon_seed"),
                                           ("word_length=3", "word_length"),
                                           ("lm_order=x", "lm_order"),
                                           # wrong-shaped values of known keys
                                           ("teacher_domains=null", "teacher_domains"),
                                           # empty values are refused, not the defaults
                                           ("teacher_domains=[]", "teacher_domains"),
                                           ("student_domain=null", "student_domain"),
                                           ("student_domain.utterance_words=3",
                                            "student_domain.utterance_words"),
                                           ("seeds=5", "seeds"),
                                           # wrongly typed values of known keys
                                           ("train.batch_size=true", "train.batch_size"),
                                           ("train.epochs=abc", "train.epochs"),
                                           ("train.learning_rate=abc", "train.learning_rate"),
                                           ("svcca.n_frames=2.5", "svcca.n_frames"),
                                           ("student_domain.frames_per_symbol=[a,b]",
                                            "student_domain.frames_per_symbol[0]"),
                                           # fixed-length tuple fields given another length
                                           ("student_domain.utterance_words=[2]",
                                            "student_domain.utterance_words"),
                                           ("student_domain.utterance_words=[2,3,4]",
                                            "student_domain.utterance_words"),
                                           ("student_domain.frames_per_symbol=[1,2,3]",
                                            "student_domain.frames_per_symbol"),
                                           ("beam.beam_width=1.5", "beam.beam_width"),
                                           ("svcca.n_frames=x", "svcca.n_frames"),
                                           ("probe_wer_threshold=abc", "probe_wer_threshold"),
                                           # domain sizes a split cannot fill
                                           ("student_domain={name: y, train_size: 30, "
                                            "test_size: 0, emission_noise_std: 0.4, "
                                            "transform_strength: 0.7, transform_seed: 5, "
                                            "shared_words: 4, unique_words: 4}",
                                            "domain 'y': train_size and test_size"),
                                           ("teacher_domains=[{name: x, train_size: -1, "
                                            "test_size: 8, emission_noise_std: 0.3, "
                                            "transform_strength: 0.5, transform_seed: 1, "
                                            "shared_words: 4, unique_words: 4}]",
                                            "domain 'x': train_size and test_size")])
def test_unknown_config_key_is_a_cli_error(tmp_path, capsys, override, key):
    out = tmp_path / "out"
    assert main(["gen-data", "--output-root", str(out), "--set", override]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_kd_section_is_a_cli_error(tmp_path, capsys):
    # What an older `ekd init-config` wrote; the fix is to delete the section.
    data = default_config().to_dict()
    data["kd"] = {"soft_label_mode": "posterior_weighted_ctc"}
    cfg_path, out = tmp_path / "old.yaml", tmp_path / "out"
    cfg_path.write_text(yaml.safe_dump(data))
    assert main(["gen-data", "-c", str(cfg_path), "--output-root", str(out)]) == 1
    assert "error: unknown config key(s): kd\n" in capsys.readouterr().err
    assert not out.exists()


# Keys an older `ekd init-config` wrote, with the values that are now fixed
# in ekd.config; the fix is to delete the line.
_FIXED_WORLD_KEYS = {"vocabulary_letters": "abcdefgh", "feature_dim": 8,
                     "shared_lexicon_size": 16, "shared_lexicon_seed": 7000,
                     "word_length": [2, 5], "lm_order": 3}


@pytest.mark.parametrize("key", list(_FIXED_WORLD_KEYS))
def test_config_file_with_a_fixed_world_key_is_a_cli_error(tmp_path, capsys, key):
    data = default_config().to_dict()
    data[key] = _FIXED_WORLD_KEYS[key]
    cfg_path, out = tmp_path / "old.yaml", tmp_path / "out"
    cfg_path.write_text(yaml.safe_dump(data))
    assert main(["gen-data", "-c", str(cfg_path), "--output-root", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unknown config key(s): {key}\n"
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ("svcca.n_frames=1", "'svcca.n_frames' must be >= 2"),
    ("svcca.n_frames=-1", "'svcca.n_frames' must be >= 2"),
    ("svcca.variance_fraction=1.5", "'svcca.variance_fraction' must lie in (0, 1]"),
    ("svcca.variance_fraction=0", "'svcca.variance_fraction' must lie in (0, 1]"),
    ("probe_wer_threshold=-0.1", "'probe_wer_threshold' must be null or >= 0"),
    ("model.seed=7", "'model.seed' must be 0: every run derives its model and training "
                     "seeds from 'seeds'"),
    ("train.seed=99", "'train.seed' must be 0: every run derives its model and training "
                      "seeds from 'seeds'")])
def test_infeasible_config_value_is_a_cli_error(tmp_path, capsys, override, message):
    """A value no stage can use is refused when the config loads, naming its
    key, not after the teachers and students have trained."""
    out = tmp_path / "out"
    assert main(["gen-data", "--output-root", str(out), "--set", override]) == 1
    assert f"error: config key {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    (["model.activation=relu"], "activation 'relu': only 'tanh' is supported"),
    (["train.optimizer=sgd"], "optimizer 'sgd': only 'adam' is supported"),
    (["student_domain.name=../../escape"],
     "domain '../../escape': name must be letters, digits, '_' or '-' "
     "(it names the domain's files)"),
    (["student_domain.name=a/b"], "domain 'a/b': name must be letters, digits, '_' or '-' "
     "(it names the domain's files)"),
    (["seeds=[11, 12, 11]"], "config key 'seeds' lists [11] more than once"),
    (["student_domain.shared_words=40"],
     "config key 'student_domain.shared_words' is 40, above the 16 words of the shared lexicon"),
    (["teacher_domains=[{name: x, train_size: 8, test_size: 8, emission_noise_std: 0.3, "
      "transform_strength: 0.5, transform_seed: 1, shared_words: 17, unique_words: 4}]"],
     "config key 'teacher_domains[0].shared_words' is 17, above the 16 words of the shared "
     "lexicon"),
    # 16 is the whole shared lexicon, so the second teacher is the one named
    (["teacher_domains=[{name: x, train_size: 8, test_size: 8, emission_noise_std: 0.3, "
      "transform_strength: 0.5, transform_seed: 1, shared_words: 16, unique_words: 0}, "
      "{name: y, train_size: 8, test_size: 8, emission_noise_std: 0.3, "
      "transform_strength: 0.5, transform_seed: 2, shared_words: 17, unique_words: 0}]"],
     "config key 'teacher_domains[1].shared_words' is 17, above the 16 words of the shared "
     "lexicon"),
    (["student_domain.shared_words=0", "student_domain.unique_words=0"],
     "domain 'delta': shared_words and unique_words must be >= 0 and not both 0 "
     "(got 0 and 0)"),
    (["student_domain.unique_words=-1"],
     "domain 'delta': shared_words and unique_words must be >= 0 and not both 0 "
     "(got 10 and -1)"),
    (["student_domain.name=beta"], "domain names must be unique"),
    (["student_domain.utterance_words=[0,2]"],
     "domain 'delta': utterance_words must satisfy 1 <= lo <= hi (got (0, 2))"),
    (["student_domain.frames_per_symbol=[3,1]"],
     "domain 'delta': frames_per_symbol must satisfy 1 <= lo <= hi (got (3, 1))"),
    (["student_domain.emission_noise_std=-1.0"],
     "domain 'delta': emission_noise_std must be >= 0 (got -1.0)"),
    (["student_domain.transform_strength=2.0"],
     "domain 'delta': transform_strength must lie in [0, 1] (got 2.0)")])
def test_config_gen_data_cannot_finish_is_refused_at_load(tmp_path, capsys, overrides,
                                                          message):
    """A config on which gen-data would fail part-way, write outside the
    seed directory, write two domains to one file or run a seed twice is
    refused before anything is written, naming the key or the domain."""
    cfg_path = tmp_path / "c.yaml"
    save_config(default_config(), cfg_path)
    argv = ["pipeline", "-c", str(cfg_path), "--output-root", str(tmp_path / "root" / "out")]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("key", ["beam.lm_weight", "beam.word_insertion_bonus",
                                 "probe_wer_threshold", "train.learning_rate"])
def test_non_finite_config_float_is_a_cli_error(tmp_path, capsys, key, value):
    """A NaN compares false with everything, so it would switch LM fusion or
    the teacher gate off without a word, or fail training only after
    gen-data; NaN and infinities are refused when the config loads."""
    out = tmp_path / "out"
    assert main(["gen-data", "--output-root", str(out), "--set", f"{key}={value}"]) == 1
    assert f"error: config key '{key}' must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, key", [
    ("student_domain.frames_per_symbol=[3,4]", "student_domain.name"),
    ("teacher_domains=[{name: x, train_size: 10}]", "teacher_domains[0].test_size")])
def test_partial_domain_recipe_names_first_required_key(tmp_path, capsys, override, key):
    """A recipe field with no default must be given: a partial entry is a CLI
    error naming the first one missing, not a traceback."""
    out = tmp_path / "out"
    assert main(["gen-data", "--output-root", str(out), "--set", override]) == 1
    assert f"error: config key '{key}' is required" in capsys.readouterr().err
    assert not out.exists()


_PARTIAL_SECTIONS = {
    "model": (ModelConfig, {"hidden_sizes": [8]}),
    "train": (TrainConfig, {"epochs": 2}),
    "beam": (BeamConfig, {"beam_width": 3}),
    "svcca": (SvccaSettings, {"n_frames": 100}),
    "student_domain": (DomainRecipe, {
        "name": "omega", "train_size": 30, "test_size": 10, "emission_noise_std": 0.4,
        "transform_strength": 0.7, "transform_seed": 5, "shared_words": 10,
        "unique_words": 8}),
}


@pytest.mark.parametrize("section", list(_PARTIAL_SECTIONS))
def test_partial_config_section_takes_defaults(tmp_path, section):
    """A config file may list only some keys of a section; the rest take
    their defaults, and the CLI runs on it."""
    cls, keys = _PARTIAL_SECTIONS[section]
    cfg = compact_config(str(tmp_path / "out"))
    data = cfg.to_dict()
    data[section] = keys
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(data))
    expected = dataclasses.replace(cfg, **{section: cls(**keys)})
    assert load_config(cfg_path) == expected
    assert main(["gen-data", "-c", str(cfg_path)]) == 0


def test_non_default_config_round_trips(tmp_path):
    cfg = compact_config(str(tmp_path / "out"), seeds=(3, 4))
    cfg.teacher_domains[0] = dataclasses.replace(cfg.teacher_domains[0], frames_per_symbol=(1, 3))
    cfg.student_domain = dataclasses.replace(cfg.student_domain, utterance_words=(2, 5))
    cfg.strategies = ["elitist", "teacher_average"]
    default = default_config()
    assert all(getattr(cfg, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(cfg))
    first, second = tmp_path / "first.yaml", tmp_path / "second.yaml"
    save_config(cfg, first)
    loaded = load_config(first)
    assert loaded == cfg
    save_config(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_stage_failure_is_a_cli_error(tmp_path, capsys):
    cfg = compact_config(str(tmp_path / "out"))
    cfg_path = tmp_path / "c.yaml"
    save_config(cfg, cfg_path)
    assert main(["gen-data", "-c", str(cfg_path)]) == 0
    rc = main(["train-teacher", "-c", str(cfg_path),
               "--set", "probe_wer_threshold=0.0", "--set", "train.epochs=1"])
    assert rc == 1
    assert f"stage 'train-teacher' (seed {cfg.seeds[0]}) failed" in capsys.readouterr().err


def test_missing_artifact_is_a_cli_error(tmp_path, capsys):
    cfg = compact_config(str(tmp_path / "none"))
    cfg_path = tmp_path / "c.yaml"
    save_config(cfg, cfg_path)
    rc = main(["decode", "-c", str(cfg_path)])
    assert rc == 1
    assert "gen-data" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["train-teacher", "--domain", "alpha"],
                                  ["decode", "--teacher", "alpha"],
                                  ["select", "--strategy", "elitist"],
                                  ["train-student", "--strategy", "elitist"],
                                  ["evaluate", "--models", "student_elitist"],
                                  ["gen-data", "--allow-indomain"],
                                  ["pipeline", "--allow-indomain"],
                                  ["report", "--win-counts"],
                                  ["evaluate", "--lm", "on"]], ids=" ".join)
def test_removed_flag_is_a_usage_error(tmp_path, capsys, argv):
    """Stage filters are gone (delete a unit's outputs and re-run its stage
    to rebuild only that unit), and so are the flag form of allow_indomain,
    the printing of report/win_counts.txt and evaluate's one-LM-mode runs."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--output-root", str(out)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


def test_indomain_guard_via_cli(tmp_path, capsys):
    import dataclasses

    cfg = compact_config(str(tmp_path / "x"))
    t0 = dataclasses.replace(cfg.teacher_domains[0],
                             shared_words=SHARED_LEXICON_SIZE, unique_words=0)
    cfg.teacher_domains = [t0, *cfg.teacher_domains[1:]]
    cfg.student_domain = dataclasses.replace(
        cfg.student_domain, emission_noise_std=t0.emission_noise_std,
        transform_strength=t0.transform_strength, transform_seed=t0.transform_seed,
        shared_words=SHARED_LEXICON_SIZE, unique_words=0,
        frames_per_symbol=t0.frames_per_symbol, utterance_words=t0.utterance_words)
    cfg_path = tmp_path / "c.yaml"
    save_config(cfg, cfg_path)
    assert main(["gen-data", "-c", str(cfg_path)]) == 1
    assert capsys.readouterr().err == ("error: student domain 'delta' does not differ from "
                                       "teacher domain 'alpha'\n")
    # no setting lets the in-domain experiment proceed
    assert main(["gen-data", "-c", str(cfg_path), "--set", "allow_indomain=true"]) == 1
    assert capsys.readouterr().err == "error: unknown config key(s): allow_indomain\n"
    assert not (tmp_path / "x").exists()


def test_config_file_with_allow_indomain_is_a_cli_error(tmp_path, capsys):
    # What an older `ekd init-config` wrote; the fix is to delete the line.
    data = default_config().to_dict()
    data["allow_indomain"] = False
    cfg_path, out = tmp_path / "old.yaml", tmp_path / "out"
    cfg_path.write_text(yaml.safe_dump(data))
    assert main(["gen-data", "-c", str(cfg_path), "--output-root", str(out)]) == 1
    assert capsys.readouterr().err == "error: unknown config key(s): allow_indomain\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["file", "override", "directory"])
def test_malformed_config_is_a_cli_error(tmp_path, capsys, source):
    """Unparsable YAML, in a file or a --set value, and a config path that
    is a directory end in an error line naming the input, not a traceback."""
    out, bad = tmp_path / "out", tmp_path / "bad.yaml"
    bad.write_text("seeds: [1, 2\n")
    argv = {"file": ["-c", str(bad)], "override": ["--set", "seeds=[1,2"],
            "directory": ["-c", str(tmp_path)]}[source]
    assert main(["gen-data", "--output-root", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert {"file": str(bad), "override": "seeds=[1,2", "directory": str(tmp_path)}[source] in err
    assert not out.exists()


def _schema_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Config schema", 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


def test_readme_config_schema_matches_the_config():
    """The README's schema lists every config key and no other: the
    top-level keys, those of each section and those of a domain recipe. It
    abbreviates `student_domain` to its name."""
    text = re.sub(r"[ \t]*#.*", "", _schema_block())
    shown = yaml.safe_load(text.replace(", ...", ""))
    config = default_config().to_dict()
    assert shown.keys() == config.keys()
    for section in ("model", "train", "beam", "svcca"):
        assert shown[section].keys() == config[section].keys(), section
    assert [d.keys() for d in shown["teacher_domains"]] == [config["teacher_domains"][0].keys()]
    assert shown["student_domain"].keys() == {"name"}

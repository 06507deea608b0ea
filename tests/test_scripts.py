import os
import subprocess
import sys
from pathlib import Path

from ekd.config import save_config

from conftest import compact_config

REPO = Path(__file__).resolve().parent.parent


def _run_script(tmp_path, name: str, output_root: Path):
    """Run ``scripts/<name>`` on the compact config; returns (config, stdout)."""
    cfg = compact_config(str(tmp_path / "unused"))
    cfg_path = tmp_path / "compact.yaml"
    save_config(cfg, cfg_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), "-c", str(cfg_path),
         "--output-root", str(output_root)],
        capture_output=True, text=True, env=env, timeout=600, check=True).stdout
    return cfg, out


def test_selection_strategy_demo_runs_pipeline_stages(tmp_path):
    cfg, out = _run_script(tmp_path, "selection_strategy_demo.py", tmp_path / "demo")
    lines = [ln.split() for ln in out.splitlines() if "pseudo-label WER" in ln]
    assert [ln[0] for ln in lines] == cfg.strategies
    assert "wins:" in out
    paths_base = tmp_path / "demo" / f"seed_{cfg.seeds[0]}"
    for strategy in cfg.strategies:
        assert (paths_base / "select" / f"{strategy}.ekds").exists()


def test_default_experiment_prints_the_summary_files(tmp_path):
    _, out = _run_script(tmp_path, "run_default_experiment.py", tmp_path / "run")
    summary = tmp_path / "run" / "summary"
    printed_per_seed, printed_summary = out.split("\n=== cross-seed summary, mean WER (")
    assert printed_summary.split("):\n", 1)[1] == (summary / "summary.tsv").read_text()
    assert (summary / "per_seed.txt").read_text() in printed_per_seed
    assert "student_elitist" in printed_summary

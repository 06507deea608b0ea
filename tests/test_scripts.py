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


def test_readme_quick_start_runs(capsys):
    """The README's library quick-start is self-contained: it runs as written."""
    section = (REPO / "README.md").read_text().split("\n## Library quick-start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md library quick-start", "exec"), {})
    # The winner and its confidence, its transcript, and one line per teacher.
    assert len(capsys.readouterr().out.splitlines()) == 2 + 3

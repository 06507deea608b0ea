import os
import subprocess
import sys
from pathlib import Path

from ekd.config import save_config

from conftest import compact_config

REPO = Path(__file__).resolve().parent.parent


def test_selection_strategy_demo_runs_pipeline_stages(tmp_path):
    cfg = compact_config(str(tmp_path / "unused"))
    cfg_path = tmp_path / "compact.yaml"
    save_config(cfg, cfg_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "selection_strategy_demo.py"), "-c", str(cfg_path),
         "--output-root", str(tmp_path / "demo")],
        capture_output=True, text=True, env=env, timeout=600, check=True).stdout
    lines = [ln.split() for ln in out.splitlines() if "pseudo-label WER" in ln]
    assert [ln[0] for ln in lines] == cfg.strategies
    assert "wins:" in out
    paths_base = tmp_path / "demo" / f"seed_{cfg.seeds[0]}"
    for strategy in cfg.strategies:
        assert (paths_base / "select" / f"{strategy}.ekds").exists()

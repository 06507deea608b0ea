"""The sha256 of every output file of default seed 11, pinned in
``tests/golden/seed_11.sha256``, and the command that re-pins them:

    python tests/golden_digests.py RUN_ROOT/seed_11

where RUN_ROOT is a run of the default config (``ekd pipeline --set
'seeds=[11]'`` or the five default seeds: seed 11's files are the same).
The file holds one ``sha256sum`` line per file, sorted by path, under a
header naming the Python, NumPy and BLAS the digests were made with, read
as ``perfbench/run.py`` reads them.
"""
from __future__ import annotations

import hashlib
import platform
import sys
from pathlib import Path

import numpy as np

PINNED = Path(__file__).parent / "golden" / "seed_11.sha256"


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("openblas configuration") or blas.get("name", "unknown")}


def digests(seed_dir) -> dict[str, str]:
    """The sha256 of every file under ``seed_dir``, by ``./``-relative path."""
    root = Path(seed_dir)
    return {f"./{path.relative_to(root).as_posix()}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.rglob("*") if path.is_file()}


def render(env: dict[str, str], files: dict[str, str]) -> str:
    return ("".join(f"# {key}: {value}\n" for key, value in env.items())
            + "".join(f"{files[path]}  {path}\n" for path in sorted(files)))


def read(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """(header environment, digest by path) of a pinned file."""
    env, files = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(": ", 1)
            env[key] = value
        elif line:
            digest, path = line.split("  ", 1)
            files[path] = digest
    return env, files


def compare(got: dict[str, str], pinned: dict[str, str]) -> dict[str, list[str]]:
    """The changed, missing and new paths of ``got`` against ``pinned``."""
    return {"changed": sorted(p for p in got.keys() & pinned.keys() if got[p] != pinned[p]),
            "missing": sorted(pinned.keys() - got.keys()),
            "new": sorted(got.keys() - pinned.keys())}


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(render(environment(), digests(sys.argv[1])))

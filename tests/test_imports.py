"""Layering of the package: every ekd module imports at module level, and
the svcca analysis layer depends on no other ekd module."""
import ast
from pathlib import Path

import pytest

import ekd

MODULES = sorted(Path(ekd.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_import_inside_a_function(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = [n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not nested, f"{path.name}:{nested[0]}: import inside {node.name}()"


def test_svcca_imports_nothing_from_ekd():
    tree = ast.parse((Path(ekd.__file__).parent / "svcca.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "ekd", ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "ekd" for a in node.names), ast.unparse(node)

"""Every ``from cyclewalk... import name`` in the demos and the benchmark
scripts resolves, so an API removal cannot break a script unnoticed.

The scripts are parsed, not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def cyclewalk_imports(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "cyclewalk"
        for alias in node.names
    ]


def test_scripts_found():
    assert any(p.parent.name == "demos" for p in SCRIPTS)
    assert any(p.parent.name == "perfbench" for p in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_cyclewalk_imports_resolve(path):
    for module, name in cyclewalk_imports(path):
        assert hasattr(importlib.import_module(module), name), f"{path.name}: {module}.{name}"

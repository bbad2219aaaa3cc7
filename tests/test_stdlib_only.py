"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cyclicavg"


def _imported(tree):
    """Top-level names of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_or_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    allowed = set(sys.stdlib_module_names) | {"cyclicavg", "__future__"}
    for path in modules:
        names = set(_imported(ast.parse(path.read_text(encoding="utf-8"))))
        assert names <= allowed, f"{path.name} imports {sorted(names - allowed)}"

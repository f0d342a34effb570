"""The package's only runtime dependency besides the standard library is numpy."""

import ast
import sys
from pathlib import Path

import skelcl


def test_package_imports_only_stdlib_and_numpy():
    imported = set()
    for path in Path(skelcl.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported, "no imports found; wrong package path?"
    assert imported - set(sys.stdlib_module_names) == {"numpy"}

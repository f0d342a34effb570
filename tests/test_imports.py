"""Static checks of the package source: numpy is its only runtime
dependency besides the standard library, and every error class it
defines is raised somewhere."""

import ast
import sys
from pathlib import Path

import skelcl
from skelcl import errors


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


def test_every_error_class_has_a_raise_site():
    # a class nothing raises names a failure the package can no longer report
    raised = set()
    for path in Path(skelcl.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.SkelclError)
               and obj is not errors.SkelclError}
    assert classes, "no error classes found"
    assert classes - raised == set()

"""Count the code lines of the `skelcl` package.

A code line is a line of a `src/skelcl/*.py` file that is not blank, not
only a comment, and not part of a docstring (the string that opens a
module, class or function body).  Prints each file's count and the
total; standard library only.

    python3 tools/code_lines.py [DIR]

DIR defaults to `src/skelcl` of the checkout that holds this script.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skelcl"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python `source`."""
    skipped = docstring_lines(ast.parse(source))
    code: set[int] = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(readline):
        if tok.type not in ignored:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skipped)


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(directory.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

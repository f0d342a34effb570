"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """One line."""

    size = 2


def area(r):
    """A docstring,

    with a blank line inside."""
    text = """a string that is
    not a docstring"""
    return math.pi * r * r, text
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, class, size, def, the two-line string, return
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n')
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["7", "a.py"], ["1", "b.py"], ["8", "total"]]

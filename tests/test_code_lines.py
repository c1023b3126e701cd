"""`tools/code_lines.py` counts the lines that hold code: blank lines,
comments and docstrings do not count."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
on two lines."""

import math  # a trailing comment leaves a code line

# a comment line


def f(x):
    """A function docstring."""
    return (x +
            1)


def g():
    """Only a docstring."""


class C:
    """A class docstring."""

    text = """a string that is no docstring,
    on two lines"""

    def h(self):
        return math.pi
'''


def test_code_lines_counts_code_and_not_docstrings_comments_or_blanks():
    # import; def f and its two-line return; def g; class C; the two-line
    # assignment; def h and its return
    assert code_lines.code_lines(SOURCE) == 10
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys, monkeypatch):
    (tmp_path / "b.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    monkeypatch.setattr(code_lines, "PACKAGE", tmp_path)
    assert code_lines.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2  a.py", "    10  b.py", "    12  total"]

"""``tools/code_lines.py``, the code-line count quoted for ``src/ordbench/``:
what counts as a code line, and what ``main`` prints."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_blank_comment_and_docstring_lines_count_zero():
    assert code_lines.code_lines('"""A module docstring,\non two lines."""\n\n# a comment\n\n') == 0
    source = (
        '"""Module docstring."""\n'
        "\n"
        "# a comment\n"
        "class C:\n"
        '    """Class docstring,\n'
        '    on two lines."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function docstring,\n'
        "\n"
        '        over three lines."""\n'
        "        # a comment in the body\n"
        "        return 1  # a trailing comment\n"
    )
    # class C:, def f(self): and return 1
    assert code_lines.code_lines(source) == 3


def test_a_string_that_is_not_a_docstring_counts_on_every_line():
    assert code_lines.code_lines('x = 1\ns = """one\ntwo\nthree"""\n') == 4
    assert code_lines.code_lines('def f():\n    x = 1\n    """not\n    first\n    """\n') == 5


def test_a_continued_statement_counts_each_line():
    assert code_lines.code_lines("total = (1 +\n         2)\n") == 2
    assert code_lines.code_lines("total = 1 + \\\n    2\n") == 2


def test_main_prints_one_line_per_module_in_name_order_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "a.py").write_text('"""Docstring."""\nz = 3\n')
    (tmp_path / "__init__.py").write_text("# nothing but a comment\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert [line.split() for line in out.splitlines()] == [
        ["0", "__init__.py"],
        ["1", "a.py"],
        ["2", "b.py"],
        ["3", "total"],
    ]


def test_main_counts_the_package_by_default(capsys):
    assert code_lines.main(["code_lines.py"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(p.name for p in (ROOT / "src" / "ordbench").glob("*.py"))
    assert [name for _, name in rows] == modules + ["total"]
    assert int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1])


# The package's code-line budget. A change that needs more lines raises it
# in the same diff and says in CHANGES.md why, and what it paid with.
BUDGET = 2173


def test_the_package_keeps_to_its_line_budget(capsys):
    assert code_lines.main(["code_lines.py"]) == 0
    count, name = capsys.readouterr().out.splitlines()[-1].split()
    assert name == "total" and int(count) <= BUDGET

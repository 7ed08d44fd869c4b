"""bench/lines.py, the physical and code line counter, on a small fixture module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_lines", ROOT / "bench" / "lines.py")
lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment alone
import os  # code that ends in a comment

TEXT = """a string that is
no docstring"""


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring,

        over three lines."""
        "a second string is code"
        return os.sep
'''


def test_count_leaves_out_blank_comment_and_docstring_lines():
    # code: import, TEXT (2 lines), class, def, the second string, return
    assert lines.count(FIXTURE) == (19, 7)
    assert lines.count("") == (0, 0)
    assert lines.count("async def f():\n    '''doc'''\n    return 1\n") == (3, 2)


def test_main_prints_each_module_the_total_and_the_deltas(tmp_path, capsys):
    src, parent = tmp_path / "src", tmp_path / "parent"
    src.mkdir()
    parent.mkdir()
    (src / "shape.py").write_text(FIXTURE, encoding="utf-8")
    (src / "empty.py").write_text("", encoding="utf-8")
    (parent / "shape.py").write_text(FIXTURE.replace("# a comment alone\n", ""), encoding="utf-8")
    (parent / "gone.py").write_text("x = 1\n", encoding="utf-8")
    assert lines.main(["--src", str(src)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["empty.py", "0", "physical", "0", "code"],
                    ["shape.py", "19", "physical", "7", "code"],
                    ["total", "19", "physical", "7", "code"]]
    assert lines.main(["--src", str(src), "--parent", str(parent)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["empty.py", "gone.py", "shape.py", "total"]
    assert rows[1][1:] == ["0", "physical", "0", "code", "parent", "1", "physical", "1", "code",
                           "delta", "-1", "physical", "-1", "code"]
    assert rows[3][1:] == ["19", "physical", "7", "code", "parent", "19", "physical", "8", "code",
                           "delta", "+0", "physical", "-1", "code"]

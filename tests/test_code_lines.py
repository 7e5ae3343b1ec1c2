import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """not a
docstring"""
        "a string statement after the docstring"
        return text + \\
            os.sep


total = 1 + \\
    2
'''
# by hand: import, class, def, the two lines of the string assigned to
# text, the string statement (not a docstring, since it is not first),
# and the two lines of each backslash continuation
HAND_COUNT = 10


def test_code_lines_matches_a_hand_count(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert code_lines.code_lines(path) == HAND_COUNT
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{HAND_COUNT:6d}  fixture.py", f"{HAND_COUNT:6d}  total"]

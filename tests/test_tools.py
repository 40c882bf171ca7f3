"""The repository's maintenance scripts under ``tools/``."""

import importlib.util
from pathlib import Path

from tensortopics.cli import write_model

from helpers import planted, run_python

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line does not
class Box:
    """Class docstring."""

    def size(self):
        """Function docstring."""
        text = """a string that is
no docstring"""
        return (len(text)
                + 1)
'''


def test_code_lines_counts_lines_holding_code_without_docstrings_comments_or_blanks():
    # import, class, def, the string's two lines, and the return's two lines
    assert _tool("code_lines").code_lines(_SNIPPET) == 7


def test_function_lines_counts_each_function_and_method_by_its_qualified_name():
    # Box.size: the def, the string's two lines and the return's two lines
    code_lines = _tool("code_lines")
    assert code_lines.function_lines(_SNIPPET) == [("Box.size", 5)]
    done = run_python(TOOLS / "code_lines.py")
    assert done.returncode == 0
    assert "  read_count_tensor " in done.stdout and done.stdout.splitlines()[-1].startswith("total")


def test_cli_peak_prints_a_commands_wall_time_exit_code_peak_and_floor(tmp_path):
    truth = tmp_path / "truth.json"
    write_model(truth, planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82).model)
    for model, code in ((truth, 0), (tmp_path / "missing.json", 3)):
        done = run_python(TOOLS / "cli_peak.py", "eval", "--model", model, "--truth", truth)
        assert done.returncode == code
        *printed, wall, exit_code, peak, floor = done.stdout.splitlines()
        assert printed[:1] == (["loss_a1,loss_a2,loss_a3,loss_g,recon_l1"] if code == 0 else [])
        assert [line.split()[0] for line in (wall, exit_code, peak, floor)] == [
            "wall_s", "exit", "peak_mb", "floor_mb"]
        assert int(exit_code.split()[1]) == code
        wall_s, peak_mb, floor_mb = (float(line.split()[1]) for line in (wall, peak, floor))
        assert wall_s > 0 and peak_mb >= floor_mb > 0

"""The repository's maintenance scripts under ``tools/``."""

import importlib.util
from pathlib import Path

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

"""The sources keep to the oldest Python that ``pyproject.toml`` accepts, 3.10."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "tools")
                 for path in (ROOT / folder).rglob("*.py"))
# regex syntax that Python's ``re`` accepts only from 3.11: possessive quantifiers, atomic groups
_NEWER_REGEX = re.compile(r"[*+?}]\+|\(\?>")


def _calls_of_re_compile(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compile" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"):
            yield node


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_no_pattern_in_src_uses_regex_syntax_newer_than_python_3_10():
    patterns = [(path, call.lineno, call.args[0].value) for path in SOURCES
                if path.is_relative_to(ROOT / "src")
                for call in _calls_of_re_compile(ast.parse(path.read_text(encoding="utf-8")))
                if call.args and isinstance(call.args[0], ast.Constant)]
    assert patterns  # the scan sees the count-file patterns
    assert [f"{path.relative_to(ROOT)}:{line}: {pattern!r}" for path, line, pattern in patterns
            if _NEWER_REGEX.search(pattern)] == []

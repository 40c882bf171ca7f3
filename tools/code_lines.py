"""Print the code lines of each ``src/tensortopics`` module, of each of its functions and
methods, and their total.

A code line is a line that holds code: blank lines, comment-only lines and the lines of
docstrings (the leading string of a module, class or function body) do not count, and a
statement that spans several lines counts each of them.  Run from anywhere::

    python tools/code_lines.py

Under each module come its functions and methods, their decorators included, by qualified
name (``Class.method``, ``outer.inner``).
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tensortopics"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_line_numbers(source):
    """The numbers of the lines of the Python text ``source`` that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - _docstring_lines(ast.parse(source))


def code_lines(source):
    """The number of code lines in the Python text ``source``."""
    return len(_code_line_numbers(source))


def function_lines(source):
    """``(qualified name, code lines)`` of each function and method of ``source``, in order."""
    numbers, found = _code_line_numbers(source), []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((name, len(numbers & set(range(first, child.end_lineno + 1)))))
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        count = code_lines(source)
        total += count
        print(f"{path.name:16} {count:5}")
        for name, lines in function_lines(source):
            print(f"  {name:40} {lines:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()

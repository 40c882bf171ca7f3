"""Exports are only what a user reaches: every name in ``tensortopics.__all__``
must appear in the README, the CLI, the acceptance suite or the benchmark
script.  The files are only read."""

import re
from pathlib import Path

import tensortopics

ROOT = Path(__file__).resolve().parents[1]
USERS = ("README.md", "src/tensortopics/cli.py", "tests/test_acceptance.py",
         "perfbench/run.py")


def test_every_export_has_a_user():
    text = "\n".join((ROOT / name).read_text(encoding="utf-8") for name in USERS)
    unused = [name for name in tensortopics.__all__
              if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unused, f"exported but used by none of {USERS}: {unused}"

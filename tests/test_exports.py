"""Exports are only what a user reaches: every name in ``tensortopics.__all__``
must appear in the README, the CLI, the acceptance suite or the benchmark
script.  The files are only read."""

import re
from pathlib import Path

import tensortopics

from helpers import run_fresh

ROOT = Path(__file__).resolve().parents[1]
USERS = ("README.md", "src/tensortopics/cli.py", "tests/test_acceptance.py",
         "perfbench/run.py")


def test_every_export_has_a_user():
    text = "\n".join((ROOT / name).read_text(encoding="utf-8") for name in USERS)
    unused = [name for name in tensortopics.__all__
              if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unused, f"exported but used by none of {USERS}: {unused}"


_DEFERRED = ("concurrent.futures", "multiprocessing", "numpy.random", "tensortopics.synth")
_IMPORT_PROBE = f"""
import sys
import tensortopics.cli
print(sorted(name for name in {_DEFERRED!r} if name in sys.modules))
from tensortopics import GenSpec, generate, sample_counts
from tensortopics import synth
print(GenSpec is synth.GenSpec and generate is synth.generate
      and sample_counts is synth.sample_counts)
print(sorted(name for name in tensortopics.__all__ if not hasattr(tensortopics, name)))
"""


def test_cli_import_defers_the_generator_and_the_process_pool():
    """Loading the CLI, all that ``fit`` and ``eval`` import, loads neither the
    synthetic-data module, numpy.random nor a process pool; the package still
    resolves the generator's names and every other export on first use."""
    assert run_fresh(_IMPORT_PROBE).splitlines() == ["[]", "True", "[]"]

"""Exports are only what a user reaches: every name in ``tensortopics.__all__``
must appear in the README, the CLI, the acceptance suite or the benchmark
script.  The files are only read; the fresh-process probe runs a tiny ``fit`` and
``scree`` on a count file of its own."""

import re
from pathlib import Path

import tensortopics
from tensortopics.cli import write_count_tensor

from helpers import planted, run_fresh

ROOT = Path(__file__).resolve().parents[1]
USERS = ("README.md", "src/tensortopics/cli.py", "tests/test_acceptance.py",
         "perfbench/run.py")


def test_every_export_has_a_user():
    text = "\n".join((ROOT / name).read_text(encoding="utf-8") for name in USERS)
    unused = [name for name in tensortopics.__all__
              if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unused, f"exported but used by none of {USERS}: {unused}"


_DEFERRED = ("concurrent.futures", "multiprocessing", "numpy.random", "tensortopics.synth")
_IMPORT_PROBE = """
import contextlib, io, sys
import tensortopics.cli
print(sorted(name for name in {deferred!r} if name in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [tensortopics.cli.main(argv) for argv in {commands!r}]
print(codes, sorted(name for name in ("numpy.ma", *{deferred!r}) if name in sys.modules))
from tensortopics import GenSpec, generate, sample_counts
from tensortopics import synth
print(GenSpec is synth.GenSpec and generate is synth.generate
      and sample_counts is synth.sample_counts)
print(sorted(name for name in tensortopics.__all__ if not hasattr(tensortopics, name)))
"""


def test_cli_import_defers_the_generator_and_the_process_pool(tmp_path):
    """Loading the CLI, all that ``fit`` and ``eval`` import, loads neither the
    synthetic-data module, numpy.random nor a process pool, and a ``fit`` and a
    ``scree`` run load none of them nor ``numpy.ma``; the package still resolves the
    generator's names and every other export on first use."""
    data = tmp_path / "tiny.counts.txt"
    write_count_tensor(data, planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82).counts, 30)
    commands = [["fit", "--data", str(data), "--ranks", "2,2,2", "--out", str(tmp_path / "f")],
                ["scree", "--data", str(data)]]
    probe = _IMPORT_PROBE.format(deferred=_DEFERRED, commands=commands)
    assert run_fresh(probe).splitlines() == ["[]", "[0, 0] []", "True", "[]"]

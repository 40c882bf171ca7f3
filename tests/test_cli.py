"""File formats, exit codes, and the generate/fit/eval/sweep/scree commands
driven in-process through main()."""

import contextlib
import errno
import io
import json
import os
import re
import shlex
import tempfile
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tensortopics import FitConfig, GenSpec, cli, estimator, evaluate, fit, generate, scree, synth
from tensortopics.cli import (
    build_parser,
    derive_seed,
    main,
    read_count_tensor,
    read_model,
    write_count_tensor,
    write_model,
)
from tensortopics.errors import DataFormatError

from helpers import TOKEN_SPECS, planted, run_fresh, run_python, spec_id, traced_peak


# ------------------------------------------------------------ file formats


def test_count_tensor_round_trip_omits_zeros(tmp_path):
    inst = planted((4, 3, 12), (2, 2, 2), doc_length=9, seed=80)
    path = tmp_path / "toy.counts.txt"
    write_count_tensor(path, inst.counts, 9)
    text = path.read_text().splitlines()
    assert text[0] == "4 3 12 9"
    assert len(text) == 1 + int((inst.counts > 0).sum())
    back, m = read_count_tensor(path)
    assert m == 9
    _assert_same_bits(back, inst.counts / 9)


def test_count_tensor_duplicates_accumulate(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("2 2 2 8\n1 1 1 2\n1 1 1 3\n")
    y, m = read_count_tensor(path)
    assert y[0, 0, 0] == 5 / 8
    assert m == 8


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _frequencies_reference(text):
    """The frequency tensor of a valid count file by ``np.add.at`` into int64 counts,
    divided by the doc length: the reader before it scattered frequencies directly."""
    rows = [[int(field) for field in line.split()] for line in text.splitlines() if line.split()]
    (n1, n2, n_words, doc_length), records = rows[0], np.array(rows[1:], dtype=np.int64)
    counts = np.zeros((n1, n2, n_words), dtype=np.int64)
    if len(records):
        np.add.at(counts, tuple(records[:, :3].T - 1), records[:, 3])
    return counts / doc_length


def _records_file(path):
    return Path(f"{path}.records.npz")


def _parse_nothing(*args):
    raise AssertionError("the count file was parsed, not read from its records file")


def _read_cached(path, monkeypatch):
    """``read_count_tensor(path)`` with the parser switched off: the records must come from
    the records file beside ``path``."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_cell_frequencies", _parse_nothing)
        return read_count_tensor(path)


def _shuffled_split_records(counts, rng):
    """Records of ``counts`` with each count split over two duplicates, in random order."""
    records = []
    for i, j, r in np.argwhere(counts):
        count = int(counts[i, j, r])
        part = int(rng.integers(0, count + 1))
        records += [f"{i + 1} {j + 1} {r + 1} {part}",
                    f" {i + 1}\t{j + 1} {r + 1} {count - part} "]
    return [records[k] for k in rng.permutation(len(records))]


@pytest.mark.parametrize("layout", ["writer", "shuffled-duplicates-crlf", "sorted-duplicates",
                                    "descending", "header-only"])
def test_count_tensor_reads_frequencies_bit_equal_to_int64_counts(tmp_path, monkeypatch, layout):
    """Whatever the record order, the reader gives the bits of int64 counts summed by
    ``np.add.at`` and divided by the doc length.  The writer's strictly increasing
    records are scattered as they come; any other order is sorted and summed first.
    A second read takes the records from the records file, with the same bits."""
    inst = planted((6, 5, 14), (2, 2, 2), doc_length=25, seed=86)
    rng = np.random.default_rng(86)
    path = tmp_path / "counts.txt"
    write_count_tensor(path, inst.counts, 25)
    header, *records = path.read_text().splitlines()
    if layout == "shuffled-duplicates-crlf":
        records = _shuffled_split_records(inst.counts, rng)
        for k in sorted(rng.choice(len(records), size=10, replace=False), reverse=True):
            records.insert(k, " " * int(k % 3))
        path.write_bytes(("\r\n".join(["", header] + records) + "\r\n\r\n").encode())
    elif layout == "sorted-duplicates":
        split = [f"{line.rsplit(' ', 1)[0]} {half}" for line in records
                 for half in (1, int(line.rsplit(" ", 1)[1]) - 1)]
        path.write_text("\n".join([header] + split) + "\n")
    elif layout == "descending":
        path.write_text("\n".join([header] + records[::-1]) + "\n")
    elif layout == "header-only":
        path.write_text(header + "\n")
    y, doc_length = read_count_tensor(path)
    assert doc_length == 25
    want = _frequencies_reference(path.read_bytes().decode())
    _assert_same_bits(y, want)
    if layout != "header-only":
        _assert_same_bits(y, inst.counts / 25)
    again, doc_length = _read_cached(path, monkeypatch)
    assert doc_length == 25
    _assert_same_bits(again, y)


def test_count_tensor_reader_holds_one_float_tensor(tmp_path):
    """The reader returns frequencies and allocates no int64 counts: on a sparse
    40 x 30 x 300 corpus its tracemalloc peak is 1.54 times the tensor, where reading
    int64 counts and then dividing them peaked at 2.05 times (both tensors alive)."""
    inst = planted((40, 30, 300), (2, 2, 3), doc_length=20, seed=3)
    path = tmp_path / "counts.txt"
    write_count_tensor(path, inst.counts, 20)
    (y, _), peak = traced_peak(read_count_tensor, path)
    assert y.dtype == np.float64
    assert peak < 2 * y.nbytes


def test_count_tensor_reader_frees_the_parsed_records_before_the_tensor(tmp_path):
    """At doc length 100 a 40 x 30 x 300 corpus has about 100 k records, and
    the records, not the tensor, set the reader's peak.  The parsed
    four-column table is freed before the tensor is allocated, so the peak is
    the tensor plus under three int64 words a record (1.69 times the tensor);
    holding the table, a copy of its index columns and the flat index beside
    the tensor peaked at 3.23 times."""
    inst = planted((40, 30, 300), (2, 2, 3), doc_length=100, seed=3)
    path = tmp_path / "counts.txt"
    write_count_tensor(path, inst.counts, 100)
    records = int(np.count_nonzero(inst.counts))
    (y, _), peak = traced_peak(read_count_tensor, path)
    _assert_same_bits(y, inst.counts / 100)
    assert peak < y.nbytes + 3 * 8 * records
    (again, _), peak = traced_peak(read_count_tensor, path)  # from the records file
    _assert_same_bits(again, y)
    assert peak < y.nbytes + 3 * 8 * records


def _count_file_reference(counts, doc_length):
    """The count file formatted record by record, the writer's reference."""
    return "".join([" ".join(map(str, (*counts.shape, doc_length))) + "\n"]
                   + [f"{i + 1} {j + 1} {r + 1} {counts[i, j, r]}\n"
                      for i, j, r in np.argwhere(counts)])


@given(arrays(np.int64, array_shapes(min_dims=3, max_dims=3, max_side=4),
              elements=st.integers(0, 2 ** 63 - 1) | st.integers(0, 3)),
       st.integers(1, 10 ** 6))
@example(np.zeros((1, 1, 1), dtype=np.int64), 1)
@example(np.zeros((3, 1, 2), dtype=np.int64), 7)
@settings(max_examples=60, deadline=None, database=None)
def test_count_tensor_round_trip_property(counts, doc_length):
    """Writing then reading any int tensor gives it back exactly; the file
    matches the per-record reference formatting byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.txt"
        write_count_tensor(path, counts, doc_length)
        assert path.read_text() == _count_file_reference(counts, doc_length)
        back, m = read_count_tensor(path)
    assert m == doc_length
    _assert_same_bits(back, counts / doc_length)


@pytest.mark.parametrize("shape", [(11, 200, 300), (3, 600, 500)],
                         ids=["ragged-blocks", "one-row-blocks"])
def test_blocked_count_writer_matches_the_whole_tensor_formatting(tmp_path, shape):
    """Blocks of mode-1 rows choose their own field widths, and the bytes stay
    those of the per-record formatting.  11 rows of 200 x 300 cells run
    as blocks of 4, 4 and 3 rows, where row indices reach two digits; a row of
    600 x 500 cells exceeds 2**18 and is a block of its own."""
    rng = np.random.default_rng(84)
    counts = rng.integers(0, 30, size=shape) * (rng.uniform(size=shape) < 0.1)
    counts[1, 5, 7] = 10 ** 15
    path = tmp_path / "counts.txt"
    write_count_tensor(path, counts, 40)
    assert path.read_bytes() == _count_file_reference(counts, 40).encode()


def test_count_writer_matches_the_record_formatting_on_a_generated_file(tmp_path):
    """A token-drawn corpus whose row indices reach three digits and whose
    blocks hold 2**18 cells is written as the per-record formatting writes it."""
    inst = planted((120, 8, 300), (2, 2, 3), doc_length=40, seed=86)
    path = tmp_path / "counts.txt"
    write_count_tensor(path, inst.counts, 40)
    assert path.read_bytes() == _count_file_reference(inst.counts, 40).encode()


@pytest.mark.parametrize("value", [2.5, np.inf, np.nan])
def test_count_writer_refuses_counts_that_are_not_integers(tmp_path, value):
    counts = np.ones((2, 2, 3))
    counts[1, 0, 2] = value
    with pytest.raises(DataFormatError, match="^counts must have an integer dtype, got float64$"):
        write_count_tensor(tmp_path / "counts.txt", counts, 5)


def test_count_writer_memory_does_not_grow_with_the_tensor(tmp_path):
    """A dense tensor is written by blocks of 2**18 cells: three times the
    rows take no more memory (formatting them at once took about 120 bytes a
    cell, 260 MB for the larger tensor)."""
    rng = np.random.default_rng(85)
    peaks = []
    for rows in (12, 36):
        counts = rng.integers(1, 40, size=(rows, 150, 400))
        peaks.append(traced_peak(write_count_tensor, tmp_path / "counts.txt", counts, 2000)[1])
    assert peaks[1] <= 1.05 * peaks[0]
    assert peaks[1] < 48e6


@pytest.mark.parametrize("shape, count, doc_length, message", [
    ((2, 2, 3), 1, 0, "doc_length must be a positive integer, got 0"),
    ((2, 2, 3), 1, -1, "doc_length must be a positive integer, got -1"),
    ((2, 2, 3), 1, 2.5, "doc_length must be a positive integer, got 2.5"),
    ((2, 2, 3), 1, True, "doc_length must be a positive integer, got True"),
    ((2, 2, 3), 1, "7", "doc_length must be a positive integer, got '7'"),
    ((0, 2, 3), 1, 5, r"count tensor dims must be positive, got \(0, 2, 3\)"),
    ((2, 0, 3), 1, 5, r"count tensor dims must be positive, got \(2, 0, 3\)"),
    ((2, 2, 0), 1, 5, r"count tensor dims must be positive, got \(2, 2, 0\)"),
    ((2, 2, 3), -1, 5, "counts must be nonnegative"),
], ids=["length-0", "length-minus-1", "length-2.5", "length-True", "length-str",
        "dims-0x2x3", "dims-2x0x3", "dims-2x2x0", "negative-count"])
def test_count_writer_refuses_what_the_reader_refuses(tmp_path, shape, count, doc_length,
                                                      message):
    """The reader refuses a doc length or a dim below one and a negative count, so the writer
    does not write them, and it takes the doc length as it is, not coerced."""
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        write_count_tensor(tmp_path / "counts.txt", np.full(shape, count, dtype=np.int64),
                           doc_length)
    assert not (tmp_path / "counts.txt").exists()


def test_count_tensor_reads_shuffled_split_records(tmp_path):
    """Shuffled records, counts split over duplicates, blank lines and CRLF
    read back to the tensor of the canonical file."""
    inst = planted((6, 5, 14), (2, 2, 2), doc_length=25, seed=83)
    canonical = tmp_path / "canonical.txt"
    write_count_tensor(canonical, inst.counts, 25)
    rng = np.random.default_rng(83)
    records = _shuffled_split_records(inst.counts, rng)
    for k in sorted(rng.choice(len(records), size=10, replace=False), reverse=True):
        records.insert(k, " " * int(k % 3))
    messy = tmp_path / "messy.txt"
    messy.write_bytes(("\r\n".join(["", "6 5 14 25"] + records) + "\r\n\r\n").encode())
    back, m = read_count_tensor(messy)
    canonical_back, _ = read_count_tensor(canonical)
    assert m == 25
    _assert_same_bits(back, canonical_back)
    _assert_same_bits(back, inst.counts / 25)


@pytest.mark.parametrize("body,fragment", [
    ("2 2 2\n", "line 1"),
    ("2 2 2 5\n1 1 1 x\n", "line 2"),
    ("2 2 2 5\n3 1 1 4\n", "line 2"),
    ("2 2 2 5\n1 1 1 -4\n", "line 2"),
    ("0 2 2 5\n", "line 1"),
    ("", "empty"),
    ("2 2 2 5\n1.0 1 1 1\n", "line 2: all fields must be integers"),
    ("2 2 2 5\n# 1 1 1\n", "line 2: all fields must be integers"),
    ("2 2 2 5\n1_0 1 1 1\n", "line 2: all fields must be integers"),
    ("2 2 2 5\n1 1 \uff14 1\n", "line 2: all fields must be integers"),
    ("2 2 2 5\n1 1 1 2\n2 2 2 1\n2 1 2\n", "line 4: expected 4 fields, found 3"),
    ("\n2 2 2 5\n\n \n1 1 1 2\n\n1 1 1 -1\n", "line 7: negative count"),
    ("\n\n0 2 2 5\n", "line 3"),
    ("2 2 2 5\n1\u30001 1 2\n1 1 1 x\n", "line 3: all fields must be integers"),
    ("2 2 2 5\r1 1 1 x\r", "line 2"),
])
def test_count_tensor_parse_errors_name_the_line(tmp_path, body, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        read_count_tensor(path)
    assert fragment in str(err.value)
    assert not _records_file(path).exists()


@pytest.mark.parametrize("body,fragment", [
    ("2 2 2 5\n1 1 1 99999999999999999999\n", "line 2: a field lies outside"),
    ("3037000500 3037000500 2 5\n",
     "line 1: a 3037000500 x 3037000500 x 2 count tensor is too big to load"),
    ("2 2 2 5\n1 1 1 9223372036854775807\n2 1 1 1\n\n1 1 1 1\n",
     "line 5: accumulated count exceeds"),
    ("2 2 2 5\n" + "1 1 1 9223372036854775807\n" * 3, "line 3: accumulated count exceeds"),
])
def test_count_file_beyond_limits_is_exit_3_naming_the_line(tmp_path, capsys, body, fragment):
    path = tmp_path / "huge.txt"
    path.write_text(body)
    assert main(["fit", "--data", str(path), "--ranks", "2,2,2",
                 "--out", str(tmp_path / "f")]) == 3
    assert f"{path}: {fragment}" in capsys.readouterr().err
    assert not _records_file(path).exists()


def test_a_count_tensor_too_big_to_allocate_is_exit_3_naming_the_file(tmp_path, capsys):
    """A header whose tensor numpy can size but not allocate exits 3 naming the file, with
    numpy's text.  The parse succeeded, so the records file it saved is kept."""
    path = tmp_path / "huge.txt"
    path.write_text("100000 100000 100000 5\n")
    assert main(["fit", "--data", str(path), "--ranks", "2,2,2",
                 "--out", str(tmp_path / "f")]) == 3
    assert capsys.readouterr().err == (
        f"data error: {path}: too big to allocate: Unable to allocate 7.11 PiB for an array "
        "with shape (100000, 100000, 100000) and data type float64\n")
    assert _records_file(path).exists()


@pytest.mark.parametrize("field", ["4\u01ff", "\u0903", "\U000983bc"])
def test_count_file_with_a_non_ascii_letter_names_the_line(tmp_path, field):
    """numpy's integer parser takes some non-ASCII letters for digits ("4" then
    U+01FF reads as 503) and can crash on others, so none reaches it."""
    path = tmp_path / "letters.txt"
    path.write_text(f"2 2 2 5\n1 1 1 2\n2 1 1 {field}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 3: all fields must be "
                                                        "integers")):
        read_count_tensor(path)
    assert not _records_file(path).exists()


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_count_file_named_like_a_compressed_file_is_exit_3(tmp_path, capsys, suffix):
    """numpy's parser opens these names through a decompressor."""
    path = tmp_path / f"counts{suffix}"
    path.write_text("2 2 2 5\n1 1 1 2\n")
    assert main(["fit", "--data", str(path), "--ranks", "1,1,2", "--out", str(tmp_path / "f")]) == 3
    assert f"{path}: a count file name must not end in {suffix}" in capsys.readouterr().err
    assert not _records_file(path).exists()


def test_count_file_may_separate_fields_by_unicode_whitespace(tmp_path):
    path = tmp_path / "spaces.txt"
    path.write_text("2 2 2 5\n1\u30001 1\u00a02\n\u2003\n2 1 1 3\n", encoding="utf-8")
    y, doc_length = read_count_tensor(path)
    assert (y[0, 0, 0], y[1, 0, 0], np.count_nonzero(y), doc_length) == (2 / 5, 3 / 5, 2, 5)


_FIELDS = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(
    ["x", "1.0", "+2", "-0", "", "#", "1_0", "4\u01ff", "\uff14", "\U000983bc",
     "9223372036854775807", "9223372036854775808"]))
_LINES = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
              st.integers(-1, 2 ** 63 - 1)).map(lambda fields: " ".join(map(str, fields))),
    st.lists(st.tuples(_FIELDS, st.sampled_from([" ", "\t", "\u3000", "\x0b"])),
             max_size=5).map(lambda pairs: "".join(f + sep for f, sep in pairs)))
_NEAR_VALID = st.tuples(
    st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 9)),
    st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n", "\r", "\n\n"])), max_size=6),
    st.sampled_from([b"", b"\xff", b"\xc3"]),
).map(lambda parts: (" ".join(map(str, parts[0])) + "\n"
                     + "".join(line + end for line, end in parts[1])).encode() + parts[2])


@given(st.binary(max_size=48) | _NEAR_VALID)
@example(b"")
@example(b"\xff")
@example(b"2 2 2 5\n1 1 1 \xf2\x98\x83\xbc\n")
@settings(max_examples=300, deadline=None, database=None)
def test_count_file_fuzz_reads_or_names_the_file(data):
    """Any bytes give back frequencies or a ``DataFormatError`` that starts with
    the path: no other exception and no warning."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "fuzz.txt"
        path.write_bytes(data)
        try:
            y, doc_length = read_count_tensor(path)
        except DataFormatError as err:
            assert str(err).startswith(f"{path}: ")
            assert not _records_file(path).exists()
        else:
            assert y.dtype == np.float64 and y.ndim == 3 and y.min() >= 0
            assert np.isfinite(y).all() and doc_length >= 1


def _first_bad_line(path, text):
    """The error of a walk that numbers the lines of ``text`` one by one and checks the fields
    of every nonblank line."""
    for number, line in enumerate(text.split("\n"), start=1):
        fields, where = line.split(), f"{path}: line {number}"
        if not fields:
            continue
        if len(fields) != 4:
            return f"{where}: expected 4 fields, found {len(fields)}"
        if not all(re.fullmatch(r"[+-]?[0-9]+", field) for field in fields):
            return f"{where}: all fields must be integers"
        if not all(-2 ** 63 <= int(field) < 2 ** 63 for field in fields):
            return f"{where}: a field lies outside the 64-bit integer range"
    return f"{path}: unreadable count records"


@given(_NEAR_VALID)
@example(b"2 2 2 5\n1 1 1 999999999999999999\n1 1 1 9223372036854775808\n")
@example(b"2 2 2 5\n1 1 1+1\n")
@example("\n2 2 2 5\r\n\r\n1 1 1 2\r1\u30001 1 2\n \n1 1 1 x\n".encode())
@settings(max_examples=200, deadline=None, database=None)
def test_a_line_the_record_pattern_passes_is_one_the_field_checks_pass(data):
    """``_malformed_line`` checks the fields of only the lines that ``_NOT_RECORD_LINE`` finds
    and counts lines between them, so its error is the one a line-by-line walk gives."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.txt"
        path.write_bytes(data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            with pytest.raises(DataFormatError, match="not UTF-8 text"):
                cli._malformed_line(path)
            return
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        assert str(cli._malformed_line(path)) == _first_bad_line(path, text)


def test_a_rewrite_of_the_same_size_and_mtime_is_parsed_again(tmp_path, monkeypatch):
    """The records file is keyed by the count file's bytes, not its size or mtime."""
    path = tmp_path / "counts.txt"
    path.write_text("2 2 2 5\n1 1 1 2\n2 1 2 3\n")
    read_count_tensor(path)
    status = path.stat()
    path.write_text("2 2 2 5\n1 1 1 3\n2 1 2 2\n")
    os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (status.st_size, status.st_mtime_ns)
    y, _ = read_count_tensor(path)
    assert (y[0, 0, 0], y[1, 0, 1], np.count_nonzero(y)) == (3 / 5, 2 / 5, 2)
    _assert_same_bits(_read_cached(path, monkeypatch)[0], y)


def _first_set(array, value):
    array = array.copy()
    array[0] = value
    return array


# edits of the records file's arrays under this file's key: a wrong array kind, or a value
# that no parse gives
_RECORDS_EDITS = {
    "float32": lambda arrays: {"frequencies": arrays["frequencies"].astype(np.float32)},
    "cell-past-the-end": lambda arrays: {"cells": np.r_[arrays["cells"][:-1],
                                                        np.prod(arrays["dims"])]},
    "dims-1-1-1": lambda arrays: {"dims": np.ones(3, dtype=np.int64)},
    "dims-too-big": lambda arrays: {"dims": np.full(3, 2 ** 20, dtype=np.int64)},
    "cell-minus-1": lambda arrays: {"cells": _first_set(arrays["cells"], -1)},
    "cells-descending": lambda arrays: {"cells": arrays["cells"][::-1].copy()},
    "nan-frequency": lambda arrays: {"frequencies": _first_set(arrays["frequencies"], np.nan)},
    "negative-frequency": lambda arrays: {"frequencies": _first_set(arrays["frequencies"],
                                                                    -0.4)},
    "doc-length-minus-5": lambda arrays: {"doc_length": np.int64(-5)},
}


def _damage_records(path, damage):
    cache = _records_file(path)
    if damage == "truncated":
        cache.write_bytes(cache.read_bytes()[:cache.stat().st_size // 2])
    elif damage == "garbage":
        cache.write_bytes(np.random.default_rng(87).bytes(cache.stat().st_size))
    elif damage == "npy":
        with cache.open("wb") as out:
            np.save(out, np.arange(5))
    elif damage == "another-files":
        other = path.with_name("other.txt")
        other.write_text("6 5 14 25\n2 2 2 4\n")
        read_count_tensor(other)
        os.replace(_records_file(other), cache)
    else:
        with np.load(cache) as saved:
            arrays = dict(saved)
        with cache.open("wb") as out:
            np.savez(out, **{**arrays, **_RECORDS_EDITS[damage](arrays)})


@pytest.mark.parametrize("damage", ["truncated", "garbage", "npy", "another-files",
                                    *_RECORDS_EDITS])
def test_a_records_file_that_is_not_this_files_is_ignored_and_rewritten(tmp_path, monkeypatch,
                                                                        damage):
    """A records file cut short, not a zip archive, of the wrong array kinds, saved for other
    bytes or holding values that no parse gives is a miss: the reader parses, warns of nothing
    and saves the records anew."""
    inst = planted((6, 5, 14), (2, 2, 2), doc_length=25, seed=86)
    path = tmp_path / "counts.txt"
    write_count_tensor(path, inst.counts, 25)
    read_count_tensor(path)
    _damage_records(path, damage)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, doc_length = read_count_tensor(path)
    assert doc_length == 25
    _assert_same_bits(y, inst.counts / 25)
    _assert_same_bits(_read_cached(path, monkeypatch)[0], y)


def test_a_file_replaced_while_it_is_parsed_leaves_no_records_file(tmp_path, monkeypatch):
    """The key is taken from the bytes read before the parse, so records parsed from a file
    that was replaced in between are not saved under it."""
    path = tmp_path / "counts.txt"
    path.write_text("2 2 2 5\n1 1 1 2\n")
    loadtxt = np.loadtxt

    def replaced_then_parsed(*args, **kwargs):
        swap = tmp_path / "swap.txt"
        swap.write_text("2 2 2 5\n1 1 1 4\n")
        os.replace(swap, path)
        return loadtxt(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "loadtxt", replaced_then_parsed)
        assert read_count_tensor(path)[0][0, 0, 0] == 4 / 5
    assert not _records_file(path).exists()
    assert read_count_tensor(path)[0][0, 0, 0] == 4 / 5


def test_model_json_round_trip_is_bit_faithful(tmp_path):
    inst = planted((5, 4, 11), (2, 2, 3), doc_length=20, seed=81)
    path = tmp_path / "truth.json"
    write_model(path, inst.model)
    back = read_model(path)
    np.testing.assert_array_equal(back.a1, inst.model.a1)
    np.testing.assert_array_equal(back.a2, inst.model.a2)
    np.testing.assert_array_equal(back.a3, inst.model.a3)
    np.testing.assert_array_equal(back.g, inst.model.g)


def test_model_json_shape_mismatch(tmp_path):
    inst = planted((5, 4, 11), (2, 2, 3), doc_length=20, seed=81)
    path = tmp_path / "truth.json"
    write_model(path, inst.model)
    payload = json.loads(path.read_text())
    payload["dims"] = [5, 4, 10]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError):
        read_model(path)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(8, 1, 2) != derive_seed(7, 1, 2)


# ------------------------------------------------------------- subcommands


def _spec_file(tmp_path, **overrides):
    spec = {"dims": [20, 10, 40], "ranks": [2, 2, 3], "doc_length": 200,
            "seed": 11}
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.mark.parametrize("doc_length", [30, 200], ids=["tokens", "multinomial"])
def test_generate_reports_the_tokens_it_wrote(tmp_path, capsys, doc_length):
    """Every document holds ``doc_length`` tokens: the message counts the
    file's tokens without summing the counts."""
    out = tmp_path / "run"
    assert main(["generate", "--spec", str(_spec_file(tmp_path, doc_length=doc_length)),
                 "--out", str(out)]) == 0
    y, _ = read_count_tensor(f"{out}.counts.txt")
    tokens = round(float(y.sum()) * doc_length)
    assert tokens == 20 * 10 * doc_length
    assert capsys.readouterr().out == \
        f"wrote {out}.counts.txt ({tokens} tokens) and {out}.truth.json\n"


@pytest.mark.parametrize("doc_length, drawer", [(30, "_token_records"), (200, "sample_counts")],
                         ids=["tokens", "multinomial"])
def test_generate_of_a_spec_too_big_to_draw_exits_3_naming_the_spec(tmp_path, capsys, monkeypatch,
                                                                    doc_length, drawer):
    """A draw that cannot be allocated exits 3 naming the spec file, as the other spec errors
    do, with numpy's text, and writes no truth file.  The failure is patched into the draw:
    nothing that large is allocated."""
    numpy_text = ("Unable to allocate 59.6 GiB for an array with shape (2000, 2000, 2000) "
                  "and data type float64")

    def too_big(*args, **kwargs):
        raise MemoryError(numpy_text)

    monkeypatch.setattr(synth, drawer, too_big)
    spec = _spec_file(tmp_path, doc_length=doc_length)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")]) == 3
    assert capsys.readouterr().err == \
        f"data error: {spec}: count draw: too big to allocate: {numpy_text}\n"
    assert not (tmp_path / "g.truth.json").exists()


_NUMPY_TEXT = ("Unable to allocate 59.6 GiB for an array with shape (2000, 2000, 2000) "
               "and data type float64")


@pytest.mark.parametrize("where", ["parse", "records-file", "json", "sweep-draw", "sweep-y"])
def test_a_failed_allocation_reading_an_input_or_drawing_a_trial_exits_3_naming_it(
        tmp_path, capsys, monkeypatch, where):
    """A failed allocation in the count file's parse, in the load of its records file, in a
    JSON read or in a sweep trial's draw, its frequency tensor included, exits 3 with one line
    that names the file (or the grid, cell, trial and ``count draw``) and carries numpy's text.
    The failure is patched in: nothing that large is allocated."""
    def too_big(*args, **kwargs):
        raise MemoryError(_NUMPY_TEXT)

    data, spec, grid = _tiny_counts(tmp_path), _spec_file(tmp_path), tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": [{"dims": [8, 6, 20], "ranks": [2, 2, 2],
                                           "doc_length": 30}]}))
    fit_data = ["fit", "--data", str(data), "--ranks", "2,2,2", "--out", str(tmp_path / "f")]
    if where == "records-file":
        read_count_tensor(data)  # saves the records that the fit then loads
    owner, name, argv, named = {
        "parse": (np, "loadtxt", fit_data, data),
        "records-file": (np, "load", fit_data, data),
        "json": (json, "loads", ["generate", "--spec", str(spec), "--out", str(tmp_path / "g")],
                 spec),
        "sweep-draw": (synth, "_planted_counts",
                       ["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")],
                       f"{grid}: cell 0, trial 0: count draw"),
        "sweep-y": (synth.PlantedInstance, "y",
                    ["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")],
                    f"{grid}: cell 0, trial 0: count draw"),
    }[where]
    monkeypatch.setattr(owner, name, property(too_big) if where == "sweep-y" else too_big)
    assert main(argv) == 3
    assert capsys.readouterr().err == f"data error: {named}: too big to allocate: {_NUMPY_TEXT}\n"


@pytest.mark.parametrize("where", ["eval-model", "eval-scoring", "sweep-scoring"])
def test_a_failed_allocation_reading_a_model_or_scoring_exits_3_naming_it(
        tmp_path, capsys, monkeypatch, where):
    """A failed allocation while ``read_model`` converts a model file's arrays, or while
    ``eval`` or a sweep trial scores a fit, exits 3 with one line that names the file, or
    ``scoring`` (after the grid, cell and trial of a sweep), and carries numpy's text.  The
    failure is patched in: nothing that large is allocated."""
    def too_big(*args, **kwargs):
        raise MemoryError(_NUMPY_TEXT)

    def too_big_for_lists(a, *args, **kwargs):  # the model file's arrays arrive as lists
        return too_big() if isinstance(a, list) else asarray(a, *args, **kwargs)

    asarray, grid = np.asarray, tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": [{"dims": [8, 6, 20], "ranks": [2, 2, 2],
                                           "doc_length": 30}]}))
    truth = str(tmp_path / "g.truth.json")
    spec = _spec_file(tmp_path)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")]) == 0
    capsys.readouterr()
    eval_argv = ["eval", "--model", truth, "--truth", truth, "--out", str(tmp_path / "e")]
    owner, name, patched, argv, named = {
        "eval-model": (np, "asarray", too_big_for_lists, eval_argv, truth),
        "eval-scoring": (cli, "evaluate", too_big, eval_argv, "scoring"),
        "sweep-scoring": (cli, "evaluate", too_big,
                          ["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")],
                          f"{grid}: cell 0, trial 0: scoring"),
    }[where]
    monkeypatch.setattr(owner, name, patched)
    assert main(argv) == 3
    assert capsys.readouterr().err == f"data error: {named}: too big to allocate: {_NUMPY_TEXT}\n"


def test_a_failed_generate_leaves_the_output_directory_as_it_was(tmp_path, capsys,
                                                                  monkeypatch):
    """A draw that fails after its first block of records is written exits 3 and leaves no
    count file that ``fit`` would read as a short corpus, no truth file and no temporary
    file: the directory holds what it held before."""
    token_records = synth._token_records

    def failing_second_block(*args):
        blocks = token_records(*args)
        yield next(blocks)
        raise MemoryError

    monkeypatch.setattr(synth, "_token_records", failing_second_block)
    spec = _spec_file(tmp_path, doc_length=30)
    before = sorted(tmp_path.iterdir())
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")]) == 3
    assert capsys.readouterr().err == f"data error: {spec}: count draw: too big to allocate\n"
    assert not (tmp_path / "g.counts.txt").exists()
    assert sorted(tmp_path.iterdir()) == before


def _generate_files(spec, out):
    """Run ``generate`` on the spec dict ``spec`` with its file beside ``out``."""
    path = out.parent / f"{out.name}.spec.json"
    path.write_text(json.dumps(spec))
    assert main(["generate", "--spec", str(path), "--out", str(out)]) == 0
    return out.parent / f"{out.name}.counts.txt", out.parent / f"{out.name}.truth.json"


@pytest.mark.parametrize("spec", TOKEN_SPECS, ids=spec_id)
def test_generate_writes_the_token_records_as_the_count_writer(tmp_path, monkeypatch, capsys,
                                                                spec):
    """Documents drawn by tokens are written block by block as they are drawn,
    with no count tensor: the file is the count writer's file of the instance's
    counts, byte for byte, for blocks of the default size, of a few documents
    with a ragged last block, and of one document."""
    spec = {**spec, "seed": 4}
    inst = generate(GenSpec(**spec))
    write_count_tensor(tmp_path / "counts.txt", inst.counts, spec["doc_length"])
    write_model(tmp_path / "truth.json", inst.model, extra={"seed": 4})
    for rows in (None, 4, 1):
        if rows is not None:
            monkeypatch.setattr(synth, "_block_docs", lambda n_cells, doc_length: rows)
        counts, truth = _generate_files(spec, tmp_path / f"rows{rows}")
        assert counts.read_bytes() == (tmp_path / "counts.txt").read_bytes()
        assert truth.read_bytes() == (tmp_path / "truth.json").read_bytes()


def test_generate_writes_a_multinomial_spec_as_the_count_writer(tmp_path, capsys):
    """Documents as long as the vocabulary are drawn whole from the mean tensor,
    and their file is the count writer's file of the instance's counts."""
    spec = {"dims": [20, 10, 40], "ranks": [2, 2, 3], "doc_length": 200, "seed": 11}
    counts, _ = _generate_files(spec, tmp_path / "run")
    write_count_tensor(tmp_path / "reference.txt", generate(GenSpec(**spec)).counts, 200)
    assert counts.read_bytes() == (tmp_path / "reference.txt").read_bytes()


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["tokens", "boundary", "multinomial"])
def test_generate_writes_each_draw_as_the_record_formatting(tmp_path, capsys, offset):
    """Both draws reach the file through the one dispatcher: documents one token shorter than
    the vocabulary are drawn by tokens, as long or longer whole, and either file is the
    per-record formatting of ``generate``'s counts, byte for byte."""
    spec = {"dims": [20, 10, 40], "ranks": [2, 2, 3], "doc_length": 40 + offset, "seed": 11}
    counts, _ = _generate_files(spec, tmp_path / "run")
    reference = _count_file_reference(generate(GenSpec(**spec)).counts, spec["doc_length"])
    assert counts.read_bytes() == reference.encode()


def test_generate_manifest_times_the_drawing_and_the_writing(tmp_path, monkeypatch, capsys):
    """Drawing and writing interleave block by block; the manifest sums each
    into its own stage.  Five blocks that each take 10 ms more to draw and
    50 ms more to format add at least 50 ms to ``generate`` and 250 ms to
    ``write``, and the formatting does not land in ``generate``."""
    draw, format_records = synth._token_records, cli._record_bytes

    def slow_draw(*args):
        for block in draw(*args):
            time.sleep(0.01)
            yield block

    def slow_format(*args):
        time.sleep(0.05)
        return format_records(*args)

    monkeypatch.setattr(synth, "_token_records", slow_draw)
    monkeypatch.setattr(cli, "_record_bytes", slow_format)
    monkeypatch.setattr(synth, "_block_docs", lambda n_cells, doc_length: 4)
    spec = {"dims": [4, 5, 40], "ranks": [2, 2, 3], "doc_length": 10, "seed": 2}
    _generate_files(spec, tmp_path / "run")
    seconds = json.loads((tmp_path / "run.manifest.json").read_text())["stage_seconds"]
    assert set(seconds) == {"load", "generate", "write"}
    assert seconds["generate"] >= 0.05 and seconds["write"] >= 0.25
    assert seconds["generate"] < seconds["write"]


def test_generate_manifest_times_a_whole_draw_and_its_scan_as_generating(tmp_path, monkeypatch,
                                                                          capsys):
    """Documents as long as the vocabulary are drawn whole by ``sample_counts``, and their
    nonzeros are scanned block by block as the writer takes them.  A draw 50 ms slower and
    two scanned blocks each 50 ms slower add at least 150 ms to ``generate``; two blocks each
    200 ms slower to format add at least 400 ms to ``write``, and land only there."""
    draw, scan, format_records = synth.sample_counts, synth._nonzero_records, cli._record_bytes

    def slow_draw(*args):
        time.sleep(0.05)
        return draw(*args)

    def slow_scan(counts):
        for first in range(0, len(counts), 2):  # two blocks of mode-1 rows
            for block in scan(counts[first:first + 2]):
                time.sleep(0.05)
                yield block[0] + first * counts[0].size, block[1]

    def slow_format(*args):
        time.sleep(0.2)
        return format_records(*args)

    monkeypatch.setattr(synth, "sample_counts", slow_draw)
    monkeypatch.setattr(synth, "_nonzero_records", slow_scan)
    monkeypatch.setattr(cli, "_record_bytes", slow_format)
    spec = {"dims": [4, 5, 8], "ranks": [2, 2, 3], "doc_length": 10, "seed": 2}
    counts, _ = _generate_files(spec, tmp_path / "run")
    reference = _count_file_reference(generate(GenSpec(**spec)).counts, 10)
    assert counts.read_bytes() == reference.encode()
    seconds = json.loads((tmp_path / "run.manifest.json").read_text())["stage_seconds"]
    assert set(seconds) == {"load", "generate", "write"}
    assert seconds["generate"] >= 0.15 and seconds["write"] >= 0.4
    assert seconds["generate"] < seconds["write"]


def test_generate_memory_does_not_grow_with_the_documents(tmp_path, capsys):
    """CLI ``generate`` of documents drawn by tokens holds one block of them
    at a time: three times the documents take no more memory, where their
    count tensor would take 80 MB more."""
    peaks = []
    for n1 in (20, 60):
        spec = {"dims": [n1, 50, 5000], "ranks": [2, 2, 3], "doc_length": 100, "seed": 6}
        path = tmp_path / f"spec{n1}.json"
        path.write_text(json.dumps(spec))
        argv = ["generate", "--spec", str(path), "--out", str(tmp_path / f"run{n1}")]
        code, peak = traced_peak(main, argv)
        assert code == 0
        peaks.append(peak)
    assert peaks[1] <= 1.05 * peaks[0]


def test_generate_of_token_documents_leaves_the_thread_pool_unloaded(tmp_path):
    """Only the multinomial sampler starts threads: CLI ``generate`` of
    documents drawn by tokens, run in a fresh process, imports no thread pool."""
    argv = ["generate", "--spec", str(_spec_file(tmp_path, doc_length=30)),
            "--out", str(tmp_path / "g")]
    code = ("import sys; from tensortopics.cli import main\n"
            f"print(main({argv!r}), 'concurrent.futures' in sys.modules)")
    assert run_fresh(code).splitlines()[-1] == "0 False"


def test_generate_fit_eval_pipeline(tmp_path, capsys):
    spec = _spec_file(tmp_path)
    out = tmp_path / "run"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
    for suffix in ("counts.txt", "truth.json", "manifest.json"):
        assert (tmp_path / f"run.{suffix}").exists()

    fit_out = tmp_path / "fitted"
    assert main(["fit", "--data", f"{out}.counts.txt", "--ranks", "2,2,3",
                 "--out", str(fit_out)]) == 0
    diag = json.loads((tmp_path / "fitted.diagnostics.json").read_text())
    assert set(diag) == {"vocab", "q0", "vertices", "eigvals"}
    assert min(diag["vocab"]) >= 1  # reported 1-based
    assert len(diag["q0"]) == 3

    assert main(["eval", "--model", f"{fit_out}.model.json",
                 "--truth", f"{out}.truth.json",
                 "--out", str(tmp_path / "scores")]) == 0
    lines = (tmp_path / "scores.losses.csv").read_text().splitlines()
    assert lines[0] == "loss_a1,loss_a2,loss_a3,loss_g,recon_l1"
    values = [float(v) for v in lines[1].split(",")]
    assert all(np.isfinite(values)) and len(values) == 5

    # eval without --out prints the same CSV to stdout
    capsys.readouterr()
    assert main(["eval", "--model", f"{fit_out}.model.json",
                 "--truth", f"{out}.truth.json"]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0] == "loss_a1,loss_a2,loss_a3,loss_g,recon_l1"
    assert stdout[1] == lines[1]


def test_pipeline_outputs_are_reproducible(tmp_path):
    spec = _spec_file(tmp_path)
    for name in ("one", "two"):
        out = tmp_path / name
        main(["generate", "--spec", str(spec), "--out", str(out)])
        main(["fit", "--data", f"{out}.counts.txt", "--ranks", "2,2,3",
              "--out", str(tmp_path / f"{name}F")])
    assert (tmp_path / "one.counts.txt").read_bytes() == \
        (tmp_path / "two.counts.txt").read_bytes()
    assert (tmp_path / "oneF.model.json").read_bytes() == \
        (tmp_path / "twoF.model.json").read_bytes()


_THREADS_BOUND = 1e-11  # README's bound on a model entry across BLAS thread counts


@pytest.mark.parametrize("hooi", [[], ["--hooi", "5"]], ids=["plain", "hooi-5"])
def test_fits_at_one_and_two_blas_threads_agree_within_the_stated_bound(tmp_path, hooi):
    """CLI ``fit`` at 1 and at 2 BLAS threads, each in its own process, keeps the same words
    and vertices, and its model entries agree within ``_THREADS_BOUND``.  On this instance
    the runs really differ: OpenBLAS splits the mode-1 Gram matrix's product over two
    threads.  On 2 vCPUs with OpenBLAS 0.3.31 the largest entry gaps were a1 4.5e-14, a2
    8.8e-14, a3 1.8e-14 and g 4.3e-14, and 2.4e-15, 1.3e-15, 1.6e-16 and 1.0e-15 with
    ``--hooi 5``.  Where the process may run on one CPU only, OpenBLAS runs one thread, and
    the two fits are equal."""
    out = tmp_path / "g"
    spec = _spec_file(tmp_path, dims=[100, 80, 400], ranks=[3, 3, 5], seed=1)
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
    fits = []
    for threads in (1, 2):
        prefix = tmp_path / f"t{threads}"
        done = run_python("-m", "tensortopics.cli", "fit", "--data", f"{out}.counts.txt",
                          "--ranks", "3,3,5", *hooi, "--out", prefix,
                          env=dict.fromkeys(cli._BLAS_THREAD_VARIABLES, str(threads)))
        assert done.returncode == 0, done.stderr
        fits.append([json.loads(Path(f"{prefix}.{name}.json").read_text())
                     for name in ("model", "diagnostics")])
    (model1, diagnostics1), (model2, diagnostics2) = fits
    for key in ("vocab", "vertices"):
        assert diagnostics1[key] == diagnostics2[key]
    for name in ("a1", "a2", "a3", "g"):
        np.testing.assert_allclose(model1[name], model2[name], rtol=0, atol=_THREADS_BOUND)


def test_generate_seed_flag_overrides_spec(tmp_path):
    spec = _spec_file(tmp_path)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "a")])
    main(["generate", "--spec", str(spec), "--seed", "99",
          "--out", str(tmp_path / "b")])
    assert (tmp_path / "a.counts.txt").read_text() != \
        (tmp_path / "b.counts.txt").read_text()
    direct = generate(GenSpec(dims=(20, 10, 40), ranks=(2, 2, 3),
                              doc_length=200, seed=99))
    y, _ = read_count_tensor(tmp_path / "b.counts.txt")
    _assert_same_bits(y, direct.y)


@pytest.mark.parametrize("flags, options", [
    ([], {}),
    (["--sparse", "0.01"], {"sparse_c_prime": 0.01}),
    (["--hooi", "3", "--sparse", "0"], {"use_hooi": True, "hooi_iters": 3, "sparse_c_prime": 0.0}),
], ids=["defaults", "sparse", "hooi-sparse"])
def test_fit_flags_are_its_only_settings(tmp_path, flags, options):
    """CLI ``fit`` builds its ``FitConfig`` from ``--ranks``, ``--sparse`` and ``--hooi``
    alone, the defaults filling the rest: the manifest echoes that config and the model is
    the in-process fit's, bit for bit."""
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    data = tmp_path / "g.counts.txt"
    assert main(["fit", "--data", str(data), "--ranks", "2,2,3", *flags,
                 "--out", str(tmp_path / "f")]) == 0
    y, doc_length = read_count_tensor(data)
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=doc_length, **options)
    parameters = _manifest(tmp_path / "f.manifest.json")["parameters"]
    assert parameters == {"data": str(data), **json.loads(json.dumps(asdict(cfg)))}
    written, model = read_model(tmp_path / "f.model.json"), fit(y, cfg).model
    for name in ("a1", "a2", "a3", "g"):
        _assert_same_bits(getattr(written, name), getattr(model, name))


def test_hooi_fit_writes_its_sweeps_and_energies_and_the_manifest_names_the_blas(
        tmp_path, monkeypatch):
    """A HOOI fit's diagnostics hold the sweeps it ran and the captured energies of
    ``FitResult.hooi_energy``.  Its manifest names numpy's BLAS, the BLAS thread-count
    variables (null when unset) and the usable CPUs, which a bit-identical replay must match."""
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    assert main(["fit", "--data", str(tmp_path / "g.counts.txt"), "--ranks", "2,2,3",
                 "--hooi", "5", "--out", str(tmp_path / "f")]) == 0
    y, doc_length = read_count_tensor(tmp_path / "g.counts.txt")
    energy = fit(y, FitConfig(ranks=(2, 2, 3), doc_length=doc_length, use_hooi=True)).hooi_energy
    assert 2 <= len(energy) <= 6
    diag = json.loads((tmp_path / "f.diagnostics.json").read_text())
    assert diag["hooi"] == {"sweeps": len(energy) - 1, "energy": list(energy)}
    versions = json.loads((tmp_path / "f.manifest.json").read_text())["versions"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert versions["blas"] == f"{blas['name']} {blas['version']}"
    assert versions["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                        "MKL_NUM_THREADS": "2"}
    assert versions["cpus"] == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("show_config", [lambda: None, lambda mode: {}],
                         ids=["no-mode-argument", "no-build-dependencies"])
def test_manifest_names_an_unknown_blas_where_numpy_does_not_say(tmp_path, monkeypatch,
                                                                 show_config):
    """Before numpy 1.26 ``np.show_config`` takes no ``mode`` and returns nothing; there, or
    where its dictionary names no BLAS, the manifest says ``unknown`` and the command succeeds."""
    monkeypatch.setattr(np, "show_config", show_config)
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")]) == 0
    versions = json.loads((tmp_path / "g.manifest.json").read_text())["versions"]
    assert versions["blas"] == "unknown"


def test_sweep_writes_deterministic_tables(tmp_path):
    grid = {
        "seed": 3,
        "trials": 2,
        "cells": [
            {"label": "tiny", "dims": [12, 8, 25], "ranks": [2, 2, 2],
             "doc_length": 80},
            {"label": "hooi", "dims": [12, 8, 25], "ranks": [2, 2, 2],
             "doc_length": 80, "fit": {"use_hooi": True, "hooi_iters": 2}},
        ],
    }
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["sweep", "--grid", str(grid_path),
                 "--out", str(tmp_path / "s1")]) == 0
    assert main(["sweep", "--grid", str(grid_path),
                 "--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1.trials.csv").read_bytes() == \
        (tmp_path / "s2.trials.csv").read_bytes()
    assert (tmp_path / "s1.summary.csv").read_bytes() == \
        (tmp_path / "s2.summary.csv").read_bytes()
    trials = (tmp_path / "s1.trials.csv").read_text().splitlines()
    assert trials[0].startswith("label,cell,trial,seed,loss_a1")
    assert len(trials) == 1 + 4
    summary = (tmp_path / "s1.summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2
    # trial seeds come from the documented derivation
    row = trials[1].split(",")
    assert int(row[3]) == derive_seed(3, 0, 0)


def test_sweep_summary_is_the_median_and_iqr_of_the_trials(tmp_path):
    grid = {"seed": 5, "trials": 4, "cells": [
        {"label": "a", "dims": [12, 8, 25], "ranks": [2, 2, 2], "doc_length": 80},
        {"label": "b", "dims": [10, 8, 20], "ranks": [2, 2, 2], "doc_length": 40},
        {"dims": [12, 8, 25], "ranks": [2, 2, 2], "doc_length": 80, "fit": {"use_hooi": True}},
    ]}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["sweep", "--grid", str(grid_path), "--out", str(tmp_path / "s")]) == 0
    trials = [line.split(",") for line in (tmp_path / "s.trials.csv").read_text().splitlines()]
    summary = [line.split(",") for line in (tmp_path / "s.summary.csv").read_text().splitlines()]
    assert [row[:3] for row in trials[1:]] == [[label, str(ci), str(ti)] for ci, label in
                                               enumerate(["a", "b", "cell2"]) for ti in range(4)]
    assert [row[0] for row in summary[1:]] == ["a", "b", "cell2"]
    for ci, row in enumerate(summary[1:]):
        losses = np.array([[float(v) for v in t[4:]] for t in trials[1:] if t[1] == str(ci)])
        q25, q75 = np.percentile(losses, [25.0, 75.0], axis=0)
        expected = np.stack([np.median(losses, axis=0), q75 - q25], axis=-1).ravel()
        assert [float(v) for v in row[9:]] == expected.tolist()


def test_sweep_parallel_matches_serial(tmp_path):
    grid = {"seed": 3, "trials": 2, "cells": [
        {"label": "tiny", "dims": [12, 8, 25], "ranks": [2, 2, 2],
         "doc_length": 80}]}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["sweep", "--grid", str(grid_path),
                 "--out", str(tmp_path / "w1")]) == 0
    assert main(["sweep", "--grid", str(grid_path), "--workers", "2",
                 "--out", str(tmp_path / "w2")]) == 0
    assert (tmp_path / "w1.trials.csv").read_bytes() == \
        (tmp_path / "w2.trials.csv").read_bytes()


@pytest.mark.parametrize("trials, started", [(1, 0), (2, 2)])
def test_sweep_starts_no_more_worker_processes_than_trials(tmp_path, monkeypatch, trials,
                                                           started):
    """``--workers 4`` starts one process per trial at most, and none for a single trial; its
    tables equal those of ``--workers 1``, and its manifest echoes the workers asked for."""
    from concurrent.futures import ProcessPoolExecutor

    spawned, spawn = [], ProcessPoolExecutor._spawn_process

    def counted(self):
        spawned.append(self)
        spawn(self)

    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", counted)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"seed": 3, "trials": trials, "cells": [
        {"dims": [12, 8, 25], "ranks": [2, 2, 2], "doc_length": 80}]}))
    for workers in ("1", "4"):
        assert main(["sweep", "--grid", str(grid), "--workers", workers,
                     "--out", str(tmp_path / f"w{workers}")]) == 0
    assert len(spawned) == started
    for table in ("trials.csv", "summary.csv"):
        assert (tmp_path / f"w1.{table}").read_bytes() == (tmp_path / f"w4.{table}").read_bytes()
    assert _manifest(tmp_path / "w4.manifest.json")["parameters"]["workers"] == 4


def test_cli_commands_leave_scipy_unloaded(tmp_path):
    """The program needs only numpy at run time: generate, fit, eval, scree
    and a one-cell sweep, run in turn in a fresh process, import no scipy."""
    spec = _spec_file(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"trials": 1, "cells": [
        {"dims": [12, 8, 25], "ranks": [2, 2, 2], "doc_length": 80}]}))
    g, f = tmp_path / "g", tmp_path / "f"
    commands = {
        "generate": ["generate", "--spec", str(spec), "--out", str(g)],
        "fit": ["fit", "--data", f"{g}.counts.txt", "--ranks", "2,2,3", "--out", str(f)],
        "eval": ["eval", "--model", f"{f}.model.json", "--truth", f"{g}.truth.json",
                 "--out", str(tmp_path / "e")],
        "scree": ["scree", "--data", f"{g}.counts.txt", "--ranks", "2,2", "--kmax", "4",
                  "--out", str(tmp_path / "sc")],
        "sweep": ["sweep", "--grid", str(grid), "--out", str(tmp_path / "sw")],
    }
    code = ("import sys; from tensortopics.cli import main\n"
            f"for name, argv in {commands!r}.items():\n"
            "    print(name, main(argv), 'scipy' in sys.modules)")
    lines = run_fresh(code).splitlines()
    assert [line for line in lines if line.split()[0] in commands] == \
        [f"{name} 0 False" for name in commands]


def test_readme_command_lines_parse():
    """Every ``tensortopics ...`` line of README's "Command line" block parses
    with the program's own parser, so a renamed or deleted flag fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("tensortopics ")]
    assert [argv[0] for argv in commands] == ["generate", "fit", "eval", "sweep", "scree"]
    parser = build_parser()
    for argv in commands:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README: tensortopics {shlex.join(argv)}: {err.getvalue()}")


def test_scree_csv(tmp_path):
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    assert main(["scree", "--data", str(tmp_path / "g.counts.txt"),
                 "--ranks", "3,2", "--kmax", "6",
                 "--out", str(tmp_path / "sc")]) == 0
    lines = (tmp_path / "sc.scree.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 7
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)
    manifest = json.loads((tmp_path / "sc.manifest.json").read_text())
    assert manifest["parameters"] == {"data": str(tmp_path / "g.counts.txt"), "ranks": [3, 2],
                                      "mode": 3, "k_max": 6}


def _manifest(path):
    return json.loads(Path(path).read_text())


def test_two_cli_fits_of_one_file_write_the_same_bytes_from_parsed_and_cached_records(tmp_path):
    """The first fit parses the count file and lists the records file it saved among its
    outputs; the second reads the records from there, and writes the same model and
    diagnostics bytes."""
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    data = tmp_path / "g.counts.txt"
    for name in ("f1", "f2"):
        assert main(["fit", "--data", str(data), "--ranks", "2,2,3",
                     "--out", str(tmp_path / name)]) == 0
    first, second = (_manifest(tmp_path / f"{name}.manifest.json") for name in ("f1", "f2"))
    assert (first["records"], first["outputs"]["records"]) == ("parsed", str(_records_file(data)))
    assert second["records"] == "cached" and "records" not in second["outputs"]
    for suffix in ("model.json", "diagnostics.json"):
        assert (tmp_path / f"f1.{suffix}").read_bytes() == (tmp_path / f"f2.{suffix}").read_bytes()


def test_scree_after_fit_reads_the_records_file_and_writes_the_same_spectrum(tmp_path):
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    data = tmp_path / "g.counts.txt"
    (tmp_path / "copy").mkdir()
    copy = tmp_path / "copy" / "g.counts.txt"
    copy.write_bytes(data.read_bytes())
    screen = ["--ranks", "3,2", "--kmax", "6"]
    assert main(["scree", "--data", str(copy), *screen, "--out", str(tmp_path / "s1")]) == 0
    assert main(["fit", "--data", str(data), "--ranks", "2,2,3",
                 "--out", str(tmp_path / "f")]) == 0
    assert main(["scree", "--data", str(data), *screen, "--out", str(tmp_path / "s2")]) == 0
    parsed, cached = (_manifest(tmp_path / f"{name}.manifest.json") for name in ("s1", "s2"))
    assert (parsed["records"], parsed["outputs"]["records"]) == ("parsed", str(_records_file(copy)))
    assert cached["records"] == "cached" and "records" not in cached["outputs"]
    assert (tmp_path / "s1.scree.csv").read_bytes() == (tmp_path / "s2.scree.csv").read_bytes()


def test_a_records_file_that_cannot_be_written_leaves_the_fit_as_it_was(tmp_path, monkeypatch):
    """A save that fails midway, as in a directory that cannot be written or on a full disk:
    the fit exits 0 with the outputs of a fit that saves its records, and leaves neither a
    records file nor a partial one."""
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    data = tmp_path / "g.counts.txt"

    def failing_save(file, **arrays):
        file.write(b"PK")
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(np, "savez", failing_save)
        assert main(["fit", "--data", str(data), "--ranks", "2,2,3",
                     "--out", str(tmp_path / "f1")]) == 0
    assert not _records_file(data).exists() and not list(tmp_path.glob("*.tmp"))
    manifest = _manifest(tmp_path / "f1.manifest.json")
    assert manifest["records"] == "parsed" and "records" not in manifest["outputs"]
    assert main(["fit", "--data", str(data), "--ranks", "2,2,3",
                 "--out", str(tmp_path / "f2")]) == 0
    assert _records_file(data).exists()
    for suffix in ("model.json", "diagnostics.json"):
        assert (tmp_path / f"f1.{suffix}").read_bytes() == (tmp_path / f"f2.{suffix}").read_bytes()


# -------------------------------------------------------------- exit codes


def test_usage_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # an integer flag out of its range is refused when parsed, before any file is read
    missing = str(tmp_path / "missing.json")
    for argv, flag, low in [
        (["scree", "--data", missing, "--ranks", "2,2", "--kmax", "0"], "--kmax", 1),
        (["sweep", "--grid", missing, "--workers", "0"], "--workers", 1),
        (["sweep", "--grid", missing, "--workers", "-3"], "--workers", 1),
        (["generate", "--spec", missing, "--seed", "-1"], "--seed", 0),
        (["fit", "--data", missing, "--ranks", "2,2,2", "--hooi", "-1"], "--hooi", 0),
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least {low}, got" in capsys.readouterr().err
    # fit takes its settings from its flags only, and sweep its seed and trials from the grid
    for argv, flag in [
        (["fit", "--data", missing, "--ranks", "2,2,2", "--config", missing], "--config"),
        (["sweep", "--grid", missing, "--seed", "1"], "--seed"),
        (["sweep", "--grid", missing, "--trials", "2"], "--trials"),
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err


def test_missing_ranks_is_usage_error(tmp_path, capsys):
    """``--ranks`` is required: without it argparse exits 2 before the count file is read."""
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "f")])
    assert exc.value.code == 2
    assert "error: the following arguments are required: --ranks" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_malformed_data_is_exit_3(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n")
    assert main(["fit", "--data", str(bad), "--ranks", "2,2,2",
                 "--out", str(tmp_path / "f")]) == 3
    assert main(["eval", "--model", str(tmp_path / "missing.json"),
                 "--truth", str(tmp_path / "missing.json")]) == 3


@pytest.mark.parametrize("where, message", [
    ("data-directory", "cannot read tensor file: "),
    ("grid-not-json", "invalid JSON: "),
    ("grid-array", "sweep grid must be a JSON object\n"),
    ("grid-without-cells", 'grid must hold a nonempty "cells" list\n'),
])
def test_an_input_that_cannot_be_read_as_its_kind_is_exit_3_naming_it(tmp_path, capsys, where,
                                                                       message):
    path = tmp_path / "input.json"
    argv, content = {
        "data-directory": (["fit", "--ranks", "2,2,2", "--data"], None),
        "grid-not-json": (["sweep", "--grid"], "{cells: []}"),
        "grid-array": (["sweep", "--grid"], "[2, 2, 2]"),
        "grid-without-cells": (["sweep", "--grid"], '{"cells": []}'),
    }[where]
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    assert main([*argv, str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {path}: {message}")


@pytest.mark.parametrize("command", ["generate", "fit", "eval", "scree", "sweep"])
def test_an_output_that_cannot_be_written_is_exit_3_naming_its_path(tmp_path, capsys, command):
    """An ``--out`` prefix under a regular file cannot be written: the command exits 3 with
    one line, the system's text, which names the path."""
    data, truth, grid = _tiny_counts(tmp_path), tmp_path / "truth.json", _sweep_grid(tmp_path)
    write_model(truth, planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82).model)
    argv = {
        "generate": ["generate", "--spec", str(_spec_file(tmp_path))],
        "fit": ["fit", "--data", str(data), "--ranks", "2,2,2"],
        "eval": ["eval", "--model", str(truth), "--truth", str(truth)],
        "scree": ["scree", "--data", str(data)],
        "sweep": ["sweep", "--grid", str(grid)],
    }[command]
    plain = tmp_path / "plainfile"
    plain.write_text("")
    assert main([*argv, "--out", str(plain / "x")]) == 3
    assert capsys.readouterr().err == (
        f"data error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{plain}'\n")


@pytest.mark.parametrize("command", ["generate", "fit", "eval", "scree", "sweep"])
def test_an_output_that_cannot_be_made_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command):
    """``main`` makes the output directory before the command runs: with an input that does
    not exist, the line names the ``--out`` path, not the input; with valid inputs, ``fit``
    fits nothing, ``sweep`` runs no trial and a long-document ``generate`` draws no count."""
    missing = str(tmp_path / "missing.json")
    valid = {"generate": _spec_file(tmp_path), "fit": _tiny_counts(tmp_path),
             "sweep": _sweep_grid(tmp_path)}
    option, argv = {
        "generate": ("--spec", ["generate"]),
        "fit": ("--data", ["fit", "--ranks", "2,2,2"]),
        "eval": ("--model", ["eval", "--truth", missing]),
        "scree": ("--data", ["scree"]),
        "sweep": ("--grid", ["sweep"]),
    }[command]
    plain = tmp_path / "plainfile"
    plain.write_text("")

    def spy(*args, **kwargs):
        raise AssertionError("work ran before the output directory was made")

    monkeypatch.setattr(cli, "fit", spy)
    monkeypatch.setattr(cli, "_sweep_trial", spy)
    monkeypatch.setattr(synth, "sample_counts", spy)
    for source in (missing, valid.get(command)):
        if source is not None:
            assert main([*argv, option, str(source), "--out", str(plain / "x")]) == 3
            assert capsys.readouterr().err == (
                f"data error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{plain}'\n")


def test_a_prefix_ending_in_a_separator_writes_into_that_directory(tmp_path, capsys):
    """The directory made is the outputs' own: ``runs/`` writes ``runs/.losses.csv``."""
    truth = tmp_path / "truth.json"
    write_model(truth, planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82).model)
    assert main(["eval", "--model", str(truth), "--truth", str(truth),
                 "--out", f"{tmp_path / 'runs'}{os.sep}"]) == 0
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [".losses.csv",
                                                                      ".manifest.json"]
    assert capsys.readouterr().out == f"wrote {tmp_path / 'runs' / '.losses.csv'}\n"


def _sweep_grid(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": [{"dims": [8, 6, 20], "ranks": [2, 2, 2],
                                           "doc_length": 30}], "trials": 2}))
    return grid


class _FailingWrites:
    """A file whose first write stores half its bytes, then fails as a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[:len(data) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


@pytest.mark.parametrize("command, output", [("eval", "losses.csv"), ("fit", "model.json")])
def test_an_output_that_fails_partway_leaves_no_file(tmp_path, capsys, monkeypatch, command,
                                                     output):
    """Outputs are written whole or not at all: a write that fails halfway through one
    exits 3 and leaves neither the output nor a partial file beside it."""
    truth = tmp_path / "truth.json"
    write_model(truth, planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82).model)
    argv = {"eval": ["eval", "--model", str(truth), "--truth", str(truth)],
            "fit": ["fit", "--data", str(_tiny_counts(tmp_path)), "--ranks", "2,2,2"]}[command]

    def failing_open(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        return _FailingWrites(handle) if "w" in mode and output in str(file) else handle

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    out = tmp_path / "runs" / "o"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert not Path(f"{out}.{output}").exists()
    assert not list(out.parent.glob("*.tmp"))


@pytest.mark.parametrize("ranks, message", [("1,x,2", "ranks must be integers"),
                                            ("1,2", "ranks must look like K1,K2,K3")])
def test_fit_ranks_that_do_not_parse_are_usage_errors(tmp_path, capsys, ranks, message):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(tmp_path / "missing.txt"), "--ranks", ranks,
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"argument --ranks: {message}\n" in capsys.readouterr().err


def test_eval_of_models_that_disagree_names_both_files(tmp_path, capsys):
    paths = []
    for dims, ranks in (((8, 6, 20), (2, 2, 2)), ((8, 6, 20), (2, 2, 3))):
        paths.append(tmp_path / f"model-{len(paths)}.json")
        write_model(paths[-1], planted(dims, ranks, doc_length=30, seed=83).model)
    assert main(["eval", "--model", str(paths[0]), "--truth", str(paths[1])]) == 3
    assert capsys.readouterr().err == (
        f"data error: {paths[0]} (dims (8, 6, 20), ranks (2, 2, 2)) and {paths[1]} "
        "(dims (8, 6, 20), ranks (2, 2, 3)) disagree on dims or ranks\n")


def test_degenerate_fit_is_exit_4(tmp_path):
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    assert main(["fit", "--data", str(tmp_path / "g.counts.txt"),
                 "--ranks", "2,2,3", "--sparse", "1e9",
                 "--out", str(tmp_path / "f")]) == 4


def test_empty_corpus_is_exit_4(tmp_path, capsys):
    """A count file of only a header holds no mass: with the threshold off
    every word is kept, and the fit is refused instead of solving zero grams."""
    data = tmp_path / "empty.counts.txt"
    data.write_text("4 4 6 10\n")
    assert main(["fit", "--data", str(data), "--ranks", "2,2,2", "--sparse", "0",
                 "--out", str(tmp_path / "f")]) == 4
    assert "vocabulary threshold: the data tensor holds no mass" in capsys.readouterr().err
    assert not (tmp_path / "f.model.json").exists()


def test_hooi_rank_beyond_projected_span_is_exit_3(tmp_path, capsys):
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    assert main(["fit", "--data", str(tmp_path / "g.counts.txt"),
                 "--ranks", "5,2,2", "--hooi", "1",
                 "--out", str(tmp_path / "f")]) == 3
    assert "exceeds the projected span" in capsys.readouterr().err
    assert not (tmp_path / "f.model.json").exists()


@pytest.mark.parametrize("flags", [["--ranks", "5,2,2"], ["--ranks", "2,2,5", "--hooi", "0"]])
def test_rank_beyond_projected_span_is_exit_3_with_or_without_hooi(tmp_path, capsys, flags):
    code = main(["fit", "--data", str(_tiny_counts(tmp_path)), *flags,
                 "--out", str(tmp_path / "f")])
    assert code == 3
    assert "rank 5 exceeds the projected span 4" in capsys.readouterr().err
    assert not (tmp_path / "f.model.json").exists()


@pytest.mark.parametrize("ranks, mode, dim", [((9, 3, 3), 1, 8), ((3, 7, 3), 2, 6),
                                              ((4, 6, 21), 3, 20)])
def test_rank_above_the_dimension_is_usage_error_naming_the_file(tmp_path, capsys, ranks, mode,
                                                                  dim):
    data = _tiny_counts(tmp_path)
    assert main(["fit", "--data", str(data), "--ranks", ",".join(map(str, ranks)),
                 "--out", str(tmp_path / "f")]) == 2
    value = ranks[mode - 1]
    assert capsys.readouterr().err == \
        f"usage error: {data}: mode {mode} rank {value} exceeds dimension {dim}\n"
    assert not (tmp_path / "f.model.json").exists()


# ranks that break one rank rule each on the (8, 6, 20) tiny count file, and its one text
_RANK_RULES = {
    "span": ((5, 2, 2), "mode 1 rank 5 exceeds the projected span 4"),
    "topics": ((2, 2, 1), "word-mode recovery needs at least two topics"),
    "dimension": ((9, 3, 3), "mode 1 rank 9 exceeds dimension 8"),
}


@pytest.mark.parametrize("rule, entry", [
    *(("span", entry) for entry in ("FitConfig", "GenSpec", "sweep", "generate", "cli fit")),
    *(("topics", entry) for entry in ("FitConfig", "sweep", "cli fit")),
    *(("dimension", entry) for entry in ("fit", "scree", "GenSpec", "generate", "cli fit",
                                         "cli scree")),
])
def test_each_rank_rule_has_one_text_at_every_entry_point(tmp_path, capsys, monkeypatch,
                                                          rule, entry):
    """The rules that need no data fail where the config is built: a sweep cell before any
    trial runs, CLI ``fit`` with exit 3.  The dimension rule fails when the data is read:
    CLI ``fit`` and ``scree`` exit 2 naming the data file, ``generate`` 3 naming the spec."""
    ranks, text = _RANK_RULES[rule]
    data = _tiny_counts(tmp_path)
    y = read_count_tensor(data)[0]
    spec = {"dims": [8, 6, 20], "ranks": list(ranks), "doc_length": 30}

    def raised(call, *args, **kwargs):
        with pytest.raises(DataFormatError) as caught:
            call(*args, **kwargs)
        return str(caught.value)

    def run(argv, code):
        assert main(argv) == code
        return capsys.readouterr().err

    if entry == "FitConfig":
        assert raised(FitConfig, ranks=ranks, doc_length=30) == text
    elif entry == "GenSpec":
        assert raised(GenSpec, **spec) == text
    elif entry == "fit":
        assert raised(fit, y, FitConfig(ranks=ranks, doc_length=30)) == text
    elif entry == "scree":
        assert raised(scree, y, ranks[:2], ranks[2], 30) == text
    elif entry == "sweep":
        def trial(job):
            raise AssertionError("a trial ran before the grid was checked")

        monkeypatch.setattr(cli, "_sweep_trial", trial)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": [{**spec, "ranks": [2, 2, 2],
                                               "fit": {"ranks": list(ranks)}}]}))
        assert run(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")], 3) == \
            f"data error: {grid}: cell 0: {text}\n"
    elif entry == "generate":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run(["generate", "--spec", str(path), "--out", str(tmp_path / "g")], 3) == \
            f"data error: {path}: {text}\n"
    elif entry == "cli fit":
        code, where = (2, f"usage error: {data}") if rule == "dimension" else \
            (3, "data error: command line")
        flags = ["--ranks", ",".join(map(str, ranks)), "--out", str(tmp_path / "f")]
        assert run(["fit", "--data", str(data), *flags], code) == f"{where}: {text}\n"
    else:
        flags = ["--ranks", ",".join(map(str, ranks[:2])), "--kmax", str(ranks[2])]
        assert run(["scree", "--data", str(data), *flags], 2) == \
            f"usage error: {data}: {text}\n"
    assert not list(tmp_path.glob("[fgs].*"))


@pytest.mark.parametrize("mode, dim", [(1, 8), (2, 6), (3, 20)])
def test_scree_kmax_above_the_dimension_is_usage_error_naming_the_file(tmp_path, capsys,
                                                                        mode, dim):
    """``--kmax`` is at most the screened mode's dimension, checked with the ranks and in the
    same text; for mode 3 it is also at most the kept words (all 20 here) and ``K1 K2``."""
    data = _tiny_counts(tmp_path)
    ranks = {1: [], 2: ["--ranks", "2"], 3: ["--ranks", "4,6"]}[mode]
    scree = ["scree", "--data", str(data), *ranks, "--out", str(tmp_path / "s")]
    assert main([*scree, "--kmax", str(dim + 1)]) == 2
    assert capsys.readouterr().err == \
        f"usage error: {data}: mode {mode} rank {dim + 1} exceeds dimension {dim}\n"
    assert main([*scree, "--kmax", str(dim)]) == 0
    assert main(scree) == 0  # the bound is the default
    assert len((tmp_path / "s.scree.csv").read_text().splitlines()) == dim + 1


def test_scree_kmax_above_k1_k2_breaks_the_span_rule_with_exit_3(tmp_path, capsys):
    """Mode 3's ``--kmax`` is a word-mode rank, so above ``K1 K2`` it breaks the span rule, in
    that rule's one text, before the data is checked: also above the 20 words, since the span
    rule needs no data.  ``K1 K2`` is the default here."""
    data = _tiny_counts(tmp_path)
    scree = ["scree", "--data", str(data), "--ranks", "2,2", "--out", str(tmp_path / "s")]
    for kmax in (5, 25):
        assert main([*scree, "--kmax", str(kmax)]) == 3
        assert capsys.readouterr().err == \
            f"data error: mode 3 rank {kmax} exceeds the projected span 4\n"
        assert not (tmp_path / "s.scree.csv").exists()
    assert main(scree) == 0
    assert len((tmp_path / "s.scree.csv").read_text().splitlines()) == 4 + 1


def test_scree_kmax_above_the_kept_words_is_the_fits_degenerate_vocabulary(tmp_path, capsys):
    """Mode 3's ``--kmax`` above the kept words is refused by the vocabulary threshold in the
    fit's text, with exit 4; the kept words bound the default."""
    data = _three_word_counts(tmp_path)
    scree = ["scree", "--data", str(data), "--ranks", "2,2", "--out", str(tmp_path / "s")]
    assert main([*scree, "--kmax", "4"]) == 4
    assert capsys.readouterr().err == "degenerate fit: vocabulary threshold: kept 3 of 20 " \
                                      "words, fewer than the 4 requested topics\n"
    assert main(scree) == 0
    assert len((tmp_path / "s.scree.csv").read_text().splitlines()) == 3 + 1


@pytest.mark.parametrize("ranks, kmax, code", [([], "8", 0), (["--ranks", "2"], "6", 0),
                                             (["--ranks", "2,2"], "4", 0),
                                             (["--ranks", "2,2"], "4", 4)],
                         ids=["mode-1", "mode-2", "mode-3", "mode-3-kmax-too-big"])
def test_scree_checks_the_data_and_thresholds_once(tmp_path, monkeypatch, ranks, kmax, code):
    """scree bounds mode 3's ``--kmax`` by the kept words from the same data
    check and threshold that its spectrum takes: one of each per call.  In the
    last case the threshold keeps 3 of the 20 words."""
    calls = {"check": 0, "threshold": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(estimator, "_data_word_sums",
                        counted("check", estimator._data_word_sums))
    monkeypatch.setattr(estimator, "_threshold", counted("threshold", estimator._threshold))
    data = _three_word_counts(tmp_path) if code else _tiny_counts(tmp_path)
    assert main(["scree", "--data", str(data), *ranks, "--kmax", kmax]) == code
    assert calls == {"check": 1, "threshold": 1}


@pytest.mark.parametrize("ranks, message", [
    ("9", "mode 1 rank 9 exceeds dimension 8"),
    ("2,7", "mode 2 rank 7 exceeds dimension 6"),
    ("0,2", "mode 1 rank must be a positive integer, got 0"),
    ("2,2,3", "no mode 4: --ranks takes at most 2, got 3"),
], ids=["mode-1", "mode-2", "not-positive", "three-ranks"])
def test_scree_ranks_outside_their_bounds_are_usage_errors_naming_the_file(
        tmp_path, capsys, ranks, message):
    data = _tiny_counts(tmp_path)
    assert main(["scree", "--data", str(data), "--ranks", ranks, "--kmax", "2"]) == 2
    assert capsys.readouterr().err == f"usage error: {data}: {message}\n"


@pytest.mark.parametrize("header", ["0 3 5 5", "4 0 5 5"])
def test_scree_of_a_file_with_no_documents_exits_3(tmp_path, capsys, header):
    """A count file cannot declare an empty document mode, so scree never
    reaches the library's own refusal of such a tensor."""
    data = tmp_path / "empty.counts.txt"
    data.write_text(header + "\n")
    assert main(["scree", "--data", str(data), "--ranks", "2,2", "--kmax", "2"]) == 3
    assert capsys.readouterr().err == \
        f"data error: {data}: line 1: header dims and doc length must be positive\n"


@pytest.mark.parametrize("ranks", [[], ["--ranks", "2"]], ids=["mode-1", "mode-2"])
def test_scree_of_a_file_whose_threshold_keeps_no_word_exits_4(tmp_path, capsys, ranks):
    """With a header doc length of 1e9 the threshold keeps none of the 40
    words: scree names the empty vocabulary, as fit does."""
    data = tmp_path / "long.counts.txt"
    write_count_tensor(data, np.ones((3, 2, 40), dtype=np.int64), 10 ** 9)
    message = "degenerate fit: vocabulary threshold: kept 0 of 40 words"
    assert main(["scree", "--data", str(data), *ranks, "--kmax", "2"]) == 4
    assert capsys.readouterr().err == message + "\n"
    assert main(["fit", "--data", str(data), "--ranks", "2,2,2",
                 "--out", str(tmp_path / "f")]) == 4
    assert capsys.readouterr().err.startswith(message)


def test_scree_of_a_mode_2_gram_that_overflows_exits_3_naming_the_projection(tmp_path, capsys,
                                                                             monkeypatch):
    """No count file reaches entries of 1e153, so the reader hands scree such a tensor: its
    mode-2 gram overflows, and the message names the projection on the mode-1 basis."""
    monkeypatch.setattr(cli, "read_count_tensor",
                        lambda path, read: (np.full((1000, 2, 3), 1e153), 10))
    assert main(["scree", "--data", str(tmp_path / "big.counts.txt"), "--ranks", "1"]) == 3
    assert capsys.readouterr().err == \
        "data error: mode 2 gram overflows: the projection on the mode-1 basis reaches 3.2e+154\n"


def _set_entry(name, value):
    def edit(payload):
        payload[name][0][0] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set_entry("a1", float("nan")), "a1 rows: non-finite entries"),
    (_set_entry("a1", -5.0), "a1 rows: entries below -1e-09"),
    (_set_entry("a1", "0.5"), "a1 must be an array of numbers"),
    (lambda payload: payload.update(dims=[8.7, 6, 20]),
     "dims must be three positive integers, got [8.7, 6, 20]"),
    (lambda payload: payload.update(a1=payload["a1"][0]), "a1 must be a matrix, got ndim=1"),
], ids=["nan-entry", "negative-entry", "string-entry", "float-dims", "1-d-a1"])
def test_bad_model_file_is_exit_3_naming_the_file(tmp_path, capsys, edit, message):
    truth = tmp_path / "truth.json"
    write_model(truth, planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82).model)
    payload = json.loads(truth.read_text())
    edit(payload)
    bad = tmp_path / "bad.model.json"
    bad.write_text(json.dumps(payload))
    assert main(["eval", "--model", str(bad), "--truth", str(truth)]) == 3
    assert capsys.readouterr().err == f"data error: {bad}: malformed model payload: {message}\n"


def _tiny_counts(tmp_path):
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82)
    path = tmp_path / "tiny.counts.txt"
    write_count_tensor(path, inst.counts, 30)
    return path


def _three_word_counts(tmp_path):
    """The tiny count file with only its first 3 words left, which the threshold keeps."""
    counts = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82).counts
    counts[:, :, 3:] = 0
    path = tmp_path / "three.counts.txt"
    write_count_tensor(path, counts, 30)
    return path


@pytest.mark.parametrize("config", [
    {"ranks": 5},
    {"ranks": [2, 2, 2], "sparse_c_prime": None},
    {"ranks": [2, 2, 2], "use_hooi": "false"},
    {"ranks": [2, 2, 2], "use_hoi": True},
    {"ranks": [2, 2, 2], "sparse_c_prime": 10 ** 400},
    {"ranks": [2, 2, 2], "use_hooi": True, "hooi_iters": -1},
])
def test_bad_fit_config_is_exit_3_naming_the_file(tmp_path, capsys, config):
    """A sweep cell's ``"fit"`` object is the one JSON fit config: a bad one exits 3 naming
    the grid file and the cell, before any trial runs."""
    cell = {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30}
    grid = tmp_path / "bad-fit.json"
    grid.write_text(json.dumps({"cells": [cell, {**cell, "fit": config}]}))
    assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {grid}: cell 1: ")
    assert not (tmp_path / "s.trials.csv").exists()


@pytest.mark.parametrize("fit_options, code", [
    ({"hooi_iters": 3}, 3),
    ({"use_hooi": False, "hooi_iters": 3}, 3),
    ({"use_hooi": True, "hooi_iters": 3}, 0),
])
def test_a_sweep_cell_caps_hooi_sweeps_only_with_use_hooi(tmp_path, capsys, fit_options, code):
    """A ``hooi_iters`` without ``"use_hooi": true`` would cap no sweep: the cell is refused
    naming the grid, the cell and the key.  With it, the cell runs at most that many sweeps."""
    cell = {"dims": [12, 8, 25], "ranks": [2, 2, 2], "doc_length": 80}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"seed": 3, "cells": [cell, {**cell, "fit": fit_options}]}))
    assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err == f'data error: {grid}: cell 1: "hooi_iters" needs "use_hooi": true\n'
        assert not (tmp_path / "s.trials.csv").exists()
        return
    row = (tmp_path / "s.trials.csv").read_text().splitlines()[2].split(",")
    instance = generate(GenSpec(**cell, seed=derive_seed(3, 1, 0)))
    cfg = FitConfig(ranks=(2, 2, 2), doc_length=80, **fit_options)
    report = evaluate(fit(instance.y, cfg).model, instance.model)
    assert [float(v) for v in row[4:]] == [getattr(report, c) for c in cli._EVAL_COLUMNS]


@pytest.mark.parametrize("bad_cell", [
    {"label": "bad", "dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30,
     "fit": {"bogus": 1}},
    [1, 2],
    {"dims": [8, 6, 20], "ranks": [5, 2, 2], "doc_length": 30},
    {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30, "fit": {"ranks": [2, 2, 5]}},
])
def test_bad_sweep_cell_is_exit_3_naming_file_and_cell(tmp_path, capsys, bad_cell):
    good = {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30}
    grid = tmp_path / "bad-grid.json"
    grid.write_text(json.dumps({"cells": [good, bad_cell]}))
    assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert str(grid) in err and "cell 1" in err
    assert not (tmp_path / "s.trials.csv").exists()


@pytest.mark.parametrize("override", [
    {"dims": [8.9, 6, 20]},
    {"ranks": [2, 2, 2.5]},
    {"doc_length": 30.5},
    {"seed": "1"},
    {"ranks": [5, 2, 2]},
])
def test_bad_generator_spec_is_exit_3_naming_the_file(tmp_path, capsys, override):
    spec = _spec_file(tmp_path, **override)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")]) == 3
    assert str(spec) in capsys.readouterr().err
    assert not (tmp_path / "g.counts.txt").exists()


@pytest.mark.parametrize("where", ["fit-config", "sweep-cell", "sweep-cell-fit", "spec",
                                   "spec-missing", "sweep-cell-missing", "sweep-grid"])
def test_a_key_the_input_may_not_hold_is_exit_3_naming_the_key(tmp_path, capsys, where):
    """An unknown key, one the command sets itself, or a missing key that has no default is
    refused in the program's words: the message names the key and, for one the command
    sets, where its value comes from."""
    cell = {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30}
    path = tmp_path / "input.json"
    argv, payload, message = {
        "fit-config": (["sweep", "--grid"], {"cells": [{**cell, "fit": {"use_hoi": True}}]},
                       'cell 0: unknown key "use_hoi"'),
        "sweep-cell": (["sweep", "--grid"], {"cells": [{**cell, "seed": 3}]},
                       'cell 0: "seed" cannot be set here: it comes from each trial\'s derived '
                       "seed"),
        "sweep-cell-fit": (["sweep", "--grid"], {"cells": [{**cell, "fit": {"doc_length": 9}}]},
                           'cell 0: "doc_length" cannot be set here: it comes from the cell\'s '
                           "doc_length"),
        "spec": (["generate", "--spec"], {**cell, "colour": "red"}, 'unknown key "colour"'),
        "spec-missing": (["generate", "--spec"], {"ranks": [2, 2, 2], "doc_length": 30},
                         'missing key "dims"'),
        "sweep-cell-missing": (["sweep", "--grid"], {"cells": [{"dims": [8, 6, 20],
                                                                "ranks": [2, 2, 2]}]},
                               'cell 0: missing key "doc_length"'),
        "sweep-grid": (["sweep", "--grid"], {"cells": [cell], "trails": 4, "seeed": 9},
                       'unknown key "trails"'),
    }[where]
    path.write_text(json.dumps(payload))
    assert main([*argv, str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"data error: {path}: {message}\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("o.")]


def test_generate_of_a_word_column_with_no_mass_is_exit_3_naming_the_file(tmp_path, capsys):
    spec = _spec_file(tmp_path, dims=[8, 6, 20], ranks=[2, 2, 3], doc_length=30,
                      word_dist="zipf", zipf_q=0.001, seed=1)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")]) == 3
    assert capsys.readouterr().err == \
        f"data error: {spec}: a word column lost all mass; widen the word distribution\n"
    assert not list(tmp_path.glob("g.*"))


def test_generate_with_an_underflowing_alpha_is_exit_3_naming_the_file(tmp_path):
    """At alpha 1e-20 every Gamma draw of a row underflows; the command
    stops within seconds instead of drawing for ever."""
    spec = _spec_file(tmp_path, dims=[3, 3, 4], ranks=[2, 2, 2], dirichlet_alpha=1e-20)
    out = run_python("-m", "tensortopics.cli", "generate", "--spec", spec,
                     "--out", tmp_path / "g", timeout=30)
    assert out.returncode == 3
    assert out.stderr == f"data error: {spec}: dirichlet_alpha 1e-20 is too small: " \
        "1000 Gamma draws of one row all underflowed to 0\n"
    assert not (tmp_path / "g.counts.txt").exists()


def test_sweep_with_an_underflowing_alpha_names_grid_cell_and_trial(tmp_path, capsys):
    cell = {"dims": [3, 3, 4], "ranks": [2, 2, 2], "doc_length": 30, "dirichlet_alpha": 1e-20}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": [cell]}))
    assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")]) == 3
    assert f"data error: {grid}: cell 0, trial 0: dirichlet_alpha 1e-20" in \
        capsys.readouterr().err


@pytest.mark.parametrize("setting", [{"trials": 1.9}, {"trials": "two"}, {"seed": -1},
                                     {"seed": True}])
def test_bad_sweep_settings_are_exit_3_naming_the_file(tmp_path, capsys, setting):
    cell = {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30}
    grid = tmp_path / "bad-grid.json"
    grid.write_text(json.dumps({"cells": [cell], **setting}))
    assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")]) == 3
    assert str(grid) in capsys.readouterr().err
    assert not (tmp_path / "s.trials.csv").exists()


def _not_utf8(path):
    path.write_bytes(b'{"dims": [8, 6, 20],\n "seed": "\xff"}\n')
    return path


@pytest.mark.parametrize("kind", ["count file", "model file", "generator spec", "sweep grid"])
def test_file_that_is_not_utf8_is_exit_3_naming_the_file(tmp_path, capsys, kind):
    truth = tmp_path / "truth.json"
    write_model(truth, planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82).model)
    bad = _not_utf8(tmp_path / "bad.txt")
    out = str(tmp_path / "o")
    argv = {
        "count file": ["fit", "--data", bad, "--ranks", "2,2,2", "--out", out],
        "model file": ["eval", "--model", bad, "--truth", truth],
        "generator spec": ["generate", "--spec", bad, "--out", out],
        "sweep grid": ["sweep", "--grid", bad, "--out", out],
    }[kind]
    assert main([str(arg) for arg in argv]) == 3
    err = capsys.readouterr().err
    where = f"{bad}: line 2: not UTF-8 text" if kind == "count file" else f"{bad}: cannot read"
    assert err.startswith(f"data error: {where}") and "can't decode byte 0xff" in err
    assert not _records_file(bad).exists()


_FIT_KEYS = ["ranks", "use_hooi", "hooi_iters", "sparse_c_prime", "doc_length", "use_hoi"]
_SMALL_INTS = st.integers(min_value=-2, max_value=9)
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), _SMALL_INTS, st.floats(), st.text(max_size=4),
    st.lists(st.one_of(_SMALL_INTS, st.floats(), st.booleans()), max_size=4))


def test_fit_config_fuzz_exits_cleanly(tmp_path):
    """Any JSON object as a sweep cell's fit config ends in a documented exit code."""
    grid = tmp_path / "fuzz.json"
    cell = {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30}

    @settings(max_examples=50, deadline=None, database=None)
    @given(st.dictionaries(st.sampled_from(_FIT_KEYS), _JSON_VALUES, max_size=5))
    def run(config):
        grid.write_text(json.dumps({"cells": [{**cell, "fit": config}]}))
        code = main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "fz")])
        assert code in (0, 3, 4)

    run()


_FIT = ("fit", "--ranks", "2,2,3")
_HOOI = (*_FIT, "--hooi", "1")


def _stage_case(command, stage, routine, call):
    owner = np.linalg if routine in ("eigh", "svd", "solve") else np
    return pytest.param(command, stage, owner, routine, call,
                        id=f"{command[0]}{'-hooi' if command == _HOOI else ''}-"
                           f"{stage.replace(', ', '-').replace(' ', '-')}-{routine}-{call}")


# The numpy routine whose ``call``-th call a stage makes: each basis's gram or projection and
# its eigh or SVD, each membership's vertex matrix spectrum and solve, each sweep's word
# contraction, its contraction by the mode-2 basis and its mode-1 projection, and the core.
_STAGE_CASES = [
    _stage_case(_FIT, "mode 1 basis", "eigh", 1),
    _stage_case(_FIT, "mode 2 basis", "matmul", 1),
    _stage_case(_FIT, "mode 2 basis", "eigh", 2),
    _stage_case(_FIT, "mode 3 basis", "matmul", 2),
    _stage_case(_FIT, "mode 3 basis", "svd", 1),
    _stage_case(_FIT, "mode 1 membership", "svd", 2),
    _stage_case(_FIT, "mode 1 membership", "solve", 1),
    _stage_case(_FIT, "mode 2 membership", "svd", 3),
    _stage_case(_FIT, "mode 2 membership", "solve", 2),
    _stage_case(_FIT, "word membership", "svd", 4),
    _stage_case(_FIT, "word membership", "solve", 3),
    _stage_case(_FIT, "core", "tensordot", 1),
    _stage_case(_HOOI, "HOOI sweep 1", "tensordot", 1),
    _stage_case(_HOOI, "HOOI sweep 1", "tensordot", 2),
    _stage_case(_HOOI, "HOOI sweep 1", "matmul", 4),
    _stage_case(_HOOI, "HOOI sweep 1, mode 1 basis", "svd", 2),
    _stage_case(_HOOI, "HOOI sweep 1, mode 2 basis", "svd", 3),
    _stage_case(_HOOI, "HOOI sweep 1, mode 3 basis", "svd", 4),
    _stage_case(_HOOI, "core", "tensordot", 3),
    _stage_case(("scree", "--kmax", "3"), "mode 1 basis", "eigh", 1),
    _stage_case(("scree", "--ranks", "2", "--kmax", "3"), "mode 2 basis", "matmul", 1),
    _stage_case(("scree", "--ranks", "2", "--kmax", "3"), "mode 2 basis", "eigh", 2),
    _stage_case(("scree", "--ranks", "2,2", "--kmax", "3"), "mode 3 basis", "matmul", 2),
    _stage_case(("scree", "--ranks", "2,2", "--kmax", "3"), "mode 3 basis", "svd", 1),
]


@pytest.mark.parametrize("command, stage, owner, routine, call", _STAGE_CASES)
def test_a_failing_stage_exits_3_or_4_naming_it(tmp_path, capsys, monkeypatch, command, stage,
                                                owner, routine, call):
    """Every stage of a plain fit, a HOOI fit and each mode's scree fails through one guard: a
    failed allocation in it exits 3 as too big to allocate, and a ``LinAlgError`` exits 4 as a
    degenerate fit, each message starting with the stage's name; nothing propagates out of
    ``main`` and no model or scree file is written."""
    main(["generate", "--spec", str(_spec_file(tmp_path)), "--out", str(tmp_path / "g")])
    real = getattr(owner, routine)
    for error, code, message in ((MemoryError(), 3, "data error: {}: too big to allocate\n"),
                                 (np.linalg.LinAlgError("did not converge"), 4,
                                  "degenerate fit: {}: did not converge\n")):
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise error
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(owner, routine, failing)
            assert main([*command, "--data", str(tmp_path / "g.counts.txt"),
                         "--out", str(tmp_path / "f")]) == code
        assert len(calls) == call
        assert capsys.readouterr().err == message.format(stage)
    assert not [path.name for path in tmp_path.iterdir() if path.name.startswith("f.")]


def test_sweep_trial_failure_names_grid_cell_and_trial(tmp_path, capsys):
    cell = {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": [cell, {**cell, "fit": {"sparse_c_prime": 1e9}}]}))
    assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")]) == 4
    assert f"degenerate fit: {grid}: cell 1, trial 0: vocabulary threshold" in \
        capsys.readouterr().err

"""Command line front end: generate, fit, eval, sweep, scree.

Count tensors travel as UTF-8 text: a header line ``n1 n2 n_words doc_length``
followed by ``i j r count`` records (1-based, zeros omitted, duplicate records
accumulate).  Models travel as JSON objects with dense row-major arrays
``a1, a2, a3, g`` plus ``dims`` and ``ranks``; floats keep full round-trip
precision, so write-read cycles are bit-faithful.  Every command run with an
``--out`` prefix has a manifest echoing its parameters, library versions, output
paths, and stage timings, which ``main`` writes from the run the command
returns; replaying a command with equal inputs reproduces every numeric
output byte for byte (only the manifest's timings, its ``records`` entry and
the records file among its outputs differ).

``main`` owns the outputs' directory: it makes the directory that every
``<prefix>.<suffix>`` lands in before the command reads any input, so an
``--out`` that cannot be made fails before any work, and it leaves the
directory in place when the run then fails.  Every output file is
written by :func:`_replacing`, whole or not at all: a failed or killed run
leaves no partial file under an output's name, and an output it did not
finish keeps its old content, if it had one.

``fit`` and ``scree`` read a count file straight into the frequency tensor
``counts / doc_length``: the reader allocates that float tensor and no
integer one, and the commands hand it on as it is.  ``generate`` writes the
count records as the generator yields them, so documents drawn token by
token never form a count tensor, and the writer times its own formatting and
writing apart from the drawing.  Only ``generate`` and ``sweep`` load the
synthetic-data module, and only ``sweep --workers`` starts a process pool.

Each count file's content is parsed once.  A successful parse saves the
records in ``<count file>.records.npz`` beside it, keyed by the sha256 digest
of the file's bytes, and a later read of the same bytes loads them from there
with the same bits.  The records file is skipped where the directory cannot
be written, and it is always safe to delete.  The ``fit`` and ``scree``
manifests say whether the records were ``"parsed"`` or ``"cached"``, and list
the records file among the outputs when the command wrote it.

Exit codes: 0 success, 2 usage error, 3 malformed data, an input too big to
allocate or a file that cannot be read or written, 4 degenerate fit.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import platform
import re
import sys
import time
import warnings
import zipfile
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (DataFormatError, FitDegenerateError, _as_tensor, _check_ranks, _check_span,
                     _checked_int, _checked_triple, _stage)
from .estimator import FitConfig, TuckerModel, fit
from .metrics import evaluate, scree
from .tensor import _nonzero_records

_EVAL_COLUMNS = ("loss_a1", "loss_a2", "loss_a3", "loss_g", "recon_l1")


class _UsageError(Exception):
    """Command line combination that cannot be executed."""


# ---------------------------------------------------------------- file IO


def write_count_tensor(path, counts, doc_length):
    """Write integer counts in the sparse text format (zeros omitted): the file that
    :func:`read_count_tensor` reads back, so every dim and the doc length must be positive.

    Blocks of mode-1 rows of about 2**18 cells are formatted in turn by
    :func:`_record_bytes`, so memory does not grow with the tensor.
    """
    counts = _as_tensor(counts, "count tensor")
    if not np.issubdtype(counts.dtype, np.integer):
        raise DataFormatError(f"counts must have an integer dtype, got {counts.dtype}")
    if 0 in counts.shape:
        raise DataFormatError(f"count tensor dims must be positive, got {counts.shape}")
    if counts.min() < 0:
        raise DataFormatError("counts must be nonnegative")
    _write_count_file(path, counts.shape, _checked_int("doc_length", doc_length, 1),
                      _nonzero_records(counts))


def _write_count_file(path, dims, doc_length, blocks):
    """Write the header and each block of ``(cells, values)`` records of ``blocks`` as it
    comes: ascending flat cell indices of a ``dims`` tensor and their positive counts, into a
    file beside ``path`` that takes its name once all is written and goes on any error.
    Returns the seconds spent formatting and writing records, which leave out making them."""
    seconds = 0.0
    with _replacing(Path(path)) as out:
        out.write((" ".join(str(v) for v in (*dims, doc_length)) + "\n").encode())
        for cells, values in blocks:
            began = time.perf_counter()
            out.write(_record_bytes(cells, values, dims))
            seconds += time.perf_counter() - began
    return seconds


@contextlib.contextmanager
def _replacing(path):
    """A binary file opened beside ``path`` that takes its name once the block ends, and goes
    on any error: the one way every output file and records file is written, so none is ever
    left half written under its name."""
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as out:
            yield out
        os.replace(partial, path)
    finally:  # nothing is left once it is renamed
        partial.unlink(missing_ok=True)


def _record_bytes(cells, values, dims):
    """The ``i j r count`` lines of flat cells ``cells`` of a ``dims`` tensor, counts ``values``.

    A cell splits into ``i j r`` by two floor divisions by scalars, which numpy vectorizes.
    Each field's decimal digits fill fixed-width byte columns, and the leading zeros are
    masked out.  A field's digits are peeled off by floor division in the narrowest unsigned
    dtype that holds its largest value.  Each byte column is one contiguous row of a
    ``(width, records)`` array, whose transpose the mask compacts record by record.
    """
    doc, i = cells // dims[2], cells // (dims[1] * dims[2])
    columns = [i + 1, doc - i * dims[1] + 1, cells - doc * dims[2] + 1, values]
    tops = [int(column.max(initial=0)) for column in columns]
    widths = [len(str(top)) for top in tops]
    chars = np.empty((sum(widths) + 4, cells.size), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    end = 0
    for column, top, width, separator in zip(columns, tops, widths, b"   \n"):
        rest = column.astype(np.min_scalar_type(top))  # positive, so its last digit is kept
        for place in range(end + width - 1, end - 1, -1):
            np.greater(rest, 0, out=keep[place])
            quotient = rest // 10
            rest -= quotient * 10
            np.add(rest, ord("0"), out=chars[place], casting="unsafe")
            rest = quotient
        chars[end + width] = separator
        keep[end + width] = True
        end += width + 1
    return chars.T[keep.T]


_INTEGER = re.compile(r"[+-]?[0-9]+")
# The line patterns run over the count file's text with a "\n" put in front, so every line
# starts after a "\n" and group 1 is the line: a search for that literal runs in C.
_NONBLANK_LINE = re.compile(r"\n([^\S\n]*\S.*)")
# a nonblank line that is not four ASCII fields of at most 18 digits, which int64 always
# holds: the only lines whose fields need checking
_NOT_RECORD_LINE = re.compile(r"\n(?![ \t]*[+-]?[0-9]{1,18}(?:[ \t]+[+-]?[0-9]{1,18}){3}[ \t]*$)"
                              r"([^\S\n]*\S.*)", re.M)
_NOT_ASCII_OR_SPACE = re.compile(r"[^\x00-\x7f\s]")
_INT64 = np.iinfo(np.int64)


def _file_text(path):
    """The count file as text with LF line ends, read for an error that names a line."""
    data = Path(path).read_bytes()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None).read()
    except UnicodeDecodeError as err:
        line = io.StringIO(data[:err.start].decode("utf-8"), newline=None).read().count("\n") + 1
        raise DataFormatError(f"{path}: line {line}: not UTF-8 text: {err}") from None


def _row_error(path, row, message):
    """Error ``message`` naming the file line of parsed row ``row``; blank lines hold no row."""
    text = "\n" + _file_text(path)
    line = next(itertools.islice(_NONBLANK_LINE.finditer(text), row, None))
    number = text.count("\n", 0, line.start(1))
    return DataFormatError(f"{path}: line {number}: {message}")


def _malformed_line(path):
    """Error naming the first line that breaks the record grammar.  One scan finds the lines
    that :data:`_NOT_RECORD_LINE` matches, and only those have their fields checked."""
    text, number, counted = "\n" + _file_text(path), 0, 0
    for match in _NOT_RECORD_LINE.finditer(text):
        number += text.count("\n", counted, match.start(1))
        counted = match.start(1)
        fields, where = match[1].split(), f"{path}: line {number}"
        if len(fields) != 4:
            return DataFormatError(f"{where}: expected 4 fields, found {len(fields)}")
        if not all(_INTEGER.fullmatch(field) for field in fields):
            return DataFormatError(f"{where}: all fields must be integers")
        if not all(_INT64.min <= int(field) <= _INT64.max for field in fields):
            return DataFormatError(f"{where}: a field lies outside the 64-bit integer range")
    return DataFormatError(f"{path}: unreadable count records")


def _bad_record(path, records, shape):
    """Error naming the first record with an index outside ``shape`` or a
    negative count."""
    outside = ((records[:, :3] < 1) | (records[:, :3] > shape)).any(axis=1)
    row = int(np.argmax(outside | (records[:, 3] < 0)))
    index = tuple(records[row, :3].tolist())
    return _row_error(path, row + 1,
                      f"index {index} outside dims {shape}" if outside[row] else "negative count")


def _overflow_row(flat, values, sums):
    """Index of the first record whose cell sum leaves int64, if any.

    ``flat`` and ``values`` are the records in file order and ``sums`` their
    int64 cell sums.  Counts are nonnegative, so a wrapped cell sum leaves the
    cells' float total at least 2**64 below the records' float total.
    """
    total = values.sum(dtype=float)
    if total < 2.0 ** 62 or abs(sums.sum(dtype=float) - total) < 2.0 ** 62:
        return None
    cells = {}
    for row, (cell, value) in enumerate(zip(flat.tolist(), values.tolist())):
        cells[cell] = cells.get(cell, 0) + value
        if cells[cell] > _INT64.max:
            return row
    return None


_RECORDS_FORMAT = b"tensortopics count records 1\n"  # a new cache layout changes every key


def _scan(path):
    """The records-cache key of the count file at ``path``, whether the file is all ASCII and
    its ``(device, inode, size, mtime)``, from one read by 1 MiB blocks: a whole-file buffer
    would lift malloc's mmap threshold and the peak RSS.  The key is the sha256 digest of the
    cache format tag and the file's bytes."""
    if Path(path).suffix in (".gz", ".bz2", ".xz", ".lzma"):  # numpy would decompress the file
        raise DataFormatError(f"{path}: a count file name must not end in {Path(path).suffix}")
    key, ascii_only = hashlib.sha256(_RECORDS_FORMAT), True
    try:
        with open(path, "rb") as handle:  # numpy would also try path + ".gz"
            for block in iter(lambda: handle.read(1 << 20), b""):
                key.update(block)
                ascii_only = ascii_only and block.isascii()
            seen = _identity(os.fstat(handle.fileno()))
    except OSError as err:
        raise DataFormatError(f"{path}: cannot read tensor file: {err}") from None
    return key.digest(), ascii_only, seen


def _identity(status):
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


def _cell_frequencies(path, ascii_only):
    """The dims and doc length of the count file at ``path``, and its records' flat cell
    indices, unique and ascending, with each cell's summed count over the doc length; see
    :func:`read_count_tensor`.  The parsed table is freed when this returns."""
    if not ascii_only and _NOT_ASCII_OR_SPACE.search(_file_text(path)):
        raise _malformed_line(path)  # numpy reads some non-ASCII letters as digits
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file: named below
            table = np.loadtxt(Path(path), dtype=np.int64, comments=None, ndmin=2, encoding="utf-8")
    except ValueError:
        raise _malformed_line(path) from None
    if table.size == 0:
        raise DataFormatError(f"{path}: empty file, expected a header line")
    if table.shape[1] != 4:
        raise _malformed_line(path)
    (n1, n2, n_words, doc_length), records = table[0].tolist(), table[1:]
    dims = (n1, n2, n_words)
    if min(n1, n2, n_words, doc_length) < 1:
        raise _row_error(path, 0, "header dims and doc length must be positive")
    if n1 * n2 * n_words > _INT64.max // 8:  # numpy cannot size it, nor int64 index its cells
        raise _row_error(path, 0, f"a {' x '.join(map(str, dims))} count tensor is too big to load")
    *index, values = records.T
    if (any(column.min(initial=1) < 1 or column.max(initial=1) > n
            for column, n in zip(index, dims)) or values.min(initial=0) < 0):
        raise _bad_record(path, records, dims)
    flat = index[0] - 1  # ((i - 1) n2 + j - 1) n_words + r - 1, built in place
    for column, n in zip(index[1:], dims[1:]):
        flat *= n
        flat += column
        flat -= 1
    cells, sums = flat, values
    if not (flat[1:] > flat[:-1]).all():
        order = np.argsort(flat)
        cells = flat[order]
        starts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
        cells, sums = cells[starts], np.add.reduceat(values[order], starts)
        row = _overflow_row(flat, values, sums)
        if row is not None:
            raise _row_error(path, row + 1, "accumulated count exceeds the 64-bit integer range")
    return dims, doc_length, cells, sums / doc_length


def _cached_records(cache, key):
    """The dims, doc length, cells and frequencies that the records file ``cache`` holds for
    key ``key``, or ``None`` when it holds another key, cannot be read as a records file or
    holds values that no parse gives: a dim or doc length below 1, dims past the parse's size
    limit, cells not strictly ascending or outside the tensor, or a frequency that is negative
    or not finite."""
    try:  # np.load leaves a file it opened unclosed when it is no zip archive
        with open(cache, "rb") as handle, np.load(handle, allow_pickle=False) as saved:
            if saved["key"].tobytes() != key:
                return None
            dims, doc_length, cells, frequencies = (
                saved[name] for name in ("dims", "doc_length", "cells", "frequencies"))
    except (OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    kinds = (dims.dtype, dims.shape, doc_length.dtype, doc_length.shape, cells.dtype, cells.ndim,
             frequencies.dtype, frequencies.shape)
    if kinds != (np.int64, (3,), np.int64, (), np.int64, 1, np.float64, cells.shape):
        return None
    dims, doc_length = tuple(dims.tolist()), int(doc_length)
    size = dims[0] * dims[1] * dims[2]  # Python ints: no wrap
    if (min(*dims, doc_length) < 1 or size > _INT64.max // 8
            or cells.size and (cells[0] < 0 or cells[-1] >= size)
            or not (cells[1:] > cells[:-1]).all()
            or np.signbit(frequencies).any() or not np.isfinite(frequencies).all()):
        return None
    return dims, doc_length, cells, frequencies


def _write_records(path, seen, cache, key, records):
    """Save the parsed ``records`` of the count file at ``path`` in the records file ``cache``
    under ``key``, and return ``cache``; or ``None`` where it cannot be written, or where the
    count file is no longer the one ``seen`` when ``key`` was taken."""
    dims, doc_length, cells, frequencies = records
    try:
        if _identity(os.stat(path)) != seen:  # the parse may have read other bytes
            return None
        with _replacing(cache) as out:  # np.savez would append ".npz" to a partial file's name
            np.savez(out, key=np.frombuffer(key, dtype=np.uint8),
                     dims=np.array(dims, dtype=np.int64), doc_length=np.int64(doc_length),
                     cells=cells, frequencies=frequencies)
    except OSError:  # a directory that cannot be written: each read parses
        return None
    return cache


def read_count_tensor(path, read=None):
    """Parse the sparse text format into ``(y, doc_length)``, ``y`` the
    frequency tensor: the counts over ``doc_length``, bit for bit.  A dict
    ``read``, if given, receives the account of the read that the ``fit``
    and ``scree`` manifests give: ``"records"``, ``"parsed"`` or
    ``"cached"``, and ``"wrote"``, the records file this call saved or
    ``None``.

    The grammar: every nonblank line holds four ASCII decimal integers, each
    with an optional sign, separated by whitespace; LF and CRLF line ends
    both work; blank lines are ignored and there are no comments.  The first
    line is the header ``n1 n2 n_words doc_length``, each one positive, and
    every other line a 1-based record ``i j r count`` with a nonnegative
    count.  Duplicate records accumulate in int64.  A bad file raises
    ``DataFormatError`` naming a line: the first line that breaks the
    grammar if there is one, else the first out-of-range value.  The file
    is UTF-8 text, and numpy's parser reads it, so its name must not end in
    a suffix numpy decompresses.  A header whose tensor numpy cannot size
    names line 1 as too big to load; any allocation of the read that fails
    raises ``DataFormatError`` starting with the file's name, "too big to
    allocate" and numpy's text.

    Each file's content is parsed once.  A successful parse saves the
    records (dims, doc length, ascending flat cells and their frequencies)
    in ``<path>.records.npz`` beside the file, keyed by the sha256 digest of
    a format tag and the file's bytes, which the reader hashes as it reads
    them for its ASCII check.  A later read of the same bytes loads them
    from there, with the same bits.  The key is the content, so a file
    rewritten with the same size and mtime is parsed again.  A records file
    that cannot be read or holds another key is ignored and replaced.  A
    file that fails to parse keeps none, and where the directory cannot be
    written none is saved and each read parses.  Deleting it is always safe.

    The only tensor-sized array is ``y``, allocated once the parsed table is
    freed and the records file written: each cell's count is divided by
    ``doc_length`` and scattered into zeros.  Records whose flat indices
    strictly increase, as the writer orders them, hold no duplicates and are
    scattered as they come; any other file first has its records sorted and
    each cell's counts summed.
    """
    read = {} if read is None else read
    with _stage(str(path)):
        key, ascii_only, seen = _scan(path)
        cache = Path(f"{path}.records.npz")
        records = _cached_records(cache, key)
        read.update(records="parsed" if records is None else "cached", wrote=None)
        if records is None:
            records = _cell_frequencies(path, ascii_only)
            read["wrote"] = _write_records(path, seen, cache, key, records)
        dims, doc_length, cells, frequencies = records
        y = np.zeros(dims)
        y.reshape(-1)[cells] = frequencies
    return y, doc_length


def write_model(path, model, extra=None):
    """Serialize a model as JSON with bit-faithful floats."""
    payload = {
        "dims": [int(v) for v in model.dims],
        "ranks": [int(v) for v in model.ranks],
        "a1": model.a1.tolist(),
        "a2": model.a2.tolist(),
        "a3": model.a3.tolist(),
        "g": model.g.tolist(),
    }
    if extra:
        payload.update(extra)
    _write_json(path, payload)


def read_model(path):
    """Load a model JSON file: the arrays must hold numbers only, match the
    declared dims and ranks, and pass ``TuckerModel.validate()``."""
    payload = _load_json(path, "model file")
    with _stage(str(path)):
        try:
            dims = _checked_triple("dims", payload["dims"])
            ranks = _checked_triple("ranks", payload["ranks"])
            arrays = {name: np.asarray(payload[name]) for name in ("a1", "a2", "a3", "g")}
            for name, array in arrays.items():
                if array.dtype.kind not in "iuf":
                    raise DataFormatError(f"{name} must be an array of numbers")
            model = TuckerModel(**arrays)
            model.validate()
        except (KeyError, TypeError, ValueError) as err:
            raise DataFormatError(f"{path}: malformed model payload: {err}") from None
    if model.dims != dims or model.ranks != ranks:
        raise DataFormatError(f"{path}: declared dims/ranks do not match array shapes")
    return model


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas():
    """numpy's BLAS library and version, or ``"unknown"`` where numpy does not say: before
    numpy 1.26 ``show_config`` takes no ``mode``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def write_manifest(path, command, parameters, outputs, stage_seconds, read=None):
    """Write the manifest of a run of ``command``; :func:`main` writes each command's, from the
    run the command returns.  Its ``versions`` name what a replay must match to be bit-identical:
    the libraries, numpy's BLAS, the BLAS thread-count variables (``null`` when unset) and the
    CPUs this process may run on, which bound the BLAS threads.  ``read``, the account of a
    count file's read that :func:`read_count_tensor` filled, adds the ``records`` entry and,
    when the read saved one, the records file to the outputs."""
    if read and read["wrote"] is not None:
        outputs = {**outputs, "records": read["wrote"]}
    payload = {
        "command": command,
        "parameters": parameters,
        "outputs": {k: str(v) for k, v in outputs.items()},
        "stage_seconds": {k: round(v, 6) for k, v in stage_seconds.items()},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "tensortopics": __version__,
            "blas": _blas(),
            "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
        },
    }
    if read:
        payload["records"] = read["records"]
    _write_json(path, payload)


def _write_json(path, payload):
    """Write ``payload`` as sorted, indented JSON through :func:`_replacing`."""
    with _replacing(Path(path)) as out:
        out.write((json.dumps(payload, sort_keys=True, indent=1) + "\n").encode())


def _load_json(path, what):
    """Parse a JSON file that must hold one object."""
    try:
        with _stage(str(path)):
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        raise DataFormatError(f"{path}: cannot read {what}: {err}") from None
    except json.JSONDecodeError as err:
        raise DataFormatError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: {what} must be a JSON object")
    return payload


def _from_json(kind, options, where, **fixed):
    """Build ``kind`` from ``options``, a JSON object or ``fit``'s flags, and the keys the
    command sets itself, ``fixed``, each a pair ``(value, source)``, ``source`` saying where
    the value comes from.

    The one boundary for generator specs and fit configs: an unknown key, a key of ``fixed``,
    a missing key without a default, a wrong type or a bad value raises ``DataFormatError``
    naming ``where``, and the key when it is the key that is wrong.
    """
    names = {field.name for field in fields(kind)}
    for key in options:
        if key in fixed:
            raise DataFormatError(f'{where}: "{key}" cannot be set here: it comes from '
                                  f"{fixed[key][1]}")
        if key not in names:
            raise DataFormatError(f'{where}: unknown key "{key}"')
    for field in fields(kind):
        if field.default is MISSING and field.name not in options and field.name not in fixed:
            raise DataFormatError(f'{where}: missing key "{field.name}"')
    try:
        return kind(**options, **{key: value for key, (value, _) in fixed.items()})
    except (TypeError, ValueError) as err:
        raise DataFormatError(f"{where}: {err}") from None


def _out(prefix, suffix):
    return Path(f"{prefix}.{suffix}")


def _write_csv(prefix, name, header, rows, announce=True):
    """Write ``rows`` under ``header``, floats by ``repr``, to ``<prefix>.<name>.csv`` through
    :func:`_replacing` and, when ``announce``, say so; or print them when ``prefix`` is
    ``None``.  Return the outputs of the run: ``{name: path}``, the path ``None`` when printed."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(v) if isinstance(v, float) else str(v) for v in row] for row in rows)
    if prefix is None:
        sys.stdout.write(text.getvalue())
        return {name: None}
    path = _out(prefix, f"{name}.csv")
    with _replacing(path) as out:
        out.write(text.getvalue().encode())
    if announce:
        print(f"wrote {path}")
    return {name: path}


def derive_seed(master, *path):
    """Stable per-(cell, trial) seed, independent of execution order."""
    ss = np.random.SeedSequence(int(master), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


# ------------------------------------------------------------- subcommands


def cmd_generate(args):
    from .synth import GenSpec, _planted_counts  # numpy.random: fit and eval never need it

    start = time.perf_counter()
    payload = _load_json(args.spec, "generator spec")
    if args.seed is not None:
        payload["seed"] = args.seed
    spec = _from_json(GenSpec, payload, args.spec)
    loaded = time.perf_counter()
    try:  # drawing interleaves with writing, which times itself
        with _stage("count draw"):
            model, blocks, _ = _planted_counts(spec)
            counts_path = _out(args.out, "counts.txt")
            writing = _write_count_file(counts_path, spec.dims, spec.doc_length, blocks)
    except DataFormatError as err:
        raise DataFormatError(f"{args.spec}: {err}") from None
    drawn = time.perf_counter() - loaded - writing
    truth_path = _out(args.out, "truth.json")
    write_model(truth_path, model, extra={"seed": spec.seed})
    written = time.perf_counter()
    n1, n2, _ = spec.dims  # every document holds doc_length tokens
    print(f"wrote {counts_path} ({n1 * n2 * spec.doc_length} tokens) and {truth_path}")
    return {"parameters": asdict(spec), "outputs": {"counts": counts_path, "truth": truth_path},
            "stage_seconds": {"load": loaded - start, "generate": drawn,
                              "write": written - loaded - drawn}}


def cmd_fit(args):
    start = time.perf_counter()
    read = {}
    y, doc_length = read_count_tensor(args.data, read)
    flags = {"sparse_c_prime": args.sparse, "hooi_iters": args.hooi}
    options = {key: value for key, value in flags.items() if value is not None}
    cfg = _from_json(FitConfig, {"ranks": args.ranks, "doc_length": doc_length,
                                 "use_hooi": args.hooi is not None, **options}, "command line")
    _check_file_ranks(args.data, cfg.ranks, y.shape)
    loaded = time.perf_counter()
    result = fit(y, cfg)
    fitted = time.perf_counter()
    model_path = _out(args.out, "model.json")
    diag_path = _out(args.out, "diagnostics.json")
    write_model(model_path, result.model)
    diagnostics = {
        "vocab": [int(v) + 1 for v in result.vocab],
        "q0": [float(v) for v in result.q0],
        "vertices": {f"mode{m + 1}": [int(v) + 1 for v in result.vertices[m]]
                     for m in range(3)},
        "eigvals": {f"mode{m + 1}": [float(v) for v in result.eigvals[m]]
                    for m in range(3)},
    }
    if result.hooi_energy:
        diagnostics["hooi"] = {"sweeps": len(result.hooi_energy) - 1,
                               "energy": list(result.hooi_energy)}
    _write_json(diag_path, diagnostics)
    written = time.perf_counter()
    print(f"wrote {model_path} (vocabulary kept {result.vocab.size} words)")
    return {"parameters": {"data": str(args.data), "doc_length": doc_length, **asdict(cfg)},
            "outputs": {"model": model_path, "diagnostics": diag_path}, "read": read,
            "stage_seconds": {"load": loaded - start, "fit": fitted - loaded,
                              "write": written - fitted}}


def cmd_eval(args):
    start = time.perf_counter()
    fitted = read_model(args.model)
    truth = read_model(args.truth)
    if fitted.dims != truth.dims or fitted.ranks != truth.ranks:
        raise DataFormatError(
            f"{args.model} (dims {fitted.dims}, ranks {fitted.ranks}) and {args.truth} "
            f"(dims {truth.dims}, ranks {truth.ranks}) disagree on dims or ranks")
    with _stage("scoring"):
        report = evaluate(fitted, truth)
    scored = time.perf_counter()
    outputs = _write_csv(args.out, "losses", _EVAL_COLUMNS,
                         [[getattr(report, column) for column in _EVAL_COLUMNS]])
    return {"parameters": {"model": str(args.model), "truth": str(args.truth),
                           "perms": [list(p) for p in report.perms]},
            "outputs": outputs,
            "stage_seconds": {"eval": scored - start, "write": time.perf_counter() - scored}}


def _sweep_cell(cell, where):
    """Seed-0 generator spec and fit config of one grid cell; the fit options default to
    the cell's planted ranks, and ``FitConfig`` checks the rank rules that need no data.  A
    ``hooi_iters`` without ``"use_hooi": true`` would cap no sweep, so it is refused."""
    from .synth import GenSpec

    options = cell.get("fit", {}) if isinstance(cell, dict) else None
    if not isinstance(options, dict):
        raise DataFormatError(f'{where}: a cell and its "fit" entry must be JSON objects')
    spec_options = {k: v for k, v in cell.items() if k not in ("label", "fit")}
    spec = _from_json(GenSpec, spec_options, where, seed=(0, "each trial's derived seed"))
    cfg = _from_json(FitConfig, {"ranks": spec.ranks, **options}, where,
                     doc_length=(spec.doc_length, "the cell's doc_length"))
    if "hooi_iters" in options and not cfg.use_hooi:
        raise DataFormatError(f'{where}: "hooi_iters" needs "use_hooi": true')
    return spec, cfg


def _sweep_trial(payload):
    from .synth import generate

    spec, cfg, cell_index, trial_index, master_seed, where = payload
    seed = derive_seed(master_seed, cell_index, trial_index)
    try:
        with _stage("count draw"):  # y is made on first use, so it is taken here
            instance = generate(replace(spec, seed=seed))
            y = instance.y
        result = fit(y, cfg)
        with _stage("scoring"):
            report = evaluate(result.model, instance.model)
    except (FitDegenerateError, ValueError) as err:
        raise type(err)(f"{where}, trial {trial_index}: {err}") from None
    return (cell_index, trial_index, seed,
            tuple(getattr(report, column) for column in _EVAL_COLUMNS))


def cmd_sweep(args):
    start = time.perf_counter()
    grid = _load_json(args.grid, "sweep grid")
    unknown = [key for key in grid if key not in ("cells", "seed", "trials")]
    if unknown:
        raise DataFormatError(f'{args.grid}: unknown key "{unknown[0]}"')
    cells = grid.get("cells")
    if not isinstance(cells, list) or not cells:
        raise DataFormatError(f'{args.grid}: grid must hold a nonempty "cells" list')
    master_seed = _checked_int(f"{args.grid}: seed", grid.get("seed", 0), 0)
    trials = _checked_int(f"{args.grid}: trials", grid.get("trials", 1), 1)
    where = [f"{args.grid}: cell {ci}" for ci in range(len(cells))]
    checked = [_sweep_cell(cell, where[ci]) for ci, cell in enumerate(cells)]
    jobs = [(spec, cfg, ci, ti, master_seed, where[ci])
            for ci, (spec, cfg) in enumerate(checked) for ti in range(trials)]
    workers = min(args.workers, len(jobs))  # a fork pool starts all its workers up front
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_sweep_trial, jobs))
    else:
        raw = [_sweep_trial(job) for job in jobs]
    swept = time.perf_counter()

    labels = [str(cell.get("label", f"cell{ci}")) for ci, cell in enumerate(cells)]
    trial_header = ("label", "cell", "trial", "seed") + _EVAL_COLUMNS
    trial_rows = [[labels[ci], ci, ti, seed, *losses] for ci, ti, seed, losses in raw]
    losses = np.asarray([row[4:] for row in trial_rows]).reshape(len(cells), trials, -1)
    q25, q75 = np.percentile(losses, [25.0, 75.0], axis=1)
    stats = np.stack([np.median(losses, axis=1), q75 - q25], axis=-1).reshape(len(cells), -1)
    summary_header = ("label", "n1", "n2", "n_words", "doc_length", "k1", "k2", "k3", "trials",
                      *(f"{c}_{s}" for c in _EVAL_COLUMNS for s in ("median", "iqr")))
    summary_rows = [[label, *spec.dims, spec.doc_length, *spec.ranks, trials, *row]
                    for label, (spec, _), row in zip(labels, checked, stats.tolist())]

    outputs = {**_write_csv(args.out, "trials", trial_header, trial_rows, announce=False),
               **_write_csv(args.out, "summary", summary_header, summary_rows, announce=False)}
    written = time.perf_counter()
    print(f"wrote {outputs['summary']} ({len(cells)} cells x {trials} trials)")
    return {"parameters": {"grid": str(args.grid), "seed": master_seed, "trials": trials,
                           "workers": args.workers, "cells": len(cells)},
            "outputs": outputs,
            "stage_seconds": {"sweep": swept - start, "write": written - swept}}


def cmd_scree(args):
    ranks, mode = args.ranks, len(args.ranks) + 1
    if mode > 3:
        raise _UsageError(f"{args.data}: no mode {mode}: --ranks takes at most 2, got {len(ranks)}")
    start = time.perf_counter()
    read = {}
    y, doc_length = read_count_tensor(args.data, read)
    _check_file_ranks(args.data, ranks, y.shape)
    if args.kmax is not None:
        if mode == 3:  # the span rule needs no data, so it fails before the dimension rule
            _check_span(3, args.kmax, ranks[0] * ranks[1])
        _check_file_ranks(args.data, (*ranks, args.kmax), y.shape)
    values = scree(y, ranks, args.kmax, doc_length)
    computed = time.perf_counter()
    outputs = _write_csv(args.out, "scree", ("index", "eigenvalue"),
                         [[index + 1, float(value)] for index, value in enumerate(values)])
    return {"parameters": {"data": str(args.data), "ranks": list(ranks), "mode": mode,
                           "k_max": len(values)},
            "outputs": outputs, "read": read,
            "stage_seconds": {"compute": computed - start, "write": time.perf_counter() - computed}}


def _check_file_ranks(path, ranks, dims):
    """Each rank positive and at most its dimension in the count file at ``path``, or a usage
    error naming the file."""
    try:
        _check_ranks([_checked_int(f"mode {m} rank", k, 1) for m, k in enumerate(ranks, 1)], dims)
    except DataFormatError as err:
        raise _UsageError(f"{path}: {err}") from None


# ------------------------------------------------------------------ parser


def _int_at_least(low):
    """An argparse ``type``: an integer of at least ``low``."""
    def integer(text):  # argparse reports a failing int() by this function's name
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _int_list(text):
    """An argparse ``type``: comma-separated integers."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("ranks must be integers") from None


def _parse_ranks(text):
    if text.count(",") != 2:
        raise argparse.ArgumentTypeError("ranks must look like K1,K2,K3")
    return _int_list(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensortopics",
        description="Spectral topic modeling for order-3 count tensors.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="draw a planted instance")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="override the spec seed")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit a model to a count tensor")
    p.add_argument("--data", required=True, help="count tensor file")
    p.add_argument("--ranks", type=_parse_ranks, required=True, metavar="K1,K2,K3")
    p.add_argument("--sparse", type=float, default=None, metavar="C",
                   help="vocabulary threshold constant")
    p.add_argument("--hooi", type=_int_at_least(0), default=None, metavar="N",
                   help="refine bases with at most N standard HOOI sweeps, which stop once "
                        "the captured energy settles")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="score a fitted model against a truth model")
    p.add_argument("--model", required=True, help="fitted model JSON")
    p.add_argument("--truth", required=True, help="truth model JSON")
    p.add_argument("--out", default=None, metavar="PREFIX",
                   help="write CSV and manifest here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="generate-fit-eval over a grid of cells")
    p.add_argument("--grid", required=True, help="sweep grid JSON")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scree", help="leading spectrum of one mode, as fit takes it")
    p.add_argument("--data", required=True, help="count tensor file")
    p.add_argument("--ranks", type=_int_list, default=(), metavar="K1[,K2]",
                   help="fit ranks of the modes before the screened one (none: mode 1)")
    p.add_argument("--kmax", type=_int_at_least(1), default=None)
    p.add_argument("--out", default=None, metavar="PREFIX",
                   help="write CSV and manifest here instead of stdout")
    p.set_defaults(func=cmd_scree)

    return parser


def main(argv=None):
    """Run one command and return the exit code.  With an ``--out`` prefix, first make the
    directory every ``<prefix>.<suffix>`` output lands in, so one that cannot be made exits 3
    before any input is read; then write the manifest from the run the command returns."""
    args = build_parser().parse_args(argv)
    try:
        manifest = None if args.out is None else _out(args.out, "manifest.json")
        if manifest is not None:  # eval and scree print to stdout without it
            manifest.parent.mkdir(parents=True, exist_ok=True)
        run = args.func(args)
        if manifest is not None:
            write_manifest(manifest, args.subcommand, **run)
        return 0
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (FitDegenerateError, np.linalg.LinAlgError) as err:
        # LinAlgError subclasses ValueError, yet it is a numerical failure
        print(f"degenerate fit: {err}", file=sys.stderr)
        return 4
    except (DataFormatError, ValueError, OSError) as err:  # OSError: a file not read or written
        print(f"data error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: generate, fit, eval, sweep, scree.

Count tensors travel as UTF-8 text: a header line ``n1 n2 n_words doc_length``
followed by ``i j r count`` records (1-based, zeros omitted, duplicate records
accumulate).  Models travel as JSON objects with dense row-major arrays
``a1, a2, a3, g`` plus ``dims`` and ``ranks``; floats keep full round-trip
precision, so write-read cycles are bit-faithful.  Every command writes a
manifest echoing its parameters, library versions, output paths, and stage
timings; replaying a command with equal inputs reproduces every numeric
output byte for byte (only the manifest's timings differ).

``fit`` and ``scree`` read a count file straight into the frequency tensor
``counts / doc_length``: the reader allocates that float tensor and no
integer one, and the commands hand it on as it is.  ``generate`` writes the
count records as the generator yields them, so documents drawn token by
token never form a count tensor, and the writer times its own formatting and
writing apart from the drawing.  Only ``generate`` and ``sweep`` load the
synthetic-data module, and only ``sweep --workers`` starts a process pool.

Exit codes: 0 success, 2 usage error, 3 malformed data, 4 degenerate fit.
"""

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import platform
import re
import sys
import time
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (DataFormatError, FitDegenerateError, _as_tensor, _check_ranks, _checked_int,
                     _checked_triple, _stage)
from .estimator import FitConfig, TuckerModel, _hosvd, _vocabulary, fit
from .metrics import evaluate
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
    seconds, path = 0.0, Path(path)
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as out:
            out.write((" ".join(str(v) for v in (*dims, doc_length)) + "\n").encode())
            for cells, values in blocks:
                began = time.perf_counter()
                out.write(_record_bytes(cells, values, dims))
                seconds += time.perf_counter() - began
        os.replace(partial, path)
    finally:  # nothing is left once it is renamed
        partial.unlink(missing_ok=True)
    return seconds


def _record_bytes(cells, values, dims):
    """The ``i j r count`` lines of flat cells ``cells`` of a ``dims`` tensor, counts ``values``.

    A cell splits into ``i j r`` by two floor divisions by scalars, which numpy vectorizes.
    Each field's decimal digits fill fixed-width byte columns, and the leading zeros are
    masked out.  A field's digits are peeled off by floor division in the narrowest unsigned
    dtype that holds its largest value.
    """
    doc, i = cells // dims[2], cells // (dims[1] * dims[2])
    columns = [i + 1, doc - i * dims[1] + 1, cells - doc * dims[2] + 1, values]
    tops = [int(column.max(initial=0)) for column in columns]
    widths = [len(str(top)) for top in tops]
    chars = np.empty((cells.size, sum(widths) + 4), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    end = 0
    for column, top, width, separator in zip(columns, tops, widths, b"   \n"):
        rest = column.astype(np.min_scalar_type(top))  # positive, so its last digit is kept
        for place in range(end + width - 1, end - 1, -1):
            np.greater(rest, 0, out=keep[:, place])
            quotient = rest // 10
            rest -= quotient * 10
            np.add(rest, ord("0"), out=chars[:, place], casting="unsafe")
            rest = quotient
        chars[:, end + width] = separator
        keep[:, end + width] = True
        end += width + 1
    return chars[keep]


_INTEGER = re.compile(r"[+-]?[0-9]+")
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


def _nonblank_lines(text):
    """``(line number, fields)`` of each nonblank line, in file order."""
    for number, line in enumerate(io.StringIO(text), start=1):
        fields = line.split()
        if fields:
            yield number, fields


def _line_number(path, row):
    """File line number of parsed row ``row``; blank lines hold no row."""
    return next(itertools.islice(_nonblank_lines(_file_text(path)), row, None))[0]


def _malformed_line(path):
    """Error naming the first line that breaks the record grammar."""
    for number, fields in _nonblank_lines(_file_text(path)):
        where = f"{path}: line {number}"
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
    where = f"{path}: line {_line_number(path, row + 1)}"
    if outside[row]:
        a, b, c, _ = records[row].tolist()
        return DataFormatError(f"{where}: index ({a}, {b}, {c}) outside dims {shape}")
    return DataFormatError(f"{where}: negative count")


def _overflow_line(path, flat, values, sums):
    """Line number of the first record whose cell sum leaves int64, if any.

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
            return _line_number(path, row + 1)
    return None


def _too_big_to_load(path, dims):
    return DataFormatError(f"{path}: line {_line_number(path, 0)}: a {' x '.join(map(str, dims))} "
                           "count tensor is too big to load")


def _cell_frequencies(path):
    """The dims and doc length of the count file at ``path``, and its records' flat cell
    indices, unique and ascending, with each cell's summed count over the doc length; see
    :func:`read_count_tensor`.  The parsed table is freed when this returns."""
    if Path(path).suffix in (".gz", ".bz2", ".xz", ".lzma"):  # numpy would decompress the file
        raise DataFormatError(f"{path}: a count file name must not end in {Path(path).suffix}")
    try:
        with open(path, "rb") as handle:  # numpy would also try path + ".gz"
            # by blocks: a whole-file buffer would lift malloc's mmap threshold and the peak RSS
            ascii_only = all(block.isascii() for block in iter(lambda: handle.read(1 << 20), b""))
    except OSError as err:
        raise DataFormatError(f"{path}: cannot read tensor file: {err}") from None
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
        raise DataFormatError(f"{path}: line {_line_number(path, 0)}: "
                              "header dims and doc length must be positive")
    if n1 * n2 * n_words > _INT64.max // 8:  # numpy cannot size it, nor int64 index its cells
        raise _too_big_to_load(path, dims)
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
        number = _overflow_line(path, flat, values, sums)
        if number is not None:
            raise DataFormatError(
                f"{path}: line {number}: accumulated count exceeds the 64-bit integer range")
    return dims, doc_length, cells, sums / doc_length


def read_count_tensor(path):
    """Parse the sparse text format into ``(y, doc_length)``, ``y`` the
    frequency tensor: the counts over ``doc_length``, bit for bit.

    The grammar: every nonblank line holds four ASCII decimal integers, each
    with an optional sign, separated by whitespace; LF and CRLF line ends
    both work; blank lines are ignored and there are no comments.  The first
    line is the header ``n1 n2 n_words doc_length``, each one positive, and
    every other line a 1-based record ``i j r count`` with a nonnegative
    count.  Duplicate records accumulate in int64.  A bad file raises
    ``DataFormatError`` naming a line: the first line that breaks the
    grammar if there is one, else the first out-of-range value.  The file
    is UTF-8 text, and numpy's parser reads it, so its name must not end in
    a suffix numpy decompresses.

    The only tensor-sized array is ``y``, allocated once the parsed table is
    freed: each cell's count is divided by ``doc_length`` and scattered into
    zeros.  Records whose flat indices strictly increase, as the writer
    orders them, hold no duplicates and are scattered as they come; any
    other file first has its records sorted and each cell's counts summed.
    """
    dims, doc_length, cells, frequencies = _cell_frequencies(path)
    try:
        y = np.zeros(dims)
    except MemoryError:
        raise _too_big_to_load(path, dims) from None
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


def write_manifest(path, command, parameters, outputs, stage_seconds):
    payload = {
        "command": command,
        "parameters": parameters,
        "outputs": {k: str(v) for k, v in outputs.items()},
        "stage_seconds": {k: round(v, 6) for k, v in stage_seconds.items()},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "tensortopics": __version__,
        },
    }
    _write_json(path, payload)


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")


def _load_json(path, what):
    """Parse a JSON file that must hold one object."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        raise DataFormatError(f"{path}: cannot read {what}: {err}") from None
    except json.JSONDecodeError as err:
        raise DataFormatError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: {what} must be a JSON object")
    return payload


def _from_json(kind, options, where, **fixed):
    """Build ``kind(**options, **fixed)`` from a JSON object.

    The one boundary for generator specs and fit configs: an unknown key, a
    wrong type or a bad value raises ``DataFormatError`` naming ``where``.
    """
    try:
        return kind(**options, **fixed)
    except (TypeError, ValueError) as err:
        raise DataFormatError(f"{where}: {err}") from None


def _out(prefix, suffix):
    path = Path(f"{prefix}.{suffix}")
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path_or_none, header, rows):
    """Write rows with repr-formatted floats; stdout when no path is given."""
    if path_or_none is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(path_or_none, "w", encoding="utf-8", newline="")
    with target as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else str(v) for v in row]
                         for row in rows)


def _print_or_write(prefix, command, name, header, rows, parameters, stage_seconds):
    """Print ``rows`` under ``header``, or write them and a manifest under ``prefix``."""
    start = time.perf_counter()
    path = None if prefix is None else _out(prefix, f"{name}.csv")
    _write_csv(path, header, rows)
    if path is not None:
        write_manifest(_out(prefix, "manifest.json"), command, parameters=parameters,
                       outputs={name: path},
                       stage_seconds={**stage_seconds, "write": time.perf_counter() - start})
        print(f"wrote {path}")
    return 0


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
    write_manifest(
        _out(args.out, "manifest.json"), "generate",
        parameters=asdict(spec),
        outputs={"counts": counts_path, "truth": truth_path},
        stage_seconds={"load": loaded - start, "generate": drawn,
                       "write": written - loaded - drawn})
    n1, n2, _ = spec.dims  # every document holds doc_length tokens
    print(f"wrote {counts_path} ({n1 * n2 * spec.doc_length} tokens) and {truth_path}")
    return 0


def cmd_fit(args):
    start = time.perf_counter()
    y, doc_length = read_count_tensor(args.data)
    options = _load_json(args.config, "fit config") if args.config else {}
    flags = {"ranks": args.ranks, "sparse_c_prime": args.sparse, "hooi_iters": args.hooi}
    options.update((key, value) for key, value in flags.items() if value is not None)
    if args.hooi is not None:
        options["use_hooi"] = True
    if "ranks" not in options:
        raise _UsageError('no ranks given: pass --ranks K1,K2,K3 or put "ranks" in the config')
    cfg = _from_json(FitConfig, options, args.config or "command line",
                     doc_length=doc_length)
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
    _write_json(diag_path, diagnostics)
    written = time.perf_counter()
    parameters = {"data": str(args.data), "doc_length": doc_length, **asdict(cfg)}
    write_manifest(
        _out(args.out, "manifest.json"), "fit",
        parameters=parameters,
        outputs={"model": model_path, "diagnostics": diag_path},
        stage_seconds={"load": loaded - start, "fit": fitted - loaded,
                       "write": written - fitted})
    print(f"wrote {model_path} (vocabulary kept {result.vocab.size} words)")
    return 0


def cmd_eval(args):
    start = time.perf_counter()
    fitted = read_model(args.model)
    truth = read_model(args.truth)
    if fitted.dims != truth.dims or fitted.ranks != truth.ranks:
        raise DataFormatError(
            f"{args.model} (dims {fitted.dims}, ranks {fitted.ranks}) and {args.truth} "
            f"(dims {truth.dims}, ranks {truth.ranks}) disagree on dims or ranks")
    report = evaluate(fitted, truth)
    scored = time.perf_counter()
    parameters = {"model": str(args.model), "truth": str(args.truth),
                  "perms": [list(p) for p in report.perms]}
    return _print_or_write(args.out, "eval", "losses", _EVAL_COLUMNS,
                           [[getattr(report, column) for column in _EVAL_COLUMNS]],
                           parameters, {"eval": scored - start})


def _sweep_cell(cell, where):
    """Seed-0 generator spec and fit config of one grid cell; the fit options default to
    the cell's planted ranks, and ``FitConfig`` checks the rank rules that need no data."""
    from .synth import GenSpec

    options = cell.get("fit", {}) if isinstance(cell, dict) else None
    if not isinstance(options, dict):
        raise DataFormatError(f'{where}: a cell and its "fit" entry must be JSON objects')
    fields = {k: v for k, v in cell.items() if k not in ("label", "fit")}
    spec = _from_json(GenSpec, fields, where, seed=0)
    return spec, _from_json(FitConfig, {"ranks": spec.ranks, **options}, where,
                            doc_length=spec.doc_length)


def _sweep_trial(payload):
    from .synth import generate

    spec, cfg, cell_index, trial_index, master_seed, where = payload
    seed = derive_seed(master_seed, cell_index, trial_index)
    try:
        instance = generate(replace(spec, seed=seed))
        result = fit(instance.y, cfg)
    except (FitDegenerateError, ValueError) as err:
        raise type(err)(f"{where}, trial {trial_index}: {err}") from None
    report = evaluate(result.model, instance.model)
    return (cell_index, trial_index, seed,
            tuple(getattr(report, column) for column in _EVAL_COLUMNS))


def cmd_sweep(args):
    start = time.perf_counter()
    grid = _load_json(args.grid, "sweep grid")
    cells = grid.get("cells")
    if not isinstance(cells, list) or not cells:
        raise DataFormatError(f'{args.grid}: grid must hold a nonempty "cells" list')
    master_seed = _checked_int(f"{args.grid}: seed",
                               args.seed if args.seed is not None else grid.get("seed", 0), 0)
    trials = _checked_int(f"{args.grid}: trials",
                          args.trials if args.trials is not None else grid.get("trials", 1), 1)
    where = [f"{args.grid}: cell {ci}" for ci in range(len(cells))]
    checked = [_sweep_cell(cell, where[ci]) for ci, cell in enumerate(cells)]
    jobs = [(spec, cfg, ci, ti, master_seed, where[ci])
            for ci, (spec, cfg) in enumerate(checked) for ti in range(trials)]
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
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

    trials_path = _out(args.out, "trials.csv")
    summary_path = _out(args.out, "summary.csv")
    _write_csv(trials_path, trial_header, trial_rows)
    _write_csv(summary_path, summary_header, summary_rows)
    written = time.perf_counter()
    write_manifest(
        _out(args.out, "manifest.json"), "sweep",
        parameters={"grid": str(args.grid), "seed": master_seed, "trials": trials,
                    "workers": args.workers, "cells": len(cells)},
        outputs={"trials": trials_path, "summary": summary_path},
        stage_seconds={"sweep": swept - start, "write": written - swept})
    print(f"wrote {summary_path} ({len(cells)} cells x {trials} trials)")
    return 0


def cmd_scree(args):
    ranks, mode = args.ranks, len(args.ranks) + 1
    if mode > 3:
        raise _UsageError(f"{args.data}: no mode {mode}: --ranks takes at most 2, got {len(ranks)}")
    start = time.perf_counter()
    y, doc_length = read_count_tensor(args.data)
    _check_file_ranks(args.data, ranks, y.shape)
    data = _vocabulary(y, ranks, doc_length, FitConfig.sparse_c_prime)
    bound, what = y.shape[mode - 1], "dimension"
    if mode == 3:
        kept = data.vocab.size
        bound, what = min(kept, ranks[0] * ranks[1]), f"min({kept} kept words, K1*K2) ="
    k_max = args.kmax if args.kmax is not None else bound
    if k_max > bound:
        raise _UsageError(f"{args.data}: mode {mode} --kmax {k_max} exceeds {what} {bound}")
    values = _hosvd(data, (*ranks, k_max))[0][-1][1]
    parameters = {"data": str(args.data), "ranks": list(ranks), "mode": mode, "k_max": k_max}
    return _print_or_write(args.out, "scree", "scree", ("index", "eigenvalue"),
                           [[index + 1, float(value)] for index, value in enumerate(values)],
                           parameters, {"compute": time.perf_counter() - start})


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
    p.add_argument("--ranks", type=_parse_ranks, default=None, metavar="K1,K2,K3")
    p.add_argument("--config", default=None, help="fit config JSON (flags win)")
    p.add_argument("--sparse", type=float, default=None, metavar="C",
                   help="vocabulary threshold constant")
    p.add_argument("--hooi", type=_int_at_least(0), default=None, metavar="N",
                   help="refine bases with N power sweeps")
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
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="override the grid seed")
    p.add_argument("--trials", type=_int_at_least(1), default=None, help="override grid trials")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (FitDegenerateError, np.linalg.LinAlgError) as err:
        # LinAlgError subclasses ValueError, yet it is a numerical failure
        print(f"degenerate fit: {err}", file=sys.stderr)
        return 4
    except (DataFormatError, ValueError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: generate, fit, eval, sweep, scree.

Count tensors travel as UTF-8 text: a header line ``n1 n2 n_words doc_length``
followed by ``i j r count`` records (1-based, zeros omitted, duplicate records
accumulate).  Models travel as JSON objects with dense row-major arrays
``a1, a2, a3, g`` plus ``dims`` and ``ranks``; floats keep full round-trip
precision, so write-read cycles are bit-faithful.  Every command writes a
manifest echoing its parameters, library versions, output paths, and stage
timings; replaying a command with equal inputs reproduces every numeric
output byte for byte (only the manifest's timings differ).

Exit codes: 0 success, 2 usage error, 3 malformed data, 4 degenerate fit.
"""

import argparse
import contextlib
import csv
import io
import itertools
import json
import platform
import re
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (DataFormatError, FitDegenerateError, _as_tensor, _check_tucker_ranks,
                     _checked_int, _checked_triple)
from .estimator import FitConfig, TuckerModel, fit
from .metrics import evaluate, scree
from .synth import GenSpec, generate

_EVAL_COLUMNS = ("loss_a1", "loss_a2", "loss_a3", "loss_g", "recon_l1")


class _UsageError(Exception):
    """Command line combination that cannot be executed."""


# ---------------------------------------------------------------- file IO


def write_count_tensor(path, counts, doc_length):
    """Write integer counts in the sparse text format (zeros omitted).

    Blocks of mode-1 rows of about 2**18 cells are formatted as arrays in turn: each field's
    decimal digits fill fixed-width byte columns, and the leading zeros are masked out.
    """
    counts = _as_tensor(counts, "count tensor")
    if not np.issubdtype(counts.dtype, np.integer):
        raise DataFormatError(f"counts must have an integer dtype, got {counts.dtype}")
    if counts.size and counts.min() < 0:
        raise DataFormatError("counts must be nonnegative")
    rows = max(1, (1 << 18) // max(1, counts.shape[1] * counts.shape[2]))
    with open(path, "wb") as out:
        out.write((" ".join(str(v) for v in (*counts.shape, int(doc_length))) + "\n").encode())
        for first in range(0, counts.shape[0], rows):
            block = counts[first:first + rows]
            cells = np.nonzero(block)
            columns = [cells[0] + first + 1, cells[1] + 1, cells[2] + 1, block[cells]]
            widths = [len(str(int(column.max(initial=0)))) for column in columns]
            chars = np.empty((columns[-1].size, sum(widths) + 4), dtype=np.uint8)
            keep = np.ones(chars.shape, dtype=bool)
            end = 0
            for values, width, separator in zip(columns, widths, b"   \n"):
                rest = values  # every value is positive, so its last digit is kept
                for place in range(end + width - 1, end - 1, -1):
                    np.greater(rest, 0, out=keep[:, place])
                    rest, digit = np.divmod(rest, 10)
                    np.add(digit, ord("0"), out=chars[:, place], casting="unsafe")
                chars[:, end + width] = separator
                end += width + 1
            out.write(chars[keep])


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


def _overflow_line(path, flat, values, counts):
    """Line number of the first record whose cell sum leaves int64, if any.

    Counts are nonnegative, so a wrapped cell sum leaves the tensor's float
    total at least 2**64 below the records' float total.
    """
    total = values.sum(dtype=float)
    if total < 2.0 ** 62 or abs(counts.sum(dtype=float) - total) < 2.0 ** 62:
        return None
    sums = {}
    for row, (cell, value) in enumerate(zip(flat.tolist(), values.tolist())):
        sums[cell] = sums.get(cell, 0) + value
        if sums[cell] > _INT64.max:
            return _line_number(path, row + 1)
    return None


def read_count_tensor(path):
    """Parse the sparse text format back into ``(counts, doc_length)``.

    The grammar: every nonblank line holds four ASCII decimal integers, each
    with an optional sign, separated by whitespace; LF and CRLF line ends
    both work; blank lines are ignored and there are no comments.  The first
    line is the header ``n1 n2 n_words doc_length``, each one positive, and
    every other line a 1-based record ``i j r count`` with a nonnegative
    count.  Duplicate records accumulate.  A bad file raises
    ``DataFormatError`` naming a line: the first line that breaks the
    grammar if there is one, else the first out-of-range value.  The file
    is UTF-8 text, and numpy's parser reads it, so its name must not end in
    a suffix numpy decompresses.
    """
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
    if min(n1, n2, n_words, doc_length) < 1:
        raise DataFormatError(f"{path}: line {_line_number(path, 0)}: "
                              "header dims and doc length must be positive")
    try:
        counts = np.zeros((n1, n2, n_words), dtype=np.int64)
    except (MemoryError, ValueError):
        raise DataFormatError(
            f"{path}: line {_line_number(path, 0)}: a {n1} x {n2} x {n_words} "
            "count tensor is too big to load") from None
    try:
        flat = np.ravel_multi_index(tuple(records[:, :3].T - 1), counts.shape)
    except ValueError:  # an index outside the dims
        flat = None
    if flat is None or records[:, 3].min(initial=0) < 0:
        raise _bad_record(path, records, counts.shape)
    np.add.at(counts.reshape(-1), flat, records[:, 3])
    number = _overflow_line(path, flat, records[:, 3], counts)
    if number is not None:
        raise DataFormatError(
            f"{path}: line {number}: accumulated count exceeds the 64-bit integer range")
    return counts, doc_length


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


def derive_seed(master, *path):
    """Stable per-(cell, trial) seed, independent of execution order."""
    ss = np.random.SeedSequence(int(master), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


# ------------------------------------------------------------- subcommands


def cmd_generate(args):
    start = time.perf_counter()
    payload = _load_json(args.spec, "generator spec")
    if args.seed is not None:
        payload["seed"] = args.seed
    spec = _from_json(GenSpec, payload, args.spec)
    loaded = time.perf_counter()
    try:
        instance = generate(spec)
    except DataFormatError as err:
        raise DataFormatError(f"{args.spec}: {err}") from None
    generated = time.perf_counter()
    counts_path = _out(args.out, "counts.txt")
    truth_path = _out(args.out, "truth.json")
    write_count_tensor(counts_path, instance.counts, spec.doc_length)
    write_model(truth_path, instance.model, extra={"seed": spec.seed})
    written = time.perf_counter()
    write_manifest(
        _out(args.out, "manifest.json"), "generate",
        parameters=asdict(spec),
        outputs={"counts": counts_path, "truth": truth_path},
        stage_seconds={"load": loaded - start, "generate": generated - loaded,
                       "write": written - generated})
    print(f"wrote {counts_path} ({int(instance.counts.sum())} tokens) and {truth_path}")
    return 0


def cmd_fit(args):
    start = time.perf_counter()
    y, doc_length = read_count_tensor(args.data)
    options = _load_json(args.config, "fit config") if args.config else {}
    flags = {"ranks": args.ranks, "sparse_c_prime": args.sparse, "hooi_iters": args.hooi}
    options.update((key, value) for key, value in flags.items() if value is not None)
    if args.hooi is not None:
        options["use_hooi"] = True
    if args.oracle:
        options["oracle"] = True
    if "ranks" not in options:
        raise _UsageError('no ranks given: pass --ranks K1,K2,K3 or put "ranks" in the config')
    cfg = _from_json(FitConfig, options, args.config or "command line",
                     doc_length=doc_length)
    for mode, (k, n) in enumerate(zip(cfg.ranks, y.shape), start=1):
        if k > n:
            raise _UsageError(f"{args.data}: mode {mode} rank {k} exceeds dimension {n}")
    loaded = time.perf_counter()
    y = y / doc_length  # frees the int64 counts: only frequencies stay alive
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
    row = [getattr(report, column) for column in _EVAL_COLUMNS]
    if args.out is None:
        _write_csv(None, _EVAL_COLUMNS, [row])
        return 0
    losses_path = _out(args.out, "losses.csv")
    _write_csv(losses_path, _EVAL_COLUMNS, [row])
    written = time.perf_counter()
    write_manifest(
        _out(args.out, "manifest.json"), "eval",
        parameters={"model": str(args.model), "truth": str(args.truth),
                    "perms": [list(p) for p in report.perms]},
        outputs={"losses": losses_path},
        stage_seconds={"eval": scored - start, "write": written - scored})
    print(f"wrote {losses_path}")
    return 0


def _sweep_cell(cell, where):
    """Seed-0 generator spec and fit config of one grid cell.

    The fit options default to the cell's planted ranks, and fit ranks must
    obey the Tucker rank rule too.
    """
    options = cell.get("fit", {}) if isinstance(cell, dict) else None
    if not isinstance(options, dict):
        raise DataFormatError(f'{where}: a cell and its "fit" entry must be JSON objects')
    fields = {k: v for k, v in cell.items() if k not in ("label", "fit")}
    spec = _from_json(GenSpec, fields, where, seed=0)
    cfg = _from_json(FitConfig, {"ranks": spec.ranks, **options}, where,
                     doc_length=spec.doc_length)
    try:
        _check_tucker_ranks(cfg.ranks)
    except DataFormatError as err:
        raise DataFormatError(f"{where}: {err}") from None
    return spec, cfg


def _sweep_trial(payload):
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
    start = time.perf_counter()
    y, doc_length = read_count_tensor(args.data)
    k_max = args.kmax if args.kmax is not None else y.shape[args.mode - 1]
    if k_max > y.shape[args.mode - 1]:
        raise _UsageError(f"{args.data}: mode {args.mode} --kmax {k_max} exceeds dimension "
                          f"{y.shape[args.mode - 1]}")
    y = y / doc_length  # frees the int64 counts: only frequencies stay alive
    values = scree(y, args.mode, k_max, doc_length)
    computed = time.perf_counter()
    rows = [[index + 1, float(value)] for index, value in enumerate(values)]
    if args.out is None:
        _write_csv(None, ("index", "eigenvalue"), rows)
        return 0
    scree_path = _out(args.out, "scree.csv")
    _write_csv(scree_path, ("index", "eigenvalue"), rows)
    written = time.perf_counter()
    write_manifest(
        _out(args.out, "manifest.json"), "scree",
        parameters={"data": str(args.data), "mode": args.mode, "k_max": int(k_max)},
        outputs={"scree": scree_path},
        stage_seconds={"compute": computed - start, "write": written - computed})
    print(f"wrote {scree_path}")
    return 0


# ------------------------------------------------------------------ parser


def _int_at_least(low):
    """An argparse ``type``: an integer of at least ``low``."""
    def integer(text):  # argparse reports a failing int() by this function's name
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _parse_ranks(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ranks must look like K1,K2,K3")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("ranks must be integers") from None


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
    p.add_argument("--oracle", action="store_true",
                   help="treat the input as the exact mean tensor")
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

    p = sub.add_parser("scree", help="leading gram eigenvalues of one mode")
    p.add_argument("--data", required=True, help="count tensor file")
    p.add_argument("--mode", type=int, choices=(1, 2, 3), required=True)
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

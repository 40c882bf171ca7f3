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
import json
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import DataFormatError, FitDegenerateError
from .estimator import FitConfig, TuckerModel, fit
from .metrics import evaluate, scree
from .synth import GenSpec, generate

_EVAL_COLUMNS = ("loss_a1", "loss_a2", "loss_a3", "loss_g", "recon_l1")


class _UsageError(Exception):
    """Command line combination that cannot be executed."""


# ---------------------------------------------------------------- file IO


def write_count_tensor(path, counts, doc_length):
    """Write integer counts in the sparse text format (zeros omitted)."""
    counts = np.asarray(counts)
    if counts.ndim != 3:
        raise DataFormatError("counts must form an order-3 tensor")
    if counts.size and counts.min() < 0:
        raise DataFormatError("counts must be nonnegative")
    n1, n2, n_words = counts.shape
    lines = [f"{n1} {n2} {n_words} {int(doc_length)}"]
    for i, j, r in np.argwhere(counts):
        lines.append(f"{i + 1} {j + 1} {r + 1} {int(counts[i, j, r])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_count_tensor(path):
    """Parse the sparse text format back into ``(counts, doc_length)``.

    Any malformed line raises ``DataFormatError`` naming the line number.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise DataFormatError(f"{path}: cannot read tensor file: {err}") from None
    counts = None
    doc_length = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise DataFormatError(
                f"{path}: line {number}: expected 4 fields, found {len(fields)}")
        try:
            a, b, c, d = (int(f) for f in fields)
        except ValueError:
            raise DataFormatError(
                f"{path}: line {number}: all fields must be integers") from None
        if counts is None:
            if min(a, b, c, d) < 1:
                raise DataFormatError(
                    f"{path}: line {number}: header dims and doc length must be positive")
            counts = np.zeros((a, b, c), dtype=np.int64)
            doc_length = d
            continue
        if not (1 <= a <= counts.shape[0]
                and 1 <= b <= counts.shape[1]
                and 1 <= c <= counts.shape[2]):
            raise DataFormatError(
                f"{path}: line {number}: index ({a}, {b}, {c}) outside dims "
                f"{counts.shape}")
        if d < 0:
            raise DataFormatError(f"{path}: line {number}: negative count")
        counts[a - 1, b - 1, c - 1] += d
    if counts is None:
        raise DataFormatError(f"{path}: empty file, expected a header line")
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
    """Load a model JSON file, validating shapes against declared dims."""
    payload = _load_json(path, "model file")
    try:
        dims = tuple(int(v) for v in payload["dims"])
        ranks = tuple(int(v) for v in payload["ranks"])
        model = TuckerModel(
            a1=np.asarray(payload["a1"], dtype=float),
            a2=np.asarray(payload["a2"], dtype=float),
            a3=np.asarray(payload["a3"], dtype=float),
            g=np.asarray(payload["g"], dtype=float),
        )
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
            "scipy": scipy.__version__,
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
    except OSError as err:
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
    instance = generate(spec)
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
    counts, doc_length = read_count_tensor(args.data)
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
    loaded = time.perf_counter()
    result = fit(counts / doc_length, cfg)
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
        raise DataFormatError("fitted and truth models disagree on dims or ranks")
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

    The fit options default to the cell's planted ranks.
    """
    options = cell.get("fit", {}) if isinstance(cell, dict) else None
    if not isinstance(options, dict):
        raise DataFormatError(f'{where}: a cell and its "fit" entry must be JSON objects')
    fields = {k: v for k, v in cell.items() if k not in ("label", "fit")}
    spec = _from_json(GenSpec, fields, where, seed=0)
    cfg = _from_json(FitConfig, {"ranks": spec.ranks, **options}, where,
                     doc_length=spec.doc_length)
    return spec, cfg


def _sweep_trial(payload):
    spec, cfg, cell_index, trial_index, master_seed = payload
    seed = derive_seed(master_seed, cell_index, trial_index)
    instance = generate(replace(spec, seed=seed))
    result = fit(instance.y, cfg)
    report = evaluate(result.model, instance.model)
    return (cell_index, trial_index, seed,
            tuple(getattr(report, column) for column in _EVAL_COLUMNS))


def cmd_sweep(args):
    start = time.perf_counter()
    grid = _load_json(args.grid, "sweep grid")
    cells = grid.get("cells")
    if not isinstance(cells, list) or not cells:
        raise DataFormatError(f'{args.grid}: grid must hold a nonempty "cells" list')
    master_seed = args.seed if args.seed is not None else int(grid.get("seed", 0))
    trials = args.trials if args.trials is not None else int(grid.get("trials", 1))
    if trials < 1:
        raise DataFormatError("trials must be positive")
    checked = [_sweep_cell(cell, f"{args.grid}: cell {ci}") for ci, cell in enumerate(cells)]
    jobs = [(spec, cfg, ci, ti, master_seed)
            for ci, (spec, cfg) in enumerate(checked) for ti in range(trials)]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            raw = list(pool.map(_sweep_trial, jobs))
    else:
        raw = [_sweep_trial(job) for job in jobs]
    results = {(ci, ti): (seed, losses) for ci, ti, seed, losses in raw}
    swept = time.perf_counter()

    trial_header = ("label", "cell", "trial", "seed") + _EVAL_COLUMNS
    trial_rows = []
    summary_header = ("label", "n1", "n2", "n_words", "doc_length",
                      "k1", "k2", "k3", "trials")
    for column in _EVAL_COLUMNS:
        summary_header += (f"{column}_median", f"{column}_iqr")
    summary_rows = []
    for ci, (cell, (spec, _)) in enumerate(zip(cells, checked)):
        label = str(cell.get("label", f"cell{ci}"))
        per_metric = []
        for ti in range(trials):
            seed, losses = results[(ci, ti)]
            trial_rows.append([label, ci, ti, seed, *losses])
            per_metric.append(losses)
        per_metric = np.asarray(per_metric)
        row = [label, *spec.dims, spec.doc_length, *spec.ranks, trials]
        for column_index in range(len(_EVAL_COLUMNS)):
            values = per_metric[:, column_index]
            q25, q75 = np.percentile(values, [25.0, 75.0])
            row.extend([float(np.median(values)), float(q75 - q25)])
        summary_rows.append(row)

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
    counts, doc_length = read_count_tensor(args.data)
    k_max = args.kmax if args.kmax is not None else counts.shape[args.mode - 1]
    values = scree(counts / doc_length, args.mode, k_max, doc_length)
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
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit a model to a count tensor")
    p.add_argument("--data", required=True, help="count tensor file")
    p.add_argument("--ranks", type=_parse_ranks, default=None, metavar="K1,K2,K3")
    p.add_argument("--config", default=None, help="fit config JSON (flags win)")
    p.add_argument("--sparse", type=float, default=None, metavar="C",
                   help="vocabulary threshold constant")
    p.add_argument("--hooi", type=int, default=None, metavar="N",
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
    p.add_argument("--seed", type=int, default=None, help="override the grid seed")
    p.add_argument("--trials", type=int, default=None, help="override grid trials")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scree", help="leading gram eigenvalues of one mode")
    p.add_argument("--data", required=True, help="count tensor file")
    p.add_argument("--mode", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--kmax", type=int, default=None)
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

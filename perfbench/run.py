"""Seeded benchmark of tensortopics: the fit pipeline through the CLI and the library.

Run from anywhere in the repository checkout::

    python3 perfbench/run.py --workload corpus-sparse --seed 1 --seconds 15 --trace 0

The seed draws every input; the program only ever sees the generated files and
arrays.  Each run is one process that allows at most ``nproc`` BLAS threads,
also in the CLI processes it starts.

Workloads (the reasons are in BENCHMARK.json):

* ``corpus-sparse``: set-up runs CLI ``generate`` for dims (100, 80, 2000),
  ranks (3, 3, 5), doc length 200 (about 1.5 M nonzeros, an 18.6 MB count
  file).  One iteration is CLI ``fit --ranks 3,3,5`` on that file, CLI
  ``eval`` against the truth, and one in-process ``fit()`` of the same tensor.
* ``corpus-dense-hooi``: dims (200, 150, 400), ranks (4, 3, 6), doc length
  2000 (about 98 % dense).  One iteration is ``fit()`` with five HOOI sweeps,
  then ``evaluate()``.

``--trace 0`` times a closed loop: one client starts the next iteration when
the last one ends, for ``--seconds`` and at least three iterations.  Its last
line of output carries the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: from the first line of this script to the first timed
  operation (imports, inputs, files, one warm-up call); the set-up after the
  imports runs three times and the median is reported.
* ``iter_s``: median wall time of one iteration.
* ``peak_mb``: peak memory allocated during one untimed ``fit()``, as
  tracemalloc counts it.
* ``recon_l1``: l1 error of the fitted mean tensor against the truth.

``--trace 1`` runs the set-up work plus one iteration three times in this
process (CLI commands through ``cli.main``): untraced to warm up, traced, and
untraced again.  The traced pass wraps the public functions that
``perfbench/layers.json`` lists and reports their self time, call counts and
exact counts as the per-layer metrics, plus the tracing overhead.  All three
passes must produce bit-identical outputs.

Every operation's output is checked (exit codes, ``TuckerModel.validate()``,
bit-for-bit agreement of the CLI and in-process fits, deterministic refits,
loss ceilings from ``ceilings.json``), and failed operations are counted
against attempted ones.  Samples, percentiles, the workload-specific figures
of ``layers.json``, the environment and the spans go to ``.perfbench/`` in
the checkout.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before every import)
import contextlib  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_ITERATIONS = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150
FACTORS = ("a1", "a2", "a3", "g")
LOSS_COLUMNS = ("loss_a1", "loss_a2", "loss_a3", "loss_g", "recon_l1")


def _limit_threads():
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            asked = int(os.environ.get(var, nproc))
        except ValueError:
            asked = nproc
        os.environ[var] = str(min(max(asked, 1), nproc))
    return nproc


NPROC = _limit_threads()

import numpy as np  # noqa: E402  (imported after the thread caps so BLAS sees them)

import spans  # noqa: E402


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


class Ledger:
    """Operations attempted and the ones that failed, with their tracebacks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, what, operation, *args):
        self.attempted += 1
        try:
            return operation(*args)
        except Exception as err:  # one failed operation is counted, the run goes on
            self.failures.append({"operation": what, "error": f"{type(err).__name__}: {err}",
                                  "traceback": traceback.format_exc()})
            return None


# ------------------------------------------------------------------ helpers


def run_cli_process(argv, log):
    """Run ``python -m tensortopics.cli argv``; return (exit code, wall s, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as sink:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "tensortopics.cli", *map(str, argv)],
                                 stdout=sink, stderr=subprocess.STDOUT, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def run_cli_main(cli, argv):
    """Run one CLI command in this process and return its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main([str(a) for a in argv])
        except SystemExit as stop:  # argparse rejects a command line by exiting
            return stop.code


def model_digest(model):
    digest = hashlib.sha256()
    for name in FACTORS:
        array = np.ascontiguousarray(getattr(model, name), dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_model_file(tt, path):
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return tt.TuckerModel(**{name: np.asarray(payload[name], dtype=float) for name in FACTORS})


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_ceilings(ceilings, losses, where):
    for name, ceiling in ceilings.items():
        value = losses[name]
        require(math.isfinite(value) and value <= ceiling,
                f"{where}: {name} = {value!r} exceeds the ceiling {ceiling}")


def summarize(values):
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    rank = len(ordered) - 11
    if rank >= 0:
        out["tail"] = {"percentile": 100.0 * (rank + 1) / len(ordered), "value": ordered[rank]}
    return out


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, when it says."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        library = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(program, args):
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "cpu_count": os.cpu_count(),
        "blas": blas, "blas_threads": blas_threads(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "tensortopics": program.tt.__version__,
        "platform": platform.platform(),
    }


class Program:
    """The tensortopics package imported from this checkout's ``src``."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        self.tt = importlib.import_module("tensortopics")
        self.cli = importlib.import_module("tensortopics.cli")
        where = Path(self.tt.__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise RuntimeError(f"tensortopics was imported from {where}, not from {SRC}")


# ---------------------------------------------------------------- workloads


class Workload:
    """One generated tensor: set-up, timed iterations, final checks, trace pass.

    Subclasses name the instance (``SPEC``) and fit options and supply
    ``setup``, ``iterate`` and ``trace_pass``.
    """

    SPEC = None
    FIT_OPTIONS = {}

    def __init__(self, program, work, seed, ledger, ceilings):
        self.tt = program.tt
        self.cli = program.cli
        self.work = work
        self.seed = seed
        self.ledger = ledger
        self.ceilings = ceilings
        self.samples = defaultdict(list)
        self.counts = {}
        self.cfg = self.tt.FitConfig(ranks=self.SPEC["ranks"], doc_length=self.SPEC["doc_length"],
                                     **self.FIT_OPTIONS)
        self.setup_digests = []

    def timed(self, key, call, *args):
        start = time.perf_counter()
        result = call(*args)
        wall = time.perf_counter() - start
        self.samples[key].append(wall)
        return result, wall

    def trace_counts(self):
        """Exact counts of the trace pass that no span records."""
        return {"cli.count_file_mb": 0.0}

    def generate_instance(self):
        """The seeded tensor and its planted truth."""
        instance = self.tt.generate(self.tt.GenSpec(**self.SPEC, seed=self.seed))
        self.counts["nonzeros"] = int(np.count_nonzero(instance.counts))
        return instance.y, instance.model

    def setup_reference(self):
        """Draw the inputs and make the warm-up fit that every later fit must equal."""
        self.y, self.truth = self.generate_instance()
        self.reference = self.tt.fit(self.y, self.cfg)
        self.setup_digests.append(model_digest(self.reference.model))

    def check_setup(self):
        self.ref_digest = model_digest(self.reference.model)
        self.report = self.tt.evaluate(self.reference.model, self.truth)
        self.counts["vocab_kept"] = int(self.reference.vocab.size)
        require(len(set(self.setup_digests)) == 1, "set-up fits differ between repeats")
        self.reference.model.validate()
        check_ceilings(self.ceilings, vars(self.report), "set-up fit")

    def _fit(self, walls):
        result, walls["fit_s"] = self.timed("fit_s", self.tt.fit, self.y, self.cfg)
        result.model.validate()
        require(model_digest(result.model) == self.ref_digest, "fit() is not deterministic")
        return result

    def _fit_peak_mb(self):
        """Peak memory allocated by one untimed fit(), which must equal the reference."""
        tracemalloc.start()
        try:
            result = self.tt.fit(self.y, self.cfg)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        require(model_digest(result.model) == self.ref_digest, "fit() is not deterministic")
        self.samples["fit_peak_mb"].append(peak)
        return peak

    def finish(self):
        peak = self.ledger.run("traced-memory fit()", self._fit_peak_mb)
        self.samples["loss_a3"].append(self.report.loss_a3)
        self.samples["recon_l1"].append(self.report.recon_l1)
        return {"peak_mb": peak, "recon_l1": self.report.recon_l1}


class CorpusSparse(Workload):
    SPEC = {"dims": [100, 80, 2000], "ranks": [3, 3, 5], "doc_length": 200}
    RANKS = "3,3,5"

    def __init__(self, *args):
        super().__init__(*args)
        self.spec_path = self.work / "spec.json"
        self.spec_path.write_text(json.dumps(self.SPEC), encoding="utf-8")
        self.counts_path = self.work / "corpus.counts.txt"
        self.truth_path = self.work / "corpus.truth.json"
        self.model_path = self.work / "fit.model.json"
        self.losses_path = self.work / "eval.losses.csv"

    def setup(self):
        code, _, _ = run_cli_process(["generate", "--spec", self.spec_path, "--seed", self.seed,
                                      "--out", self.work / "corpus"], self.work / "generate.log")
        require(code == 0, f"CLI generate exited with {code}")
        self.setup_reference()

    def check_setup(self):
        super().check_setup()
        with open(self.counts_path, "rb") as handle:
            header = handle.readline().split()
            records = sum(1 for _ in handle)
        dims, length = self.SPEC["dims"], self.SPEC["doc_length"]
        require(header == [str(v).encode() for v in (*dims, length)], f"count file header {header}")
        require(records == self.counts["nonzeros"],
                f"count file has {records} records for {self.counts['nonzeros']} nonzeros")
        self.counts["count_file_bytes"] = self.counts_path.stat().st_size
        require(model_digest(read_model_file(self.tt, self.truth_path)) == model_digest(self.truth),
                "CLI generate wrote a different truth model")

    def _cli_fit(self, walls):
        code, walls["fit_cli_s"], rss = run_cli_process(
            ["fit", "--data", self.counts_path, "--ranks", self.RANKS, "--out", self.work / "fit"],
            self.work / "fit.log")
        self.samples["fit_cli_s"].append(walls["fit_cli_s"])
        self.samples["fit_cli_peak_rss_mb"].append(rss)
        require(code == 0, f"CLI fit exited with {code}")
        model = read_model_file(self.tt, self.model_path)
        model.validate()
        require(model_digest(model) == self.ref_digest,
                "the CLI fit model differs from the in-process fit() of the same tensor")

    def _cli_eval(self, walls):
        code, walls["eval_cli_s"], _ = run_cli_process(
            ["eval", "--model", self.model_path, "--truth", self.truth_path,
             "--out", self.work / "eval"], self.work / "eval.log")
        self.samples["eval_cli_s"].append(walls["eval_cli_s"])
        require(code == 0, f"CLI eval exited with {code}")
        (row,) = read_rows(self.losses_path)
        losses = {name: float(row[name]) for name in LOSS_COLUMNS}
        require(losses == {name: getattr(self.report, name) for name in LOSS_COLUMNS},
                f"CLI eval losses {losses} differ from evaluate()")

    def iterate(self, index):
        walls = {}
        for what, operation in (("CLI fit", self._cli_fit), ("CLI eval", self._cli_eval),
                                ("fit()", self._fit)):
            self.ledger.run(what, operation, walls)
        return sum(walls.values()) if len(walls) == 3 else None

    def trace_pass(self):
        cli = self.cli
        code = run_cli_main(cli, ["generate", "--spec", self.spec_path, "--seed", self.seed,
                                  "--out", self.work / "corpus"])
        require(code == 0, f"CLI generate exited with {code}")
        y, _ = self.generate_instance()
        code = run_cli_main(cli, ["fit", "--data", self.counts_path, "--ranks", self.RANKS,
                                  "--out", self.work / "fit"])
        require(code == 0, f"CLI fit exited with {code}")
        code = run_cli_main(cli, ["eval", "--model", self.model_path, "--truth", self.truth_path,
                                  "--out", self.work / "eval"])
        require(code == 0, f"CLI eval exited with {code}")
        result = self.tt.fit(y, self.cfg)
        result.model.validate()
        require(model_digest(read_model_file(self.tt, self.model_path))
                == model_digest(result.model),
                "the CLI fit model differs from the in-process fit() of the same tensor")
        return {"counts": file_digest(self.counts_path), "truth": file_digest(self.truth_path),
                "cli_model": file_digest(self.model_path),
                "losses": file_digest(self.losses_path), "fit": model_digest(result.model)}

    def trace_counts(self):
        return {"cli.count_file_mb": self.counts_path.stat().st_size / 1e6}


class CorpusDenseHooi(Workload):
    SPEC = {"dims": [200, 150, 400], "ranks": [4, 3, 6], "doc_length": 2000}
    FIT_OPTIONS = {"use_hooi": True, "hooi_iters": 5}

    def setup(self):
        self.setup_reference()
        self.tt.evaluate(self.reference.model, self.truth)  # warms up the iteration's evaluate()

    def check_setup(self):
        super().check_setup()
        self.counts["hooi_sweeps"] = self.cfg.hooi_iters

    def _evaluate(self, walls, result):
        report, walls["eval_s"] = self.timed("eval_s", self.tt.evaluate, result.model, self.truth)
        require(report == self.report, "evaluate() is not deterministic")

    def iterate(self, index):
        walls = {}
        result = self.ledger.run("fit()", self._fit, walls)
        if result is not None:
            self.ledger.run("evaluate()", self._evaluate, walls, result)
        return sum(walls.values()) if len(walls) == 2 else None

    def trace_pass(self):
        y, truth = self.generate_instance()
        result = self.tt.fit(y, self.cfg)
        result.model.validate()
        report = self.tt.evaluate(result.model, truth)
        return {"fit": model_digest(result.model),
                "losses": repr([getattr(report, name) for name in LOSS_COLUMNS])}


WORKLOADS = {"corpus-sparse": CorpusSparse, "corpus-dense-hooi": CorpusDenseHooi}


# --------------------------------------------------------------------- runs


def measure(workload, ledger, import_s, seconds):
    """The untraced run: repeated set-up, the timed loop, then the final checks."""
    setups = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        ledger.run(f"set-up {repeat + 1}", workload.setup)
        setups.append(import_s + time.perf_counter() - start)
        if ledger.failures:
            raise RuntimeError(f"set-up failed: {ledger.failures[-1]['error']}")
    ledger.run("set-up checks", workload.check_setup)

    iterations = []
    start = time.perf_counter()
    phases = {"setup": start - _START}
    index = 0
    while index < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        wall = workload.iterate(index)
        if wall is not None:
            iterations.append(wall)
        index += 1
    phases["loop"] = time.perf_counter() - start
    finished = workload.finish()
    phases["finish"] = time.perf_counter() - start - phases["loop"]
    workload.phases = phases
    if not iterations or finished["peak_mb"] is None:
        raise RuntimeError("no complete iteration to report; see the failures in the result file")
    workload.samples["setup_s"] = setups
    workload.samples["iter_s"] = iterations
    return {"setup_s": statistics.median(setups), "iter_s": statistics.median(iterations),
            "peak_mb": finished["peak_mb"], "recon_l1": finished["recon_l1"]}


def import_probe():
    """Seconds a fresh process spends in ``import tensortopics.cli``."""
    code = ("import time; t = time.perf_counter(); import tensortopics.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def traced(workload, ledger, layers, spans_path):
    """The traced run: warm-up pass, traced pass, untraced pass; per-layer metrics."""
    probes = [ledger.run("import probe", import_probe) for _ in range(IMPORT_PROBES)]
    probes = [p for p in probes if p is not None]
    outputs = {}
    walls = {}
    targets = [tuple(name.split(".", 1)) for name in layers["functions"]]
    tracer = spans.Tracer(targets)
    for label in ("warm-up", "traced", "untraced"):
        start = time.perf_counter()
        if label == "traced":
            tracer.install()
            root = tracer.begin("pass")
        try:
            outputs[label] = ledger.run(f"{label} pass", workload.trace_pass)
        finally:
            if label == "traced":
                tracer.end(root)
                tracer.uninstall()
        walls[label] = time.perf_counter() - start
    ledger.run("traced outputs bit-identical", lambda: require(
        outputs["warm-up"] is not None
        and outputs["warm-up"] == outputs["traced"] == outputs["untraced"],
        f"pass outputs differ: {outputs}"))
    tracer.write_spans(spans_path)

    metrics = spans.aggregate(tracer.spans, layers["functions"])
    metrics.update(spans.counts(tracer.spans))
    metrics.update(workload.trace_counts())
    metrics.update({
        "cli.import_s": statistics.median(probes) if probes else 0.0,
        "trace.untraced_s": walls["untraced"], "trace.traced_s": walls["traced"],
        "trace.overhead_s": walls["traced"] - walls["untraced"],
        "trace.absent": len(tracer.absent), "trace.spans": len(tracer.spans),
    })
    return metrics, {"absent": tracer.absent, "notes": tracer.notes, "pass_walls": walls,
                     "import_probes": probes}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "tensortopics" / "__init__.py").is_file():
        print(f"perfbench: no tensortopics source under {SRC}", file=sys.stderr)
        return 2

    program = Program()
    import_s = time.perf_counter() - _START
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
    ceilings = json.loads((BENCH / "ceilings.json").read_text(encoding="utf-8"))
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    ledger = Ledger()
    workload = WORKLOADS[args.workload](program, work, args.seed, ledger,
                                        ceilings[args.workload])
    details = {"environment": environment(program, args), "import_s": import_s}
    if args.trace:
        values, details["trace"] = traced(workload, ledger, layers, work / "spans.jsonl")
        declared = benchmark["per_layer"]
    else:
        values = measure(workload, ledger, import_s, args.seconds)
        declared = benchmark["end_to_end"]
        details["samples"] = dict(workload.samples)
        details["summary"] = {key: summarize(vals) for key, vals in workload.samples.items()}
        details["counts"] = workload.counts
        details["phase_s"] = workload.phases

    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing "
                           f"{sorted(set(names) - set(values))}, extra "
                           f"{sorted(set(values) - set(names))}")
    details["failures"] = ledger.failures
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    details["result"] = result
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# environment: {json.dumps(details['environment'], sort_keys=True)}")
    units = {name: entry["unit"] for name, entry in layers["detail"].items()}
    units.update((metric["name"], metric["unit"]) for metric in benchmark["end_to_end"])
    for key, summary in sorted(details.get("summary", {}).items()):
        tail = summary.get("tail")
        tail_text = f", p{tail['percentile']:.0f} {tail['value']:.6g}" if tail else ""
        print(f"# {key}: median {summary['median']:.6g} {units[key]}{tail_text} "
              f"(n={summary['n']})")
    for failure in ledger.failures:
        print(f"# FAILED {failure['operation']}: {failure['error']}")
    print(f"# details: {report.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into tensortopics' public functions, recorded from outside.

The benchmark never edits the program: ``Tracer.install`` swaps each target
function for a timing wrapper in every loaded ``tensortopics`` module namespace
that holds it (``estimator`` imports ``build_q`` by name, so patching
``spectral`` alone would miss that call), and ``Tracer.uninstall`` puts the
originals back.  Spans stay in memory until ``write_spans``.
"""

import functools
import inspect
import json
import sys
import time

import numpy as np


# Per-function extractors of exact counts, run after the span has ended so
# they add nothing to its duration.  Each gets the bound call arguments and
# the result, and returns a dict of span attributes.
_OBSERVERS = {
    "spectral.build_q": lambda a, r: {
        "mode": int(a["mode"]), "gram_bytes": 8 * np.shape(a["y_mat"])[0] ** 2},
    "spectral.hooi_refine": lambda a, r: {"sweeps": int(a["iters"])},
    "estimator.fit": lambda a, r: {
        "kept": int(r.vocab.size), "words": int(np.shape(a["y"])[2])},
    "simplex.score_normalize": lambda a, r: {
        "kept": int(r.kept.size), "rows": int(np.shape(a["xi"])[0])},
    "synth.generate": lambda a, r: {"nonzeros": int(np.count_nonzero(r.counts))},
}


class Tracer:
    """Wraps ``(module, function)`` targets of the ``tensortopics`` package.

    A target that does not exist is listed in ``absent`` and skipped, so a
    later rename shows up in the report instead of crashing the run.
    Wrappers return the wrapped function's result object unchanged.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = []
        self.absent = []
        self.notes = []
        self._stack = []
        self._patched = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tensortopics" or n.startswith("tensortopics."))]
        for module_name, func_name in self.targets:
            name = f"{module_name}.{func_name}"
            module = sys.modules.get(f"tensortopics.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def begin(self, name):
        """Open a span that is not a wrapped call, such as a whole pass."""
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, original):
        tracer = self
        observer = _OBSERVERS.get(name)
        signature = inspect.signature(original) if observer else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if observer is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    span["attrs"] = observer(bound, result)
                except Exception as err:  # an observer must never break the traced run
                    tracer.notes.append(f"{name}: counts unavailable ({err!r})")
            return result

        return wrapper

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def _mode_labels(spans):
    """Mode of each build_q and leading_eigvecs span.

    ``build_q`` names its mode; ``leading_eigvecs`` does not, so the k-th
    call under one parent (one fit) counts as mode ``(k mod 3) + 1``.
    """
    labels = {}
    seen = {}
    for span in spans:
        if span["name"] == "spectral.build_q" and "mode" in span["attrs"]:
            labels[span["id"]] = span["attrs"]["mode"]
        elif span["name"] == "spectral.leading_eigvecs":
            ordinal = seen.get(span["parent"], 0)
            seen[span["parent"]] = ordinal + 1
            labels[span["id"]] = ordinal % 3 + 1
    return labels


def aggregate(spans, functions):
    """Per-layer metrics from one pass's spans.

    ``functions`` maps a wrapped name such as ``"spectral.build_q"`` to its
    entry in ``layers.json``.  Timed entries are self time (span duration
    minus the time its direct child spans cover) in seconds, each with a
    ``.calls`` count; an entry marked ``"total"`` reports the span duration
    instead and puts its self time under ``<layer>.self_s``.  Entries marked
    ``"per_mode"`` are split into ``.mode1`` to ``.mode3``.
    """
    child_s = {}
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] = (child_s.get(span["parent"], 0.0)
                                       + span["end"] - span["start"])
    modes = _mode_labels(spans)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for name, entry in functions.items():
        layer = name.split(".")[0]
        suffixes = [f".mode{m}" for m in (1, 2, 3)] if entry.get("per_mode") else [""]
        for suffix in suffixes:
            out[f"{name}_s{suffix}"] = 0.0
            out[f"{name}{suffix}.calls"] = 0
        if entry.get("total"):
            out[f"{layer}.self_s"] = 0.0
    for span in spans:
        entry = functions.get(span["name"])
        if entry is None:
            continue
        name = span["name"]
        duration = span["end"] - span["start"]
        own = duration - child_s.get(span["id"], 0.0)
        suffix = f".mode{modes.get(span['id'], 0)}" if entry.get("per_mode") else ""
        if entry.get("total"):
            add(f"{name}_s{suffix}", duration)
            add(f"{name.split('.')[0]}.self_s", own)
        else:
            add(f"{name}_s{suffix}", own)
        add(f"{name}{suffix}.calls", 1)
    return out


def counts(spans):
    """Exact counts taken from the observed calls of one pass.

    Sizes are the largest seen (``synth.nonzeros``, ``spectral.gram_mb``),
    work is summed (``spectral.hooi_sweeps``), and a kept share is the
    lowest over the calls together with the kept count of that call.
    """
    out = {"synth.nonzeros": 0, "spectral.hooi_sweeps": 0,
           "estimator.vocab_kept": 0, "estimator.vocab_kept_ratio": 0.0,
           "simplex.ratio_kept_rows": 0, "simplex.ratio_kept_ratio": 0.0}
    for m in (1, 2, 3):
        out[f"spectral.gram_mb.mode{m}"] = 0.0
    lowest = {}
    for span in spans:
        attrs = span["attrs"]
        name = span["name"]
        if name == "synth.generate" and "nonzeros" in attrs:
            out["synth.nonzeros"] = max(out["synth.nonzeros"], attrs["nonzeros"])
        elif name == "spectral.build_q" and "mode" in attrs:
            key = f"spectral.gram_mb.mode{attrs['mode']}"
            out[key] = max(out.get(key, 0.0), attrs["gram_bytes"] / 1e6)
        elif name == "spectral.hooi_refine" and "sweeps" in attrs:
            out["spectral.hooi_sweeps"] += attrs["sweeps"]
        elif name in ("estimator.fit", "simplex.score_normalize") and "kept" in attrs:
            total = attrs["words"] if name == "estimator.fit" else attrs["rows"]
            share = attrs["kept"] / total
            if name not in lowest or share < lowest[name][0]:
                lowest[name] = (share, attrs["kept"])
    for name, ratio_key, kept_key in (
            ("estimator.fit", "estimator.vocab_kept_ratio", "estimator.vocab_kept"),
            ("simplex.score_normalize", "simplex.ratio_kept_ratio", "simplex.ratio_kept_rows")):
        if name in lowest:
            out[ratio_key], out[kept_key] = lowest[name]
    return out

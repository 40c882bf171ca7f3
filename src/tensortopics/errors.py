"""Shared exception types, the guard ``_stage`` that names a failing pipeline stage, and option
checks, which return the checked value: ``2.5`` is no integer, ``True`` no count and ``"3"`` no
number.  The data tensor's check is in ``tensor``."""

import contextlib
import numbers
import sys

import numpy as np

_MODES = (1, 2, 3)


class DataFormatError(ValueError):
    """Malformed input: bad shapes, bad file contents, inconsistent config."""


class FitDegenerateError(RuntimeError):
    """The estimation pipeline hit a degenerate configuration; the message starts with the name
    of the failing stage (see ``_stage``)."""


@contextlib.contextmanager
def _stage(name):
    """Run one pipeline stage, whose failure becomes an error starting with ``name``: a
    ``DataFormatError`` for a failed allocation (too big to allocate, with numpy's shape text
    when it gives one), a ``FitDegenerateError`` for a ``LinAlgError`` or ``FitDegenerateError``;
    other errors pass.  A nested stage's name starts with its outer one's (``HOOI sweep 1, mode
    2 basis`` inside ``HOOI sweep 1``), whose guard passes the nested error as it is."""
    try:
        yield
    except MemoryError as err:
        shape = f": {err}" if str(err) else ""  # an exception instance is always truthy
        raise DataFormatError(f"{name}: too big to allocate{shape}") from None
    except (np.linalg.LinAlgError, FitDegenerateError) as err:
        if str(err).startswith(name):
            raise
        raise FitDegenerateError(f"{name}: {err}") from err


def _is_int(value):
    """Whether ``value`` is an integer (numpy integers too) and no boolean."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _checked_int(name, value, low):
    """``value`` as an ``int``; it must be an integer of at least ``low``."""
    if not _is_int(value) or value < low:
        wanted = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            low, f"an integer of at least {low}")
        raise DataFormatError(f"{name} must be {wanted}, got {value!r}")
    return int(value)


def _checked_real(name, value, positive):
    """``value`` as a ``float``; it must be a finite real number, above zero
    when ``positive`` is set and at least zero otherwise."""
    # the exact comparison also rejects NaN and integers beyond the float range
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not 0 <= value <= sys.float_info.max or (positive and value == 0)):
        sign = "positive" if positive else "nonnegative"
        raise DataFormatError(f"{name} must be a finite {sign} number, got {value!r}")
    return float(value)


def _checked_triple(name, value):
    """``value`` as a tuple of three positive ``int``s; a tuple or list."""
    entries = tuple(value) if isinstance(value, (tuple, list)) else ()
    if len(entries) != 3 or not all(_is_int(v) and v >= 1 for v in entries):
        raise DataFormatError(f"{name} must be three positive integers, got {value!r}")
    return tuple(int(v) for v in entries)


def _check_tucker_ranks(ranks):
    """Raise unless each mode rank is at most the product of the other two:
    no ``K1 x K2 x K3`` Tucker core has a larger mode rank."""
    k1, k2, k3 = ranks
    for mode, k, span in ((1, k1, k2 * k3), (2, k2, k1 * k3), (3, k3, k1 * k2)):
        if k > span:
            raise DataFormatError(f"mode {mode} rank {k} exceeds the projected span {span}")


def _check_ranks(ranks, dims):
    """Raise unless each rank of the first ``len(ranks)`` modes is at most its dimension."""
    for mode, (k, n) in enumerate(zip(ranks, dims), start=1):
        if k > n:
            raise DataFormatError(f"mode {mode} rank {k} exceeds dimension {n}")


def _check_mode(mode):
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _as_tensor(t, what="tensor"):
    t = np.asarray(t)
    if t.ndim != 3:
        raise DataFormatError(f"expected an order-3 {what}, got ndim={t.ndim}")
    return t


def _all_finite(a):
    """Whether every entry is finite: a finite sum proves it without a full-size temporary."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.sum(a)) or np.isfinite(a).all())

"""Dense order-3 tensor algebra: layout, unfoldings, Tucker products.

Tensors are C-ordered ``numpy.ndarray`` objects of shape ``(n1, n2, n3)``.
Entry ``t[i, j, k]`` is addressed 0-based in code; file formats and error
messages use 1-based indices.  The mode-``a`` unfolding keeps axis ``a`` as
rows and flattens the remaining axes in increasing order with the last axis
fastest, so for mode 1 entry ``t[i, j, k]`` lands in column ``j * n3 + k``,
for mode 2 in column ``i * n3 + k``, and for mode 3 in column ``i * n2 + j``.
With that layout the unfolding of a Tucker product factorizes through plain
Kronecker products of the factor matrices:

    unfold(reconstruct(g, a1, a2, a3), 1) == a1 @ unfold(g, 1) @ np.kron(a2, a3).T

and cyclically for modes 2 and 3.  Nothing here mutates its inputs.
"""

import numpy as np

from .errors import _as_tensor, _check_mode


def unfold(t, mode):
    """Matricize ``t`` along ``mode``.

    Returns an ``(n_mode, rest)`` matrix; columns run over the remaining axes
    in increasing order with the last axis fastest (see the module docstring
    for the exact column law).
    """
    t = _as_tensor(t)
    _check_mode(mode)
    return np.moveaxis(t, mode - 1, 0).reshape(t.shape[mode - 1], -1)


def fold(m, mode, shape):
    """Inverse of :func:`unfold` for a tensor of the given ``shape``."""
    _check_mode(mode)
    m = np.asarray(m)
    shape = tuple(shape)
    if len(shape) != 3:
        raise ValueError(f"shape must have three entries, got {shape}")
    rest = [s for axis, s in enumerate(shape) if axis != mode - 1]
    if m.shape != (shape[mode - 1], rest[0] * rest[1]):
        raise ValueError(
            f"matrix of shape {m.shape} is not a mode-{mode} unfolding of {shape}")
    return np.moveaxis(m.reshape([shape[mode - 1]] + rest), 0, mode - 1)


def reconstruct(g, a1, a2, a3):
    """Compose a core and three factors into the full tensor.

    Entry law::

        out[i, j, k] = sum_{p,q,s} g[p, q, s] * a1[i, p] * a2[j, q] * a3[k, s]

    Inputs are taken as a ``TuckerModel`` holds them: factor widths match the core.
    """
    return np.einsum("pqs,ip,jq,ks->ijk", g, a1, a2, a3, optimize=True)



def _nonzero_records(t):
    """The nonzero entries of ``t``, which has no empty dim, by blocks of mode-1 rows of about
    2**18 cells: per block, the flat indices of its nonzero cells in ``t``, ascending, and
    their values."""
    n1, n2, n3 = t.shape
    rows = max(1, (1 << 18) // (n2 * n3))
    for first in range(0, n1, rows):
        block = t[first:first + rows].reshape(-1)
        cells = np.flatnonzero(block)
        values = block[cells]
        cells += first * n2 * n3
        yield cells, values

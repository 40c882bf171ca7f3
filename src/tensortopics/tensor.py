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

and cyclically for modes 2 and 3.  A fit reads its data tensor only here: the check with the
word sums, then :class:`DenseData`'s mode-1 gram, ``Z = Y x1 xi1^T`` and HOOI's ``Y x3 xi3^T``.
Everything after these is at most ``k`` wide.  Nothing here mutates its inputs.
"""

import numpy as np

from .errors import DataFormatError, _as_tensor, _check_mode
from .spectral import _mode_gram


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


def _data_word_sums(y):
    """``y`` as an order-3 float tensor of finite nonnegative entries, and its word sums
    ``y.sum(axis=(0, 1))``.  Finite word sums prove every entry finite, so only a bad entry or
    an overflowing sum makes the check look at each entry."""
    y = _as_tensor(np.asarray(y, dtype=float), "data tensor")
    with np.errstate(over="ignore", invalid="ignore"):
        word_sums = y.sum(axis=(0, 1))
        finite = np.isfinite(word_sums).all() or np.isfinite(y).all()
    if not finite:
        raise DataFormatError("data tensor contains non-finite entries")
    if np.min(y, initial=0.0) < 0:
        raise DataFormatError("data tensor contains negative entries")
    return y, word_sums


class DenseData:
    """A fit's data tensor ``y``, checked and C-ordered, read in place, and ``vocab``, the words
    its threshold kept.  The mode-1 gram leaves a dropped word's slab out and its columns of
    ``Z`` are zero, so the mode-2 gram and the word projection of ``Z`` leave it out too."""

    __slots__ = ("y", "vocab", "_dropped")

    def __init__(self, y, vocab):
        self.y, self.vocab = y, vocab
        dropped = np.ones(y.shape[2], dtype=bool)  # np.setdiff1d would import numpy.ma
        dropped[vocab] = False
        self._dropped = np.arange(y.shape[2])[dropped]

    def mode1_gram(self):
        """The mode-1 gram by ``spectral.build_q``: of the whole tensor less each dropped word's
        slab gram, or, where fewer words are kept than dropped, of a copy of the kept words'
        slabs, which is less work and at most half the tensor's size."""
        if self.vocab.size < self._dropped.size:
            return _mode_gram(np.take(self.y, self.vocab, axis=2), 1)
        return _mode_gram(self.y, 1, (self.y[:, :, word] for word in self._dropped))

    def mode1_projection(self, xi1):
        """``Z``, of shape ``(k1, n2, n3)``, by one GEMM on the mode-1 unfolding view, with the
        dropped words' columns zeroed in place."""
        y = self.y
        z = np.matmul(xi1.T, y.reshape(len(y), -1)).reshape(xi1.shape[1], *y.shape[1:])
        z[:, :, self._dropped] = 0.0
        return z

    def word_contraction(self, xi3):
        """``Y x3 xi3^T`` with the word axis contracted first, of shape ``(k3, n1, n2)``."""
        return np.tensordot(xi3, self.y, axes=([0], [2]))

"""Seeded synthetic corpora with planted Tucker topic structure.

All randomness flows through counter-based Philox streams derived from one
seed: substream ``(0,)`` draws the planted model and substream
``(1, i * n2 + j)`` draws the counts of document ``(i, j)``, so documents
regenerate bit-identically in any order and equal specs give equal bits.

One function, ``_planted_counts``, chooses how a spec's counts are drawn.  A
document shorter than the vocabulary is drawn token by token from the planted
factors: a topic from its topic weights, then a word from that topic's column,
each by inversion of a cumulative sum.  No mean tensor is formed.  Each block
of documents comes out as count records, its token cells sorted and run-length
counted: ``generate`` scatters them into the counts, and the command line
writes them to the count file as they come, with no count tensor formed.
Longer documents are drawn by ``sample_counts``, one n_words-way multinomial
each from the mean tensor, on one thread per usable CPU, a contiguous block
each; since every document keeps its own substream, the bits depend on neither
the CPU count nor the order the threads run in.  Each tube is normalized where
it lies in the mean tensor, which is neither copied nor changed.  An instance
keeps no tensor but its counts.

A Philox stream is fixed by its key alone: counter zero and an empty buffer
start it.  So both paths draw a block of documents (a thread's block, or a
block drawn by tokens) through ``_doc_streams``, which derives the block's keys
in one vectorized pass of numpy's SeedSequence arithmetic and rekeys one
generator per document instead of building a SeedSequence, a Philox and a
Generator for it; every document still draws exactly the bits of its
``substream``.
"""

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import (DataFormatError, _check_ranks, _check_tucker_ranks, _checked_int,
                     _checked_real, _checked_triple)
from .estimator import TuckerModel
from .tensor import _data_word_sums, _nonzero_records

_MODEL_STREAM = 0
_DOC_STREAM = 1
_ANCHOR_MODES = ("none", "inject")
_WORD_DISTS = ("uniform", "zipf")
_DIRICHLET_TRIES = 1000  # Gamma draws of one Dirichlet row before alpha is refused
# numpy SeedSequence constants: the entropy hash, the pool mix, the state hash
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_POOL = 4
_MASK32 = 0xFFFFFFFF
_BLOCK_TOKENS = 1 << 16  # most tokens of one block of documents drawn by tokens
_BLOCK_SHARE = 64  # and at most 1/_BLOCK_SHARE of the count tensor's cells


def substream(seed, *path):
    """Deterministic generator for one tagged substream of ``seed``."""
    ss = SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return Generator(Philox(ss))


def _hash_chain(init, mult):
    """SeedSequence's hash of uint32 arrays: each call takes the next multiplier."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _mix(x, y):
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ out >> np.uint32(16)


def _doc_keys(seed, docs):
    """Philox keys of documents ``docs`` of ``seed``, one ``uint64`` pair per row:
    row ``r`` is ``SeedSequence(seed, spawn_key=(1, docs[r])).generate_state(2,
    np.uint64)``, the key of ``substream(seed, 1, docs[r])``, computed as numpy's
    SeedSequence computes it, in ``uint32`` arithmetic over all documents at once."""
    docs = np.asarray(docs, dtype=np.int64)
    bad = docs[(docs < 0) | (docs > _MASK32)]
    if bad.size:  # a larger index takes two spawn-key words: another hash
        raise DataFormatError(f"document index {int(bad[0])} lies outside [0, 2**32)")
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    # a spawn key pads the seed to the pool size, then appends its own words
    words = seed_words + [0] * (_POOL - len(seed_words)) + [_DOC_STREAM]
    entropy = [np.array([w], np.uint32) for w in words] + [docs.astype(np.uint32)]
    hashmix = _hash_chain(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hash_chain(_INIT_B, _MULT_B)
    state = [hashmix(word).astype(np.uint64) for word in pool]  # four words: the pool once
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


def _doc_streams(seed, docs):
    """The generator of ``substream(seed, 1, doc)`` for each document of ``docs`` in turn, as
    that substream starts: one Philox generator, rekeyed to each key :func:`_doc_keys` gives
    in one pass, with counter 0 and no buffered bits.  Each is valid until the next is taken."""
    bits = Philox(0)
    rng = Generator(bits)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in _doc_keys(seed, docs).tolist():
        state["state"]["key"] = key
        bits.state = state
        yield rng


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one planted instance.

    ``dims`` and ``ranks`` are ``(n1, n2, n_words)`` and ``(k1, k2,
    k_topics)``; ``doc_length`` is the multinomial draw count per document.
    ``anchor_mode="inject"`` rewrites the first ``k`` rows of each membership
    factor to unit rows and dedicates word row ``t`` to topic ``t``, so every
    cluster and topic has a pure representative.  ``word_dist="zipf"`` scales
    word row ``r`` by ``(r + 1) ** (-1 / zipf_q)`` before column
    normalization, giving power-law word frequencies; ``"uniform"`` draws
    plain uniform entries.  Field types are checked, not coerced: ``8.9`` is
    no dimension.  Ranks obey the Tucker span rule, then their dimensions, in ``fit``'s words.
    """

    dims: tuple
    ranks: tuple
    doc_length: int
    anchor_mode: str = "inject"
    dirichlet_alpha: float = 1.0
    word_dist: str = "uniform"
    zipf_q: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", _checked_triple("dims", self.dims))
        object.__setattr__(self, "ranks", _checked_triple("ranks", self.ranks))
        _check_tucker_ranks(self.ranks)
        _check_ranks(self.ranks, self.dims)
        object.__setattr__(self, "doc_length", _checked_int("doc_length", self.doc_length, 1))
        object.__setattr__(self, "seed", _checked_int("seed", self.seed, 0))
        if self.anchor_mode not in _ANCHOR_MODES:
            raise DataFormatError(f"anchor_mode must be one of {_ANCHOR_MODES}")
        if self.word_dist not in _WORD_DISTS:
            raise DataFormatError(f"word_dist must be one of {_WORD_DISTS}")
        for name in ("dirichlet_alpha", "zipf_q"):
            object.__setattr__(self, name, _checked_real(name, getattr(self, name), positive=True))


@dataclass(frozen=True)
class PlantedInstance:
    """A planted model and one multinomial realization of it, nothing derived:
    the mean tensor is ``model.mean_tensor()``, and ``y`` is made on first use."""

    model: TuckerModel
    counts: np.ndarray   # int64; every document sums to doc_length
    doc_length: int

    @cached_property
    def y(self):
        """The frequencies ``counts / doc_length``."""
        return self.counts / self.doc_length


def sample_counts(d, doc_length, seed):
    """Fresh multinomial counts for every document of a mean tensor ``d``.

    ``d`` must be an order-3 tensor of finite nonnegative entries whose every
    tube ``d[i, j, :]`` sums to one within 1e-9, ``doc_length`` a positive
    integer and ``seed`` a nonnegative integer.  Each document draws the
    bits of its own ``substream(seed, 1, doc)``, so the result depends on
    neither traversal order nor the number of threads drawing; each thread
    derives the keys of its block of documents in one pass.  Each tube is
    summed and normalized where it lies, in any layout, so no copy of ``d``
    is made; a tensor without documents gives an empty count tensor.
    """
    doc_length = _checked_int("doc_length", doc_length, 1)
    seed = _checked_int("seed", seed, 0)
    d = _data_word_sums(d)[0]
    n1, n2, _ = d.shape
    counts = np.empty(d.shape, dtype=np.int64)

    def draw(block):  # multinomial releases the GIL while it draws
        for doc, rng in zip(block.tolist(), _doc_streams(seed, block)):
            i, j = divmod(doc, n2)
            total = d[i, j].sum()  # a 1-D sum adds a tube in the same order in any layout
            if abs(total - 1.0) > 1e-9:  # the block's first bad tube ends it
                raise DataFormatError(f"tube ({i + 1}, {j + 1}) of the mean tensor sums to "
                                      f"{float(total)!r}, expected 1 within 1e-9")
            counts[i, j] = rng.multinomial(doc_length, d[i, j] / total)

    from concurrent.futures import ThreadPoolExecutor  # only this path starts threads

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(n1 * n2, cpus or 1))
    with ThreadPoolExecutor(workers) as pool:
        # results come back in block order, so the first bad tube's error is raised
        list(pool.map(draw, np.array_split(np.arange(n1 * n2), workers)))
    return counts


def _topic_weights(a1, a2, g):
    """The topic weights ``w = g x1 a1[d] x2 a2[d]`` of documents whose membership rows are
    row ``d`` of ``a1`` and of ``a2``, of shape ``(len(a1), k3)``: entry ``t`` adds
    ``(a1[d, p] * a2[d, q]) * g[p, q, t]`` over ``(p, q)`` in row-major order."""
    w = np.zeros((len(a1), g.shape[2]))
    for p, q in np.ndindex(g.shape[:2]):
        w += np.multiply.outer(a1[:, p] * a2[:, q], g[p, q])
    return w


def _block_docs(n_cells, doc_length):
    """Documents in one block drawn by tokens: its tokens number at most ``_BLOCK_TOKENS``
    and a ``_BLOCK_SHARE``-th of the count tensor's ``n_cells``, so the block's arrays stay
    small beside the counts; a block holds one document at least."""
    return max(1, min(_BLOCK_TOKENS, n_cells // _BLOCK_SHARE) // doc_length)


def _token_records(model, doc_length, seed):
    """Counts of every document drawn token by token from the factored ``model``: exactly
    ``Multinomial(doc_length, a3 w_ij)``, with nothing of the mean tensor's size formed.

    Document ``doc = i n2 + j`` takes ``2 doc_length`` uniforms of ``substream(seed, 1, doc)``.
    The first half picks each token's topic by inversion of the cumulative sums of ``w_ij``,
    the second half its word within column ``a3[:, t]``.  A uniform scales the last cumulative
    sum, below which its product stays, so no draw lands on zero mass.  Yields each block of
    documents as records: the flat indices of its cells of positive count in the
    ``(n1, n2, n_words)`` count tensor, ascending, and those counts.
    """
    n1, n2, n_words = model.dims
    docs = n1 * n2
    word_cdf = np.cumsum(model.a3, axis=0).T.copy()  # one contiguous row per topic
    rows = _block_docs(docs * n_words, doc_length)
    uniforms = np.empty((rows, 2, doc_length))
    for start in range(0, docs, rows):
        block = np.arange(start, min(start + rows, docs))
        u = uniforms[:len(block)]
        for row, rng in zip(u, _doc_streams(seed, block)):
            rng.random(out=row)
        cdf = np.cumsum(_topic_weights(model.a1[block // n2], model.a2[block % n2], model.g),
                        axis=1)
        x = u[:, 0] * cdf[:, -1:]
        topic = np.zeros(x.shape, dtype=np.intp)  # searchsorted(cdf, x, "right"), row by row
        for below in cdf[:, :-1].T:
            topic += x >= below[:, None]
        # the block's tokens by topic, then uniform: one ascending search per topic (a count
        # does not depend on the order its tokens are searched in)
        order = np.argsort((topic + 0.5 * u[:, 1]).ravel())
        topic, x = topic.ravel()[order], u[:, 1].ravel()[order]
        x *= word_cdf[topic, -1]
        cell = order // doc_length
        cell += start
        cell *= n_words
        bounds = np.searchsorted(topic, np.arange(len(word_cdf) + 1))
        for t, column in enumerate(word_cdf):
            tokens = slice(bounds[t], bounds[t + 1])
            cell[tokens] += np.searchsorted(column, x[tokens], side="right")
        cell.sort()
        starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        yield cell[starts], np.diff(starts, append=cell.size)


def _dirichlet_rows(n, k, alpha, rng):
    """``n`` draws of a symmetric Dirichlet of concentration ``alpha`` over
    ``k`` coordinates, each a row of normalized Gamma variates."""
    rows = np.empty((n, k))
    concentration = np.full(k, alpha)
    for row in rows:
        for _ in range(_DIRICHLET_TRIES):  # tiny alpha can underflow every coordinate
            draw = rng.gamma(concentration)
            if draw.sum() > 0.0:
                break
        else:
            raise DataFormatError(f"dirichlet_alpha {alpha!r} is too small: {_DIRICHLET_TRIES} "
                                  "Gamma draws of one row all underflowed to 0")
        row[:] = draw / draw.sum()
    return rows


def _planted_model(spec):
    """The planted factors of ``spec``, drawn from ``substream(spec.seed, 0)``."""
    n1, n2, n_words = spec.dims
    k1, k2, k3 = spec.ranks
    rng = substream(spec.seed, _MODEL_STREAM)
    a1 = _dirichlet_rows(n1, k1, spec.dirichlet_alpha, rng)
    a2 = _dirichlet_rows(n2, k2, spec.dirichlet_alpha, rng)
    g = _dirichlet_rows(k1 * k2, k3, spec.dirichlet_alpha, rng).reshape(k1, k2, k3)
    w = rng.uniform(size=(n_words, k3))
    if spec.word_dist == "zipf":
        w *= np.arange(1, n_words + 1, dtype=float)[:, None] ** (-1.0 / spec.zipf_q)
    if spec.anchor_mode == "inject":
        a1[:k1] = np.eye(k1)
        a2[:k2] = np.eye(k2)
        w[:k3] *= np.eye(k3)
    column_mass = w.sum(axis=0)
    if np.any(column_mass == 0.0):
        raise DataFormatError("a word column lost all mass; widen the word distribution")
    return TuckerModel(a1=a1, a2=a2, a3=w / column_mass, g=g)


def _planted_counts(spec):
    """The planted model of ``spec``, its counts as blocks of records (ascending flat cell
    indices of positive count, and those counts), and the count tensor if it was drawn whole:
    the one place that chooses how.  Documents shorter than the vocabulary are drawn token by
    token as the records are taken, with no mean tensor formed; longer ones whole by
    ``sample_counts`` from the mean tensor, whose nonzeros the records scan.  Each document's
    counts are ``Multinomial(doc_length, a3 w_ij)`` from its own ``substream(seed, 1, doc)``."""
    model = _planted_model(spec)
    if spec.doc_length < spec.dims[2]:
        return model, _token_records(model, spec.doc_length, spec.seed), None
    counts = sample_counts(model.mean_tensor(), spec.doc_length, spec.seed)
    return model, _nonzero_records(counts), counts


def generate(spec):
    """Draw a planted instance by :func:`_planted_counts`; identical specs yield identical
    bits.  Records drawn by tokens are scattered into zeros."""
    model, records, counts = _planted_counts(spec)
    if counts is None:
        counts = np.zeros(spec.dims, dtype=np.int64)
        for cells, values in records:
            counts.reshape(-1)[cells] = values
    return PlantedInstance(model=model, counts=counts, doc_length=spec.doc_length)

"""Unfolding, folding, and reconstruction against loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortopics import fold, unfold
from tensortopics.errors import DataFormatError
from tensortopics.spectral import _mode_gram
from tensortopics.tensor import reconstruct

from helpers import kept_data, planted


def _loop_unfold(t, mode):
    """Index-by-index unfolding straight from the column layout laws."""
    n1, n2, n3 = t.shape
    if mode == 1:
        out = np.empty((n1, n2 * n3))
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    out[i, j * n3 + k] = t[i, j, k]
    elif mode == 2:
        out = np.empty((n2, n1 * n3))
        for j in range(n2):
            for i in range(n1):
                for k in range(n3):
                    out[j, i * n3 + k] = t[i, j, k]
    else:
        out = np.empty((n3, n1 * n2))
        for k in range(n3):
            for i in range(n1):
                for j in range(n2):
                    out[k, i * n2 + j] = t[i, j, k]
    return out


def test_unfold_frozen_2x2x2():
    t = np.arange(1.0, 9.0).reshape(2, 2, 2)
    # row i of mode 1 lists t[i, :, :] in row-major order
    np.testing.assert_array_equal(unfold(t, 1)[0], [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(unfold(t, 1)[1], [5.0, 6.0, 7.0, 8.0])
    np.testing.assert_array_equal(unfold(t, 2)[0], [1.0, 2.0, 5.0, 6.0])
    np.testing.assert_array_equal(unfold(t, 3)[0], [1.0, 3.0, 5.0, 7.0])


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_unfold_matches_loop_oracle(mode):
    rng = np.random.default_rng(11)
    t = rng.normal(size=(4, 3, 5))
    np.testing.assert_array_equal(unfold(t, mode), _loop_unfold(t, mode))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_fold_round_trip(mode):
    rng = np.random.default_rng(12)
    t = rng.normal(size=(3, 4, 2))
    np.testing.assert_array_equal(fold(unfold(t, mode), mode, t.shape), t)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_fold_round_trip_property(n1, n2, n3, mode, seed):
    t = np.random.default_rng(seed).normal(size=(n1, n2, n3))
    np.testing.assert_array_equal(fold(unfold(t, mode), mode, t.shape), t)


def test_unfold_rejects_bad_mode_and_shape():
    t = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        unfold(t, 0)
    with pytest.raises(ValueError):
        unfold(t, 4)
    with pytest.raises(DataFormatError):
        unfold(np.zeros((2, 2)), 1)
    with pytest.raises(ValueError):
        fold(np.zeros((2, 4)), 1, (2, 2, 3))


def test_reconstruct_matches_triple_loop():
    rng = np.random.default_rng(14)
    g = rng.uniform(size=(2, 3, 2))
    a1 = rng.uniform(size=(4, 2))
    a2 = rng.uniform(size=(5, 3))
    a3 = rng.uniform(size=(6, 2))
    d = reconstruct(g, a1, a2, a3)
    oracle = np.zeros((4, 5, 6))
    for i in range(4):
        for j in range(5):
            for r in range(6):
                acc = 0.0
                for p in range(2):
                    for q in range(3):
                        for s in range(2):
                            acc += g[p, q, s] * a1[i, p] * a2[j, q] * a3[r, s]
                oracle[i, j, r] = acc
    assert np.max(np.abs(d - oracle)) <= 1e-12


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_matricization_identity(mode):
    """unfold(D, a) == A_a @ unfold(G, a) @ kron(A_b, A_c).T for each mode."""
    inst = planted((6, 5, 8), (2, 2, 3), doc_length=100, seed=3)
    m = inst.model
    factors = {1: m.a1, 2: m.a2, 3: m.a3}
    others = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
    b, c = others[mode]
    lhs = unfold(inst.model.mean_tensor(), mode)
    rhs = factors[mode] @ unfold(m.g, mode) @ np.kron(factors[b], factors[c]).T
    assert np.max(np.abs(lhs - rhs)) < 1e-12



@pytest.mark.parametrize("kept", [1, 12, 29, 30, 31, 59])
def test_mode1_gram_gathers_the_kept_words_where_fewer_are_kept_than_dropped(kept):
    """Where fewer words are kept than dropped, the mode-1 gram is the gram of the kept
    words' slabs, gathered: within 1e-12 of its largest entry of the whole gram less each
    dropped slab's gram, and of the explicit unfolding's gram.  Otherwise it is that
    subtraction, bit for bit."""
    y = np.random.default_rng(kept).uniform(size=(20, 15, 60))
    vocab = np.sort(np.random.default_rng(100 + kept).choice(60, kept, replace=False))
    dropped = np.setdiff1d(np.arange(60), vocab)
    got = kept_data(y, vocab).mode1_gram()
    subtracted = _mode_gram(y, 1, (y[:, :, word] for word in dropped))
    gathered = unfold(y[:, :, vocab], 1) @ unfold(y[:, :, vocab], 1).T
    scale = np.abs(subtracted).max()
    assert np.abs(got - subtracted).max() <= 1e-12 * scale
    assert np.abs(got - gathered).max() <= 1e-12 * scale
    np.testing.assert_array_equal(got, got.T)
    if kept >= dropped.size:
        np.testing.assert_array_equal(got, subtracted)

"""Unfolding, folding, Kronecker, and reconstruction against loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortopics import fold, kronecker, unfold
from tensortopics.errors import DataFormatError
from tensortopics.tensor import reconstruct

from helpers import planted


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


def test_kronecker_entry_law():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(2, 4))
    k = kronecker(a, b)
    assert k.shape == (6, 8)
    for i in range(3):
        for j in range(2):
            for p in range(2):
                for q in range(4):
                    assert k[i * 2 + p, j * 4 + q] == a[i, j] * b[p, q]


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
    lhs = unfold(inst.d, mode)
    rhs = factors[mode] @ unfold(m.g, mode) @ kronecker(factors[b], factors[c]).T
    assert np.max(np.abs(lhs - rhs)) < 1e-12


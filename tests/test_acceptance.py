"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS/FAIL line (visible under ``pytest -s``) and asserting its tolerance.

Budgeted runtimes are wall-clock upper bounds, generous on purpose; the
statistical checks use frozen seeds so every run sees identical numbers.
"""

import itertools
import json
import time

import numpy as np
import pytest

from tensortopics import (
    FitConfig,
    aligned_l1_loss,
    build_q,
    evaluate,
    fit,
    fold,
    leading_eigvecs,
    reconstruction_error,
    sample_counts,
    spa_vertex_hunt,
    threshold_vocab,
    unfold,
)
from tensortopics.cli import main
from tensortopics.metrics import _align_hungarian

from helpers import _align_brute, max_volume_subset, planted, toy_structured_model


def _check(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} {label}: {status} ({detail})")
    assert ok, f"criterion {number} {label}: {detail}"


def test_criterion_1_noiseless_exact_recovery():
    start = time.perf_counter()
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=500, seed=7)
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=500, sparse_c_prime=0.0)
    rep = evaluate(fit(inst.model.mean_tensor(), cfg).model, inst.model)
    elapsed = time.perf_counter() - start
    worst = max(rep.loss_a1, rep.loss_a2, rep.loss_a3, rep.loss_g)
    _check(1, "noiseless exact recovery",
           worst < 1e-8 and elapsed < 1.0,
           f"max aligned loss {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_toy_reconstruction_magnitude():
    start = time.perf_counter()
    truth = toy_structured_model()
    d = truth.mean_tensor()
    errors = []
    for t in range(20):
        counts = sample_counts(d, 100, seed=2000 + t)
        res = fit(counts / 100, FitConfig(ranks=(2, 2, 3), doc_length=100))
        errors.append(reconstruction_error(res.model, d))
    median = float(np.median(errors))
    elapsed = time.perf_counter() - start
    _check(2, "toy reconstruction magnitude",
           5.0 < median < 50.0 and elapsed < 30.0,
           f"median reconstruction error {median:.3f} over 20 draws, {elapsed:.1f}s")


def test_criterion_3_word_factor_scaling_in_doc_length():
    start = time.perf_counter()
    medians = {}
    for m in (100, 1000, 10000):
        losses = []
        for t in range(15):
            inst = planted((40, 40, 300), (2, 2, 4), doc_length=m, seed=3000 + t)
            res = fit(inst.y, FitConfig(ranks=(2, 2, 4), doc_length=m))
            losses.append(aligned_l1_loss(res.model.a3, inst.model.a3)[0])
        medians[m] = float(np.median(losses))
    slope = float(np.polyfit(np.log(list(medians)),
                             np.log(list(medians.values())), 1)[0])
    decreasing = medians[100] > medians[1000] > medians[10000]
    elapsed = time.perf_counter() - start
    _check(3, "word-factor scaling in doc length",
           decreasing and -0.6 <= slope <= -0.1 and elapsed < 300.0,
           f"medians {[round(v, 3) for v in medians.values()]}, "
           f"log-log slope {slope:.3f}, {elapsed:.1f}s")


def test_criterion_4_membership_scaling_in_mode_size():
    start = time.perf_counter()
    per_row = {}
    for n1 in (20, 40, 80):
        losses = []
        for t in range(15):
            inst = planted((n1, 40, 100), (2, 2, 3), doc_length=1000,
                           seed=4000 + t)
            res = fit(inst.y, FitConfig(ranks=(2, 2, 3), doc_length=1000))
            losses.append(aligned_l1_loss(res.model.a1, inst.model.a1)[0])
        per_row[n1] = float(np.median(losses)) / n1
    spread = max(per_row.values()) / min(per_row.values())
    elapsed = time.perf_counter() - start
    _check(4, "membership per-row error flat in mode size",
           spread <= 2.0 and elapsed < 300.0,
           f"per-row medians {[round(v, 4) for v in per_row.values()]}, "
           f"max/min {spread:.2f}, {elapsed:.1f}s")


def test_criterion_5_sparse_variant_correctness():
    start = time.perf_counter()
    sparse_losses, dense_losses = [], []
    scan_ok = zero_ok = True
    for t in range(15):
        inst = planted((40, 40, 300), (2, 2, 4), doc_length=1000, seed=5000 + t,
                       word_dist="zipf", zipf_q=0.5)
        rs = fit(inst.y, FitConfig(ranks=(2, 2, 4), doc_length=1000,
                                   sparse_c_prime=0.005))
        rd = fit(inst.y, FitConfig(ranks=(2, 2, 4), doc_length=1000,
                                   sparse_c_prime=0.0))
        tau = 0.005 * np.sqrt(np.log(300) / (40 * 40 * 1000))
        scan = np.flatnonzero(inst.y.mean(axis=(0, 1)) >= tau)
        scan_ok &= np.array_equal(rs.vocab, scan)
        scan_ok &= np.array_equal(rs.vocab,
                                  threshold_vocab(inst.y, 1000, 0.005))
        outside = np.setdiff1d(np.arange(300), rs.vocab)
        zero_ok &= bool(np.all(rs.model.a3[outside] == 0.0))
        sparse_losses.append(aligned_l1_loss(rs.model.a3, inst.model.a3)[0])
        dense_losses.append(aligned_l1_loss(rd.model.a3, inst.model.a3)[0])
    ratio = float(np.median(sparse_losses) / np.median(dense_losses))
    elapsed = time.perf_counter() - start
    _check(5, "sparse variant correctness",
           scan_ok and zero_ok and ratio <= 1.5,
           f"threshold set matches scan: {scan_ok}, excluded rows zero: "
           f"{zero_ok}, sparse/dense median ratio {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_6_power_refinement_parity():
    start = time.perf_counter()
    names = ("loss_a1", "loss_a2", "loss_a3", "loss_g")
    base = {n: [] for n in names}
    refined = {n: [] for n in names}
    for t in range(20):
        inst = planted((30, 30, 100), (2, 2, 3), doc_length=200, seed=6000 + t)
        rb = evaluate(fit(inst.y, FitConfig(ranks=(2, 2, 3),
                                            doc_length=200)).model, inst.model)
        rh = evaluate(fit(inst.y, FitConfig(ranks=(2, 2, 3), doc_length=200,
                                            use_hooi=True,
                                            hooi_iters=5)).model, inst.model)
        for n in names:
            base[n].append(getattr(rb, n))
            refined[n].append(getattr(rh, n))
    ratios = {n: float(np.median(refined[n]) / np.median(base[n]))
              for n in names}
    ok = all(np.median(refined[n]) <= 1.10 * np.median(base[n]) + 1e-9
             for n in names)
    elapsed = time.perf_counter() - start
    _check(6, "power refinement parity", ok,
           f"refined/base median ratios "
           f"{ {n: round(r, 3) for n, r in ratios.items()} }, {elapsed:.1f}s")


def test_criterion_7_invariant_suites():
    rng = np.random.default_rng(70)
    ok = True
    notes = []

    # matricization round trips and factorization identities
    inst = planted((7, 6, 9), (2, 2, 3), doc_length=40, seed=71)
    factors = {1: inst.model.a1, 2: inst.model.a2, 3: inst.model.a3}
    others = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
    worst_identity = 0.0
    for mode in (1, 2, 3):
        t = rng.normal(size=(5, 4, 6))
        ok &= bool(np.array_equal(fold(unfold(t, mode), mode, t.shape), t))
        b, c = others[mode]
        lhs = unfold(inst.model.mean_tensor(), mode)
        rhs = factors[mode] @ unfold(inst.model.g, mode) @ \
            np.kron(factors[b], factors[c]).T
        worst_identity = max(worst_identity, float(np.max(np.abs(lhs - rhs))))
    ok &= worst_identity < 1e-12
    notes.append(f"unfold identity {worst_identity:.2e}")

    # eigenvector orthonormality
    q = build_q(unfold(inst.y, 1), 1)
    xi, _ = leading_eigvecs(q, 2)
    ortho = float(np.max(np.abs(xi.T @ xi - np.eye(2))))
    ok &= ortho < 1e-10
    notes.append(f"orthonormality {ortho:.2e}")

    # stochasticity of fitted models
    noisy = planted((20, 12, 40), (2, 2, 3), doc_length=150, seed=72)
    fitted = fit(noisy.y, FitConfig(ranks=(2, 2, 3), doc_length=150)).model
    fitted.validate()
    notes.append("fitted model stochastic")

    # SPA vs exhaustive max-volume on ideal simplices
    spa_ok = True
    for k in (2, 3, 4):
        vertices = rng.normal(size=(k, max(k - 1, 2))) * 2.0
        weights = rng.dirichlet(np.ones(k), size=56)
        cloud = np.vstack([vertices, weights @ vertices])
        hunt = spa_vertex_hunt(cloud, k)
        oracle = max_volume_subset(cloud, k)
        spa_ok &= sorted(hunt.indices.tolist()) == sorted(oracle.tolist())
    ok &= spa_ok
    notes.append(f"vertex hunt matches exhaustive oracle: {spa_ok}")

    # brute-force alignment equals Hungarian
    align_ok = True
    for k in (2, 4, 6, 8):
        cost = rng.uniform(size=(k, k))
        lb, pb = _align_brute(cost)
        lh, ph = _align_hungarian(cost)
        align_ok &= abs(lb - lh) < 1e-12 and tuple(pb) == tuple(ph)
    ok &= align_ok
    notes.append(f"brute alignment equals Hungarian: {align_ok}")

    _check(7, "invariant suites", ok, "; ".join(notes))


def test_criterion_8_determinism(tmp_path):
    spec = {"dims": [15, 8, 30], "ranks": [2, 2, 3], "doc_length": 100,
            "seed": 17}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    for name in ("a", "b"):
        assert main(["generate", "--spec", str(spec_path),
                     "--out", str(tmp_path / name)]) == 0
        assert main(["fit", "--data", str(tmp_path / f"{name}.counts.txt"),
                     "--ranks", "2,2,3",
                     "--out", str(tmp_path / f"{name}F")]) == 0
    byte_ok = True
    for suffix in ("counts.txt", "truth.json"):
        byte_ok &= (tmp_path / f"a.{suffix}").read_bytes() == \
            (tmp_path / f"b.{suffix}").read_bytes()
    for suffix in ("model.json", "diagnostics.json"):
        byte_ok &= (tmp_path / f"aF.{suffix}").read_bytes() == \
            (tmp_path / f"bF.{suffix}").read_bytes()

    inst = planted((15, 8, 30), (2, 2, 3), doc_length=100, seed=17)
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=100)
    first, second = fit(inst.y, cfg), fit(inst.y, cfg)
    lib_ok = all(np.array_equal(getattr(first.model, f), getattr(second.model, f))
                 for f in ("a1", "a2", "a3", "g"))
    _check(8, "determinism", byte_ok and lib_ok,
           f"CLI outputs byte-identical: {byte_ok}, "
           f"library refit bit-identical: {lib_ok}")

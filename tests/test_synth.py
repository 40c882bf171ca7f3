"""Generator distribution checks: Dirichlet/multinomial statistics, anchors,
seeded determinism, and plain-CLT agreement between counts and means."""

import concurrent.futures
import os
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from tensortopics import GenSpec, generate, sample_counts, synth
from tensortopics.errors import DataFormatError
from tensortopics.estimator import TuckerModel
from tensortopics.synth import PlantedInstance, _dirichlet_rows, _token_records, substream

from helpers import (TOKEN_SPECS, layouts, planted, run_python, sample_counts_reference, spec_id,
                     token_counts_reference, traced_peak)


def test_dirichlet_mean_matches_theory():
    rng = np.random.default_rng(100)
    alpha, k = 0.5, 3
    draws = _dirichlet_rows(50_000, k, alpha, rng)
    np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)
    mean = 1.0 / k
    # symmetric-Dirichlet marginals are Beta(a, (k - 1) a); 3 standard errors
    var = mean * (1 - mean) / (k * alpha + 1)
    se = np.sqrt(var / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se + 1e-4)


def test_dirichlet_length_one():
    rng = np.random.default_rng(101)
    np.testing.assert_array_equal(_dirichlet_rows(4, 1, 3.7, rng), np.ones((4, 1)))


def test_dirichlet_tiny_alpha_redraws_underflowed_rows():
    """At alpha 1e-3 both Gamma variates of a row often underflow to zero;
    such a row is drawn again instead of becoming 0 / 0."""
    rows = _dirichlet_rows(200, 2, 1e-3, np.random.default_rng(105))
    assert np.isfinite(rows).all()
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_dirichlet_gives_up_on_a_row_after_a_thousand_underflowed_draws():
    class Underflowing:
        draws = 0

        def gamma(self, shape):
            self.draws += 1
            return np.zeros_like(shape)

    rng = Underflowing()
    with pytest.raises(DataFormatError, match=r"dirichlet_alpha 1e-20 is too small: 1000 Gamma"):
        _dirichlet_rows(3, 2, 1e-20, rng)
    assert rng.draws == 1000


def test_generate_refuses_an_alpha_that_underflows_every_row():
    """Every Gamma draw of a row underflows at alpha 1e-20: generate raises
    within seconds instead of drawing for ever."""
    code = ("from tensortopics import GenSpec, DataFormatError, generate\n"
            "try:\n"
            "    generate(GenSpec(dims=(3, 3, 4), ranks=(2, 2, 2), doc_length=10,\n"
            "                     dirichlet_alpha=1e-20))\n"
            "except DataFormatError as err:\n"
            "    print(err)\n")
    out = run_python("-c", code, timeout=30)
    assert out.returncode == 0
    assert out.stdout.startswith("dirichlet_alpha 1e-20 is too small")


def _tubes(p, n1=2, n2=2):
    return np.broadcast_to(np.asarray(p, dtype=float), (n1, n2, len(p))).copy()


def test_multinomial_zero_draws_and_one_hot():
    with pytest.raises(DataFormatError, match="doc_length must be a positive integer"):
        sample_counts(_tubes([0.3, 0.7]), 0, seed=102)
    out = sample_counts(_tubes([0.0, 1.0, 0.0]), 9, seed=102)
    np.testing.assert_array_equal(out, _tubes([0, 9, 0]))


def test_multinomial_goodness_of_fit():
    p = np.array([0.2, 0.3, 0.5])
    m = 50
    total = sample_counts(_tubes(p, 100, 100), m, seed=103).sum(axis=(0, 1))
    expected = 10_000 * m * p
    chi2 = float(((total - expected) ** 2 / expected).sum())
    # conservative: cell totals are sums of multinomials, df = 2
    assert chi2 < stats.chi2.isf(1e-4, df=2)


def test_multinomial_validation():
    off = _tubes([0.5, 0.5])
    off[1, 0] = [0.4, 0.4]
    off[1, 1] = [0.7, 0.7]
    for d, doc_length, message in [
        (_tubes([1.5, -0.5]), 5, "negative"),
        (off, 5, r"tube \(2, 1\) .* sums to 0\.8"),
        (_tubes([np.nan, 1.0]), 5, "non-finite"),
        (np.array([0.5, 0.5]), 5, "order-3"),
        (_tubes([1.0]), -1, "doc_length must be a positive integer"),
        (_tubes([1.0]), 2.5, "doc_length must be a positive integer"),
    ]:
        with pytest.raises(DataFormatError, match=message):
            sample_counts(d, doc_length, seed=104)
    with pytest.raises(DataFormatError, match="seed must be a nonnegative integer"):
        sample_counts(_tubes([1.0]), 5, seed=104.5)


def test_spec_validation():
    # ranks (1, 2, 2) obey the Tucker rank rule, so each row fails for its own field
    with pytest.raises(DataFormatError, match="dims must be"):
        GenSpec(dims=(0, 3, 4), ranks=(1, 2, 2), doc_length=10)
    with pytest.raises(DataFormatError, match="^mode 1 rank 5 exceeds dimension 4$"):
        GenSpec(dims=(4, 3, 4), ranks=(5, 3, 2), doc_length=10)
    with pytest.raises(DataFormatError, match="doc_length"):
        GenSpec(dims=(4, 3, 4), ranks=(1, 2, 2), doc_length=0)
    with pytest.raises(DataFormatError, match="dirichlet_alpha"):
        GenSpec(dims=(4, 3, 4), ranks=(1, 2, 2), doc_length=10, dirichlet_alpha=0.0)
    with pytest.raises(DataFormatError, match="word_dist"):
        GenSpec(dims=(4, 3, 4), ranks=(1, 2, 2), doc_length=10, word_dist="zipfian")
    with pytest.raises(DataFormatError, match="anchor_mode"):
        GenSpec(dims=(4, 3, 4), ranks=(1, 2, 2), doc_length=10, anchor_mode="maybe")


@pytest.mark.parametrize("ranks,message", [
    ((5, 2, 2), "mode 1 rank 5 exceeds the projected span 4"),
    ((2, 2, 5), "mode 3 rank 5 exceeds the projected span 4"),
    ((1, 1, 2), "mode 3 rank 2 exceeds the projected span 1"),
])
def test_spec_rejects_ranks_beyond_projected_span(ranks, message):
    with pytest.raises(DataFormatError, match=message):
        GenSpec(dims=(8, 6, 20), ranks=ranks, doc_length=30)


def test_model_constraints_and_anchors():
    inst = planted((12, 8, 30), (3, 2, 4), doc_length=40, seed=9)
    m = inst.model
    m.validate()
    np.testing.assert_array_equal(m.a1[:3], np.eye(3))
    np.testing.assert_array_equal(m.a2[:2], np.eye(2))
    # anchor words: first k3 rows of a3 are single-topic
    for k in range(4):
        row = m.a3[k]
        assert row[k] > 0
        assert np.all(row[np.arange(4) != k] == 0.0)


def test_anchor_mode_none_leaves_rows_mixed():
    inst = planted((12, 8, 30), (3, 2, 4), doc_length=40, seed=9,
                   anchor_mode="none")
    assert not np.allclose(inst.model.a1[:3], np.eye(3))
    assert np.all(inst.model.a3[:4] > 0)


def test_counts_per_document_sum_to_doc_length():
    inst = planted((6, 5, 20), (2, 2, 2), doc_length=37, seed=1)
    np.testing.assert_array_equal(inst.counts.sum(axis=2), 37)
    np.testing.assert_allclose(inst.y, inst.counts / 37)


def test_instance_keeps_its_model_and_counts_only():
    """The frequencies are derived from the counts on first use, with the
    bits of ``counts / doc_length``, and kept."""
    assert [f.name for f in fields(PlantedInstance)] == ["model", "counts", "doc_length"]
    inst = planted((6, 5, 20), (2, 2, 2), doc_length=37, seed=1)
    assert inst.doc_length == 37
    assert inst.y is inst.y
    np.testing.assert_array_equal(inst.y, inst.counts / 37)


def test_generate_keeps_no_derived_tensor():
    """Where documents are as long as the vocabulary, generate draws from the
    mean tensor, and holds it and the counts, and nothing else of their size."""
    dims = (40, 30, 500)
    peak = traced_peak(generate, GenSpec(dims=dims, ranks=(2, 2, 3), doc_length=500, seed=3))[1]
    assert peak < 2.25 * np.prod(dims) * 8


def test_token_path_holds_no_tensor_but_the_counts():
    """Documents shorter than the vocabulary are drawn token by token, with no
    mean tensor: generate peaks within a quarter of the counts above them
    (1.20 times them here)."""
    inst, peak = traced_peak(generate, GenSpec(dims=(40, 30, 500), ranks=(2, 2, 3),
                                               doc_length=50, seed=3))
    assert peak < 1.25 * inst.counts.nbytes


@pytest.mark.parametrize("spec", TOKEN_SPECS, ids=spec_id)
def test_token_path_equals_the_serial_reference(monkeypatch, spec):
    """Blocks of documents draw the bits of the serial token loop, for blocks of
    every size: the default, a few documents with a ragged last block, and one
    document each."""
    inst = generate(GenSpec(**spec, seed=4))
    reference = token_counts_reference(inst.model, spec["doc_length"], 4)
    np.testing.assert_array_equal(inst.counts, reference)
    np.testing.assert_array_equal(inst.counts.sum(axis=2), spec["doc_length"])
    for rows in (4, 1):
        monkeypatch.setattr(synth, "_block_docs", lambda n_cells, doc_length: rows)
        np.testing.assert_array_equal(generate(GenSpec(**spec, seed=4)).counts, reference)


def test_token_path_goodness_of_fit_on_word_totals():
    """The word totals of a token-drawn corpus fit the mean tensor's."""
    inst = planted((40, 40, 50), (2, 2, 3), doc_length=30, seed=106)
    expected = 30 * inst.model.mean_tensor().sum(axis=(0, 1))
    total = inst.counts.sum(axis=(0, 1))
    chi2 = float(((total - expected) ** 2 / expected).sum())
    # conservative: word totals are sums of multinomials, df = n_words - 1
    assert chi2 < stats.chi2.isf(1e-4, df=49)


def test_token_path_never_counts_a_cell_of_zero_mean():
    """Injected anchors zero every anchor word outside its topic, and at alpha
    1e-3 core entries underflow to exactly zero: no count lands on a cell whose
    mean is exactly zero."""
    inst = planted((8, 8, 60), (3, 3, 4), doc_length=50, seed=7, dirichlet_alpha=1e-3)
    zero = inst.model.mean_tensor() == 0.0
    assert (inst.model.g == 0.0).any() and zero.any()
    assert not inst.counts[zero].any()


@pytest.mark.parametrize("u, word", [(np.nextafter(1.0, 0.0), 9), (0.0, 2)],
                         ids=["top", "bottom"])
def test_token_draw_at_the_end_of_a_cdf_lands_on_positive_mass(monkeypatch, u, word):
    """The largest uniform below 1 picks the last topic and word of positive
    mass, and a uniform of zero the first.  Topic 1's words add up to
    ``0.9999999999999999``, which that uniform equals, and zero-mass words
    follow them: searching the unscaled uniform would pick word 10."""

    class Constant(synth.Generator):
        def random(self, size=None, dtype=np.float64, out=None):
            out[...] = u
            return out

    monkeypatch.setattr(synth, "Generator", Constant)
    a3 = np.zeros((12, 3))
    a3[2:, 0] = a3[:10, 1] = 0.1
    a3[:, 2] = 1 / 12
    model = TuckerModel(a1=[[1.0]], a2=[[1.0], [1.0]], a3=a3, g=[[[0.4, 0.6, 0.0]]])
    expected = np.zeros((1, 2, 12), dtype=np.int64)
    expected[:, :, word] = 3
    counts = np.zeros(expected.shape, dtype=np.int64)
    for cells, values in _token_records(model, 3, seed=0):
        counts.reshape(-1)[cells] = values
    np.testing.assert_array_equal(counts, expected)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_generate_draws_tokens_only_below_the_vocabulary_size(offset):
    """Documents shorter than the vocabulary are drawn token by token; as long or
    longer, from the mean tensor by ``sample_counts``."""
    spec = GenSpec(dims=(4, 3, 12), ranks=(2, 2, 2), doc_length=12 + offset, seed=8)
    inst = generate(spec)
    if offset < 0:
        reference = token_counts_reference(inst.model, spec.doc_length, 8)
    else:
        reference = sample_counts(inst.model.mean_tensor(), spec.doc_length, 8)
    np.testing.assert_array_equal(inst.counts, reference)


def test_token_drawn_document_regenerates_alone():
    """A token-drawn document takes its uniforms from its own substream only."""
    inst = planted((5, 4, 30), (2, 2, 3), doc_length=20, seed=78)
    for i, j in [(4, 3), (0, 0), (2, 1)]:
        doc = token_counts_reference(inst.model, 20, 78, docs=[i * 4 + j])
        np.testing.assert_array_equal(doc[i, j], inst.counts[i, j])
        assert doc.sum() == 20


def test_generate_deterministic():
    spec = GenSpec(dims=(6, 5, 20), ranks=(2, 2, 2), doc_length=37, seed=123)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.model.a3, b.model.a3)
    np.testing.assert_array_equal(a.model.mean_tensor(), b.model.mean_tensor())


def test_documents_use_independent_substreams():
    """Each document owns a seed-derived stream, so any single document's
    counts can be regenerated in isolation, in any order."""
    inst = planted((4, 3, 10), (2, 2, 2), doc_length=25, seed=77)
    d = inst.model.mean_tensor()
    redone = sample_counts(d, 25, seed=77)
    np.testing.assert_array_equal(redone, inst.counts)
    for i, j in [(3, 2), (0, 0), (2, 1)]:
        rng = substream(77, 1, i * 3 + j)
        doc = rng.multinomial(25, d[i, j])
        np.testing.assert_array_equal(doc, inst.counts[i, j])


def _mean_tensor(dims, seed):
    d = np.random.default_rng(seed).uniform(size=dims)
    return d / d.sum(axis=2, keepdims=True)


# a single row; fewer documents than CPUs (one, and two of three); a document
# count that neither 2 nor 3 divides (35); the corpus-dense-hooi dims at doc
# length 20
_SAMPLER_SHAPES = [(1, 5, 30), (1, 1, 7), (1, 2, 12), (5, 7, 11), (200, 150, 400)]


@pytest.mark.parametrize("dims", _SAMPLER_SHAPES, ids=lambda dims: "x".join(map(str, dims)))
def test_threaded_sampler_equals_the_serial_loop(monkeypatch, dims):
    """Each document keeps its substream, so neither the number of threads
    nor their order changes a bit: the usable CPUs, then 1 and 3 reported."""
    d = _mean_tensor(dims, seed=sum(dims))
    reference = sample_counts_reference(d, 20, 9)
    np.testing.assert_array_equal(sample_counts(d, 20, 9), reference)
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        np.testing.assert_array_equal(sample_counts(d, 20, 9), reference)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("dims", [(1, 5, 30), (5, 7, 11), (20, 15, 400)],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_threaded_sampler_reads_every_layout(monkeypatch, dims, layout):
    """Each tube is summed and normalized where it lies, so a Fortran-ordered
    or strided mean tensor draws the bits of the serial loop over its C-ordered
    copy, on any number of threads."""
    d = layouts(_mean_tensor(dims, seed=sum(dims)))[layout]
    reference = sample_counts_reference(d, 20, 9)
    np.testing.assert_array_equal(sample_counts(d, 20, 9), reference)
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        np.testing.assert_array_equal(sample_counts(d, 20, 9), reference)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_sampler_makes_no_copy_of_the_mean_tensor(layout):
    d = layouts(_mean_tensor((40, 30, 500), seed=12))[layout]
    peak = traced_peak(sample_counts, d, 50, 4)[1]
    assert peak < 1.25 * d.nbytes


@pytest.mark.parametrize("dims", [(0, 3, 5), (2, 0, 5), (0, 0, 0)])
def test_sampler_on_no_documents_returns_empty_counts(dims):
    counts = sample_counts(np.zeros(dims), 10, 1)
    assert counts.shape == dims and counts.dtype == np.int64


def test_sampler_names_the_first_bad_tube_in_document_order(monkeypatch):
    """Blocks run at once, yet the error names the first bad tube of all,
    not the first one a thread happens to reach."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    d = _mean_tensor((3, 10, 6), seed=2)
    d[2, 9] *= 3.0
    d[1, 2] *= 0.5
    d[0, 8] *= 2.0
    with pytest.raises(DataFormatError, match=r"tube \(1, 9\) .* sums to 1\.99"):
        sample_counts(d, 10, 0)


def test_threaded_sampler_under_frequent_thread_switches(monkeypatch):
    """More threads than cores, switching every microsecond, still write
    each document's own slice only."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    d = _mean_tensor((13, 11, 17), seed=41)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = sample_counts(d, 50, 3)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(counts, sample_counts_reference(d, 50, 3))


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
@pytest.mark.parametrize("docs, cpus", [(35, 3), (35, 2), (2, 3), (1, 1)])
def test_sampler_gives_each_thread_one_contiguous_block(monkeypatch, docs, cpus, affinity):
    """One thread per usable CPU, counted by ``os.cpu_count`` where the
    affinity call is missing, and never more threads than documents."""
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def map(self, fn, blocks):
            pools.append((self._max_workers, list(blocks)))
            return super().map(fn, pools[-1][1])

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    d = _mean_tensor((1, docs, 6), seed=docs)
    np.testing.assert_array_equal(sample_counts(d, 30, 5), sample_counts_reference(d, 30, 5))
    (workers, blocks), = pools
    assert workers == len(blocks) == min(docs, cpus)
    assert [int(doc) for block in blocks for doc in block] == list(range(docs))
    assert max(map(len, blocks)) - min(map(len, blocks)) <= 1


def test_worker_exception_reaches_the_caller(monkeypatch):
    """A failure inside one thread comes back as the same exception object,
    and the call returns instead of hanging."""
    failure = RuntimeError("document 17 failed")
    key_17 = substream(0, 1, 17).bit_generator.state["state"]["key"]

    class FailingGenerator(synth.Generator):
        def multinomial(self, n, pvals):
            if np.array_equal(self.bit_generator.state["state"]["key"], key_17):
                raise failure
            return super().multinomial(n, pvals)

    monkeypatch.setattr(synth, "Generator", FailingGenerator)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    raised = []

    def call():
        try:
            sample_counts(_mean_tensor((6, 5, 8), seed=3), 10, 0)
        except RuntimeError as err:
            raised.append(err)

    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert len(raised) == 1 and raised[0] is failure


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7])
def test_document_keys_are_the_substream_keys(seed):
    """The vectorized key of each document is the key its own SeedSequence
    generates, for one- and two-word seeds and for a seed longer than the
    four-word pool."""
    docs = np.array([0, 1, 2**16, 2**32 - 1])
    expected = [np.random.SeedSequence(seed, spawn_key=(1, int(doc))).generate_state(2, np.uint64)
                for doc in docs]
    np.testing.assert_array_equal(synth._doc_keys(seed, docs), expected)


@pytest.mark.parametrize("doc", [2**32, 2**40, -1])
def test_document_key_outside_one_word_is_refused(doc):
    with pytest.raises(DataFormatError, match=f"document index {doc} lies outside"):
        synth._doc_keys(3, np.array([0, doc]))


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 5])
def test_each_document_stream_draws_what_its_substream_draws(seed):
    """``_doc_streams`` rekeys its one generator to each document of a shuffled block in turn:
    every generator it yields draws what that document's own ``substream`` draws, though the
    document before left buffered bits behind (one odd ``uint32`` draw each)."""
    docs = np.random.default_rng(3).permutation(np.arange(40, 60))
    drawn = 0
    for doc, rng in zip(docs.tolist(), synth._doc_streams(seed, docs)):
        own = substream(seed, 1, doc)
        for draw in (lambda g: g.random(3), lambda g: g.multinomial(40, [0.5, 0.3, 0.2]),
                     lambda g: g.integers(1000, size=3, dtype=np.uint32)):
            np.testing.assert_array_equal(draw(rng), draw(own))
        drawn += 1
    assert drawn == docs.size


def test_shared_generator_carries_no_state_between_documents(monkeypatch):
    """Documents that share one rekeyed generator draw as if each had its own:
    long documents in the BTPE regime (n p > 30), with one-hot tubes and
    tubes of zero entries among them.  Each of the two blocks builds one
    Philox only."""
    built = []
    real_philox = synth.Philox

    def counting_philox(*args, **kwargs):
        built.append(args)
        return real_philox(*args, **kwargs)

    monkeypatch.setattr(synth, "Philox", counting_philox)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    d = _mean_tensor((4, 5, 7), seed=11)
    d[0, 1] = 0.0
    d[0, 1, 3] = 1.0
    d[2, :, :] = 0.0
    d[2, :, 0] = 1.0
    d[3, 4, :] = [0.0, 0.5, 0.0, 0.25, 0.0, 0.25, 0.0]
    counts = sample_counts(d, 5000, 8)
    assert len(built) == 2
    np.testing.assert_array_equal(counts, sample_counts_reference(d, 5000, 8))
    np.testing.assert_array_equal(counts[2, :, 0], 5000)


def test_counts_clt_agreement_with_mean_tensor():
    """Across 200 reseeded count draws the empirical mean tensor stays within
    4 binomial standard errors of D for at least 99% of entries."""
    inst = planted((4, 3, 20), (2, 2, 2), doc_length=50, seed=5)
    trials = 200
    d = inst.model.mean_tensor()
    acc = np.zeros_like(d)
    for t in range(trials):
        acc += sample_counts(d, 50, seed=1000 + t)
    freq = acc / (trials * 50)
    se = np.sqrt(d * (1 - d) / (trials * 50))
    ok = np.abs(freq - d) <= 4 * se + 1e-12
    assert ok.mean() >= 0.99


def test_zipf_word_distribution_is_head_heavy():
    flat = planted((6, 5, 200), (2, 2, 3), doc_length=30, seed=2)
    zipf = planted((6, 5, 200), (2, 2, 3), doc_length=30, seed=2,
                   word_dist="zipf", zipf_q=0.5)
    def head_tail_ratio(a3):
        mass = a3.sum(axis=1)
        return mass[:20].sum() / mass[-20:].sum()
    assert head_tail_ratio(zipf.model.a3) > 2 * head_tail_ratio(flat.model.a3)


def test_a_word_column_that_loses_all_mass_is_refused():
    """At ``zipf_q`` 0.001 the Zipf weight of every word past the second underflows to 0, and
    the injected anchors leave the third topic only the third word: its column has no mass."""
    spec = GenSpec(dims=(8, 6, 20), ranks=(2, 2, 3), doc_length=30, word_dist="zipf",
                   zipf_q=0.001, seed=1)
    with pytest.raises(DataFormatError, match="^a word column lost all mass; widen the word "
                                              "distribution$"):
        generate(spec)

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gls_adapt import losses
from gls_adapt.distributions import Categorical
from gls_adapt.errors import InvalidValue, ShapeMismatch
from gls_adapt.estimator import WeightVector
from gls_adapt.losses import (
    cross_entropy_loss,
    median_heuristic_bandwidths,
    weighted_classification_loss,
    weighted_da_loss,
    weighted_mmd_loss,
    weighted_mmd_loss_grads,
)
from gls_adapt.network import outer_map

from _oracles import mmd_double_loop, mmd_loss_grads_fresh, pooled_median_bandwidths, rbf_kernel

LN2 = math.log(2.0)


def ones_w(k):
    return WeightVector(np.ones(k))


class TestWeightedDaLoss:
    def test_constant_half_outputs(self):
        n = 8
        d = np.full(n, 0.5)
        labels = np.zeros(n, dtype=int)
        assert weighted_da_loss(d, labels, d, ones_w(2)) == pytest.approx(2 * LN2, abs=1e-12)

    def test_single_sample_weight_two(self):
        val = weighted_da_loss([0.5], [1], [0.5], WeightVector(np.array([1.0, 2.0])))
        assert val == pytest.approx(3 * LN2, abs=1e-12)

    def test_equals_base_formula_with_unit_weights(self):
        # independent evaluation of the unweighted adversarial loss
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 30))
            ds = rng.uniform(0.01, 0.99, size=n)
            dt = rng.uniform(0.01, 0.99, size=n)
            labels = rng.integers(0, 3, size=n)
            base = -(np.sum(np.log(ds)) + np.sum(np.log(1 - dt))) / n
            got = weighted_da_loss(ds, labels, dt, ones_w(3))
            assert abs(got - base) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidValue, match=r"d_src must lie strictly inside \(0, 1\)"):
            weighted_da_loss([1.0], [0], [0.5], ones_w(2))
        with pytest.raises(InvalidValue, match=r"d_tgt must lie strictly inside \(0, 1\)"):
            weighted_da_loss([0.5], [0], [0.0], ones_w(2))

    def test_batch_size_mismatch(self):
        with pytest.raises(ShapeMismatch, match="paired batches of sizes 2 and 1"):
            weighted_da_loss([0.5, 0.5], [0, 1], [0.5], ones_w(2))


class TestWeightedClassificationLoss:
    def test_uniform_source_equals_plain_ce(self):
        rng = np.random.default_rng(1)
        preds = rng.dirichlet(np.ones(4), size=20)
        labels = rng.integers(0, 4, size=20)
        p_uniform = Categorical(np.full(4, 0.25))
        a = weighted_classification_loss(preds, labels, p_uniform)
        b = cross_entropy_loss(preds, labels)
        assert abs(a - b) <= 1e-12

    def test_perfect_predictions_are_near_zero(self):
        labels = np.array([0, 1, 2])
        preds = np.eye(3)[labels]
        p_s = Categorical(np.array([0.5, 0.25, 0.25]))
        assert weighted_classification_loss(preds, labels, p_s) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        p_s = Categorical(np.array([0.8, 0.2]))
        preds = np.array([[0.5, 0.5]])
        val = weighted_classification_loss(preds, [1], p_s)
        assert val == pytest.approx(2.5 * LN2, abs=1e-12)

    def test_ratio_weight_variant(self):
        p_s = Categorical(np.array([0.8, 0.2]))
        w = WeightVector(np.array([1.0, 3.0]))
        preds = np.array([[0.5, 0.5]])
        val = weighted_classification_loss(preds, [1], p_s, w)
        assert val == pytest.approx(3.0 * 2.5 * LN2, abs=1e-12)

    def test_zero_source_class(self):
        p_s = Categorical(np.array([1.0, 0.0]))
        with pytest.raises(InvalidValue, match="source label distribution has a zero entry"):
            weighted_classification_loss(np.array([[0.5, 0.5]]), [0], p_s)


class TestCdanFeatureMap:
    """The CDAN discriminator input, :func:`gls_adapt.network.outer_map`."""

    def test_one_hot_selects_block(self):
        got = outer_map(np.array([[1.0, 0.0]]), np.array([[3.0, 7.0]]))
        assert np.allclose(got, [[3.0, 7.0, 0.0, 0.0]])

    def test_hand_outer_product(self):
        got = outer_map(np.array([[0.5, 0.5]]), np.array([[2.0, 0.0]]))
        assert np.allclose(got, [[1.0, 0.0, 1.0, 0.0]])

    def test_norm_identity(self):
        rng = np.random.default_rng(2)
        preds = rng.dirichlet(np.ones(3), size=10)
        feats = rng.normal(size=(10, 5))
        out = outer_map(preds, feats)
        norms = np.linalg.norm(out, axis=1)
        expected = np.linalg.norm(preds, axis=1) * np.linalg.norm(feats, axis=1)
        assert np.allclose(norms, expected, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            outer_map(np.ones((3, 2)) / 2, np.ones((4, 5)))


class TestWeightedMmdLoss:
    def test_identical_batches_unit_weights(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(10, 4))
        labels = rng.integers(0, 2, size=10)
        val = weighted_mmd_loss(feats, labels, feats, ones_w(2), [1.0])
        assert abs(val) < 1e-10

    def test_single_pair_closed_form(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 0.0]])
        bw = 2.0
        c = math.exp(-1.0 / bw)
        val = weighted_mmd_loss(a, [0], b, ones_w(2), [bw])
        assert val == pytest.approx(2 * c - 2, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = int(rng.integers(2, 17))
            fs = rng.normal(size=(s, 3))
            ft = rng.normal(size=(s, 3))
            labels = rng.integers(0, 3, size=s)
            w = WeightVector(rng.uniform(0.2, 2.5, size=3))
            bw = [0.5, 2.0]
            got = weighted_mmd_loss(fs, labels, ft, w, bw)
            want = mmd_double_loop(fs, labels, ft, w.w, bw)
            assert abs(got - want) < 1e-10

    def test_weight_change_touches_only_that_class(self):
        rng = np.random.default_rng(5)
        s = 12
        fs = rng.normal(size=(s, 3))
        ft = rng.normal(size=(s, 3))
        labels = rng.integers(0, 3, size=s)
        bw = [1.0]
        w1 = np.array([1.0, 1.0, 1.0])
        w2 = np.array([2.0, 1.0, 1.0])
        delta_fast = weighted_mmd_loss(fs, labels, ft, WeightVector(w2), bw) - weighted_mmd_loss(
            fs, labels, ft, WeightVector(w1), bw
        )
        delta_oracle = mmd_double_loop(fs, labels, ft, w2, bw) - mmd_double_loop(
            fs, labels, ft, w1, bw
        )
        assert abs(delta_fast - delta_oracle) < 1e-10
        # terms not touching class 0 cancel in the difference: recompute the
        # difference with only class-0 interactions and compare
        mask0 = labels == 0
        manual = 0.0
        for i in range(s):
            for j in range(s):
                dw = w2[labels[i]] * w2[labels[j]] - w1[labels[i]] * w1[labels[j]]
                if dw != 0.0:
                    d2 = float(np.sum((fs[i] - fs[j]) ** 2))
                    manual -= dw * math.exp(-d2)
        for i in range(s):
            if mask0[i]:
                for j in range(s):
                    d2 = float(np.sum((fs[i] - ft[j]) ** 2))
                    manual += 2.0 * (w2[0] - w1[0]) * math.exp(-d2)
        manual /= s * s
        assert abs(delta_fast - manual) < 1e-10

    def test_batch_size_mismatch(self):
        with pytest.raises(ShapeMismatch, match="paired batches of sizes 3 and 4"):
            weighted_mmd_loss(np.zeros((3, 2)), [0, 1, 0], np.zeros((4, 2)), ones_w(2), [1.0])


def kernel_batch(rng, s, dim=32, k=3):
    """A paired batch of tanh features, as a training step gives the kernel loss."""
    fs = np.tanh(rng.normal(size=(s, dim)))
    ft = np.tanh(rng.normal(size=(s, dim)) + 0.3)
    return fs, rng.integers(0, k, size=s), ft, WeightVector(rng.uniform(0.2, 3.0, size=k))


def assert_same_bits(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.tobytes() == b.tobytes()


class TestMmdScratch:
    """The loss reuses one scratch per thread and batch size; results must not notice."""

    def test_interleaved_batch_sizes_match_fresh_arrays(self):
        rng = np.random.default_rng(20)
        batches = [kernel_batch(rng, s) for s in (128, 37, 128, 37, 37, 128)]
        kept = []
        for fs, ys, ft, w in batches:
            got = weighted_mmd_loss_grads(fs, ys, ft, w)
            assert_same_bits(got, mmd_loss_grads_fresh(fs, ys, ft, w.w))
            kept.append((got, (got[0], got[1].copy(), got[2].copy())))
        # later calls, at either size, leave earlier results untouched
        for got, copy in kept:
            assert_same_bits(got, copy)

    def test_given_bandwidths_match_fresh_arrays(self):
        rng = np.random.default_rng(21)
        for s, bws in ((5, [0.3]), (64, [0.5, 1.0, 2.0]), (5, [2.0, 0.7])):
            fs, ys, ft, w = kernel_batch(rng, s, dim=4)
            assert_same_bits(weighted_mmd_loss_grads(fs, ys, ft, w, bws), mmd_loss_grads_fresh(fs, ys, ft, w.w, bws))

    def test_each_thread_has_its_own_scratch(self):
        rng = np.random.default_rng(22)
        batches = [kernel_batch(rng, 96) for _ in range(2)]
        want = [mmd_loss_grads_fresh(fs, ys, ft, w.w) for fs, ys, ft, w in batches]
        weighted_mmd_loss_grads(*batches[0])
        main_scratch = losses._scratch.get(96)
        seen, errors = [], []

        def worker(i):
            try:
                for _ in range(20):
                    assert_same_bits(weighted_mmd_loss_grads(*batches[i]), want[i])
                seen.append(losses._scratch.get(96))
            except AssertionError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(seen) == 2
        assert len({id(main_scratch), *map(id, seen)}) == 3
        assert losses._scratch.get(96) is main_scratch

    def test_warm_call_allocates_under_512_kib(self):
        # the s x s blocks (4 stacks of 3 x 128 x 128 floats) and the pair
        # buffer come from the scratch; fresh arrays needed 2 MiB per call
        fs, ys, ft, w = kernel_batch(np.random.default_rng(23), 128)
        weighted_mmd_loss_grads(fs, ys, ft, w)
        tracemalloc.start()
        try:
            weighted_mmd_loss_grads(fs, ys, ft, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestKernelHelpers:
    def test_rbf_kernel_diag_is_bandwidth_count(self):
        x = np.random.default_rng(6).normal(size=(5, 3))
        k = rbf_kernel(x, x, [0.5, 1.0, 2.0])
        assert np.allclose(np.diag(k), 3.0)

    def test_median_heuristic_scales(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(20, 2))
        b = rng.normal(size=(20, 2)) + 1.0
        bws = median_heuristic_bandwidths(a, b)
        assert len(bws) == 3
        assert bws[1] == pytest.approx(2 * bws[0])
        assert bws[2] == pytest.approx(4 * bws[0])
        pooled = np.vstack([a, b])
        d2 = []
        for i in range(pooled.shape[0]):
            for j in range(i + 1, pooled.shape[0]):
                d2.append(float(np.sum((pooled[i] - pooled[j]) ** 2)))
        assert bws[1] == pytest.approx(float(np.median(d2)), rel=1e-9)


@st.composite
def batch_pair(draw):
    """Two feature batches whose rows come from a small pool, so rows repeat and ties occur."""
    dim = draw(st.integers(1, 4))
    # multiples of 1/4 in [-100, 100]: every squared distance is exact, so
    # the equality holds however BLAS tiles the products
    elements = st.integers(-400, 400).map(lambda v: v / 4)
    pool = draw(arrays(np.float64, (draw(st.integers(1, 16)), dim), elements=elements))
    rows = st.integers(0, pool.shape[0] - 1)
    ns = draw(st.integers(1, 12))
    nt = draw(st.integers(1, 12))
    idx_s = draw(st.lists(rows, min_size=ns, max_size=ns))
    idx_t = draw(st.lists(rows, min_size=nt, max_size=nt))
    return pool[idx_s], pool[idx_t]


class TestMedianHeuristic:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(batch_pair())
    @example((np.array([[0.5, -1.0]]), np.array([[2.0, 0.25]])))  # batch size 1: one pair
    @example((np.zeros((3, 2)), np.zeros((3, 2))))  # all ties at 0
    @example((np.ones((2, 1)), np.ones((2, 1)) * 3.0))  # 6 pairs, even count
    def test_blockwise_median_is_the_pooled_median(self, pair):
        fs, ft = pair
        assert median_heuristic_bandwidths(fs, ft) == pooled_median_bandwidths(fs, ft)

    def test_pair_counts_of_both_parities(self):
        # 2s^2 - s pairs: odd for odd s, even for even s; the last case is a
        # training batch of 128 rows of 32 features
        rng = np.random.default_rng(8)
        for s, dim in ((1, 3), (2, 3), (3, 3), (4, 3), (7, 3), (8, 3), (128, 32)):
            fs = rng.normal(size=(s, dim))
            ft = np.vstack([fs[: s // 2], rng.normal(size=(s - s // 2, dim))])
            assert median_heuristic_bandwidths(fs, ft) == pooled_median_bandwidths(fs, ft)

    @pytest.mark.parametrize("ns,nt", [(1, 2), (2, 1), (3, 3), (4, 5), (5, 5), (6, 3), (2, 2), (4, 4)])
    def test_partition_median_is_np_median_at_both_parities(self, ns, nt):
        # the union of the blocks' pairs, with ties; odd counts have one
        # middle element, even counts average the two middle ones
        rng = np.random.default_rng(10 * ns + nt)
        blocks = [np.round(3.0 * rng.random(shape), 1) for shape in ((ns, ns), (nt, nt), (ns, nt))]
        union = np.concatenate([blocks[0][np.triu_indices(ns, 1)], blocks[1][np.triu_indices(nt, 1)], blocks[2].ravel()])
        want = [scale * max(float(np.median(union)), 1e-12) for scale in losses.MMD_SCALES]
        assert losses._median_bandwidths(*blocks) == want
        assert losses._median_bandwidths(*blocks, np.empty(union.size)) == want

    def test_the_loss_takes_the_public_median_at_both_parities(self):
        # the loss's median comes from its scratch pair buffer; odd s gives
        # an odd pair count, so the middle element alone is the median
        rng = np.random.default_rng(9)
        for s in (1, 2, 3, 4, 7, 8, 127, 128):
            fs, ys, ft, w = kernel_batch(rng, s, dim=5)
            assert (2 * s * s - s) % 2 == s % 2
            bws = median_heuristic_bandwidths(fs, ft)
            assert_same_bits(weighted_mmd_loss_grads(fs, ys, ft, w), weighted_mmd_loss_grads(fs, ys, ft, w, bws))


class TestTypedErrors:
    @pytest.mark.parametrize(
        "make, error, message",
        [
            pytest.param(
                lambda: losses.weighted_da_loss_grads(np.array([]), np.array([], dtype=int), np.array([]), ones_w(2)),
                InvalidValue, "labels is empty", id="da-empty-labels",
            ),
            pytest.param(
                lambda: losses.weighted_da_loss_grads([0.5], [2], [0.5], ones_w(2)),
                InvalidValue, "labels index outside the weight vector", id="da-label-range",
            ),
            pytest.param(
                lambda: losses.weighted_classification_loss_grads(np.full((2, 3), 1 / 3), [0, 1], Categorical([0.5, 0.5])),
                ShapeMismatch, "preds has shape (2, 3), expected (n, 2)", id="classification-preds-shape",
            ),
            pytest.param(
                lambda: losses.weighted_mmd_loss_grads(np.zeros((2, 2)), [0, 1], np.zeros((2, 3)), ones_w(2)),
                ShapeMismatch, "feature shapes (2, 2) and (2, 3) are incompatible", id="mmd-feature-widths",
            ),
        ],
    )
    def test_names_the_cause(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

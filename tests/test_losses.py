import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gls_adapt.distributions import Categorical
from gls_adapt.errors import InvalidValue, ShapeMismatch
from gls_adapt.estimator import WeightVector
from gls_adapt.losses import (
    cross_entropy_loss,
    median_heuristic_bandwidths,
    weighted_classification_loss,
    weighted_da_loss,
    weighted_mmd_loss,
)
from gls_adapt.network import outer_map

from _oracles import mmd_double_loop, pooled_median_bandwidths, rbf_kernel

LN2 = math.log(2.0)


def ones_w(k):
    return WeightVector(np.ones(k))


class TestWeightedDaLoss:
    def test_constant_half_outputs(self):
        n = 8
        d = np.full(n, 0.5)
        labels = np.zeros(n, dtype=int)
        assert weighted_da_loss(d, d, labels, ones_w(2)) == pytest.approx(2 * LN2, abs=1e-12)

    def test_single_sample_weight_two(self):
        val = weighted_da_loss([0.5], [0.5], [1], WeightVector(np.array([1.0, 2.0])))
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
            got = weighted_da_loss(ds, dt, labels, ones_w(3))
            assert abs(got - base) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidValue, match=r"d_src must lie strictly inside \(0, 1\)"):
            weighted_da_loss([1.0], [0.5], [0], ones_w(2))
        with pytest.raises(InvalidValue, match=r"d_tgt must lie strictly inside \(0, 1\)"):
            weighted_da_loss([0.5], [0.0], [0], ones_w(2))

    def test_batch_size_mismatch(self):
        with pytest.raises(ShapeMismatch, match="paired batches of sizes 2 and 1"):
            weighted_da_loss([0.5, 0.5], [0.5], [0, 1], ones_w(2))


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
    elements = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
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

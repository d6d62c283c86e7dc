import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gls_adapt import losses
from gls_adapt.distributions import Categorical
from gls_adapt.errors import InvalidValue, NonFiniteValue, ShapeMismatch
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

from _oracles import (
    da_loss_grads_reference,
    finite_difference_gradient,
    logit,
    median_bandwidths_np,
    mmd_grads_bandwidth_loop,
    mmd_pair_loop,
    mmd_u_statistic,
    nll_grads_reference,
    pair_median_bandwidths,
    rbf_kernel,
)

LN2 = math.log(2.0)


def ones_w(k):
    return WeightVector(np.ones(k))


# sigmoid(-20): probabilities in [SIGMOID_20, 1 - SIGMOID_20] have logits in [-20, 20]
SIGMOID_20 = 1.0 / (1.0 + math.exp(20.0))


class TestWeightedDaLoss:
    """The adversarial loss reads d's logits; d = sigmoid(a) is the probability that a row is a source row."""

    def test_constant_half_outputs(self):
        # logit 0 is probability 1/2
        n = 8
        a = np.zeros(n)
        labels = np.zeros(n, dtype=int)
        assert weighted_da_loss(a, labels, a, ones_w(2)) == pytest.approx(2 * LN2, abs=1e-12)

    def test_single_sample_weight_two(self):
        val = weighted_da_loss([0.0], [1], [0.0], WeightVector(np.array([1.0, 2.0])))
        assert val == pytest.approx(3 * LN2, abs=1e-12)

    def test_equals_base_formula_with_unit_weights(self):
        # independent evaluation of the unweighted adversarial loss in the probabilities
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 30))
            ds = rng.uniform(0.01, 0.99, size=n)
            dt = rng.uniform(0.01, 0.99, size=n)
            labels = rng.integers(0, 3, size=n)
            base = -(np.sum(np.log(ds)) + np.sum(np.log(1 - dt))) / n
            got = weighted_da_loss(logit(ds), labels, logit(dt), ones_w(3))
            assert abs(got - base) <= 1e-12

    def test_rejects_out_of_range(self):
        # every finite logit is in range
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteValue, match=r"^d_src must be finite logits$"):
                weighted_da_loss([0.5, bad], [0, 1], [0.5, 0.5], ones_w(2))
            with pytest.raises(NonFiniteValue, match=r"^d_tgt must be finite logits$"):
                weighted_da_loss([0.5, 0.5], [0, 1], [bad, 0.5], ones_w(2))

    def test_batch_size_mismatch(self):
        with pytest.raises(ShapeMismatch, match="paired batches of sizes 2 and 1"):
            weighted_da_loss([0.5, 0.5], [0, 1], [0.5], ones_w(2))


class TestDaLossOnLogits:
    """The softplus form agrees with the probability formula it replaced and never overflows."""

    @staticmethod
    def loss(a, ws):
        s = ws.size
        return losses.weighted_da_loss_grads(a[:s], np.arange(s), a[s:], WeightVector(np.append(ws, 1.0)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_probability_formula(self, data):
        # the probabilities of logits in [-20, 20], far above the probability formula's log floor
        s = data.draw(st.integers(1, 16))
        d = data.draw(arrays(float, 2 * s, elements=st.floats(SIGMOID_20, 1.0 - SIGMOID_20)))
        ws = data.draw(arrays(float, s, elements=st.floats(0.0, 10.0)))
        value, g_src, g_tgt = self.loss(logit(d), ws)
        want, want_src, want_tgt = da_loss_grads_reference(d[:s], ws, d[s:])
        slope = d * (1.0 - d)  # d sigmoid(a) / da
        assert abs(value - want) <= 1e-12
        assert np.abs(g_src - want_src * slope[:s]).max() <= 1e-12
        assert np.abs(g_tgt - want_tgt * slope[s:]).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stays_finite_up_to_1e300(self, data):
        s = data.draw(st.integers(1, 16))
        logits = st.floats(-1e300, 1e300) | st.sampled_from([-1e300, -30.0, 0.0, 30.0, 1e300])
        a = data.draw(arrays(float, 2 * s, elements=logits))
        ws = data.draw(arrays(float, s, elements=st.floats(0.0, 10.0)))
        value, g_src, g_tgt = self.loss(a, ws)
        assert math.isfinite(value) and value >= 0.0
        # each gradient entry is w (sigma(a) - 1) / s or sigma(a) / s, so it lies in [-w / s, 0] or [0, 1 / s]
        assert np.all((-ws / s <= g_src) & (g_src <= 0.0))
        assert np.all((0.0 <= g_tgt) & (g_tgt <= 1.0 / s))

    def test_saturated_logits_give_the_loss_the_clamp_hid(self):
        # confidently wrong on both sides, where the probability formula's floor capped each row at 27.63
        a = np.array([-125.8, 125.8])
        value, g_src, g_tgt = losses.weighted_da_loss_grads(a[:1], [0], a[1:], ones_w(2))
        assert value == pytest.approx(2 * 125.8, rel=1e-15)
        assert g_src == pytest.approx(-1.0) and g_tgt == pytest.approx(1.0)


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
        # one quadruple: both source rows at the origin, both target rows at
        # distance 1, so k(s_a, s_b) = k(t_a, t_b) = 1 and both cross terms are c
        a = np.zeros((2, 2))
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        bw = 2.0
        c = math.exp(-1.0 / bw)
        assert weighted_mmd_loss(a, [0, 1], b, ones_w(2), [bw]) == pytest.approx(2 * c - 2, abs=1e-12)
        # w_a = 1, w_b = 3: -(3 + 1 - c - 3c)
        val = weighted_mmd_loss(a, [0, 1], b, WeightVector(np.array([1.0, 3.0])), [bw])
        assert val == pytest.approx(4 * c - 4, abs=1e-12)

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
            want = mmd_pair_loop(fs, labels, ft, w.w, bw)
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
        delta_oracle = mmd_pair_loop(fs, labels, ft, w2, bw) - mmd_pair_loop(fs, labels, ft, w1, bw)
        assert abs(delta_fast - delta_oracle) < 1e-10
        # terms not touching class 0 cancel in the difference: recompute the
        # difference with only the weighted terms of each quadruple
        manual = 0.0
        for i in range(s // 2):
            a, b = 2 * i, 2 * i + 1
            dw = w2[labels[a]] * w2[labels[b]] - w1[labels[a]] * w1[labels[b]]
            manual -= dw * math.exp(-float(np.sum((fs[a] - fs[b]) ** 2)))
            for x, y in ((a, b), (b, a)):
                dx = w2[labels[x]] - w1[labels[x]]
                manual += dx * math.exp(-float(np.sum((fs[x] - ft[y]) ** 2)))
        manual /= s // 2
        assert abs(delta_fast - manual) < 1e-10

    def test_batch_size_mismatch(self):
        with pytest.raises(ShapeMismatch, match="paired batches of sizes 3 and 4"):
            weighted_mmd_loss(np.zeros((3, 2)), [0, 1, 0], np.zeros((4, 2)), ones_w(2), [1.0])

    @pytest.mark.parametrize("s", [2, 5, 8])
    def test_gradients_match_central_differences_of_the_pair_loop(self, s):
        fs, ys, ft, w = kernel_batch(np.random.default_rng(30 + s), s, dim=3)
        bws = [0.6, 1.7]
        _, g_src, g_tgt = weighted_mmd_loss_grads(fs, ys, ft, w, bws)
        fd_src = finite_difference_gradient(lambda x: mmd_pair_loop(x.reshape(s, 3), ys, ft, w.w, bws), fs.ravel())
        fd_tgt = finite_difference_gradient(lambda x: mmd_pair_loop(fs, ys, x.reshape(s, 3), w.w, bws), ft.ravel())
        for got, want in ((g_src, fd_src), (g_tgt, fd_tgt)):
            assert np.abs(got.ravel() - want).max() <= 1e-7 * np.abs(want).max()

    def test_odd_batch_last_row_has_zero_gradient(self):
        fs, ys, ft, w = kernel_batch(np.random.default_rng(25), 7, dim=4)
        value, g_src, g_tgt = weighted_mmd_loss_grads(fs, ys, ft, w)
        assert not g_src[-1].any() and not g_tgt[-1].any()
        assert g_src[:-1].any(axis=1).all() and g_tgt[:-1].any(axis=1).all()
        # the last row is in no pair, so the loss ignores it altogether
        fs[-1], ft[-1] = 5.0, -5.0
        assert weighted_mmd_loss_grads(fs, ys, ft, w)[0] == value

    def test_mean_over_joint_pairings_is_the_u_statistic(self):
        # with fixed bandwidths, each pairing of jointly permuted rows is an
        # unbiased draw of the U-statistic; the source labels travel with their rows
        rng = np.random.default_rng(26)
        s, draws = 10, 4000
        fs, ys, ft, w = kernel_batch(rng, s, dim=2)
        bws = [0.5, 1.0, 2.0]
        values = []
        for _ in range(draws):
            perm = rng.permutation(s)
            values.append(weighted_mmd_loss(fs[perm], ys[perm], ft[perm], w, bws))
        se = np.std(values, ddof=1) / math.sqrt(draws)
        assert abs(np.mean(values) - mmd_u_statistic(fs, ys, ft, w.w, bws)) < 3.0 * se


def kernel_batch(rng, s, dim=32, k=3):
    """A paired batch of tanh features, as a training step gives the kernel loss."""
    fs = np.tanh(rng.normal(size=(s, dim)))
    ft = np.tanh(rng.normal(size=(s, dim)) + 0.3)
    return fs, rng.integers(0, k, size=s), ft, WeightVector(rng.uniform(0.2, 3.0, size=k))


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
        # the four distances of each quadruple (2i, 2i + 1), i < 10
        d2 = []
        for i in range(10):
            for x, y in ((a[2 * i], a[2 * i + 1]), (b[2 * i], b[2 * i + 1]), (a[2 * i], b[2 * i + 1]), (a[2 * i + 1], b[2 * i])):
                d2.append(float(np.sum((x - y) ** 2)))
        assert bws[1] == pytest.approx(float(np.median(d2)), rel=1e-9)


class TestMedianHeuristic:
    def test_pair_counts_of_both_parities(self):
        # 4 * (s // 2) distances; an odd batch leaves its last row out. The
        # last case is a training batch of 128 rows of 32 features
        rng = np.random.default_rng(8)
        for s, dim in ((2, 3), (3, 3), (4, 3), (7, 3), (8, 3), (128, 32)):
            fs = rng.normal(size=(s, dim))
            ft = np.vstack([fs[: s // 2], rng.normal(size=(s - s // 2, dim))])
            assert median_heuristic_bandwidths(fs, ft) == pytest.approx(pair_median_bandwidths(fs, ft), rel=1e-12)

    def test_ties_at_zero_are_floored(self):
        assert median_heuristic_bandwidths(np.zeros((4, 2)), np.zeros((4, 2))) == [s * 1e-12 for s in losses.MMD_SCALES]

    def test_the_loss_takes_the_public_median_at_both_parities(self):
        rng = np.random.default_rng(9)
        for s in (2, 3, 4, 7, 8, 127, 128):
            fs, ys, ft, w = kernel_batch(rng, s, dim=5)
            bws = median_heuristic_bandwidths(fs, ft)
            got, want = weighted_mmd_loss_grads(fs, ys, ft, w), weighted_mmd_loss_grads(fs, ys, ft, w, bws)
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                assert a.tobytes() == b.tobytes()


    @pytest.mark.parametrize("row", [0, 77, 127])
    def test_a_nan_feature_row_gives_nan_bandwidths(self, row):
        # as np.median does: NaN sorts last, so a partition alone would not see it
        rng = np.random.default_rng(row)
        fs, ft = rng.normal(size=(2, 128, 32))
        fs[row, 5] = np.nan
        bws = median_heuristic_bandwidths(fs, ft)
        assert len(bws) == len(losses.MMD_SCALES) and all(math.isnan(bw) for bw in bws)
        assert all(math.isnan(bw) for bw in median_bandwidths_np(np.array([1.0, np.nan, 2.0, 3.0])))


class TestEqualsTheBandwidthLoop:
    """The stacked bandwidths and the partition median give the per-bandwidth loop's and np.median's bits."""

    @pytest.mark.parametrize("seed", range(4))
    def test_median_heuristic(self, seed):
        # the benchmark's training batch: 128 rows a side, 32 features
        fs, ys, ft, w = kernel_batch(np.random.default_rng(seed), 128, dim=32)
        got = weighted_mmd_loss_grads(fs, ys, ft, w)
        want = mmd_grads_bandwidth_loop(fs, ys, ft, w.w)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)
        diff = np.stack([fs[0::2] - fs[1::2], ft[0::2] - ft[1::2], fs[0::2] - ft[1::2], fs[1::2] - ft[0::2]])
        assert median_heuristic_bandwidths(fs, ft) == median_bandwidths_np(np.einsum("pmd,pmd->pm", diff, diff))

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("s", [2, 7, 128])
    def test_given_bandwidths(self, count, s):
        rng = np.random.default_rng(count * s)
        fs, ys, ft, w = kernel_batch(rng, s, dim=32)
        bws = list(rng.uniform(0.05, 40.0, size=count))
        got = weighted_mmd_loss_grads(fs, ys, ft, w, bws)
        want = mmd_grads_bandwidth_loop(fs, ys, ft, w.w, bws)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)


class TestKernelsEqualThePublicLosses:
    """Each public loss is its checks and then one kernel. Called as the training step calls them,
    on views of one stacked batch and with reused gradient buffers, the kernels give the public
    losses' bits. The classification and kernel losses also equal their earlier one-call-per-step
    arithmetic; the adversarial loss now reads logits, and TestDaLossOnLogits compares it with the
    probability formula it replaced."""

    S, D, K = 128, 32, 3

    def batch(self, seed):
        rng = np.random.default_rng(seed)
        return rng, rng.integers(0, self.K, size=self.S), WeightVector(rng.uniform(0.2, 3.0, size=self.K))

    def test_adversarial(self):
        rng, ys, w = self.batch(0)
        s = self.S
        a = rng.normal(scale=3.0, size=(2 * s, 1))
        a[:3] = [[-40.0], [0.0], [40.0]]  # beyond -log(LOG_EPS) = 27.63 on both sides
        a[s : s + 2] = [[-40.0], [40.0]]
        value, g_src, g_tgt = losses.weighted_da_loss_grads(a[:s], ys, a[s:], w)
        grad = np.full((2 * s, 1), np.nan)  # a reused buffer: the kernel writes every entry
        assert losses._da(a.reshape(-1), w.w[ys], grad.reshape(-1)) == value
        assert np.array_equal(grad.reshape(-1), np.concatenate([g_src, g_tgt]))

    @pytest.mark.parametrize("weighting", ["plain", "balanced", "balanced-and-w"])
    def test_classification(self, weighting):
        rng, ys, w = self.batch(1)
        s, k = self.S, self.K
        preds = rng.dirichlet(np.ones(k), size=2 * s)
        preds[0, ys[0]] = 0.0  # the log clamp
        p_s = Categorical([0.6, 0.25, 0.15])
        if weighting == "plain":
            value, want_grad = losses.cross_entropy_loss_grads(preds[:s], ys)
            coeff = np.ones(k)
        else:
            w_c = w if weighting == "balanced-and-w" else None
            value, want_grad = losses.weighted_classification_loss_grads(preds[:s], ys, p_s, w_c)
            coeff = losses._class_coeff(p_s, w_c)
        grad = np.full((2 * s, k), np.nan)  # last step's gradient: the kernel clears what it does not set
        grad[s:] = 0.0
        assert losses._nll(preds[:s], ys, coeff, grad[:s]) == value
        assert np.array_equal(grad[:s], want_grad) and not grad[s:].any()
        ref_value, ref_grad = nll_grads_reference(preds[:s], ys, coeff)
        assert value == ref_value and np.array_equal(want_grad, ref_grad)

    @pytest.mark.parametrize("bandwidths", [None, [0.3, 1.1, 7.0]])
    @pytest.mark.parametrize("s", [128, 127])
    def test_kernel(self, s, bandwidths):
        rng, ys, w = self.batch(s)
        ys = ys[:s]
        z = np.tanh(rng.normal(size=(2 * s, self.D)))
        value, g_src, g_tgt = losses.weighted_mmd_loss_grads(z[:s], ys, z[s:], w, bandwidths)
        got, grad = losses._mmd(z[:s], z[s:], w.w[ys], bandwidths)
        assert got == value and grad.shape == (2 * s, self.D)
        assert np.array_equal(grad, np.concatenate([g_src, g_tgt]))
        want = mmd_grads_bandwidth_loop(z[:s], ys, z[s:], w.w, bandwidths)
        assert value == want[0] and np.array_equal(g_src, want[1]) and np.array_equal(g_tgt, want[2])


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
                InvalidValue, "labels must lie in [0, 2)", id="da-label-range",
            ),
            pytest.param(
                lambda: losses.weighted_classification_loss_grads(np.full((2, 3), 1 / 3), [0, 1], Categorical([0.5, 0.5])),
                ShapeMismatch, "preds has shape (2, 3), expected (n, 2)", id="classification-preds-shape",
            ),
            pytest.param(
                lambda: losses.weighted_mmd_loss_grads(np.zeros((2, 2)), [0, 1], np.zeros((2, 3)), ones_w(2)),
                ShapeMismatch, "feature shapes (2, 2) and (2, 3) are incompatible", id="mmd-feature-widths",
            ),
            pytest.param(
                lambda: losses.weighted_mmd_loss_grads(np.eye(3), [0, 1, 0], np.eye(3), ones_w(2), []),
                InvalidValue, "bandwidths is empty", id="mmd-no-bandwidths",
            ),
            pytest.param(
                lambda: losses.weighted_mmd_loss_grads(np.eye(3), [0, 1, 0], np.eye(3), ones_w(2), [-1.0]),
                InvalidValue, "bandwidths must be finite and > 0, got [-1.0]", id="mmd-bad-bandwidth",
            ),
            pytest.param(
                lambda: losses.weighted_mmd_loss_grads(np.ones((1, 2)), [0], np.zeros((1, 2)), ones_w(2), [1.0]),
                InvalidValue, "the kernel loss pairs rows, so it needs at least 2 per batch, got 1", id="mmd-one-row",
            ),
            pytest.param(
                lambda: losses.median_heuristic_bandwidths(np.ones((1, 2)), np.zeros((1, 2))),
                InvalidValue, "the kernel loss pairs rows, so it needs at least 2 per batch, got 1", id="median-one-row",
            ),
        ],
    )
    def test_names_the_cause(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

    @pytest.mark.parametrize("bws", [[float("nan")], [0.0], [float("inf")], [1.0, 0.0]])
    def test_every_bandwidth_must_be_finite_and_positive(self, bws):
        with pytest.raises(InvalidValue, match="bandwidths must be finite and > 0"):
            losses.weighted_mmd_loss_grads(np.eye(3), [0, 1, 0], np.eye(3), ones_w(2), bws)

    # each loss on a 3-row batch, given labels of length n
    LABELLED_LOSSES = {
        "weighted_da": lambda n: losses.weighted_da_loss_grads([0.5] * 3, [1] * n, [0.5] * 3, WeightVector([2.0, 0.5])),
        "cross_entropy": lambda n: losses.cross_entropy_loss_grads(np.full((3, 2), 0.5), [1] * n),
        "weighted_classification": lambda n: losses.weighted_classification_loss_grads(
            np.full((3, 2), 0.5), [1] * n, Categorical([0.5, 0.5])
        ),
        "weighted_mmd": lambda n: losses.weighted_mmd_loss_grads(np.eye(3), [1] * n, np.eye(3), ones_w(2)),
    }

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("loss", LABELLED_LOSSES)
    def test_label_count_must_match_the_batch(self, loss, n):
        with pytest.raises(ShapeMismatch) as info:
            self.LABELLED_LOSSES[loss](n)
        assert str(info.value) == f"labels has {n} entries for 3 batch rows"

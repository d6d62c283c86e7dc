import numpy as np
import pytest

from gls_adapt import losses, network
from gls_adapt.distributions import Categorical
from gls_adapt.errors import ConfigInvalid, GlsAdaptError, ShapeMismatch
from gls_adapt.estimator import WeightVector
from gls_adapt.network import (
    Mlp,
    ModelGrads,
    ModelState,
    backward,
    forward,
    infer,
    init_model_state,
    outer_map,
    sgd_step,
)

from _oracles import (
    add_grads,
    finite_difference_gradient,
    flatten_grads,
    flatten_net_params,
    set_net_params,
)


def small_state(conditional=False, seed=0):
    return init_model_state(
        input_dim=3, k=3, feature_dim=4, g_hidden=(5,), d_hidden=(5,), conditional=conditional,
        rng=np.random.default_rng(seed),
    )


def model_of(g_sizes, h_sizes, d_sizes):
    """A model built straight from its three nets' layer sizes, unchecked by init_model_state."""
    rng = np.random.default_rng(0)
    return ModelState(g=Mlp(g_sizes, "tanh", rng), h=Mlp(h_sizes, "softmax", rng), d=Mlp(d_sizes, "sigmoid", rng))


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        state = small_state()
        for lst in (state.h.weights, state.h.biases):
            for arr in lst:
                arr[:] = 0.0
        x = np.random.default_rng(0).normal(size=(6, 3))
        preds, _ = forward(state, x, "classify")
        assert np.allclose(preds, 1.0 / 3.0)

    def test_one_layer_hand_computation(self):
        net = Mlp([2, 1], head="tanh", rng=np.random.default_rng(1))
        net.weights[0] = np.array([[2.0], [-1.0]])
        net.biases[0] = np.array([0.5])
        out, _ = net.forward(np.array([[1.0, 3.0]]))
        assert out[0, 0] == pytest.approx(np.tanh(2.0 - 3.0 + 0.5))

    def test_outer_product_dimension(self):
        state = init_model_state(input_dim=5, k=3, feature_dim=4, conditional=True, rng=np.random.default_rng(0))
        assert state.d.in_dim == 12
        x = np.random.default_rng(2).normal(size=(7, 5))
        d_out, cache = forward(state, x, "discriminate")
        assert cache["d"]["inputs"][0].shape == (7, 12)
        assert d_out.shape == (7, 1)
        assert np.all((d_out > 0) & (d_out < 1))

    def test_discriminator_input_follows_conditional(self):
        x = np.random.default_rng(2).normal(size=(6, 3))
        for conditional in (False, True):
            _, cache = forward(small_state(conditional=conditional, seed=2), x, "discriminate")
            want = outer_map(cache["p"], cache["z"]) if conditional else cache["z"]
            assert np.array_equal(cache["d"]["inputs"][0], want)

    def test_softmax_rows_sum_to_one(self):
        state = small_state(seed=3)
        x = np.random.default_rng(3).normal(size=(50, 3)) * 5
        preds, _ = forward(state, x, "classify")
        assert np.max(np.abs(preds.sum(axis=1) - 1.0)) < 1e-6

    def test_shape_mismatch(self):
        state = small_state()
        with pytest.raises(ShapeMismatch):
            forward(state, np.zeros((4, 7)), "classify")

    def test_outer_map_one_hot_selects_block(self):
        got = outer_map(np.array([[1.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert np.allclose(got, [[3.0, 4.0, 0.0, 0.0]])


class TestInfer:
    """The blocked full-data pass must give one unblocked forward's bits."""

    # output names which of infer's two results is compared: the returned
    # predictions or the features written into features_out
    @pytest.mark.parametrize("output", ["features", "classify"])
    @pytest.mark.parametrize("conditional", [False, True])
    @pytest.mark.parametrize("n", [1, network.BLOCK_ROWS, network.BLOCK_ROWS + 1, 3000])
    def test_equals_one_unblocked_forward(self, monkeypatch, conditional, output, n):
        # the default training model, as evaluate runs it
        state = init_model_state(input_dim=2, k=3, conditional=conditional, rng=np.random.default_rng(n))
        x = np.random.default_rng(1).normal(scale=2.0, size=(n, 2))
        want = forward(state, x, output)[0]
        rows = []

        def counting(state, x, mode):
            rows.append(len(x))
            return forward(state, x, mode)

        monkeypatch.setattr(network, "forward", counting)
        feats = np.empty((n, state.feature_dim))
        preds = infer(state, x, feats)
        got = preds if output == "classify" else feats
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # every block goes through the module's forward, none longer than
        # BLOCK_ROWS, and a longer input never leaves a single-row block
        assert sum(rows) == n
        assert max(rows) <= network.BLOCK_ROWS
        assert n == 1 or min(rows) > 1


class TestBackward:
    def test_stationary_point_of_weighted_ce(self):
        # one-hot predictions matching the labels make the classifier-head
        # gradient vanish
        state = small_state(seed=4)
        x = np.random.default_rng(4).normal(size=(5, 3))
        preds, cache = forward(state, x, "classify")
        labels = preds.argmax(axis=1)
        onehot = np.eye(3)[labels]
        # gradient of CE at its own one-hot optimum is the softmax jacobian
        # applied to -(1/n) * onehot / preds; plug the optimum in directly
        gpred = np.zeros_like(preds)
        gpred[np.arange(5), labels] = -1.0 / 5.0  # d/dp of mean(-log p) at p=1
        p_perfect = onehot
        inner = (gpred * p_perfect).sum(axis=1, keepdims=True)
        delta = p_perfect * (gpred - inner)
        assert np.allclose(delta, 0.0, atol=1e-12)

    def test_gradient_reversal_is_sign_flip(self):
        # with no classification gradient, the training-step backward hands g
        # the negated alignment gradient and leaves d's untouched
        state = small_state(seed=5)
        x = np.random.default_rng(5).normal(size=(4, 3))
        _, cache = forward(state, x, "discriminate")
        grads = backward(state, cache, np.ones((4, 1)))
        fused = backward(state, cache, np.ones((4, 1)), np.zeros((4, 3)), 1.0)
        for (gw, gb), (rw, rb) in zip(grads.g, fused.g):
            assert np.array_equal(rw, -gw)
            assert np.array_equal(rb, -gb)
        for (gw, gb), (rw, rb) in zip(grads.d, fused.d):
            assert np.array_equal(rw, gw)
            assert np.array_equal(rb, gb)

    def test_stale_cache_detected(self):
        state = small_state(seed=6)
        x = np.random.default_rng(6).normal(size=(4, 3))
        _, cache = forward(state, x, "classify")
        grads = backward(state, cache, np.ones((4, 3)))
        sgd_step(state, ModelGrads(g=grads.g), 0.1, 0.0)
        with pytest.raises(ConfigInvalid, match="forward cache predates the last parameter update"):
            backward(state, cache, np.ones((4, 3)))


class TestTrainingStepBackward:
    """One backward over a stacked batch matches the per-loss backwards it replaces."""

    # the discriminate cases' ids name what d reads: z or the outer product
    @pytest.mark.parametrize(
        "conditional,mode",
        [
            pytest.param(False, "features", id="features"),
            pytest.param(False, "discriminate", id="discriminate_z"),
            pytest.param(True, "discriminate", id="discriminate_outer"),
        ],
    )
    def test_matches_separate_backwards(self, conditional, mode):
        rng = np.random.default_rng(16)
        state = small_state(conditional=conditional, seed=16)
        x = rng.normal(size=(10, 3))
        labels = rng.integers(0, 3, size=5)
        out, cache = forward(state, x, mode)
        p, cache_c = forward(state, x[:5], "classify")
        assert np.array_equal(cache["p"][:5], p)
        _, gpred = losses.cross_entropy_loss_grads(p, labels)
        grad_out = rng.normal(size=out.shape)
        grad_preds = np.vstack([gpred, np.zeros((5, 3))])
        reversal = 2.5
        fused = backward(state, cache, grad_out, grad_preds, reversal)

        cls = backward(state, cache_c, gpred)
        align = backward(state, cache, grad_out)
        np.testing.assert_allclose(flatten_grads(fused.h), flatten_grads(cls.h), rtol=1e-12, atol=1e-15)
        if mode == "features":
            assert fused.d is None
        else:
            np.testing.assert_array_equal(flatten_grads(fused.d), flatten_grads(align.d))
        theta = add_grads(cls.g, [(-reversal * gw, -reversal * gb) for gw, gb in align.g])
        np.testing.assert_allclose(flatten_grads(fused.g), flatten_grads(theta), rtol=1e-12, atol=1e-15)

    def test_needs_cached_predictions_and_an_alignment_output(self):
        state = small_state(seed=17)
        x = np.zeros((2, 3))
        _, cache = forward(state, x, "classify")
        with pytest.raises(ConfigInvalid, match="grad_preds needs an alignment mode, not classify"):
            backward(state, cache, np.zeros((2, 3)), np.zeros((2, 3)))


def loss_through_params(state, net_name, flat, loss_fn):
    net = getattr(state, net_name)
    saved = flatten_net_params(net)
    set_net_params(net, flat)
    state.version += 1
    try:
        return loss_fn()
    finally:
        set_net_params(net, saved)
        state.version += 1


def assert_grad_matches(state, net_name, loss_fn, analytic, rel_tol=1e-4):
    net = getattr(state, net_name)
    flat0 = flatten_net_params(net)
    fd = finite_difference_gradient(
        lambda f: loss_through_params(state, net_name, f, loss_fn), flat0
    )
    got = flatten_grads(analytic)
    denom = max(float(np.linalg.norm(fd)), 1e-10)
    assert np.linalg.norm(got - fd) / denom < rel_tol


class TestGradientsAgainstFiniteDifferences:
    def test_weighted_ce_wrt_g_and_h(self):
        rng = np.random.default_rng(7)
        state = small_state(seed=7)
        x = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        p_s = Categorical(np.array([0.5, 0.3, 0.2]))

        def value():
            preds, _ = forward(state, x, "classify")
            return losses.weighted_classification_loss(preds, labels, p_s)

        preds, cache = forward(state, x, "classify")
        _, gpred = losses.weighted_classification_loss_grads(preds, labels, p_s)
        grads = backward(state, cache, gpred)
        assert_grad_matches(state, "g", value, grads.g)
        assert_grad_matches(state, "h", value, grads.h)

    def test_weighted_da_wrt_g_and_d(self):
        rng = np.random.default_rng(8)
        state = small_state(seed=8)
        xs = rng.normal(size=(5, 3))
        xt = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        w = WeightVector(np.array([2.0, 1.0, 0.5]))

        def value():
            ds, _ = forward(state, xs, "discriminate")
            dt, _ = forward(state, xt, "discriminate")
            return losses.weighted_da_loss(ds.ravel(), labels, dt.ravel(), w)

        ds, cs = forward(state, xs, "discriminate")
        dt, ct = forward(state, xt, "discriminate")
        _, gs, gt = losses.weighted_da_loss_grads(ds.ravel(), labels, dt.ravel(), w)
        back_s = backward(state, cs, gs[:, None])
        back_t = backward(state, ct, gt[:, None])
        g_total = add_grads(back_s.g, back_t.g)
        d_total = add_grads(back_s.d, back_t.d)
        assert_grad_matches(state, "g", value, g_total)
        assert_grad_matches(state, "d", value, d_total)

    def test_weighted_da_through_outer_product(self):
        rng = np.random.default_rng(9)
        state = small_state(conditional=True, seed=9)
        xs = rng.normal(size=(5, 3))
        xt = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        w = WeightVector(np.array([0.5, 1.5, 1.0]))

        def value():
            ds, _ = forward(state, xs, "discriminate")
            dt, _ = forward(state, xt, "discriminate")
            return losses.weighted_da_loss(ds.ravel(), labels, dt.ravel(), w)

        ds, cs = forward(state, xs, "discriminate")
        dt, ct = forward(state, xt, "discriminate")
        _, gs, gt = losses.weighted_da_loss_grads(ds.ravel(), labels, dt.ravel(), w)
        back_s = backward(state, cs, gs[:, None])
        back_t = backward(state, ct, gt[:, None])
        assert_grad_matches(state, "g", value, add_grads(back_s.g, back_t.g))
        assert_grad_matches(state, "h", value, add_grads(back_s.h, back_t.h))
        assert_grad_matches(state, "d", value, add_grads(back_s.d, back_t.d))

    def test_weighted_mmd_wrt_g(self):
        rng = np.random.default_rng(10)
        state = small_state(seed=10)
        xs = rng.normal(size=(6, 3))
        xt = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        w = WeightVector(np.array([1.5, 0.75, 1.0]))
        bw = [0.7, 1.3]

        def value():
            zs, _ = forward(state, xs, "features")
            zt, _ = forward(state, xt, "features")
            return losses.weighted_mmd_loss(zs, labels, zt, w, bw)

        zs, cs = forward(state, xs, "features")
        zt, ct = forward(state, xt, "features")
        _, g_zs, g_zt = losses.weighted_mmd_loss_grads(zs, labels, zt, w, bw)
        back_s = backward(state, cs, g_zs)
        back_t = backward(state, ct, g_zt)
        assert_grad_matches(state, "g", value, add_grads(back_s.g, back_t.g))


class TestTypedErrors:
    @pytest.mark.parametrize(
        "sizes, kwargs",
        [([3], {}), ([3, 0], {}), ([3, 0, 2], {}), ([3, 2], {"head": "relu"})],
    )
    def test_bad_mlp(self, sizes, kwargs):
        match = "head must be one of" if "head" in kwargs else "bad layer sizes"
        with pytest.raises(ConfigInvalid, match=match) as info:
            Mlp(sizes, **{"head": "tanh", **kwargs}, rng=np.random.default_rng(0))
        assert isinstance(info.value, GlsAdaptError) and isinstance(info.value, ValueError)

    def test_unknown_mode(self):
        state = small_state()
        with pytest.raises(ConfigInvalid, match="unknown mode 'discriminate_z'"):
            forward(state, np.zeros((2, 3)), "discriminate_z")
        _, cache = forward(state, np.zeros((2, 3)), "features")
        cache["mode"] = "discriminate_z"
        with pytest.raises(ConfigInvalid, match="unknown mode 'discriminate_z'"):
            backward(state, cache, np.zeros((2, 4)))

    @pytest.mark.parametrize(
        "make, error, message",
        [
            pytest.param(
                lambda: model_of([2, 4], [3, 2], [4, 1]),
                ShapeMismatch, "classifier input dim must equal feature dim", id="state-classifier-input",
            ),
            pytest.param(
                lambda: model_of([2, 4], [4, 2], [5, 1]),
                ShapeMismatch, "discriminator must read z or the outer product", id="state-discriminator-input",
            ),
            pytest.param(
                lambda: sgd_step(small_state(), ModelGrads(g=[]), lr=0.1, momentum=0.9),
                ShapeMismatch, "gradient list length mismatch for net g", id="sgd-gradient-count",
            ),
        ],
    )
    def test_names_the_cause(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message


class TestSgd:
    def test_momentum_zero_is_plain_descent(self):
        state = small_state(seed=11)
        w0 = state.g.weights[0].copy()
        g = [(np.ones_like(w), np.ones_like(b)) for w, b in zip(state.g.weights, state.g.biases)]
        sgd_step(state, ModelGrads(g=g), lr=1.0, momentum=0.0)
        assert np.allclose(state.g.weights[0], w0 - 1.0)

    def test_two_steps_match_hand_unrolled_recursion(self):
        state = small_state(seed=12)
        w0 = state.h.weights[0].copy()
        g1 = [(np.full_like(w, 0.5), np.full_like(b, 0.5)) for w, b in zip(state.h.weights, state.h.biases)]
        g2 = [(np.full_like(w, -0.25), np.full_like(b, -0.25)) for w, b in zip(state.h.weights, state.h.biases)]
        sgd_step(state, ModelGrads(h=g1), lr=0.1, momentum=0.9)
        sgd_step(state, ModelGrads(h=g2), lr=0.1, momentum=0.9)
        v1 = 0.5
        v2 = 0.9 * v1 - 0.25
        expected = w0 - 0.1 * v1 - 0.1 * v2
        assert np.allclose(state.h.weights[0], expected, atol=1e-15)

    def test_zero_grads_keep_params(self):
        state = small_state(seed=13)
        w0 = state.d.weights[0].copy()
        g = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(state.d.weights, state.d.biases)]
        sgd_step(state, ModelGrads(d=g), lr=0.5, momentum=0.9)
        assert np.array_equal(state.d.weights[0], w0)

    def test_shape_mismatch(self):
        state = small_state(seed=14)
        bad = [(np.zeros((2, 2)), np.zeros(2))] * len(state.g.weights)
        with pytest.raises(ShapeMismatch):
            sgd_step(state, ModelGrads(g=bad), 0.1, 0.0)


class TestDeterminismAndCheckpoints:
    def test_same_seed_same_params_after_steps(self):
        def run():
            state = small_state(seed=15)
            rng = np.random.default_rng(99)
            for _ in range(5):
                x = rng.normal(size=(4, 3))
                labels = rng.integers(0, 3, size=4)
                preds, cache = forward(state, x, "classify")
                _, gpred = losses.cross_entropy_loss_grads(preds, labels)
                grads = backward(state, cache, gpred)
                sgd_step(state, ModelGrads(g=grads.g, h=grads.h), 0.05, 0.9)
            return flatten_net_params(state.g), flatten_net_params(state.h)

        a_g, a_h = run()
        b_g, b_h = run()
        assert np.array_equal(a_g, b_g)
        assert np.array_equal(a_h, b_h)

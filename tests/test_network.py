import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gls_adapt import losses, network
from gls_adapt.distributions import Categorical, check_rows
from gls_adapt.errors import ConfigInvalid, GlsAdaptError, ShapeMismatch
from gls_adapt.estimator import WeightVector
from gls_adapt.network import (
    Mlp,
    ModelGrads,
    ModelState,
    backward,
    forward,
    init_model_state,
    outer_map,
    sgd_step,
)

from _oracles import (
    finite_difference_gradient,
    flatten_net_params,
    layer_views,
    mlp_backward_per_layer,
    mlp_head,
    set_net_params,
    sgd_step_per_layer,
)


def small_state(conditional=False, seed=0):
    return init_model_state(
        input_dim=3, k=3, feature_dim=4, g_hidden=(5,), d_hidden=(5,), conditional=conditional,
        rng=np.random.default_rng(seed),
    )


def benchmark_state(conditional, seed=0):
    """The model the benchmark trains: 2 inputs, 3 classes, 32 features, d reading 32 or 96 inputs."""
    return init_model_state(input_dim=2, k=3, conditional=conditional, rng=np.random.default_rng(seed))


def training_step_grads(state, rng, conditional, s=128):
    """Forward, losses and backward of one training step on 2 * s stacked rows, as train takes it."""
    x = rng.normal(scale=2.0, size=(2 * s, 2))
    ys = rng.integers(0, 3, size=s)
    out, cache = forward(state, x, discriminate=True)
    _, grad_c = losses.cross_entropy_loss_grads(cache["p"][:s], ys)
    grad_preds = np.zeros_like(cache["p"])
    grad_preds[:s] = grad_c
    _, g_src, g_tgt = losses.weighted_da_loss_grads(out[:s], ys, out[s:], WeightVector(np.array([0.5, 1.0, 2.0])))
    return backward(state, cache, np.concatenate([g_src, g_tgt])[:, None], grad_preds, 20.0)


def model_of(g_sizes, h_sizes, d_sizes):
    """A model built straight from its three nets' layer sizes, unchecked by init_model_state."""
    rng = np.random.default_rng(0)
    return ModelState(g=Mlp(g_sizes, "tanh", rng), h=Mlp(h_sizes, "softmax", rng), d=Mlp(d_sizes, "linear", rng))


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        state = small_state()
        for lst in (state.h.weights, state.h.biases):
            for arr in lst:
                arr[:] = 0.0
        x = np.random.default_rng(0).normal(size=(6, 3))
        assert np.allclose(forward(state, x)[1]["p"], 1.0 / 3.0)

    def test_one_layer_hand_computation(self):
        net = Mlp([2, 1], head="tanh", rng=np.random.default_rng(1))
        net.weights[0][...] = [[2.0], [-1.0]]
        net.biases[0][...] = [0.5]
        out, _ = net.forward(np.array([[1.0, 3.0]]))
        assert out[0, 0] == pytest.approx(np.tanh(2.0 - 3.0 + 0.5))

    def test_outer_product_dimension(self):
        state = init_model_state(input_dim=5, k=3, feature_dim=4, conditional=True, rng=np.random.default_rng(0))
        assert state.d.in_dim == 12
        x = np.random.default_rng(2).normal(size=(7, 5))
        d_out, cache = forward(state, x, discriminate=True)
        assert cache["d"]["inputs"][0].shape == (7, 12)
        assert d_out.shape == (7, 1)
        assert np.all((d_out > 0) & (d_out < 1))

    def test_discriminator_input_follows_conditional(self):
        x = np.random.default_rng(2).normal(size=(6, 3))
        for conditional in (False, True):
            _, cache = forward(small_state(conditional=conditional, seed=2), x, discriminate=True)
            want = outer_map(cache["p"], cache["z"]) if conditional else cache["z"]
            assert np.array_equal(cache["d"]["inputs"][0], want)

    def test_softmax_rows_sum_to_one(self):
        state = small_state(seed=3)
        x = np.random.default_rng(3).normal(size=(50, 3)) * 5
        preds = forward(state, x)[1]["p"]
        assert np.max(np.abs(preds.sum(axis=1) - 1.0)) < 1e-6

    def test_shape_mismatch(self):
        state = small_state()
        with pytest.raises(ShapeMismatch):
            forward(state, np.zeros((4, 7)))

    def test_outer_map_one_hot_selects_block(self):
        got = outer_map(np.array([[1.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert np.allclose(got, [[3.0, 4.0, 0.0, 0.0]])


class TestRowSums:
    """The softmax's row sums, column by column below 8 columns, keep numpy's reduction's bits."""

    @pytest.mark.parametrize("k", range(2, 11))
    def test_equal_numpys_row_sums(self, k):
        rng = np.random.default_rng(k)
        # the head sums exponentials; its backward sums signed products
        for a in (np.exp(rng.normal(scale=3.0, size=(256, k))), rng.normal(size=(256, k))):
            got = network._row_sums(a)
            assert got.shape == (256, 1)
            assert np.array_equal(got, a.sum(axis=1, keepdims=True))


class TestSoftmaxRows:
    """A finite pre-activation gives probability rows, so the training step checks only that predictions are finite."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(2, 10))
    def test_every_row_passes_the_row_check(self, data, k):
        finite = st.floats(-1e300, 1e300) | st.sampled_from([-1e300, 1e300, 0.0])
        pre = data.draw(arrays(float, st.tuples(st.integers(1, 8), st.just(k)), elements=finite))
        net = Mlp([1, k], "softmax", np.random.default_rng(0))
        out = net._head(pre)
        assert np.isfinite(out).all()
        check_rows(out, k, "softmax rows")


class TestBackward:
    def test_stationary_point_of_weighted_ce(self):
        # one-hot predictions matching the labels make the classifier-head
        # gradient vanish
        state = small_state(seed=4)
        x = np.random.default_rng(4).normal(size=(5, 3))
        preds = forward(state, x)[1]["p"]
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
        _, cache = forward(state, x, discriminate=True)
        grads = backward(state, cache, np.ones((4, 1)))
        fused = backward(state, cache, np.ones((4, 1)), np.zeros((4, 3)), 1.0)
        assert np.array_equal(fused.g, -grads.g)
        assert np.array_equal(fused.d, grads.d)

    def test_stale_cache_detected(self):
        state = small_state(seed=6)
        x = np.random.default_rng(6).normal(size=(4, 3))
        _, cache = forward(state, x)
        grads = backward(state, cache, None, np.ones((4, 3)))
        sgd_step(state, ModelGrads(g=grads.g), 0.1, 0.0)
        with pytest.raises(ConfigInvalid, match="forward cache predates the last parameter update"):
            backward(state, cache, None, np.ones((4, 3)))


class TestTrainingStepBackward:
    """One backward over a stacked batch matches the per-loss backwards it replaces."""

    # the discriminate cases' ids name what d reads: z or the outer product
    @pytest.mark.parametrize(
        "conditional,discriminate",
        [
            pytest.param(False, False, id="features"),
            pytest.param(False, True, id="discriminate_z"),
            pytest.param(True, True, id="discriminate_outer"),
        ],
    )
    def test_matches_separate_backwards(self, conditional, discriminate):
        rng = np.random.default_rng(16)
        state = small_state(conditional=conditional, seed=16)
        x = rng.normal(size=(10, 3))
        labels = rng.integers(0, 3, size=5)
        out, cache = forward(state, x, discriminate)
        _, cache_c = forward(state, x[:5])
        p = cache_c["p"]
        assert np.array_equal(cache["p"][:5], p)
        _, gpred = losses.cross_entropy_loss_grads(p, labels)
        grad_out = rng.normal(size=out.shape)
        grad_preds = np.vstack([gpred, np.zeros((5, 3))])
        reversal = 2.5
        fused = backward(state, cache, grad_out, grad_preds, reversal)

        cls = backward(state, cache_c, None, gpred)
        align = backward(state, cache, grad_out)
        np.testing.assert_allclose(fused.h, cls.h, rtol=1e-12, atol=1e-15)
        if not discriminate:
            assert fused.d is None
        else:
            np.testing.assert_array_equal(fused.d, align.d)
        np.testing.assert_allclose(fused.g, cls.g - reversal * align.g, rtol=1e-12, atol=1e-15)

    def test_needs_a_gradient(self):
        state = small_state(seed=17)
        for discriminate in (False, True):
            _, cache = forward(state, np.zeros((2, 3)), discriminate)
            with pytest.raises(ConfigInvalid, match="^backward needs grad_out, grad_preds or both$"):
                backward(state, cache, None)


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
    denom = max(float(np.linalg.norm(fd)), 1e-10)
    assert np.linalg.norm(analytic - fd) / denom < rel_tol


class TestGradientsAgainstFiniteDifferences:
    def test_weighted_ce_wrt_g_and_h(self):
        rng = np.random.default_rng(7)
        state = small_state(seed=7)
        x = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        p_s = Categorical(np.array([0.5, 0.3, 0.2]))

        def value():
            return losses.weighted_classification_loss(forward(state, x)[1]["p"], labels, p_s)

        _, cache = forward(state, x)
        _, gpred = losses.weighted_classification_loss_grads(cache["p"], labels, p_s)
        grads = backward(state, cache, None, gpred)
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
            ds, _ = forward(state, xs, discriminate=True)
            dt, _ = forward(state, xt, discriminate=True)
            return losses.weighted_da_loss(ds.ravel(), labels, dt.ravel(), w)

        ds, cs = forward(state, xs, discriminate=True)
        dt, ct = forward(state, xt, discriminate=True)
        _, gs, gt = losses.weighted_da_loss_grads(ds.ravel(), labels, dt.ravel(), w)
        back_s = backward(state, cs, gs[:, None])
        back_t = backward(state, ct, gt[:, None])
        assert_grad_matches(state, "g", value, back_s.g + back_t.g)
        assert_grad_matches(state, "d", value, back_s.d + back_t.d)

    def test_weighted_da_through_outer_product(self):
        rng = np.random.default_rng(9)
        state = small_state(conditional=True, seed=9)
        xs = rng.normal(size=(5, 3))
        xt = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        w = WeightVector(np.array([0.5, 1.5, 1.0]))

        def value():
            ds, _ = forward(state, xs, discriminate=True)
            dt, _ = forward(state, xt, discriminate=True)
            return losses.weighted_da_loss(ds.ravel(), labels, dt.ravel(), w)

        ds, cs = forward(state, xs, discriminate=True)
        dt, ct = forward(state, xt, discriminate=True)
        _, gs, gt = losses.weighted_da_loss_grads(ds.ravel(), labels, dt.ravel(), w)
        back_s = backward(state, cs, gs[:, None])
        back_t = backward(state, ct, gt[:, None])
        assert_grad_matches(state, "g", value, back_s.g + back_t.g)
        assert_grad_matches(state, "h", value, back_s.h + back_t.h)
        assert_grad_matches(state, "d", value, back_s.d + back_t.d)

    def test_weighted_mmd_wrt_g(self):
        rng = np.random.default_rng(10)
        state = small_state(seed=10)
        xs = rng.normal(size=(6, 3))
        xt = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        w = WeightVector(np.array([1.5, 0.75, 1.0]))
        bw = [0.7, 1.3]

        def value():
            zs, _ = forward(state, xs)
            zt, _ = forward(state, xt)
            return losses.weighted_mmd_loss(zs, labels, zt, w, bw)

        zs, cs = forward(state, xs)
        zt, ct = forward(state, xt)
        _, g_zs, g_zt = losses.weighted_mmd_loss_grads(zs, labels, zt, w, bw)
        back_s = backward(state, cs, g_zs)
        back_t = backward(state, ct, g_zt)
        assert_grad_matches(state, "g", value, back_s.g + back_t.g)


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
                lambda: sgd_step(small_state(), ModelGrads(g=np.zeros(0)), lr=0.1, momentum=0.9),
                ShapeMismatch, "gradient for net g has shape (0,), expected (44,)", id="sgd-gradient-count",
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
        sgd_step(state, ModelGrads(g=np.ones_like(state.g.params)), lr=1.0, momentum=0.0)
        assert np.allclose(state.g.weights[0], w0 - 1.0)

    def test_two_steps_match_hand_unrolled_recursion(self):
        state = small_state(seed=12)
        w0 = state.h.weights[0].copy()
        sgd_step(state, ModelGrads(h=np.full_like(state.h.params, 0.5)), lr=0.1, momentum=0.9)
        sgd_step(state, ModelGrads(h=np.full_like(state.h.params, -0.25)), lr=0.1, momentum=0.9)
        v1 = 0.5
        v2 = 0.9 * v1 - 0.25
        expected = w0 - 0.1 * v1 - 0.1 * v2
        assert np.array_equal(state.h.weights[0], expected)

    def test_zero_grads_keep_params(self):
        state = small_state(seed=13)
        p0 = state.d.params.copy()
        sgd_step(state, ModelGrads(d=np.zeros_like(state.d.params)), lr=0.5, momentum=0.9)
        assert np.array_equal(state.d.params, p0)

    def test_shape_mismatch(self):
        # a gradient one entry short or long, for each net, is refused by name
        state = small_state(seed=14)
        for name in ("g", "h", "d"):
            size = getattr(state, name).params.size
            for bad in (size - 1, size + 1):
                with pytest.raises(ShapeMismatch, match=rf"^gradient for net {name} has shape \({bad},\), expected \({size},\)$"):
                    sgd_step(state, ModelGrads(**{name: np.zeros(bad)}), 0.1, 0.0)

    @pytest.mark.parametrize("conditional", [False, True])
    def test_equals_the_per_layer_step_over_momentum_steps(self, conditional):
        # the benchmark's shapes and its training step's gradients, through five steps
        state = benchmark_state(conditional, seed=3)
        nets = [getattr(state, name) for name in ("g", "h", "d")]
        ref = [
            ([w.copy() for w in net.weights], [b.copy() for b in net.biases],
             [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(net.weights, net.biases)])
            for net in nets
        ]
        rng = np.random.default_rng(4)
        for _ in range(5):
            grads = training_step_grads(state, rng, conditional)
            for net, (weights, biases, velocities), grad in zip(nets, ref, (grads.g, grads.h, grads.d)):
                sgd_step_per_layer(weights, biases, velocities, layer_views(net, grad), 0.05, 0.9)
            sgd_step(state, grads, 0.05, 0.9)
            for net, (weights, biases, velocities) in zip(nets, ref):
                want = np.concatenate([t.ravel() for pair in zip(weights, biases) for t in pair])
                assert np.array_equal(net.params, want)
                assert np.array_equal(net.velocity, np.concatenate([t.ravel() for pair in velocities for t in pair]))


class TestParameterVector:
    """Each net keeps its parameters in one vector; its layers are views of it."""

    @pytest.mark.parametrize("conditional", [False, True])
    def test_layers_are_views_in_draw_order(self, conditional):
        state = benchmark_state(conditional, seed=5)
        draws = np.random.default_rng(5)
        for net in (state.g, state.h, state.d):
            want = []
            for (w, b), (vw, vb) in zip(zip(net.weights, net.biases), layer_views(net, net.params)):
                for t, view in ((w, vw), (b, vb)):
                    assert t.shape == view.shape and t.ctypes.data == view.ctypes.data
                    assert t.base is net.params
                bound = 1.0 / np.sqrt(w.shape[0])
                want += [draws.uniform(-bound, bound, size=w.shape).ravel(), draws.uniform(-bound, bound, size=b.shape)]
            assert np.array_equal(net.params, np.concatenate(want))
            assert net.velocity.shape == net.params.shape and not net.velocity.any()

    def test_layers_cannot_be_rebound(self):
        net = small_state().g
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros_like(net.weights[0])
        with pytest.raises(TypeError):
            net.biases[0] = np.zeros_like(net.biases[0])
        net.biases[1][...] = 7.0
        assert np.array_equal(net.params[-net.biases[1].size :], np.full(net.biases[1].size, 7.0))

    @pytest.mark.parametrize("conditional", [False, True])
    def test_backwards_return_independent_vectors(self, conditional):
        state = small_state(conditional=conditional, seed=18)
        _, cache = forward(state, np.random.default_rng(18).normal(size=(6, 3)), discriminate=True)
        grad_out, grad_preds = np.ones((6, 1)), np.full((6, 3), 0.1)
        first = backward(state, cache, grad_out, grad_preds, 1.0)
        second = backward(state, cache, grad_out, grad_preds, 1.0)
        for name in ("g", "h", "d"):
            a, b = getattr(first, name), getattr(second, name)
            assert a.shape == getattr(state, name).params.shape
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("conditional", [False, True])
    def test_backward_equals_the_per_layer_reference(self, conditional):
        # each net's backward at the benchmark's 256 stacked rows
        state = benchmark_state(conditional, seed=6)
        rng = np.random.default_rng(6)
        _, cache = forward(state, rng.normal(scale=2.0, size=(256, 2)), discriminate=True)
        for name in ("g", "h", "d"):
            net, net_cache = getattr(state, name), cache[name]
            grad_out = rng.normal(size=net_cache["out"].shape)
            grad, grad_in = net.backward(net_cache, grad_out)
            ref, ref_in = mlp_backward_per_layer(net, net_cache, grad_out)
            assert np.array_equal(grad, np.concatenate([t.ravel() for pair in ref for t in pair]))
            assert np.array_equal(grad_in, ref_in)

    @pytest.mark.parametrize("head, k", [("softmax", k) for k in range(2, 11)] + [("linear", 1), ("tanh", 32)])
    def test_head_equals_the_reference(self, head, k):
        rng = np.random.default_rng(k)
        net = Mlp([32, k], head, rng)
        x = rng.normal(scale=30.0, size=(256, 32))  # wide enough to saturate tanh and the softmax
        out, _ = net.forward(x)
        assert np.array_equal(out, mlp_head(head, x @ net.weights[0] + net.biases[0]))


def cache_arrays(cache):
    """(name, array) for every array a ``forward`` cache holds."""
    arrays = [("z", cache["z"]), ("p", cache["p"])]
    for net in ("g", "h", "d"):
        if net in cache:
            arrays += [(f"{net} input {i}", a) for i, a in enumerate(cache[net]["inputs"])]
            arrays.append((f"{net} out", cache[net]["out"]))
    return arrays


STEP_CASES = [(False, False), (False, True), (True, True)]


class TestInPlaceContract:
    """Each layer computes in place on the arrays its own call allocates, never on one its caller holds."""

    @pytest.mark.parametrize(
        "sizes, head",
        [([3, 3], "softmax"), ([3, 5, 3], "softmax"), ([3, 3], "tanh"), ([3, 5, 4], "tanh"), ([3, 5, 1], "linear")],
    )
    def test_mlp_forward_leaves_x(self, sizes, head):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(6, 3))
        keep = x.copy()
        Mlp(sizes, head, rng).forward(x)
        assert x.tobytes() == keep.tobytes()

    @pytest.mark.parametrize("conditional, discriminate", STEP_CASES)
    def test_network_forward_leaves_x(self, conditional, discriminate):
        x = np.random.default_rng(31).normal(size=(6, 3))
        keep = x.copy()
        forward(small_state(conditional, seed=31), x, discriminate)
        assert x.tobytes() == keep.tobytes()

    @pytest.mark.parametrize("conditional, discriminate", STEP_CASES)
    def test_backward_leaves_its_arguments_and_the_cache(self, conditional, discriminate):
        rng = np.random.default_rng(32)
        state = small_state(conditional, seed=32)
        out, cache = forward(state, rng.normal(size=(6, 3)), discriminate)
        grad_out, grad_preds = rng.normal(size=out.shape), rng.normal(size=cache["p"].shape)
        arrays = [("grad_out", grad_out), ("grad_preds", grad_preds), *cache_arrays(cache)]
        before = [a.tobytes() for _, a in arrays]
        for args in ((grad_out, grad_preds, 2.0), (grad_out,), (None, grad_preds)):
            backward(state, cache, *args)
            assert [name for (name, a), b in zip(arrays, before) if a.tobytes() != b] == []

    @pytest.mark.parametrize("conditional, discriminate", STEP_CASES)
    def test_two_forwards_share_no_memory(self, conditional, discriminate):
        rng = np.random.default_rng(33)
        state = small_state(conditional, seed=33)
        first, second = (forward(state, rng.normal(size=(6, 3)), discriminate) for _ in range(2))
        for (name, a), (_, b) in zip(cache_arrays(first[1]), cache_arrays(second[1])):
            assert not np.shares_memory(a, b), name
        assert not np.shares_memory(first[0], second[0])

    @pytest.mark.parametrize("conditional", [False, True])
    def test_cache_holds_the_layer_inputs(self, conditional):
        state = benchmark_state(conditional, seed=34)
        x = np.random.default_rng(34).normal(size=(8, 2))
        _, cache = forward(state, x, discriminate=True)
        for name in ("g", "h", "d"):
            net, inputs = getattr(state, name), cache[name]["inputs"]
            assert len(inputs) == len(net.weights)
            for a, w, b, nxt in zip(inputs, net.weights, net.biases, inputs[1:]):
                assert np.array_equal(nxt, np.tanh(a @ w + b))
        assert cache["g"]["inputs"][0] is x and cache["h"]["inputs"][0] is cache["z"]


class TestDeterminismAndCheckpoints:
    def test_same_seed_same_params_after_steps(self):
        def run():
            state = small_state(seed=15)
            rng = np.random.default_rng(99)
            for _ in range(5):
                x = rng.normal(size=(4, 3))
                labels = rng.integers(0, 3, size=4)
                _, cache = forward(state, x)
                _, gpred = losses.cross_entropy_loss_grads(cache["p"], labels)
                grads = backward(state, cache, None, gpred)
                sgd_step(state, ModelGrads(g=grads.g, h=grads.h), 0.05, 0.9)
            return flatten_net_params(state.g), flatten_net_params(state.h)

        a_g, a_h = run()
        b_g, b_h = run()
        assert np.array_equal(a_g, b_g)
        assert np.array_equal(a_h, b_h)

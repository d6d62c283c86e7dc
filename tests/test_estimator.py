import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gls_adapt import distributions, estimator
from gls_adapt.cli import main
from gls_adapt.distributions import Categorical
from gls_adapt.errors import GlsAdaptError, InvalidValue, NonFiniteValue, ShapeMismatch
from gls_adapt.estimator import (
    ConfusionAccumulator,
    WeightVector,
    ema_update,
    exact_inverse_weights,
    solve_qp,
    true_weights,
)

from _oracles import (
    accumulated_sums,
    kkt_residual,
    qp_grid_oracle,
    qp_objective,
    random_categorical,
    solve_qp_reference,
)


def cat(*probs):
    return Categorical(np.array(probs, dtype=float))


class TestAccumulator:
    def test_single_one_hot_sample(self):
        acc = ConfusionAccumulator(2)
        acc.accumulate(np.array([[1.0, 0.0]]), [0], np.array([[0.4, 0.6]]))
        assert np.allclose(acc.c_hat, [[1.0, 0.0], [0.0, 0.0]])
        c, mu = acc.finalize()
        assert np.allclose(c, [[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(mu.probs, [0.4, 0.6])

    def test_soft_prediction_fills_column(self):
        acc = ConfusionAccumulator(2)
        acc.accumulate(np.array([[0.3, 0.7]]), [1], np.array([[0.5, 0.5]]))
        assert np.allclose(acc.c_hat[:, 1], [0.3, 0.7])
        assert np.allclose(acc.c_hat[:, 0], [0.0, 0.0])

    def test_one_hot_correct_batch_gives_diagonal(self):
        rng = np.random.default_rng(0)
        labels = rng.choice(2, size=100, p=[0.5, 0.5])
        preds = np.eye(2)[labels]
        acc = ConfusionAccumulator(2)
        acc.accumulate(preds, labels, preds)
        c, _ = acc.finalize()
        emp = np.bincount(labels, minlength=2) / 100
        assert np.allclose(np.diag(c), emp)
        assert np.allclose(c - np.diag(np.diag(c)), 0.0)

    def test_two_batches_equal_one_concatenated(self):
        rng = np.random.default_rng(1)
        preds = rng.dirichlet(np.ones(3), size=40)
        labels = rng.integers(0, 3, size=40)
        tgt = rng.dirichlet(np.ones(3), size=40)
        split = ConfusionAccumulator(3)
        split.accumulate(preds[:20], labels[:20], tgt[:20])
        split.accumulate(preds[20:], labels[20:], tgt[20:])
        whole = ConfusionAccumulator(3)
        whole.accumulate(preds, labels, tgt)
        cs, ms = split.finalize()
        cw, mw = whole.finalize()
        assert np.allclose(cs, cw, atol=1e-14)
        assert np.allclose(ms.probs, mw.probs, atol=1e-14)

    def test_matches_one_pass_average_oracle(self):
        rng = np.random.default_rng(2)
        k = 4
        preds = rng.dirichlet(np.ones(k), size=60)
        labels = rng.integers(0, k, size=60)
        tgt = rng.dirichlet(np.ones(k), size=50)
        acc = ConfusionAccumulator(k)
        acc.accumulate(preds[:17], labels[:17], tgt[:13])
        acc.accumulate(preds[17:], labels[17:], tgt[13:])
        c, mu = acc.finalize()
        c_oracle = np.zeros((k, k))
        for row, y in zip(preds, labels):
            c_oracle[:, y] += row
        c_oracle /= 60
        mu_oracle = tgt.sum(axis=0) / 50
        assert np.allclose(c, c_oracle, atol=1e-12)
        assert np.allclose(mu.probs, mu_oracle / mu_oracle.sum(), atol=1e-12)

    def test_finalize_invariants(self):
        rng = np.random.default_rng(3)
        k = 5
        labels = rng.integers(0, k, size=200)
        preds = rng.dirichlet(np.ones(k), size=200)
        acc = ConfusionAccumulator(k)
        acc.accumulate(preds, labels, preds)
        c, mu = acc.finalize()
        col_sums = c.sum(axis=0)
        emp = np.bincount(labels, minlength=k) / 200
        assert np.max(np.abs(col_sums - emp)) < 1e-9
        assert abs(mu.probs.sum() - 1.0) < 1e-9
        assert abs(c.sum() - 1.0) < 1e-9

    def test_empty_accumulator(self):
        with pytest.raises(InvalidValue, match="no source or no target samples accumulated"):
            ConfusionAccumulator(2).finalize()

    def test_shape_and_label_errors(self):
        acc = ConfusionAccumulator(2)
        with pytest.raises(ShapeMismatch):
            acc.accumulate(np.array([[1.0, 0.0, 0.0]]), [0], np.array([[1.0, 0.0]]))
        with pytest.raises(ShapeMismatch):
            acc.accumulate(np.array([[0.7, 0.7]]), [0], np.array([[1.0, 0.0]]))
        with pytest.raises(InvalidValue, match=r"labels must lie in \[0, 2\)"):
            acc.accumulate(np.array([[1.0, 0.0]]), [2], np.array([[1.0, 0.0]]))
        with pytest.raises(InvalidValue, match="need at least 2 classes, got k=1"):
            ConfusionAccumulator(1)

    @pytest.mark.parametrize("bad_row", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0], [np.inf, -np.inf]])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_non_finite_prediction_rows_raise(self, bad_row, side):
        good = np.array([[0.6, 0.4], [0.2, 0.8]])
        bad = np.array([[0.6, 0.4], bad_row])
        src, tgt = (bad, good) if side == "source" else (good, bad)
        acc = ConfusionAccumulator(2)
        with pytest.raises(ShapeMismatch, match=f"{side}_preds rows must be finite and sum to 1"):
            acc.accumulate(src, [0, 1], tgt)
        # the accumulator is left untouched
        assert acc.n_source == acc.n_target == 0

    @pytest.mark.parametrize(
        "labels",
        [[0.0, 1.0], np.array([0.0, 1.0], dtype=np.float32), [True, False], np.array([0.5, 1.0])],
        ids=["float-list", "float32", "bool", "fractional"],
    )
    def test_non_integer_labels_raise(self, labels):
        # boolean labels would otherwise index as a mask: both rows land in column 0
        preds = np.array([[0.3, 0.7], [0.4, 0.6]])
        acc = ConfusionAccumulator(2)
        with pytest.raises(InvalidValue, match="source_labels must be integers, got dtype"):
            acc.accumulate(preds, labels, preds)
        assert acc.n_source == acc.n_target == 0 and not acc.c_hat.any()

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64])
    def test_integer_labels_of_any_width(self, dtype):
        preds = np.array([[0.25, 0.75], [0.5, 0.5], [0.75, 0.25]])
        acc = ConfusionAccumulator(2).accumulate(preds, np.array([1, 0, 1], dtype=dtype), preds)
        assert np.array_equal(acc.c_hat, [[0.5, 1.0], [0.5, 1.0]])


class TestRowSumCheck:
    """Every prediction row must be finite and sum to 1 within ROW_TOL, and no input warns."""

    def accumulate(self, k, side, row):
        good = np.full((3, k), 1.0 / k)
        bad = good.copy()
        bad[1] = row
        src, tgt = (bad, good) if side == "source" else (good, bad)
        acc = ConfusionAccumulator(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return acc.accumulate(src, [0, 1, k - 1], tgt)

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize("off, passes", [(2e-6, False), (-2e-6, False), (5e-7, True), (-5e-7, True)])
    def test_tolerance_boundary(self, k, side, off, passes):
        assert distributions.ROW_TOL == 1e-6
        row = np.full(k, 1.0 / k)
        row[0] += off
        if passes:
            assert self.accumulate(k, side, row).n_source == 3
        else:
            with pytest.raises(ShapeMismatch, match=f"{side}_preds rows must be finite and sum to 1 within 1e-06"):
                self.accumulate(k, side, row)

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize(
        "values",
        [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf], [1e308, 1e308]],
        ids=["nan", "inf", "-inf", "inf-and-minus-inf", "huge-finite"],
    )
    def test_non_finite_or_overflowing_rows_raise(self, k, side, values):
        row = np.zeros(k)
        row[: len(values)] = values
        with pytest.raises(ShapeMismatch, match=f"{side}_preds rows must be finite and sum to 1 within 1e-06"):
            self.accumulate(k, side, row)


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestSumsMatchTheReference:
    """C and mu equal the frozen reference reductions bit for bit on C-ordered input."""

    @staticmethod
    def batches(seed, k, n_source, n_target, calls):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, k, size=n_source)
        source = _softmax(rng.standard_normal((n_source, k)) * 3.0)
        target = rng.dirichlet(np.ones(k), size=n_target)
        cuts_s = np.sort(rng.integers(0, n_source + 1, size=calls - 1))
        cuts_t = np.sort(rng.integers(0, n_target + 1, size=calls - 1))
        return list(zip(np.split(source, cuts_s), np.split(labels, cuts_s), np.split(target, cuts_t)))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 10),
        n_source=st.integers(0, 3300),
        n_target=st.integers(0, 3300),
        calls=st.integers(1, 4),
    )
    def test_streamed_batches(self, seed, k, n_source, n_target, calls):
        batches = self.batches(seed, k, n_source, n_target, calls)
        acc = ConfusionAccumulator(k)
        for sp, labels, tp in batches:
            acc.accumulate(sp, labels, tp)
        c_ref, mu_ref = accumulated_sums(batches, k)
        assert np.array_equal(acc.c_hat, c_ref) and np.array_equal(acc.mu_hat, mu_ref)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_training_step_halves(self, k):
        # the trainer passes the [:128] and [128:] views of one stacked softmax output
        rng = np.random.default_rng(k)
        acc, batches = ConfusionAccumulator(k), []
        for _ in range(25):
            preds = _softmax(rng.standard_normal((256, k)) * 2.0)
            batch = (preds[:128], rng.integers(0, k, size=128), preds[128:])
            acc.accumulate(*batch)
            batches.append(batch)
        c_ref, mu_ref = accumulated_sums(batches, k)
        assert np.array_equal(acc.c_hat, c_ref) and np.array_equal(acc.mu_hat, mu_ref)

    def test_kernel_equals_accumulate(self):
        # the training step checks the stacked predictions itself and calls the kernel on its halves
        rng = np.random.default_rng(11)
        public, kernel = ConfusionAccumulator(3), ConfusionAccumulator(3)
        for _ in range(3):
            preds = _softmax(rng.standard_normal((256, 3)) * 2.0)
            labels = rng.integers(0, 3, size=128)
            assert public.accumulate(preds[:128], labels, preds[128:]) is public
            assert kernel._accumulate(preds[:128], labels, preds[128:]) is kernel
        assert np.array_equal(kernel.c_hat, public.c_hat) and np.array_equal(kernel.mu_hat, public.mu_hat)
        assert (kernel.n_source, kernel.n_target) == (public.n_source, public.n_target) == (384, 384)

    @pytest.mark.parametrize("seed", range(6))
    def test_fortran_ordered_input_agrees_within_rounding(self, seed):
        # the reference sums F-ordered columns pairwise, the accumulator row by row
        k, n = 2 + seed, 500 * (seed + 1)
        batches = [(np.asfortranarray(sp), y, np.asfortranarray(tp)) for sp, y, tp in self.batches(seed, k, n, n, 3)]
        acc = ConfusionAccumulator(k)
        for batch in batches:
            acc.accumulate(*batch)
        c_ref, mu_ref = accumulated_sums(batches, k)
        assert np.array_equal(acc.c_hat, c_ref)
        assert np.all(np.abs(acc.mu_hat - mu_ref) <= n * np.finfo(float).eps * mu_ref)


class TestTypedErrors:
    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: WeightVector(np.ones(1)), ShapeMismatch),
            (lambda: WeightVector(np.array([1.0, np.nan])), NonFiniteValue),
            (lambda: ConfusionAccumulator(1), InvalidValue),
        ],
    )
    def test_package_errors_stay_value_errors(self, make, error):
        with pytest.raises(error) as info:
            make()
        assert isinstance(info.value, GlsAdaptError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize(
        "make, error, message",
        [
            pytest.param(
                lambda: ConfusionAccumulator(2).accumulate(np.eye(2), [0], np.eye(2)),
                ShapeMismatch, "source_labels has shape (1,), expected (2,)", id="accumulate-label-count",
            ),
            pytest.param(
                lambda: true_weights(cat(0.5, 0.5), cat(0.2, 0.3, 0.5)),
                ShapeMismatch, "lengths 2 and 3 differ", id="true-weights-lengths",
            ),
            pytest.param(
                lambda: exact_inverse_weights(np.eye(3), cat(0.5, 0.5)),
                ShapeMismatch, "C has shape (3, 3), expected (2, 2)", id="inverse-c-shape",
            ),
            pytest.param(
                lambda: solve_qp(np.eye(2), cat(0.2, 0.3, 0.5), cat(0.2, 0.3, 0.5)),
                ShapeMismatch, "C has shape (2, 2), expected (3, 3)", id="qp-c-shape",
            ),
            pytest.param(
                lambda: solve_qp(np.eye(3), cat(0.5, 0.5), cat(0.2, 0.3, 0.5)),
                ShapeMismatch, "mu has length 2, expected 3", id="qp-mu-length",
            ),
        ],
    )
    def test_names_the_cause(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message


class TestTrueWeights:
    def test_no_shift_is_ones(self):
        p = cat(0.5, 0.3, 0.2)
        assert np.allclose(true_weights(p, p).w, 1.0)

    def test_ratio(self):
        w = true_weights(cat(0.5, 0.5), cat(0.7, 0.3))
        assert np.allclose(w.w, [1.4, 0.6])

    def test_normalization_identity_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = rng.integers(2, 12)
            p_s = Categorical(random_categorical(rng, k))
            p_t = Categorical(random_categorical(rng, k, floor=0.0))
            w = true_weights(p_s, p_t)
            assert abs(float(w.w @ p_s.probs) - 1.0) < 1e-12

    def test_zero_source_class(self):
        with pytest.raises(InvalidValue, match="source label distribution has a zero entry"):
            true_weights(cat(1.0, 0.0), cat(0.5, 0.5))

    def test_subsampled_first_half_pattern(self):
        # Published estimate table for the subsampled 10-class task: true
        # ratios are >1 on the subsampled first half, <1 on the rest.
        published = np.array([1.19, 1.61, 1.96, 2.24, 2.16, 0.70, 0.64, 0.70, 0.78, 0.66])
        assert (published[:5] > 1.0).all() and (published[5:] < 1.0).all()
        p_t = Categorical(np.full(10, 0.1))
        raw = np.full(10, 0.1)
        raw[:5] *= 0.3  # keep 30% of the first five classes
        p_s = Categorical.normalize(raw)
        w = true_weights(p_s, p_t)
        assert (w.w[:5] > 1.0).all()
        assert (w.w[5:] < 1.0).all()


class TestExactInverse:
    def test_diagonal(self):
        w = exact_inverse_weights(np.diag([0.5, 0.5]), cat(0.7, 0.3))
        assert np.allclose(w.w, [1.4, 0.6])

    def test_no_shift(self):
        p = np.array([0.6, 0.4])
        w = exact_inverse_weights(np.diag(p), cat(*p))
        assert np.allclose(w.w, 1.0)

    def test_two_by_two_hand_solve(self):
        # 0.4 a + 0.1 b = 0.5 and 0.1 a + 0.4 b = 0.5 gives a = b = 1
        w = exact_inverse_weights(np.array([[0.4, 0.1], [0.1, 0.4]]), cat(0.5, 0.5))
        assert np.allclose(w.w, [1.0, 1.0])

    def test_allows_negative_output(self):
        w = exact_inverse_weights(np.array([[0.5, 0.3], [0.1, 0.1]]), cat(0.9, 0.1))
        assert np.allclose(w.w, [3.0, -2.0])

    def test_singular_raises(self):
        with pytest.raises(NonFiniteValue, match=r"condition number .* exceeds cap 1e\+08"):
            exact_inverse_weights(np.array([[0.5, 0.5], [0.5, 0.5]]), cat(0.5, 0.5))


def random_confusion(rng, k, diag_boost=0.6):
    """Confusion-like matrix: columns are class-conditional prediction laws
    scaled by class mass, with a dominant diagonal (classifier better than
    chance keeps the problem well conditioned)."""
    cond = rng.dirichlet(np.ones(k), size=k).T  # column y: law of preds given y
    cond = diag_boost * np.eye(k) + (1.0 - diag_boost) * cond
    p_s = random_categorical(rng, k)
    return cond * p_s[None, :], p_s


@st.composite
def degenerate_qp(draw):
    """A k = 2 or 3 problem whose C has a duplicated, a 1e-9-near-duplicate or a zero column,
    or two columns in the ratio of their classes' p, up to 1e-8: indistinguishable classes."""
    k = draw(st.integers(2, 3))
    grid = st.integers(0, 100).map(lambda v: v / 100)
    c = draw(arrays(np.float64, (k, k), elements=grid))
    p = draw(arrays(np.float64, k, elements=st.integers(1, 100).map(float)))
    p = p / p.sum()
    j = draw(st.integers(1, k - 1))
    style = draw(st.sampled_from(["duplicate", "near-duplicate", "zero", "indistinguishable"]))
    c[:, j] = {
        "duplicate": c[:, 0],
        "near-duplicate": c[:, 0] + 1e-9 * c[:, j],
        "zero": 0.0,
        "indistinguishable": c[:, 0] * p[j] / p[0] * (1.0 + 1e-8 * c[:, j]),
    }[style]
    c = c / c.sum() if c.sum() > 0 else c
    mu = draw(arrays(np.float64, k, elements=grid).filter(lambda v: v.sum() > 0))
    return c, mu / mu.sum(), p


class TestSolveQp:
    def test_zero_residual_feasible_point(self):
        p = cat(0.5, 0.3, 0.2)
        w = solve_qp(np.diag(p.probs), p, p)
        assert np.allclose(w.w, 1.0, atol=1e-8)

    def test_matches_exact_inverse_when_feasible(self):
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(200):
            k = int(rng.integers(2, 5))
            c, p_s = random_confusion(rng, k)
            p_t = random_categorical(rng, k)
            mu = Categorical.normalize(c @ (p_t / p_s))
            inv = exact_inverse_weights(c, mu).w
            if np.all(inv >= 0):
                hits += 1
                w = solve_qp(c, mu, Categorical(p_s))
                assert np.allclose(w.w, inv, atol=1e-6)
        assert hits > 100

    def test_clamps_negative_coordinate_to_boundary(self):
        c = np.array([[0.5, 0.3], [0.1, 0.1]])
        mu = cat(0.9, 0.1)
        p = cat(0.6, 0.4)
        assert exact_inverse_weights(c, mu).w[1] < 0
        w = solve_qp(c, mu, p)
        w_oracle, val_oracle = qp_grid_oracle(c, mu.probs, p.probs)
        assert np.max(np.abs(w.w - w_oracle)) < 1e-4
        assert abs(qp_objective(c, w.w, mu.probs) - val_oracle) < 1e-8
        assert w.w[1] == 0.0

    def test_constraints_always_hold(self):
        rng = np.random.default_rng(6)
        for trial in range(300):
            k = int(rng.integers(2, 6))
            c, p_s = random_confusion(rng, k)
            if trial % 5 == 0:
                c[:, rng.integers(0, k)] = 0.0  # rank-deficient column
            mu = Categorical(random_categorical(rng, k))
            with np.errstate(all="ignore"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    w = solve_qp(c, mu, Categorical(p_s))
            assert np.all(w.w >= 0.0)
            assert abs(float(w.w @ p_s) - 1.0) < 1e-8

    def test_candidate_dominance(self):
        # optimum must beat the normalized all-ones vector and the clamped
        # exact inverse on every random instance
        rng = np.random.default_rng(7)
        for _ in range(500):
            k = int(rng.integers(2, 6))
            c, p_s = random_confusion(rng, k)
            mu = Categorical(random_categorical(rng, k))
            w = solve_qp(c, mu, Categorical(p_s))
            val = qp_objective(c, w.w, mu.probs)
            ones = np.ones(k)
            cands = [ones / (ones @ p_s)]
            try:
                inv = exact_inverse_weights(c, mu).w
                clamped = np.maximum(inv, 0.0)
                denom = clamped @ p_s
                if denom > 0:
                    cands.append(clamped / denom)
            except NonFiniteValue:
                pass
            for cand in cands:
                assert val <= qp_objective(c, cand, mu.probs) + 1e-10

    def test_recovers_true_weights_under_matching_conditionals(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = int(rng.integers(2, 11))
            c, p_s = random_confusion(rng, k)
            p_t = random_categorical(rng, k)
            w_star = p_t / p_s
            mu = Categorical.normalize(c @ w_star)
            w = solve_qp(c, mu, Categorical(p_s))
            assert np.max(np.abs(w.w - w_star)) < 1e-6

    def test_diagonal_confusion_returns_planted_weights(self):
        # zero source error: diagonal confusion plus consistent predictions
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            p_s = random_categorical(rng, k)
            tilde = random_categorical(rng, k) / p_s
            tilde = tilde / (tilde @ p_s)
            c = np.diag(p_s)
            mu = Categorical.normalize(c @ tilde)
            w = solve_qp(c, mu, Categorical(p_s))
            assert np.max(np.abs(w.w - tilde)) < 1e-8

    def test_truncation_raises(self, monkeypatch):
        # all target mass near class 0: seven of eight weights reach zero,
        # one active-set iteration each, so three iterations cannot finish
        c, p_s = random_confusion(np.random.default_rng(0), 8)
        mu = Categorical(0.9 * np.eye(8)[0] + 0.1 / 8)
        assert np.count_nonzero(solve_qp(c, mu, Categorical(p_s)).w) == 1
        monkeypatch.setattr(estimator, "MAX_ITER", 3)
        with pytest.raises(NonFiniteValue, match="did not converge in 3 active-set iterations"):
            solve_qp(c, mu, Categorical(p_s))

    def test_degenerate_p_source(self):
        with pytest.raises(InvalidValue, match="p_source must be strictly positive"):
            solve_qp(np.eye(2) / 2, cat(0.5, 0.5), Categorical(np.array([1.0, 0.0])))

    def test_zero_column_warns(self):
        c = np.array([[0.6, 0.0], [0.4, 0.0]])
        with pytest.warns(RuntimeWarning):
            solve_qp(c, cat(0.5, 0.5), cat(0.5, 0.5))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        c, p_s = random_confusion(rng, 4)
        mu = Categorical(random_categorical(rng, 4))
        w1 = solve_qp(c, mu, Categorical(p_s))
        w2 = solve_qp(c, mu, Categorical(p_s))
        assert np.array_equal(w1.w, w2.w)

    def test_pathological_matrices_stress(self):
        # zero columns, rank-1, duplicated columns and near-diagonal, at
        # class counts up to 65; constraints and the KKT certificate must hold
        rng = np.random.default_rng(12)
        for trial in range(300):
            k = int(rng.integers(2, 66))
            style = trial % 5
            if style == 0:
                c = rng.random((k, k))
            elif style == 1:
                c = rng.random((k, k))
                c[:, rng.choice(k, size=max(1, k // 2), replace=False)] = 0.0
            elif style == 2:
                u = rng.random(k)
                c = np.outer(u / u.sum(), random_categorical(rng, k))
            elif style == 3:
                c = rng.random((k, k))
                c[:, 1] = c[:, 0]
            else:
                c = np.diag(random_categorical(rng, k)) + 1e-9 * rng.random((k, k))
            total = c.sum()
            c = c / total if total > 0 else np.eye(k) / k
            mu = Categorical(random_categorical(rng, k, floor=0.0))
            p = Categorical(random_categorical(rng, k))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                w = solve_qp(c, mu, p)
            assert np.all(w.w >= 0)
            assert abs(float(w.w @ p.probs) - 1.0) < 1e-8
            residual, scale = kkt_residual(c, mu.probs, p.probs, w.w)
            assert residual <= 1e-9 * scale

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(degenerate_qp())
    def test_degenerate_matrices_match_grid_oracle(self, problem):
        c, mu, p = problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = solve_qp(c, Categorical(mu), Categorical(p)).w
        w_oracle, val_oracle = qp_grid_oracle(c, mu, p)
        residual, scale = kkt_residual(c, mu, p, w)
        assert residual <= 1e-9 * scale
        # Within the residual's bound of the optimum: on indistinguishable classes the
        # objective is flat to ~1e-9 along a direction the normal equations cannot see.
        gap_bound = residual * (np.abs(w).sum() + np.abs(w_oracle).sum())
        assert qp_objective(c, w, mu) <= val_oracle + 1e-12 + gap_bound

    @pytest.mark.parametrize("eps", [1e-9, 1e-8, 1e-7])
    def test_indistinguishable_classes_reach_the_optimum(self, eps):
        # both classes are predicted 0.9/0.1, up to eps: the columns of C stand in the
        # ratio of p, so the normal equations lose the direction that tells them apart,
        # while the objective still falls along it to the vertex w = (1 / p_0, 0)
        p = np.array([0.3, 0.7])
        c = np.array([[0.9, 0.9 * (1 + eps)], [0.1, 0.1 * (1 - eps)]]) * p
        mu = np.array([0.2, 0.8])
        w = solve_qp(c, Categorical(mu), Categorical(p)).w
        _, val_oracle = qp_grid_oracle(c, mu, p)
        assert qp_objective(c, w, mu) <= val_oracle + 1e-12
        assert np.allclose(w, [1 / 0.3, 0.0], atol=1e-12)

    @pytest.mark.parametrize("broken", ["normalization", "multiplier"])
    def test_certificate_rejects_a_perturbed_kkt_solve(self, monkeypatch, broken):
        # an interior optimum, so the first working set is the last; with C = diag(p)
        # a shift of w by 1e-6 / p moves the gradient along p, which no free-set
        # direction can descend, so only the certificate sees the broken w.p = 1; it is
        # reached by the all-free first working set, in one solve
        args = (np.diag([0.5, 0.3, 0.2]), cat(0.2, 0.3, 0.5), cat(0.5, 0.3, 0.2))
        assert np.allclose(solve_qp(*args).w, [0.4, 1.0, 2.5])
        lstsq, sizes = np.linalg.lstsq, []

        def perturbed(a, rhs, rcond=None):
            sizes.append(a.shape[0])
            sol, *rest = lstsq(a, rhs, rcond=rcond)
            if broken == "normalization":
                sol[:-1] += 1e-6 / a[-1, :-1]  # the last KKT row is p
            else:
                sol[-1] += 1e-6  # stationarity fails on the free set: 1e-6 * p
            return (sol, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", perturbed)
        with pytest.raises(NonFiniteValue, match="fails its KKT certificate: residual"):
            solve_qp(*args)
        assert sizes == [4]

    def test_certificate_rejects_an_early_stop(self, monkeypatch):
        # with the loop's dual-sign test off, the solver stops at the first feasible
        # working set; where that is not the optimum an active-set multiplier is
        # negative, which only the certificate's dual-sign term then sees
        monkeypatch.setattr(estimator, "DUAL_TOL", np.inf)
        refused = []
        for j, (style, c, mu, p) in enumerate(ORACLE_SUITE):
            try:
                w = solve_warned(solve_qp, style, c, mu, p).w
            except NonFiniteValue as exc:
                assert "fails its KKT certificate" in str(exc)
                refused.append(j)
                continue
            residual, scale = kkt_residual(c, mu.probs, p.probs, w)
            assert residual <= 1e-9 * scale, (j, style)
        assert refused

    def test_non_finite_confusion_raises(self):
        with pytest.raises(NonFiniteValue, match="C contains non-finite entries"):
            solve_qp(np.array([[0.5, np.nan], [0.0, 0.5]]), cat(0.5, 0.5), cat(0.5, 0.5))


QP_STYLES = (
    "accumulated", "matched", "duplicated", "rank-1", "zero-column", "interior", "indistinguishable", "weak",
)


def oracle_problem(j):
    """Problem ``j`` of the oracle suite: k = 2 + j % 9 and style ``QP_STYLES[j % 8]``, so the
    first 72 problems meet every pair once. Returns (style, C, mu, p_source)."""
    rng = np.random.default_rng([2024, j])
    k, style = 2 + j % 9, QP_STYLES[j % len(QP_STYLES)]
    if style in ("accumulated", "matched"):
        # prediction rows as estimate-weights reads them; some target classes get no mass
        counts = 5 + rng.multinomial(300, rng.dirichlet(np.full(k, 4.0)))
        labels = rng.permutation(np.repeat(np.arange(k), counts))
        source = _softmax(3.0 * np.eye(k)[labels] + rng.standard_normal((labels.size, k)))
        zero = rng.choice(k, size=max(1, k // 3), replace=False) if j % 3 == 0 else []
        if style == "matched":
            reps = rng.integers(1, 3, size=k)
            reps[zero] = 0
            target = np.concatenate([np.repeat(source[labels == y], reps[y], axis=0) for y in range(k)])
        else:
            p_target = rng.dirichlet(np.ones(k))
            p_target[zero] = 0.0
            target_labels = np.repeat(np.arange(k), rng.multinomial(300, p_target / p_target.sum()))
            target = _softmax(4.0 * np.eye(k)[target_labels] + rng.standard_normal((target_labels.size, k)))
        c, mu = ConfusionAccumulator(k).accumulate(source, labels, target).finalize()
        return style, c, mu, Categorical(counts / labels.size)
    # a classifier barely better than chance: classes leave the working set and come back
    c, p_s = random_confusion(rng, k, diag_boost=0.05 if style == "weak" else 0.6)
    mu = Categorical(random_categorical(rng, k, floor=0.0))
    if style == "duplicated":
        c[:, -1] = c[:, 0]
    elif style == "rank-1":
        c = np.outer(random_categorical(rng, k), p_s)
    elif style == "zero-column":
        c[:, rng.choice(k, size=1 + j % 2, replace=False)] = 0.0
    elif style == "interior":
        w_star = rng.uniform(0.5, 1.5, size=k)
        mu = Categorical.normalize(c @ (w_star / (w_star @ p_s)))
    elif style == "indistinguishable":
        # the last column stands to the first in the ratio of their classes' mass, up to 1e-8
        c[:, -1] = c[:, 0] * p_s[-1] / p_s[0] * (1.0 + 1e-8 * rng.random(k))
    return style, c, mu, Categorical(p_s)


ORACLE_SUITE = [oracle_problem(j) for j in range(240)]


def solve_warned(solver, style, c, mu, p):
    if style == "zero-column":
        with pytest.warns(RuntimeWarning, match="confusion matrix has all-zero columns for classes"):
            return solver(c, mu, p)
    return solver(c, mu, p)


def counted_lstsq(monkeypatch):
    """Patch ``np.linalg.lstsq`` to record each call's (rank, system size); return the record."""
    calls, lstsq = [], np.linalg.lstsq

    def counting(a, rhs, rcond=None):
        out = lstsq(a, rhs, rcond=rcond)
        calls.append((int(out[2]), a.shape[0]))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


class TestSolveQpMatchesTheReference:
    """``solve_qp`` returns the frozen reference's bytes, its errors and its ``lstsq`` calls."""

    def test_same_bytes_over_the_suite(self):
        styles = {style for style, *_ in ORACLE_SUITE}
        assert len(ORACLE_SUITE) >= 200 and styles == set(QP_STYLES)
        assert {c.shape[0] for _, c, _, _ in ORACLE_SUITE} == set(range(2, 11))
        for j, (style, c, mu, p) in enumerate(ORACLE_SUITE):
            got = solve_warned(solve_qp, style, c, mu, p).w
            want = solve_warned(solve_qp_reference, style, c, mu, p).w
            assert got.tobytes() == want.tobytes(), (j, style, got, want)

    def test_same_lstsq_calls_over_the_suite(self, monkeypatch):
        calls = counted_lstsq(monkeypatch)
        solves = {solve_qp: [], solve_qp_reference: []}  # per problem, the (rank, size) of each call
        for style, c, mu, p in ORACLE_SUITE:
            for solver, record in solves.items():
                start = len(calls)
                solve_warned(solver, style, c, mu, p)
                record.append(calls[start:])
        assert solves[solve_qp] == solves[solve_qp_reference]  # so the totals match too
        counts = [len(record) for record in solves[solve_qp]]
        # the suite reaches every branch: interior optima, several working sets, a class freed
        # again after it left (a system larger than the one before it) and a flat direction
        assert all(n == 1 for n, (style, *_) in zip(counts, ORACLE_SUITE) if style == "interior")
        assert max(counts) >= 4
        assert any(later[1] > earlier[1] for record in solves[solve_qp] for earlier, later in zip(record, record[1:]))
        assert any(rank < size - 1 for rank, size in calls)

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param((np.eye(2), cat(0.2, 0.3, 0.5), cat(0.2, 0.3, 0.5)), id="c-shape"),
            pytest.param((np.eye(3), cat(0.5, 0.5), cat(0.2, 0.3, 0.5)), id="mu-length"),
            pytest.param((np.array([[0.5, np.nan], [0.0, 0.5]]), cat(0.5, 0.5), cat(0.5, 0.5)), id="nan-c"),
            pytest.param((np.array([[0.5, -np.inf], [0.0, 0.5]]), cat(0.5, 0.5), cat(0.5, 0.5)), id="inf-c"),
            pytest.param((np.array([[np.inf, 0.0], [0.0, 0.5]]), cat(0.5, 0.5, 0.0), cat(0.5, 0.5)), id="inf-c-and-mu"),
            pytest.param((np.eye(2) / 2, cat(0.5, 0.5), cat(1.0, 0.0)), id="zero-p-source"),
        ],
    )
    def test_same_errors_on_invalid_input(self, args):
        with pytest.raises(GlsAdaptError) as want:
            solve_qp_reference(*args)
        with pytest.raises(type(want.value)) as got:
            solve_qp(*args)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_same_error_when_the_iterations_run_out(self, monkeypatch, max_iter):
        c, p_s = random_confusion(np.random.default_rng(0), 8)
        args = (c, Categorical(0.9 * np.eye(8)[0] + 0.1 / 8), Categorical(p_s))
        monkeypatch.setattr(estimator, "MAX_ITER", max_iter)
        message = f"solve_qp did not converge in {max_iter} active-set iterations"
        for solver in (solve_qp_reference, solve_qp):
            with pytest.raises(NonFiniteValue) as info:
                solver(*args)
            assert str(info.value) == message

    @pytest.mark.parametrize("style", QP_STYLES)
    def test_same_error_when_the_certificate_fails(self, monkeypatch, style):
        # every solve's w is pushed off w.p = 1, so the certificate sees it on every path
        c, mu, p = next(problem for problem in ORACLE_SUITE if problem[0] == style)[1:]
        lstsq = np.linalg.lstsq

        def perturbed(a, rhs, rcond=None):
            sol, *rest = lstsq(a, rhs, rcond=rcond)
            sol[:-1] += 1e-6
            return (sol, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", perturbed)
        messages = []
        for solver in (solve_qp_reference, solve_qp):
            with pytest.raises(NonFiniteValue) as info:
                solve_warned(solver, style, c, mu, p)
            messages.append(str(info.value))
        assert messages[0] == messages[1] and "fails its KKT certificate" in messages[0]


class TestEmaUpdate:
    def test_halfway(self):
        w = ema_update(WeightVector(np.array([1.0, 1.0])), WeightVector(np.array([2.0, 0.0])), 0.5)
        assert np.allclose(w.w, [1.5, 0.5])

    def test_lambda_zero_keeps_previous(self):
        prev = WeightVector(np.array([1.3, 0.7]))
        w = ema_update(prev, WeightVector(np.array([9.0, 9.0])), 0.0)
        assert np.array_equal(w.w, prev.w)

    def test_lambda_one_takes_new(self):
        new = WeightVector(np.array([2.0, 0.5]))
        w = ema_update(WeightVector(np.array([1.0, 1.0])), new, 1.0)
        assert np.array_equal(w.w, new.w)

    def test_lambda_out_of_range(self):
        v = WeightVector(np.array([1.0, 1.0]))
        with pytest.raises(InvalidValue, match=r"lambda must lie in \[0, 1\], got 1.5"):
            ema_update(v, v, 1.5)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch, match="lengths 2 and 3 differ"):
            ema_update(WeightVector(np.array([1.0, 1.0])), WeightVector(np.array([1.0, 1.0, 1.0])), 0.5)


class TestCsvRoundTrips:
    # the estimate-weights command is the one writer of both files

    def run_cli(self, tmp_path, preds, labels):
        header = ",".join(f"p_{i}" for i in range(preds.shape[1]))
        rows = (",".join(repr(float(v)) for v in row) for row in preds)
        (tmp_path / "p.csv").write_text(header + "\n" + "\n".join(rows) + "\n")
        (tmp_path / "l.csv").write_text("label\n" + "".join(f"{y}\n" for y in labels))
        argv = ["estimate-weights", "--full-precision", "--out", str(tmp_path / "o")]
        argv += ["--source-preds", str(tmp_path / "p.csv"), "--source-labels", str(tmp_path / "l.csv")]
        argv += ["--target-preds", str(tmp_path / "p.csv")]
        assert main(argv) == 0
        return tmp_path / "o"

    def test_confusion_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        preds = rng.dirichlet(np.ones(3), size=40)
        labels = np.arange(40) % 3
        out = self.run_cli(tmp_path, preds, labels)
        lines = (out / "confusion.raw.csv").read_text().splitlines()
        assert lines[0].startswith("c_0_0,c_0_1")
        assert len(lines) == 2
        c_hat, _ = ConfusionAccumulator(3).accumulate(preds, labels, preds).finalize()
        assert np.array_equal(np.array([float(v) for v in lines[1].split(",")]).reshape(3, 3), c_hat)

    def test_weights_csv(self, tmp_path):
        labels = np.array([0, 0, 0, 1])
        out = self.run_cli(tmp_path, np.eye(2)[labels], labels)
        lines = (out / "weights.csv").read_text().splitlines()
        assert lines[0] == "method,w_0,w_1"
        assert lines[1].startswith("qp,")
        assert lines[2].startswith("exact_inverse,")
        assert len(lines) == 3

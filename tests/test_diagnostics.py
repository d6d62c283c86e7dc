import math

import numpy as np
import pytest

from gls_adapt.cli import main
from gls_adapt.datagen import make_shift_task, write_dataset_csv
from gls_adapt.diagnostics import (
    balanced_error_rate,
    check_discriminator_optimum,
    check_error_decomposition,
    check_joint_error_bound,
    check_lower_bound,
    check_sufficiency_bound,
    conditional_error_gap,
    discriminator_route_jsd,
    gls_conditional_gap,
)
from gls_adapt.distributions import Categorical, jsd
from gls_adapt.errors import InvalidValue, ShapeMismatch
from gls_adapt.estimator import WeightVector
from gls_adapt.trainer import TrainConfig, make_bound_hook, train

from _oracles import random_categorical

LN2 = math.log(2.0)


class TestBalancedErrorRate:
    def test_identity_confusion(self):
        assert balanced_error_rate(np.eye(3)) == 0.0

    def test_max_of_per_class_errors(self):
        conf = np.array([[0.9, 0.1], [0.3, 0.7]])
        assert balanced_error_rate(conf) == pytest.approx(0.3)

    def test_published_per_class_error_contributes(self):
        # a reported per-class accuracy table row of 63.33% on one digit
        # feeds a per-class error of 0.3667 into the max
        row_correct = 0.6333
        conf = np.eye(10) * 0.99 + (1 - 0.99) / 9 * (1 - np.eye(10))
        conf[3] = (1 - row_correct) / 9
        conf[3, 3] = row_correct
        assert balanced_error_rate(conf) == pytest.approx(1 - row_correct, abs=1e-12)

    def test_malformed(self):
        with pytest.raises(ShapeMismatch, match="confusion rows must sum to 1"):
            balanced_error_rate(np.array([[0.5, 0.2], [0.5, 0.5]]))


class TestConditionalErrorGap:
    def test_equal_matrices_give_zero(self):
        conf = np.array([[0.8, 0.2], [0.4, 0.6]])
        assert conditional_error_gap(conf, conf) == 0.0

    def test_off_diagonal_difference(self):
        a = np.array([[0.9, 0.1], [0.1, 0.9]])
        b = np.array([[0.6, 0.4], [0.1, 0.9]])
        assert conditional_error_gap(a, b) == pytest.approx(0.3)

    def test_against_exhaustive_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            a = rng.dirichlet(np.ones(k), size=k)
            b = rng.dirichlet(np.ones(k), size=k)
            best = 0.0
            for y in range(k):
                for yp in range(k):
                    if y != yp:
                        best = max(best, abs(a[y, yp] - b[y, yp]))
            assert conditional_error_gap(a, b) == pytest.approx(best, abs=1e-15)


class TestGlsConditionalGap:
    def test_identical_features_give_zero(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(400, 2))
        labels = rng.integers(0, 2, size=400)
        gaps = gls_conditional_gap(feats, labels, feats, labels, correct=False)
        assert np.allclose(gaps, 0.0)

    def test_disjoint_supports_saturate(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(300, 2))
        b = rng.normal(size=(300, 2)) + 50.0
        labels = np.zeros(300, dtype=int)
        labels[:150] = 1
        gaps = gls_conditional_gap(a, labels, b, labels, correct=False)
        assert np.all(gaps > 0.95)

    def test_same_distribution_below_permutation_threshold(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(500, 2))
        b = rng.normal(size=(500, 2))
        labels_a = rng.integers(0, 2, size=500)
        labels_b = rng.integers(0, 2, size=500)
        raw = gls_conditional_gap(a, labels_a, b, labels_b, correct=False)
        # independent permutation threshold: TV of random splits of the pool
        thresholds = []
        for y in range(2):
            pool = np.vstack([a[labels_a == y], b[labels_b == y]])
            n_a = int((labels_a == y).sum())
            tvs = []
            for r in range(20):
                perm = np.random.default_rng(100 + r).permutation(pool.shape[0])
                x, z = pool[perm[:n_a]], pool[perm[n_a:]]
                lo = pool.min(axis=0)
                hi = pool.max(axis=0)
                edges = [np.linspace(lo[j], hi[j], 17) for j in range(2)]
                ha, _ = np.histogramdd(x, bins=edges)
                hb, _ = np.histogramdd(z, bins=edges)
                tvs.append(0.5 * np.abs(ha / ha.sum() - hb / hb.sum()).sum())
            thresholds.append(np.mean(tvs) + 3 * np.std(tvs))
        assert np.all(raw < np.array(thresholds))
        corrected = gls_conditional_gap(a, labels_a, b, labels_b, correct=True)
        assert np.all(corrected < 0.1)

    def test_insufficient_samples(self):
        feats = np.zeros((30, 2))
        labels = np.zeros(30, dtype=int)
        labels[:2] = 1
        with pytest.raises(InvalidValue, match="class 0: 28 source / 28 target samples, need 50"):
            gls_conditional_gap(feats, labels, feats, labels, min_count=50)

    def test_features_must_be_2d(self):
        labels = np.zeros(60, dtype=int)
        with pytest.raises(ShapeMismatch):
            gls_conditional_gap(np.zeros(60), labels, np.zeros(60), labels)


class TestCheckLowerBound:
    def test_equal_divergences_always_hold(self):
        r = check_lower_bound(0.0, 0.0, 0.05, 0.05)
        assert r.applicable and r.holds
        assert r.lhs == 0.0

    def test_closed_form(self):
        r = check_lower_bound(0.1, 0.0, 0.1, 0.0, tol=0.0)
        assert r.lhs == pytest.approx(0.05)
        assert r.holds  # 0.05 <= 0.1
        r2 = check_lower_bound(0.01, 0.0, 0.1, 0.0, tol=0.0)
        assert not r2.holds

    def test_not_applicable_branch(self):
        r = check_lower_bound(0.5, 0.5, 0.0, 0.2)
        assert not r.applicable
        assert r.holds  # vacuous


class TestCheckErrorDecomposition:
    def test_identical_domains(self):
        r = check_error_decomposition(0.1, 0.1, 0.0, 0.2, 0.0, 3, tol=0.0)
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.holds

    def test_gls_reduces_to_l1_term(self):
        r = check_error_decomposition(0.3, 0.1, 0.8, 0.5, 0.0, 4, tol=0.0)
        assert r.rhs == pytest.approx(0.4)
        assert r.holds

    def test_violation_detected(self):
        r = check_error_decomposition(0.9, 0.0, 0.1, 0.1, 0.0, 2, tol=0.0)
        assert not r.holds


class TestCheckJointErrorBound:
    def test_perfect_classifier(self):
        r = check_joint_error_bound(0.0, 0.0, 0.0, tol=0.0)
        assert r.holds and r.slack == 0.0

    def test_random_classifier_equality_case(self):
        r = check_joint_error_bound(0.5, 0.5, 0.5, tol=0.0)
        assert r.holds and r.slack == pytest.approx(0.0)

    def test_gated_not_applicable_when_gap_large(self):
        r = check_joint_error_bound(0.9, 0.9, 0.1, gls_gap=0.5)
        assert not r.applicable and r.holds


class TestCheckSufficiencyBound:
    def test_zero_everything_forces_zero_gap(self):
        w = WeightVector(np.ones(2))
        p_t = Categorical(np.array([0.5, 0.5]))
        r = check_sufficiency_bound(0.0, 0.0, w, p_t, 0.0, 0.0, tol=0.0)
        assert r.holds and r.rhs == 0.0

    def test_arithmetic_and_capping(self):
        w = WeightVector(np.array([3.0, 1.0]))
        p_t = Categorical(np.array([0.2, 0.8]))
        r = check_sufficiency_bound(0.1, 0.1, w, p_t, 0.02, 0.5)
        assert r.components["rhs_uncapped"] == pytest.approx(4.0)
        assert r.rhs == 1.0
        assert r.holds

    def test_degenerate_gamma(self):
        w = WeightVector(np.ones(2))
        with pytest.raises(InvalidValue, match="target label distribution has a zero entry"):
            check_sufficiency_bound(0.1, 0.1, w, Categorical(np.array([1.0, 0.0])), 0.0, 0.0)


class TestDiscriminatorOptimum:
    def test_equal_distributions(self):
        p = Categorical(np.array([0.25, 0.25, 0.5]))
        r = check_discriminator_optimum(p, p)
        assert r.holds
        assert r.components["i_star"] == pytest.approx(2 * LN2, abs=1e-12)

    def test_disjoint_distributions(self):
        p = Categorical(np.array([0.5, 0.5, 0.0, 0.0]))
        q = Categorical(np.array([0.0, 0.0, 0.5, 0.5]))
        r = check_discriminator_optimum(p, q)
        assert r.holds
        assert r.components["i_star"] == pytest.approx(0.0, abs=1e-10)

    def test_random_pairs_match_divergence_path(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.integers(2, 30))
            p = Categorical(random_categorical(rng, k, floor=0.0))
            q = Categorical(random_categorical(rng, k, floor=0.0))
            r = check_discriminator_optimum(p, q, perturbations=20, seed=int(rng.integers(1e6)))
            assert r.holds, (r.lhs, r.components)
            assert abs(r.components["i_star"] - (math.log(4) - 2 * jsd(p, q))) < 1e-8

    def test_perturbations_never_beat_optimum(self):
        rng = np.random.default_rng(5)
        p = Categorical(random_categorical(rng, 12, floor=0.0))
        q = Categorical(random_categorical(rng, 12, floor=0.0))
        r = check_discriminator_optimum(p, q, perturbations=200, seed=6)
        assert r.components["best_perturbation_improvement"] <= 1e-8


class TestDiscriminatorRouteJsd:
    def test_uninformative_discriminator_reads_zero(self):
        n = 50
        half = np.full(n, 0.5)
        labels = np.zeros(n, dtype=int)
        w = WeightVector(np.ones(2))
        assert discriminator_route_jsd(half, half, labels, w) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_separation_saturates(self):
        n = 50
        eps = 1e-9
        labels = np.zeros(n, dtype=int)
        w = WeightVector(np.ones(2))
        got = discriminator_route_jsd(np.full(n, 1 - eps), np.full(n, eps), labels, w)
        assert got == pytest.approx(LN2, abs=1e-7)

    def test_never_exceeds_true_divergence_for_optimal_d(self):
        # samples drawn from two binned laws, scored by the analytic optimum:
        # the read-off value must approach the true divergence from below
        rng = np.random.default_rng(6)
        from gls_adapt.distributions import Categorical as Cat

        p = np.array([0.7, 0.2, 0.1])
        q = np.array([0.2, 0.3, 0.5])
        d_star = p / (p + q)
        n = 200000
        xs = rng.choice(3, size=n, p=p)
        xt = rng.choice(3, size=n, p=q)
        w = WeightVector(np.ones(3))
        got = discriminator_route_jsd(d_star[xs], d_star[xt], np.zeros(n, dtype=int), w)
        truth = jsd(Cat(p), Cat(q))
        assert got == pytest.approx(truth, abs=0.01)


class TestReportCsv:
    def test_rows(self, tmp_path):
        # the verify-bounds command writes exactly the reports the bound hook collects
        src, tgt = make_shift_task(k=3, n_source=600, n_target=600, seed=0)
        write_dataset_csv(src, tmp_path / "source.csv")
        write_dataset_csv(tgt, tmp_path / "target.csv")
        opts = dict(epochs=1, batches_per_epoch=3, feature_dim=8)
        argv = ["verify-bounds", "--full-precision", "--seed", "0", "--out", str(tmp_path)]
        argv += ["--source", str(tmp_path / "source.csv"), "--target", str(tmp_path / "target.csv")]
        for name, value in opts.items():
            argv += [f"--{name.replace('_', '-')}", str(value)]
        assert main(argv) == 0
        lines = (tmp_path / "bounds.raw.csv").read_text().splitlines()
        assert lines[0] == "check,epoch,lhs,rhs,holds,slack"
        assert lines[1].startswith("lower_bound,0,")
        assert all(line.count(",") == 5 for line in lines)
        sink = []
        cfg = TrainConfig(algorithm="iwdan", seed=0, **opts)
        train(cfg, src, tgt, epoch_hook=make_bound_hook(src, tgt, sink))
        assert lines[1:] == [
            f"{r.check},{ep},{r.lhs!r},{r.rhs!r},{int(r.holds)},{r.slack!r}" for ep, r in sink
        ]

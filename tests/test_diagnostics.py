import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gls_adapt import diagnostics
from gls_adapt.cli import main
from gls_adapt.datagen import make_shift_task, write_dataset_csv
from gls_adapt.diagnostics import (
    INEQ_TOL,
    balanced_error_rate,
    check_error_decomposition,
    check_joint_error_bound,
    check_lower_bound,
    check_sufficiency_bound,
    conditional_error_gap,
    binned_divergences,
    bound_suite,
)
from gls_adapt.distributions import Categorical, empirical_label_dist, jsd, l1_distance
from gls_adapt.errors import InvalidValue, ShapeMismatch
from gls_adapt.estimator import WeightVector, true_weights
from gls_adapt.trainer import TrainConfig, make_bound_hook, train

import _oracles
from _oracles import (
    binned_histogram,
    binned_tv,
    check_discriminator_optimum,
    conditional_gap_reference,
    random_categorical,
)

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
        with pytest.raises(ShapeMismatch, match="confusion rows must be finite and sum to 1 within 1e-06"):
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


def uncorrected_gap(feats_a, labels_a, feats_b, labels_b):
    """Per-class binned TV before the permutation baseline, on the gap's grid, by ``np.histogramdd``."""
    pooled = np.vstack([feats_a, feats_b])
    k = int(max(labels_a.max(), labels_b.max())) + 1
    return np.array([binned_tv(feats_a[labels_a == y], feats_b[labels_b == y], pooled) for y in range(k)])


def class_gaps(feats_a, labels_a, feats_b, labels_b, seed=0):
    """The per-class gaps of :func:`binned_divergences`, under unit weights."""
    return binned_divergences(feats_a, labels_a, feats_b, labels_b, np.ones(len(labels_a)), seed)[0]


def assert_gap_within_raw(gaps, raw):
    assert np.all(gaps >= 0.0)
    assert np.all(gaps <= raw)


class TestGlsConditionalGap:
    def test_identical_features_give_zero(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(400, 2))
        labels = rng.integers(0, 2, size=400)
        raw = uncorrected_gap(feats, labels, feats, labels)
        assert np.allclose(raw, 0.0)
        assert_gap_within_raw(class_gaps(feats, labels, feats, labels), raw)

    def test_disjoint_supports_saturate(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(300, 2))
        b = rng.normal(size=(300, 2)) + 50.0
        labels = np.zeros(300, dtype=int)
        labels[:150] = 1
        raw = uncorrected_gap(a, labels, b, labels)
        assert np.all(raw > 0.95)
        assert_gap_within_raw(class_gaps(a, labels, b, labels), raw)

    def test_same_distribution_below_permutation_threshold(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(500, 2))
        b = rng.normal(size=(500, 2))
        labels_a = rng.integers(0, 2, size=500)
        labels_b = rng.integers(0, 2, size=500)
        raw = uncorrected_gap(a, labels_a, b, labels_b)
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
        corrected = class_gaps(a, labels_a, b, labels_b)
        assert np.all(corrected < 0.1)
        assert_gap_within_raw(corrected, raw)

    def test_insufficient_samples(self):
        feats = np.zeros((30, 2))
        labels = np.zeros(30, dtype=int)
        labels[:2] = 1
        with pytest.raises(InvalidValue, match="class 0: 28 source / 28 target samples, need 50"):
            class_gaps(feats, labels, feats, labels)

    def test_features_must_be_2d(self):
        labels = np.zeros(60, dtype=int)
        with pytest.raises(ShapeMismatch):
            class_gaps(np.zeros(60), labels, np.zeros(60), labels)
        with pytest.raises(ShapeMismatch, match="feature widths 1 and 2 differ"):
            class_gaps(np.zeros((60, 1)), labels, np.zeros((60, 2)), labels)


# 2**30 + v lies exactly on edge v of a grid over [2**30, 2**30 + 16]: the
# grid's 1e-9 widening is below half an ulp there and the step is exactly 1
EDGE_BASE = 2.0**30


@st.composite
def feature_pair(draw):
    """Two small samples and weights for the first, with ties on grid edges.

    Each column is drawn as grid points (the pool spans exactly [EDGE_BASE,
    EDGE_BASE + 16], so every value sits on an interior or an end edge),
    quarter-integers (many ties), or one constant.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    n_a = draw(st.integers(1, 30))
    n_b = draw(st.integers(1, 30))
    cols = []
    for _ in range(d):
        kind = draw(st.sampled_from(["edges", "quarters", "constant"]))
        if kind == "edges":
            col = draw(st.lists(st.integers(0, 16), min_size=n_a + n_b, max_size=n_a + n_b))
            col = EDGE_BASE + np.array([0, 16] + col[2:], dtype=float)
        elif kind == "quarters":
            col = np.array(draw(st.lists(st.integers(-8, 8), min_size=n_a + n_b, max_size=n_a + n_b))) / 4.0
        else:
            col = np.full(n_a + n_b, draw(st.sampled_from([0.0, -2.5, 7.0, EDGE_BASE])))
        cols.append(col)
    pooled = np.stack(cols, axis=1)
    weights = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=n_a, max_size=n_a)))
    return pooled[:n_a], pooled[n_a:], weights


def task_features(seed, d, kind):
    """Labelled features with at least MIN_COUNT rows per class in both domains."""
    rng = np.random.default_rng(seed)
    n_a, n_b = 160 + seed % 40, 150
    if kind == "edges":
        a = EDGE_BASE + rng.integers(0, 17, size=(n_a, d)).astype(float)
        b = EDGE_BASE + rng.integers(0, 17, size=(n_b, d)).astype(float)
        a[0], b[0] = EDGE_BASE, EDGE_BASE + 16.0
    else:
        a = rng.normal(size=(n_a, d))
        b = rng.normal(size=(n_b, d)) + 0.4
        if kind == "constant":
            a[:, 0] = b[:, 0] = 1.5
    labels_a = np.arange(n_a) % 2
    labels_b = np.arange(n_b) % 2
    return a, labels_a, b, labels_b, rng.uniform(0.1, 3.0, size=2)[labels_a]


class TestCellIndex:
    """The shared cell index reproduces ``np.histogramdd`` bit for bit."""

    def test_grid_points_lie_on_edges(self):
        (edges,) = diagnostics._grid_edges([EDGE_BASE + np.array([0.0, 16.0])])
        assert np.array_equal(edges, EDGE_BASE + np.arange(17.0))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(feature_pair())
    @example((EDGE_BASE + np.arange(17.0)[:, None], EDGE_BASE + np.array([[16.0], [8.0]]), np.ones(17)))
    @example((np.full((3, 2), 4.0), np.full((2, 2), 4.0), np.array([0.5, 1.0, 2.0])))
    def test_histograms_match_histogramdd(self, pair):
        a, b, weights = pair
        cells_a, cells_b, d = diagnostics._cell_index(a, b)
        assert d == min(a.shape[1], 2)
        pooled = np.vstack([a, b])
        for cells, feats, w in ((cells_a, a, None), (cells_b, b, None), (cells_a, a, weights)):
            got = diagnostics._hist(cells, d, w)
            want = binned_histogram(feats, pooled, w)
            assert got.shape == want.shape == (diagnostics.BINS**d,)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**16), st.sampled_from([1, 2, 3]), st.sampled_from(["normal", "edges", "constant"]))
    def test_gap_and_jsd_match_histogramdd(self, seed, d, kind):
        a, labels_a, b, labels_b, weights = task_features(seed, d, kind)
        gap, jsd_w = binned_divergences(a, labels_a, b, labels_b, weights, seed=seed)
        assert gap.tobytes() == conditional_gap_reference(a, labels_a, b, labels_b, seed=seed).tobytes()
        pooled = np.vstack([a, b])
        want = jsd(Categorical(binned_histogram(a, pooled, weights)), Categorical(binned_histogram(b, pooled)))
        assert jsd_w == want

    def test_non_finite_features_are_rejected(self):
        a, labels_a, b, labels_b, _ = task_features(0, 2, "normal")
        a[3, 1] = np.nan
        with pytest.raises(InvalidValue, match="non-finite"):
            class_gaps(a, labels_a, b, labels_b)

    def test_bound_suite_bins_once_without_histogramdd(self, monkeypatch):
        a, labels_a, b, labels_b, _ = task_features(1, 2, "normal")
        grid_calls = []
        grid_edges = diagnostics._grid_edges
        monkeypatch.setattr(diagnostics, "_grid_edges", lambda cols: grid_calls.append(1) or grid_edges(cols))

        def no_histogramdd(*args, **kwargs):
            raise AssertionError("np.histogramdd called")

        monkeypatch.setattr(np, "histogramdd", no_histogramdd)
        conf = np.array([[0.9, 0.1], [0.2, 0.8]])
        reports = bound_suite(
            conf_src=conf,
            conf_tgt=conf,
            feats_src=a,
            labels_src=labels_a,
            feats_tgt=b,
            labels_tgt=labels_b,
        )
        assert len(reports) == 4
        assert len(grid_calls) == 1


class TestBoundSuite:
    """The suite works out p_S, p_T and w* from the labels over the confusions' k."""

    def test_reports_match_the_checks_on_hand_built_terms(self):
        source, target = make_shift_task(
            k=3, n_source=600, n_target=600, p_source=[0.5, 0.3, 0.2], p_target=[0.2, 0.3, 0.5], seed=3
        )
        rng = np.random.default_rng(0)
        conf_s = rng.dirichlet(np.ones(3), size=3)
        conf_t = rng.dirichlet(np.ones(3), size=3)
        reports = bound_suite(
            conf_src=conf_s,
            conf_tgt=conf_t,
            feats_src=source.features,
            labels_src=source.labels,
            feats_tgt=target.features,
            labels_tgt=target.labels,
            seed=5,
        )
        p_s = empirical_label_dist(source.labels, 3)
        p_t = empirical_label_dist(target.labels, 3)
        assert np.abs(p_s.probs - p_t.probs).max() > 0.2
        w = true_weights(p_s, p_t)
        eps_s = 1.0 - float(p_s.probs @ np.diag(conf_s))
        eps_t = 1.0 - float(p_t.probs @ np.diag(conf_t))
        mu_s = Categorical.normalize(p_s.probs @ conf_s)
        mu_t = Categorical.normalize(p_t.probs @ conf_t)
        ber = balanced_error_rate(conf_s)
        delta_ce = conditional_error_gap(conf_s, conf_t)
        gaps, jsd_w = binned_divergences(
            source.features, source.labels, target.features, target.labels, w.w[source.labels], 5
        )
        assert reports == [
            check_lower_bound(eps_s, eps_t, jsd(p_s, p_t), jsd(mu_s, mu_t)),
            check_error_decomposition(eps_s, eps_t, l1_distance(p_s, p_t), ber, delta_ce, 3),
            check_joint_error_bound(eps_s, eps_t, ber, gls_gap=gaps.max()),
            check_sufficiency_bound(eps_s, eps_t, w, p_t, jsd_w, gaps.max()),
        ]

    def test_confusions_of_two_sizes_are_refused(self):
        a, labels_a, b, labels_b, _ = task_features(1, 2, "normal")
        with pytest.raises(ShapeMismatch, match=r"shapes \(2, 2\) and \(3, 3\) differ"):
            bound_suite(
                conf_src=np.eye(2),
                conf_tgt=np.eye(3),
                feats_src=a,
                labels_src=labels_a,
                feats_tgt=b,
                labels_tgt=labels_b,
            )

    def test_a_class_no_label_names_is_refused(self):
        a, labels_a, b, labels_b, _ = task_features(1, 2, "normal")
        with pytest.raises(InvalidValue, match="source label distribution has a zero entry"):
            bound_suite(
                conf_src=np.eye(3),
                conf_tgt=np.eye(3),
                feats_src=a,
                labels_src=labels_a,
                feats_tgt=b,
                labels_tgt=labels_b,
            )


class TestCheckLowerBound:
    def test_equal_divergences_always_hold(self):
        r = check_lower_bound(0.0, 0.0, 0.05, 0.05)
        assert r.applicable and r.holds
        assert r.lhs == 0.0

    def test_closed_form(self):
        # lhs = 0.5 * sqrt(0.1)^2 = 0.05 against eps_s + eps_t = lhs - INEQ_TOL +- 1e-9
        r = check_lower_bound(0.05 - INEQ_TOL + 1e-9, 0.0, 0.1, 0.0)
        assert r.lhs == pytest.approx(0.05)
        assert r.holds
        assert not check_lower_bound(0.05 - INEQ_TOL - 1e-9, 0.0, 0.1, 0.0).holds

    def test_not_applicable_branch(self):
        r = check_lower_bound(0.5, 0.5, 0.0, 0.2)
        assert not r.applicable
        assert r.holds  # vacuous


class TestCheckErrorDecomposition:
    def test_identical_domains(self):
        r = check_error_decomposition(0.1, 0.1, 0.0, 0.2, 0.0, 3)
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.holds

    def test_gls_reduces_to_l1_term(self):
        r = check_error_decomposition(0.3, 0.1, 0.8, 0.5, 0.0, 4)
        assert r.rhs == pytest.approx(0.4)
        assert r.holds

    def test_violation_detected(self):
        # rhs = 0.5 * 0.2 = 0.1 against lhs = rhs + INEQ_TOL +- 1e-9
        assert not check_error_decomposition(0.1 + INEQ_TOL + 1e-9, 0.0, 0.5, 0.2, 0.0, 2).holds
        assert check_error_decomposition(0.1 + INEQ_TOL - 1e-9, 0.0, 0.5, 0.2, 0.0, 2).holds


class TestCheckJointErrorBound:
    def test_perfect_classifier(self):
        r = check_joint_error_bound(0.0, 0.0, 0.0, gls_gap=0.0)
        assert r.holds and r.slack == 0.0

    def test_random_classifier_equality_case(self):
        r = check_joint_error_bound(0.5, 0.5, 0.5, gls_gap=0.0)
        assert r.holds and r.slack == pytest.approx(0.0)

    @pytest.mark.parametrize("off, holds", [(-1e-9, True), (1e-9, False)])
    def test_tolerance_boundary(self, off, holds):
        # rhs = 2 * 0.1 against lhs = rhs + INEQ_TOL + off
        r = check_joint_error_bound(0.2 + INEQ_TOL + off, 0.0, 0.1, gls_gap=0.0)
        assert r.holds is holds

    def test_gated_not_applicable_when_gap_large(self):
        r = check_joint_error_bound(0.9, 0.9, 0.1, gls_gap=0.5)
        assert not r.applicable and r.holds


class TestCheckSufficiencyBound:
    def test_zero_everything_forces_zero_gap(self):
        w = WeightVector(np.ones(2))
        p_t = Categorical(np.array([0.5, 0.5]))
        r = check_sufficiency_bound(0.0, 0.0, w, p_t, 0.0, 0.0)
        assert r.holds and r.rhs == 0.0

    @pytest.mark.parametrize("off, holds", [(-1e-9, True), (1e-9, False)])
    def test_tolerance_boundary(self, off, holds):
        # rhs = 0.1 / gamma = 0.2 against a measured gap of rhs + INEQ_TOL + off
        w = WeightVector(np.ones(2))
        p_t = Categorical(np.array([0.5, 0.5]))
        r = check_sufficiency_bound(0.1, 0.0, w, p_t, 0.0, 0.2 + INEQ_TOL + off)
        assert r.rhs == 0.2 and r.holds is holds

    def test_arithmetic_and_capping(self):
        w = WeightVector(np.array([3.0, 1.0]))
        p_t = Categorical(np.array([0.2, 0.8]))
        # (3 * 0.01 + 0.01 + sqrt(8 * 0.0002)) / 0.2 = 0.08 / 0.2
        assert check_sufficiency_bound(0.01, 0.01, w, p_t, 0.0002, 0.0).rhs == pytest.approx(0.4)
        # (3 * 0.1 + 0.1 + sqrt(8 * 0.02)) / 0.2 = 4, capped at 1
        r = check_sufficiency_bound(0.1, 0.1, w, p_t, 0.02, 0.5)
        assert r.rhs == 1.0
        assert r.holds

    def test_degenerate_gamma(self):
        w = WeightVector(np.ones(2))
        with pytest.raises(InvalidValue, match="target label distribution has a zero entry"):
            check_sufficiency_bound(0.1, 0.1, w, Categorical(np.array([1.0, 0.0])), 0.0, 0.0)


class TestDiscriminatorOptimum:
    """Criterion 7's oracle, which lives in tests/_oracles.py."""

    def test_equal_distributions(self):
        p = Categorical(np.array([0.25, 0.25, 0.5]))
        r = check_discriminator_optimum(p, np.array([1, 1, 2]))
        assert r.holds
        assert r.i_star == pytest.approx(2 * LN2, abs=1e-12)

    def test_disjoint_distributions(self):
        p = Categorical(np.array([0.5, 0.5, 0.0, 0.0]))
        r = check_discriminator_optimum(p, np.array([0, 0, 1, 1]))
        assert r.holds
        assert r.i_star == pytest.approx(0.0, abs=1e-10)

    def test_random_pairs_match_divergence_path(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.integers(2, 30))
            p = Categorical(random_categorical(rng, k, floor=0.0))
            q_counts = rng.multinomial(100, random_categorical(rng, k, floor=0.0))
            r = check_discriminator_optimum(p, q_counts, perturbations=20, seed=int(rng.integers(1e6)))
            assert r.holds, r
            assert abs(r.i_star - (math.log(4) - 2 * jsd(p, Categorical.normalize(q_counts)))) < 1e-8

    def test_perturbations_never_beat_optimum(self):
        rng = np.random.default_rng(5)
        p = Categorical(random_categorical(rng, 12, floor=0.0))
        q_counts = rng.multinomial(100, random_categorical(rng, 12, floor=0.0))
        r = check_discriminator_optimum(p, q_counts, perturbations=200, seed=6)
        assert r.best_improvement <= 1e-8

    def test_judged_at_the_exact_tolerance(self, monkeypatch):
        # a jsd 1e-4 too high is an identity defect of 2e-4: inside INEQ_TOL, outside EXACT_TOL
        monkeypatch.setattr(_oracles, "jsd", lambda p, q: jsd(p, q) + 1e-4)
        p = Categorical(np.array([0.25, 0.25, 0.5]))
        r = check_discriminator_optimum(p, np.array([1, 1, 2]))
        assert r.lhs == pytest.approx(2e-4)
        assert r.holds is False

    def test_names_the_length_mismatch(self):
        with pytest.raises(ShapeMismatch) as info:
            check_discriminator_optimum(Categorical([0.5, 0.5]), np.array([2, 3, 5]))
        assert str(info.value) == "binned densities have lengths 2 and 3"


class TestReportCsv:
    def test_rows(self, tmp_path):
        # train --bounds writes exactly the reports the bound hook collects
        src, tgt = make_shift_task(k=3, n_source=600, n_target=600, seed=0)
        write_dataset_csv(src, tmp_path / "source.csv")
        write_dataset_csv(tgt, tmp_path / "target.csv")
        opts = dict(epochs=1, batches_per_epoch=3, feature_dim=8)
        argv = ["train", "--bounds", "--algorithms", "iwdan", "--full-precision", "--seed", "0"]
        argv += ["--out", str(tmp_path)]
        argv += ["--source", str(tmp_path / "source.csv"), "--target", str(tmp_path / "target.csv")]
        for name, value in opts.items():
            argv += [f"--{name.replace('_', '-')}", str(value)]
        assert main(argv) == 0
        lines = (tmp_path / "bounds_iwdan_seed0.raw.csv").read_text().splitlines()
        assert lines[0] == "check,epoch,lhs,rhs,holds,slack"
        assert lines[1].startswith("lower_bound,0,")
        assert all(line.count(",") == 5 for line in lines)
        sink = []
        cfg = TrainConfig(algorithm="iwdan", seed=0, **opts)
        train(cfg, src, tgt, epoch_hook=make_bound_hook(src, tgt, sink))
        assert lines[1:] == [
            f"{r.check},{ep},{r.lhs!r},{r.rhs!r},{int(r.holds)},{r.slack!r}" for ep, r in sink
        ]


def binned_on_pair(src_labels=None, tgt_labels=None, weights=None):
    """binned_divergences on a 200 + 200 row pair, with any of its label or weight inputs replaced."""
    src, tgt = make_shift_task(k=2, n_source=200, n_target=200, seed=0)
    return binned_divergences(
        src.features,
        src.labels if src_labels is None else src_labels,
        tgt.features,
        tgt.labels if tgt_labels is None else tgt_labels,
        np.ones(src.n) if weights is None else weights,
    )


class TestTypedErrors:
    @pytest.mark.parametrize(
        "make, error, message",
        [
            pytest.param(
                lambda: balanced_error_rate(np.ones((2, 3))),
                ShapeMismatch, "confusion must be square k x k with k >= 2, got (2, 3)", id="confusion-shape",
            ),
            pytest.param(
                lambda: balanced_error_rate([[1.5, -0.5], [0.0, 1.0]]),
                ShapeMismatch, "confusion has an entry below -1e-06", id="confusion-negative",
            ),
            pytest.param(
                lambda: conditional_error_gap(np.eye(2), np.eye(3)),
                ShapeMismatch, "shapes (2, 2) and (3, 3) differ", id="gap-shapes",
            ),
            pytest.param(
                lambda: binned_on_pair(weights=np.zeros(200)),
                InvalidValue, "empty histogram", id="binned-zero-weights",
            ),
            pytest.param(
                lambda: binned_on_pair(src_labels=np.zeros(199, dtype=int)),
                ShapeMismatch, "200 source feature rows but 199 source labels", id="binned-source-labels",
            ),
            pytest.param(
                lambda: binned_on_pair(tgt_labels=np.zeros(201, dtype=int)),
                ShapeMismatch, "200 target feature rows but 201 target labels", id="binned-target-labels",
            ),
            pytest.param(
                lambda: binned_on_pair(weights=np.ones(199)),
                ShapeMismatch, "200 source feature rows but 199 source weights", id="binned-source-weights",
            ),
        ],
    )
    def test_names_the_cause(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

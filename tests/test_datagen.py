import warnings

import numpy as np
import pytest

from gls_adapt.datagen import (
    Dataset,
    jsd_task_suite,
    make_shift_task,
    read_dataset_csv,
    subsample_protocol,
    write_dataset_csv,
)
from gls_adapt.distributions import jsd
from gls_adapt.errors import ConfigInvalid, InvalidValue, ParseError


def balanced_domain(k=2, d=2, n=1000, sigma=0.2, seed=0):
    """The source domain of a balanced task."""
    return make_shift_task(k=k, d=d, n_source=n, n_target=1, sigma=sigma, seed=seed)[0]


class TestMakeGaussianDomain:
    """The Gaussian class clouds that make_shift_task samples for each domain."""

    def test_label_distribution_close_to_spec(self):
        data = balanced_domain(n=1000, seed=1)
        emp = data.label_distribution().probs
        assert np.max(np.abs(emp - 0.5)) < 0.05

    def test_label_shift_holds_between_domains(self):
        # same conditionals, different label distributions: per-class means
        # agree within 3 sigma / sqrt(n_y)
        src, tgt = make_shift_task(
            k=3, n_source=4000, n_target=4000, sigma=0.3,
            p_source=[0.6, 0.2, 0.2], p_target=[0.2, 0.2, 0.6], seed=2,
        )
        for y in range(3):
            a = src.features[src.labels == y]
            b = tgt.features[tgt.labels == y]
            bound = 3 * 0.3 * (1 / np.sqrt(a.shape[0]) + 1 / np.sqrt(b.shape[0]))
            assert np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)) < bound + 0.05

    def test_zero_sigma_collapses_to_means(self):
        data = balanced_domain(sigma=0.0, n=50, seed=4)
        circle_means = np.array([[1.0, 0.0], [-1.0, 0.0]])  # k = 2 at the default radius 1
        assert np.allclose(data.features, circle_means[data.labels])

    def test_conditional_shift_moves_target_means(self):
        # at sigma 0 the source rows sit on the circle means and every target
        # row sits the shift's magnitude away, along one direction per class
        for k, d, radius in [(2, 2, 1.0), (4, 3, 2.0)]:
            src, tgt = make_shift_task(
                k=k, d=d, n_source=200, n_target=200, sigma=0.0, radius=radius, seed=5, conditional_shift=0.3
            )
            angles = 2.0 * np.pi * np.arange(k) / k
            means = np.zeros((k, d))
            means[:, :2] = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            assert np.allclose(src.features, means[src.labels])
            offsets = tgt.features - means[tgt.labels]
            assert np.allclose(np.linalg.norm(offsets, axis=1), 0.3)
            for y in range(k):
                assert np.allclose(offsets[tgt.labels == y], offsets[tgt.labels == y][0])

    def test_deterministic_under_seed(self):
        a = balanced_domain(seed=6)
        b = balanced_domain(seed=6)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_spec(self):
        with pytest.raises(ConfigInvalid, match="label_dist length must equal k"):
            make_shift_task(k=3, p_target=[0.5, 0.5], n_source=10, n_target=10)
        with pytest.raises(ConfigInvalid, match="covariance scale must be nonnegative"):
            make_shift_task(k=2, sigma=-1.0, n_source=10, n_target=10)

    @pytest.mark.parametrize(
        "options, named",
        [
            ({"sigma": 1e308}, "sigma=1e+308"),
            ({"sigma": 1e307, "radius": 1.7e308}, "radius=1.7e+308"),
            ({"sigma": 1e308, "radius": 1.5e308}, "sigma=1e+308 and radius=1.5e+308"),
            ({"k": 2, "d": 1, "radius": 1e307, "conditional_shift": 1.7e308}, "conditional_shift=1.7e+308"),
            ({"k": 2, "d": 1, "radius": 1e308, "conditional_shift": 1e308}, "radius=1e+308 and conditional_shift=1e+308"),
        ],
    )
    def test_overflowing_features_name_their_cause_without_a_warning(self, options, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigInvalid) as info:
                make_shift_task(**{"k": 3, "n_source": 50, "n_target": 50, **options})
        assert str(info.value) == f"features overflow float64; reduce {named}"


class TestSubsampleProtocol:
    def make_uniform_dataset(self, k=10, per_class=100):
        labels = np.repeat(np.arange(k), per_class)
        feats = np.random.default_rng(0).normal(size=(labels.size, 2))
        return Dataset(feats, labels, k)

    def test_thirty_percent_of_first_half(self):
        data = self.make_uniform_dataset()
        sub = subsample_protocol(data, 0.3, seed=1)
        counts = np.bincount(sub.labels, minlength=10)
        assert (counts[:5] == 30).all()
        assert (counts[5:] == 100).all()

    def test_fraction_one_is_identity_up_to_order(self):
        data = self.make_uniform_dataset(k=4, per_class=25)
        sub = subsample_protocol(data, 1.0, seed=2)
        assert sub.n == data.n
        assert np.array_equal(np.sort(sub.labels), np.sort(data.labels))

    def test_second_half_untouched_exact_rows(self):
        data = self.make_uniform_dataset(k=6, per_class=40)
        sub = subsample_protocol(data, 0.5, seed=3)
        for y in range(3, 6):
            orig = data.features[data.labels == y]
            kept = sub.features[sub.labels == y]
            assert kept.shape == orig.shape
            assert np.array_equal(np.sort(orig, axis=0), np.sort(kept, axis=0))

    def test_jsd_strictly_positive_after_subsample(self):
        data = self.make_uniform_dataset()
        sub = subsample_protocol(data, 0.3, seed=4)
        assert jsd(sub.label_distribution(), data.label_distribution()) > 0

    def test_empty_class_raises(self):
        data = self.make_uniform_dataset(k=2, per_class=3)
        with pytest.raises(InvalidValue, match="class 0 would keep 0 of 3 samples"):
            subsample_protocol(data, 0.1, seed=5)

    def test_bad_fraction(self):
        data = self.make_uniform_dataset(k=2, per_class=10)
        with pytest.raises(ConfigInvalid, match="fraction must lie in"):
            subsample_protocol(data, 0.0)


class TestLabelShiftByConstruction:
    def test_identity_features_show_no_conditional_gap(self):
        from gls_adapt.diagnostics import binned_divergences

        src, tgt = make_shift_task(
            k=3,
            n_source=5000,
            n_target=5000,
            sigma=0.3,
            p_source=[0.6, 0.2, 0.2],
            p_target=[0.2, 0.2, 0.6],
            seed=21,
        )
        gaps, _ = binned_divergences(
            src.features, src.labels, tgt.features, tgt.labels, np.ones(src.n), seed=0
        )
        assert np.all(gaps < 0.05)

    def test_exact_counts_realize_requested_distribution(self):
        src, tgt = make_shift_task(
            k=3,
            n_source=3000,
            n_target=3000,
            p_source=[0.6, 0.2, 0.2],
            p_target=[0.2, 0.2, 0.6],
            seed=22,
            exact_counts=True,
        )
        assert np.array_equal(np.bincount(src.labels), [1800, 600, 600])
        assert np.array_equal(np.bincount(tgt.labels), [600, 600, 1800])


def indexed_domain(labels, k):
    """A dataset whose feature 0 is each row's index, so a subsample shows which rows it kept."""
    labels = np.asarray(labels)
    return Dataset(np.arange(labels.size, dtype=float)[:, None], labels, k)


def assert_increasing_subsequence(kept, base):
    rows = kept.features[:, 0].astype(int)
    assert np.all(np.diff(rows) > 0)
    assert np.array_equal(kept.labels, base.labels[rows])


class TestKeptRowOrder:
    def test_subsample_keeps_base_order(self):
        base = indexed_domain(np.random.default_rng(30).integers(0, 5, size=400), 5)
        for fraction in (0.3, 0.5, 1.0):
            assert_increasing_subsequence(subsample_protocol(base, fraction, seed=31), base)

    def test_every_suite_pair_keeps_base_order(self):
        rng = np.random.default_rng(32)
        src = indexed_domain(rng.integers(0, 4, size=500), 4)
        tgt = indexed_domain(rng.integers(0, 4, size=300), 4)
        for source, target in jsd_task_suite(src, tgt, count=8, seed=33):
            assert_increasing_subsequence(source, src)
            assert_increasing_subsequence(target, tgt)


class TestJsdTaskSuite:
    def test_spread_and_tagging(self):
        src, tgt = make_shift_task(k=10, n_source=4000, n_target=4000, sigma=0.2, seed=10)
        tasks = jsd_task_suite(src, tgt, count=100, seed=11)
        assert len(tasks) == 100
        jsds = np.array([jsd(s.label_distribution(), t.label_distribution()) for s, t in tasks])
        assert jsds.min() < 0.005
        assert jsds.max() > 0.08
        # a subsampled side is a new dataset; the other side is the base one
        n_src_side = sum(1 for _, t in tasks if t is tgt)
        assert n_src_side == 50
        assert all((s is src) != (t is tgt) for s, t in tasks)

    def test_source_side_keeps_target_untouched(self):
        src, tgt = make_shift_task(k=3, n_source=1500, n_target=1500, seed=12)
        tasks = jsd_task_suite(src, tgt, count=6, seed=13)
        for source, target in tasks:
            if target is tgt:
                assert source is not src
                assert source.n <= src.n
            else:
                assert source is src
                assert target.n <= tgt.n

    def test_all_ones_keep_vector_preserves_divergence(self):
        from gls_adapt.datagen import _keep_rows

        src, tgt = make_shift_task(k=3, n_source=900, n_target=900, seed=17)
        rng = np.random.default_rng(18)
        kept = _keep_rows(src, np.bincount(src.labels), rng)
        assert kept.n == src.n
        base = jsd(src.label_distribution(), tgt.label_distribution())
        assert jsd(kept.label_distribution(), tgt.label_distribution()) == pytest.approx(
            base, abs=1e-12
        )

    def test_single_class_keep_induces_imbalance(self):
        from gls_adapt.datagen import _keep_rows

        src, tgt = make_shift_task(k=3, n_source=900, n_target=900, seed=19)
        rng = np.random.default_rng(20)
        kept = _keep_rows(src, [round(0.1 * np.sum(src.labels == 0)), None, None], rng)
        assert jsd(kept.label_distribution(), tgt.label_distribution()) > 0.01

    def test_deterministic(self):
        src, tgt = make_shift_task(k=3, n_source=900, n_target=900, seed=14)
        a = jsd_task_suite(src, tgt, count=4, seed=15)
        b = jsd_task_suite(src, tgt, count=4, seed=15)
        for pa, pb in zip(a, b):
            for da, db in zip(pa, pb):
                assert np.array_equal(da.features, db.features)
                assert np.array_equal(da.labels, db.labels)

    def test_invalid_count(self):
        src, tgt = make_shift_task(k=3, n_source=600, n_target=600, seed=16)
        with pytest.raises(InvalidValue, match="count must be >= 1, got 0"):
            jsd_task_suite(src, tgt, count=0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        data = balanced_domain(n=40, seed=20)
        path = tmp_path / "d.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        assert back.k == data.k
        assert np.array_equal(back.labels, data.labels)
        assert np.array_equal(back.features, data.features)

    def test_writes_into_a_new_nested_directory(self, tmp_path):
        data = balanced_domain(n=10, seed=21)
        path = tmp_path / "a" / "b" / "d.csv"
        write_dataset_csv(data, path)
        assert np.array_equal(read_dataset_csv(path).features, data.features)

    def test_header_and_parse_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("feature_0,label\n1.0,0\nnot_a_number,1\n")
        with pytest.raises(ParseError) as err:
            read_dataset_csv(path)
        assert "line 3" in str(err.value)
        path.write_text("x,label\n1.0,0\n")
        with pytest.raises(ParseError):
            read_dataset_csv(path)
        # values the parser accepts but a Dataset rejects still name the file and the line
        for row, message in [
            ("nan,1", "features contain non-finite values"),
            ("inf,1", "features contain non-finite values"),
            ("1.0,-1", "label -1 is negative"),
        ]:
            path.write_text(f"feature_0,label\n1.0,0\n{row}\n")
            with pytest.raises(ParseError) as err:
                read_dataset_csv(path)
            assert str(err.value) == f"{path}: line 3: {message}"


class TestTypedErrors:
    @pytest.mark.parametrize(
        "make, error, message",
        [
            pytest.param(
                lambda: Dataset(np.zeros(3), np.zeros(3, dtype=int), 2),
                ConfigInvalid, "features must be (n >= 1, d), got (3,)", id="dataset-features-1d",
            ),
            pytest.param(
                lambda: Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2),
                ConfigInvalid, "labels must be one per feature row", id="dataset-label-count",
            ),
            pytest.param(
                lambda: Dataset(np.array([[0.0, np.inf]]), [0], 2),
                ConfigInvalid, "features contain non-finite values", id="dataset-non-finite",
            ),
            pytest.param(
                lambda: Dataset(np.zeros((2, 2)), [0, 2], 2),
                InvalidValue, "labels must lie in [0, 2)", id="dataset-label-range",
            ),
            pytest.param(lambda: make_shift_task(k=1), ConfigInvalid, "need k >= 2 and d >= 1", id="circle-k"),
            pytest.param(lambda: make_shift_task(k=2, n_source=0), ConfigInvalid, "n must be at least 1", id="domain-n"),
            pytest.param(
                lambda: make_shift_task(radius=float("inf")),
                ConfigInvalid, "radius must be finite, got inf", id="task-radius-non-finite",
            ),
            pytest.param(
                lambda: jsd_task_suite(Dataset(np.zeros((2, 1)), [0, 1], 2), Dataset(np.zeros((3, 1)), [0, 1, 2], 3), 1),
                ConfigInvalid, "base domains disagree on the class count", id="suite-class-count",
            ),
        ],
    )
    def test_names_the_cause(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

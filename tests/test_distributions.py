import math

import numpy as np
import pytest

from gls_adapt.distributions import Categorical, empirical_label_dist, jsd, l1_distance
from gls_adapt.errors import InvalidValue, NonFiniteValue, ShapeMismatch

from _oracles import jsd_terms, random_categorical

LN2 = math.log(2.0)


def cat(*probs):
    return Categorical(np.array(probs, dtype=float))


class TestCategorical:
    def test_valid_construction(self):
        c = cat(0.25, 0.75)
        assert c.k == 2
        assert c.probs.sum() == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cat(-0.1, 1.1)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            cat(0.5, 0.6)

    def test_rejects_single_category(self):
        with pytest.raises(ValueError):
            Categorical(np.array([1.0]))

    def test_no_silent_renormalization(self):
        with pytest.raises(ValueError):
            cat(2.0, 2.0)
        c = Categorical.normalize([2.0, 2.0])
        assert np.allclose(c.probs, [0.5, 0.5])

    def test_errors_are_typed(self):
        with pytest.raises(InvalidValue, match="probs sum to 1.1, expected 1 within 1e-09"):
            cat(0.5, 0.6)
        with pytest.raises(InvalidValue, match="probs contains negative entries"):
            cat(-0.1, 1.1)
        with pytest.raises(InvalidValue, match="cannot normalize: masses must be nonnegative with positive sum"):
            Categorical.normalize([0.0, 0.0])
        with pytest.raises(InvalidValue, match="a categorical needs at least 2 categories"):
            Categorical(np.array([1.0]))
        with pytest.raises(NonFiniteValue):
            cat(np.nan, 0.5)
        with pytest.raises(ShapeMismatch):
            Categorical(np.full((2, 2), 0.25))
        with pytest.raises(ShapeMismatch):
            empirical_label_dist(np.zeros((2, 2), dtype=int), 2)

    def test_probs_read_only(self):
        c = cat(0.5, 0.5)
        with pytest.raises(ValueError):
            c.probs[0] = 0.9


class TestJsd:
    def test_identical_is_zero(self):
        p = cat(0.2, 0.3, 0.5)
        assert jsd(p, p) == 0.0

    def test_disjoint_saturates(self):
        assert jsd(cat(1.0, 0.0), cat(0.0, 1.0)) == pytest.approx(LN2, abs=1e-15)

    def test_against_termwise_oracle(self):
        p = cat(0.5, 0.5)
        q = cat(0.9, 0.1)
        assert jsd(p, q) == pytest.approx(jsd_terms([0.5, 0.5], [0.9, 0.1]), abs=1e-14)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            k = rng.integers(2, 8)
            p = Categorical(random_categorical(rng, k, floor=0.0) if rng.random() < 0.5 else random_categorical(rng, k))
            q = Categorical(random_categorical(rng, k))
            assert jsd(p, q) == jsd(q, p)

    def test_range(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            k = rng.integers(2, 10)
            p = Categorical(random_categorical(rng, k, floor=0.0))
            q = Categorical(random_categorical(rng, k, floor=0.0))
            v = jsd(p, q)
            assert 0.0 <= v <= LN2 + 1e-12

    def test_sqrt_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            k = rng.integers(2, 6)
            p, q, r = (Categorical(random_categorical(rng, k, floor=0.0)) for _ in range(3))
            # sqrt(jsd) is a metric
            assert math.sqrt(jsd(p, r)) <= math.sqrt(jsd(p, q)) + math.sqrt(jsd(q, r)) + 1e-12

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            k = rng.integers(2, 7)
            a = random_categorical(rng, k)
            b = random_categorical(rng, k)
            assert jsd(Categorical(a), Categorical(b)) == pytest.approx(
                jsd_terms(list(a), list(b)), abs=1e-13
            )


class TestL1Tv:
    def test_zero_on_identical(self):
        p = cat(0.3, 0.7)
        assert l1_distance(p, p) == 0.0

    def test_maximal_disagreement(self):
        assert l1_distance(cat(1.0, 0.0), cat(0.0, 1.0)) == 2.0

    def test_hand_value(self):
        assert l1_distance(cat(0.3, 0.7), cat(0.5, 0.5)) == pytest.approx(0.4, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch, match="distributions have lengths 2 and 3"):
            l1_distance(cat(0.5, 0.5), cat(0.2, 0.3, 0.5))

    def test_tv_jsd_equivalence_bound(self):
        # anchor for the sufficiency-direction estimate: tv = l1 / 2 <= sqrt(8 * jsd)
        rng = np.random.default_rng(15)
        for _ in range(1000):
            k = rng.integers(2, 8)
            p = Categorical(random_categorical(rng, k, floor=0.0))
            q = Categorical(random_categorical(rng, k, floor=0.0))
            assert 0.5 * l1_distance(p, q) <= math.sqrt(8.0 * jsd(p, q)) + 1e-12


class TestEmpiricalLabelDist:
    def test_balanced(self):
        d = empirical_label_dist([0, 0, 1, 1], 2)
        assert np.allclose(d.probs, [0.5, 0.5])

    def test_skewed(self):
        d = empirical_label_dist([0, 0, 0, 1], 2)
        assert np.allclose(d.probs, [0.75, 0.25])

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(16)
        truth = random_categorical(rng, 10)
        labels = rng.choice(10, size=1000, p=truth)
        d = empirical_label_dist(labels, 10)
        assert np.max(np.abs(d.probs - truth)) < 0.05

    def test_empty_input(self):
        with pytest.raises(InvalidValue, match="labels is empty"):
            empirical_label_dist([], 3)

    def test_label_out_of_range(self):
        with pytest.raises(InvalidValue, match=r"labels must lie in \[0, 3\)"):
            empirical_label_dist([0, 3], 3)
        with pytest.raises(InvalidValue, match=r"labels must lie in \[0, 3\)"):
            empirical_label_dist([-1, 0], 3)


class TestTypedErrors:
    @pytest.mark.parametrize(
        "make, error, message",
        [
            pytest.param(
                lambda: empirical_label_dist(np.array([0.5, 1.0]), 2),
                InvalidValue, "labels must be integers", id="empirical-float-labels",
            ),
        ],
    )
    def test_names_the_cause(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

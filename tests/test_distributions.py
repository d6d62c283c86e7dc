import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gls_adapt.datagen import Dataset, make_shift_task
from gls_adapt.diagnostics import balanced_error_rate, binned_divergences, bound_suite, conditional_error_gap
from gls_adapt.distributions import Categorical, check_labels, check_rows, empirical_label_dist, jsd, l1_distance
from gls_adapt.errors import GlsAdaptError, InvalidValue, NonFiniteValue, ShapeMismatch
from gls_adapt.estimator import ConfusionAccumulator, WeightVector
from gls_adapt.losses import (
    cross_entropy_loss_grads,
    weighted_classification_loss_grads,
    weighted_da_loss_grads,
    weighted_mmd_loss_grads,
)

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


# Categorical accepts a vector with one min and one sum and only then looks for the
# cause; each invalid vector keeps the class and message of the checks taken in order
CATEGORICAL_ERRORS = {
    "nan": ([np.nan, 0.5, 0.5], NonFiniteValue, "probs contains non-finite entries"),
    "+inf": ([0.5, np.inf, 0.5], NonFiniteValue, "probs contains non-finite entries"),
    "-inf": ([-np.inf, 1.0, 1.0], NonFiniteValue, "probs contains non-finite entries"),
    "inf-and-minus-inf": ([np.inf, -np.inf], NonFiniteValue, "probs contains non-finite entries"),
    "nan-and-negative": ([-1.0, np.nan, 2.0], NonFiniteValue, "probs contains non-finite entries"),
    "negative": ([-0.1, 1.1], InvalidValue, "probs contains negative entries"),
    "negative-and-huge": ([-1.0, 1e308, 1e308], InvalidValue, "probs contains negative entries"),
    "sum-above-1": ([0.5, 0.6], InvalidValue, "probs sum to 1.1, expected 1 within 1e-09"),
    "sum-below-1": ([0.25, 0.5], InvalidValue, "probs sum to 0.75, expected 1 within 1e-09"),
}


class TestCategoricalErrorOrder:
    @pytest.mark.parametrize("case", CATEGORICAL_ERRORS)
    def test_class_and_message(self, case):
        probs, error, message = CATEGORICAL_ERRORS[case]
        with pytest.raises(GlsAdaptError) as info:
            Categorical(np.array(probs))
        assert type(info.value) is error and str(info.value) == message

    def test_finite_entries_whose_sum_overflows(self):
        # every entry is finite and nonnegative: the sum is the fault, and numpy warns as it overflows
        with pytest.warns(RuntimeWarning, match="overflow encountered in reduce"):
            with pytest.raises(GlsAdaptError) as info:
                Categorical(np.array([1e308, 1e308]))
        assert type(info.value) is InvalidValue and str(info.value) == "probs sum to inf, expected 1 within 1e-09"

    @pytest.mark.parametrize("probs", [[1.0, 0.0], [0.0, 0.25, 0.75], [0.5 + 5e-10, 0.5]])
    def test_edges_pass(self, probs):
        assert np.array_equal(Categorical(np.array(probs)).probs, probs)


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
                InvalidValue, "labels must be integers, got dtype float64", id="empirical-float-labels",
            ),
        ],
    )
    def test_names_the_cause(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message


SRC, TGT = make_shift_task(k=2, n_source=200, n_target=200, seed=0)
HALVES = np.full((SRC.n, 2), 0.5)
ONES_W = WeightVector(np.ones(2))
UNIFORM = Categorical([0.5, 0.5])

# every public entry point that takes labels, called on k = 2 and SRC's 200 rows
LABEL_ENTRY_POINTS = {
    "Dataset": lambda y: Dataset(SRC.features, y, 2),
    "empirical_label_dist": lambda y: empirical_label_dist(y, 2),
    "accumulate": lambda y: ConfusionAccumulator(2).accumulate(HALVES, y, HALVES),
    "weighted_da_loss": lambda y: weighted_da_loss_grads(HALVES[:, 0], y, HALVES[:, 0], ONES_W),
    "weighted_mmd_loss": lambda y: weighted_mmd_loss_grads(SRC.features, y, TGT.features, ONES_W),
    "cross_entropy_loss": lambda y: cross_entropy_loss_grads(HALVES, y),
    "weighted_classification_loss": lambda y: weighted_classification_loss_grads(HALVES, y, UNIFORM),
    "binned_divergences": lambda y: binned_divergences(SRC.features, y, TGT.features, TGT.labels, np.ones(SRC.n)),
    "bound_suite": lambda y: bound_suite(
        conf_src=np.eye(2), conf_tgt=np.eye(2), feats_src=SRC.features,
        labels_src=y, feats_tgt=TGT.features, labels_tgt=TGT.labels,
    ),
}

# each bad vector is SRC's labels with one entry or the whole vector spoiled;
# the message names the argument, which ends or starts with "labels"
BAD_LABELS = {
    "minus-1": (lambda y: np.concatenate(([-1], y[1:])), InvalidValue, r"must lie in \[0, \w+\)"),
    "k": (lambda y: np.concatenate(([2], y[1:])), InvalidValue, r"must lie in \[0, 2\)"),
    "1.5": (lambda y: np.concatenate(([1.5], y[1:])), InvalidValue, "must be integers, got dtype float64"),
    "integer-valued-floats": (lambda y: y.astype(float), InvalidValue, "must be integers, got dtype float64"),
    "bools": (lambda y: y.astype(bool), InvalidValue, "must be integers, got dtype bool"),
    "2-d": (lambda y: y[:, None], ShapeMismatch, r"must be 1-d, got shape \(200, 1\)"),
}


class TestOneLabelRule:
    """Every entry point that takes labels refuses the same bad vectors with the same typed error."""

    @pytest.mark.parametrize("bad", BAD_LABELS)
    @pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
    def test_bad_labels(self, entry, bad):
        spoil, error, message = BAD_LABELS[bad]
        if (entry, bad) == ("binned_divergences", "k"):
            # its class count is one more than the largest label, so label 2 makes
            # a third class, which has too few samples
            error, message = InvalidValue, "class 2: 1 source / 0 target samples, need 50"
        else:
            message = r"\w*labels\w* " + message
        with pytest.raises(error) as info:
            LABEL_ENTRY_POINTS[entry](spoil(SRC.labels))
        assert re.fullmatch(message, str(info.value))

    @pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
    def test_good_labels_pass(self, entry):
        LABEL_ENTRY_POINTS[entry](SRC.labels)


GOOD_ROWS = np.array([[0.75, 0.25], [0.25, 0.75]])

# every entry point that takes probability rows, by the name its messages use
ROW_ENTRY_POINTS = {
    "source_preds": lambda m: ConfusionAccumulator(2).accumulate(m, [0, 1], GOOD_ROWS),
    "target_preds": lambda m: ConfusionAccumulator(2).accumulate(GOOD_ROWS, [0, 1], m),
    "confusion": balanced_error_rate,
    "conf_src": lambda m: conditional_error_gap(m, GOOD_ROWS),
    "conf_tgt": lambda m: conditional_error_gap(GOOD_ROWS, m),
}

BAD_ROWS = {
    "negative-entry": ([1.5, -0.5], "{} has an entry below -1e-06"),
    "sum-off-by-2e-6": ([0.25 + 2e-6, 0.75], "{} rows must be finite and sum to 1 within 1e-06"),
    "nan": ([np.nan, 1.0], "{} rows must be finite and sum to 1 within 1e-06"),
}


class TestOneRowRule:
    """Every entry point that takes probability rows refuses the same bad row with the same message."""

    @pytest.mark.parametrize("bad", BAD_ROWS)
    @pytest.mark.parametrize("entry", ROW_ENTRY_POINTS)
    def test_bad_row(self, entry, bad):
        row, message = BAD_ROWS[bad]
        rows = GOOD_ROWS.copy()
        rows[1] = row
        with pytest.raises(ShapeMismatch) as info:
            ROW_ENTRY_POINTS[entry](rows)
        assert str(info.value) == message.format(entry)

    @pytest.mark.parametrize("entry", ROW_ENTRY_POINTS)
    def test_good_rows_pass(self, entry):
        ROW_ENTRY_POINTS[entry](GOOD_ROWS)

    def test_empty_rows_and_labels_pass(self):
        assert check_rows(np.empty((0, 3)), 3, "rows").shape == (0, 3)
        assert check_labels(np.empty(0, dtype=np.int64), 3, "labels").shape == (0,)
        acc = ConfusionAccumulator(3).accumulate(np.empty((0, 3)), np.empty(0, dtype=np.int64), np.empty((0, 3)))
        assert not acc.c_hat.any() and not acc.mu_hat.any() and acc.n_source == acc.n_target == 0


class TestRowRuleErrorOrder:
    """The row sums fail first on a NaN or an infinity; the smallest entry is read only after them."""

    @pytest.mark.parametrize(
        "row, message",
        [
            pytest.param([np.nan, 1.0, 0.0], "rows rows must be finite and sum to 1 within 1e-06", id="nan"),
            pytest.param([-np.inf, 1.0, 1.0], "rows rows must be finite and sum to 1 within 1e-06", id="-inf"),
            pytest.param([-np.inf, np.inf, 1.0], "rows rows must be finite and sum to 1 within 1e-06", id="inf-minus-inf"),
            pytest.param([1e300, -1e300, 1.0], "rows has an entry below -1e-06", id="cancelling-huge-entries"),
            pytest.param([1.0 + 2e-6, -2e-6, 0.0], "rows has an entry below -1e-06", id="small-negative"),
        ],
    )
    def test_class_and_message(self, row, message):
        rows = np.array([[0.5, 0.25, 0.25], row, [0.0, 0.0, 1.0]])
        with pytest.raises(GlsAdaptError) as info:
            check_rows(rows, 3, "rows")
        assert type(info.value) is ShapeMismatch and str(info.value) == message

    def test_cancelling_huge_entries_sum_to_one(self):
        # the negativity check, not the sum, is what refuses this row
        assert (np.array([[1e300, -1e300, 1.0]]) @ np.ones(3))[0] == 1.0

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_no_rows_pass(self, k):
        empty = np.empty((0, k))
        assert check_rows(empty, k, "rows") is empty

    def test_no_columns_fail(self):
        with pytest.raises(ShapeMismatch, match="rows rows must be finite and sum to 1"):
            check_rows(np.empty((2, 0)), 0, "rows")


def test_only_distributions_holds_a_label_or_row_rule():
    # a module that reads .dtype.kind or defines a *ROW*TOL* constant is writing its own rule
    owners = {"dtype.kind": set(), "ROW*TOL": set()}
    for path in (Path(__file__).resolve().parents[1] / "src" / "gls_adapt").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "kind" and getattr(node.value, "attr", None) == "dtype":
                owners["dtype.kind"].add(path.name)
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if any(isinstance(t, ast.Name) and re.search("ROW.*TOL", t.id) for t in targets):
                owners["ROW*TOL"].add(path.name)
    assert owners == {"dtype.kind": {"distributions.py"}, "ROW*TOL": {"distributions.py"}}

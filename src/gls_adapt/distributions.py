"""Categorical probability vectors, the divergences used everywhere else, and
the one check of a label vector and of a matrix of probability rows.

All divergences use natural logarithms, so the Jensen-Shannon divergence
lives in [0, ln 2]. Zero-probability terms follow the usual convention
0 * log(0/x) = 0, and log(0/0) contributes 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, NonFiniteValue, ShapeMismatch

__all__ = [
    "Categorical",
    "jsd",
    "l1_distance",
    "empirical_label_dist",
    "check_labels",
    "check_rows",
]

SUM_TOL = 1e-9
ROW_TOL = 1e-6  # how far a probability row's sum may sit from 1, and an entry below 0


@dataclass(frozen=True)
class Categorical:
    """A probability vector over k >= 2 categories.

    Construction validates the invariants (entries >= 0, sum within 1e-9
    of 1). Inputs are never renormalized silently; use :meth:`normalize`
    when the input is a vector of nonnegative masses.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)  # a copy, which the instance then owns
        if arr.ndim != 1:
            raise ShapeMismatch(f"probs must be a 1-d vector, got shape {arr.shape}")
        if arr.size < 2:
            raise InvalidValue("a categorical needs at least 2 categories")
        # One min and one sum accept a valid vector: a NaN or -inf fails the min, a +inf
        # the sum. The sum waits for the min, so inf - inf is never summed.
        total = float(np.add.reduce(arr)) if np.minimum.reduce(arr) >= 0.0 else math.nan
        if not abs(total - 1.0) <= SUM_TOL:
            if not np.isfinite(arr).all():
                raise NonFiniteValue("probs contains non-finite entries")
            if (arr < 0).any():
                raise InvalidValue("probs contains negative entries")
            raise InvalidValue(f"probs sum to {total!r}, expected 1 within {SUM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def normalize(cls, raw) -> "Categorical":
        """Build a Categorical from nonnegative masses, dividing by their sum."""
        arr = np.asarray(raw, dtype=float)
        total = np.add.reduce(arr, axis=None)
        if not 0.0 < total < math.inf:
            raise InvalidValue("cannot normalize: masses must be nonnegative with positive sum")
        return cls(arr / total)

    @property
    def k(self) -> int:
        return self.probs.size


def _pair(p: Categorical, q: Categorical) -> tuple[np.ndarray, np.ndarray]:
    if p.k != q.k:
        raise ShapeMismatch(f"distributions have lengths {p.k} and {q.k}")
    return p.probs, q.probs


def jsd(p: Categorical, q: Categorical) -> float:
    """Jensen-Shannon divergence in nats.

    0.5 * KL(p || m) + 0.5 * KL(q || m) with m = (p + q) / 2. Symmetric,
    finite for all inputs, and bounded by ln 2. Clamped at zero: the sum
    of signed rounding errors may otherwise dip a hair below it.
    """
    a, b = _pair(p, q)
    m = 0.5 * (a + b)
    return max(0.0, 0.5 * _kl_raw(a, m) + 0.5 * _kl_raw(b, m))


def _kl_raw(a: np.ndarray, b: np.ndarray) -> float:
    # b_i = 0 implies a_i = 0 here (b is a mixture containing a).
    mask = a > 0
    return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))


def l1_distance(p: Categorical, q: Categorical) -> float:
    """Sum of absolute probability differences; lies in [0, 2]."""
    a, b = _pair(p, q)
    return float(np.sum(np.abs(a - b)))


def empirical_label_dist(labels, k: int) -> Categorical:
    """Empirical class distribution of a sequence of integer labels.

    Parameters
    ----------
    labels : sequence of int
        Class indices in [0, k), at least one; see :func:`check_labels`.
    k : int
        Number of classes, at least 2.
    """
    if np.size(labels) == 0:
        raise InvalidValue("labels is empty")
    arr = check_labels(labels, k, "labels")
    counts = np.bincount(arr, minlength=k).astype(float)
    return Categorical(counts / arr.size)


def check_labels(labels, k: float, name: str) -> np.ndarray:
    """``labels`` as an array, once it is a 1-d vector of integer class indices in [0, k).

    Floats are refused even when integer-valued, and so are bools, which
    numpy would take as a mask when indexing. An empty integer vector
    passes. ``k`` is ``np.inf`` where the labels themselves set the class
    count.
    """
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ShapeMismatch(f"{name} must be 1-d, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise InvalidValue(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.size and (np.minimum.reduce(arr) < 0 or np.maximum.reduce(arr) >= k):
        raise InvalidValue(f"{name} must lie in [0, {k})")
    return arr


def check_rows(matrix, k: int, name: str) -> np.ndarray:
    """``matrix`` as an (n, k) float array, once every row is a probability vector.

    Each row sum must lie within ``ROW_TOL`` of 1 and no entry below
    ``-ROW_TOL``. The sums come from one matrix-vector product, written so
    that a NaN, infinite or overflowing row sum (inf - inf is NaN, a huge
    finite row sums to inf) raises here instead of warning. A row holding a
    NaN or an infinity has a NaN or infinite sum and fails first, so the
    smallest entry, read after the sums, is finite. A matrix with no rows
    passes.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != k:
        raise ShapeMismatch(f"{name} has shape {arr.shape}, expected (n, {k})")
    if not arr.shape[0]:
        return arr
    with np.errstate(over="ignore", invalid="ignore"):
        dev = arr @ np.ones(k)
    dev -= 1.0
    if not np.maximum.reduce(np.abs(dev, out=dev)) <= ROW_TOL:
        raise ShapeMismatch(f"{name} rows must be finite and sum to 1 within {ROW_TOL}")
    if np.minimum.reduce(arr, axis=None) < -ROW_TOL:
        raise ShapeMismatch(f"{name} has an entry below -{ROW_TOL}")
    return arr

"""Categorical probability vectors and the divergences used everywhere else.

All divergences use natural logarithms, so the Jensen-Shannon divergence
lives in [0, ln 2]. Zero-probability terms follow the usual convention
0 * log(0/x) = 0, and log(0/0) contributes 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, NonFiniteValue, ShapeMismatch

__all__ = [
    "Categorical",
    "jsd",
    "l1_distance",
    "empirical_label_dist",
]

SUM_TOL = 1e-9


@dataclass(frozen=True)
class Categorical:
    """A probability vector over k >= 2 categories.

    Construction validates the invariants (entries >= 0, sum within 1e-9
    of 1). Inputs are never renormalized silently; use :meth:`normalize`
    when the input is a vector of nonnegative masses.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1:
            raise ShapeMismatch(f"probs must be a 1-d vector, got shape {arr.shape}")
        if arr.size < 2:
            raise InvalidValue("a categorical needs at least 2 categories")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("probs contains non-finite entries")
        if np.any(arr < 0):
            raise InvalidValue("probs contains negative entries")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidValue(f"probs sum to {total!r}, expected 1 within {SUM_TOL}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def normalize(cls, raw) -> "Categorical":
        """Build a Categorical from nonnegative masses, dividing by their sum."""
        arr = np.asarray(raw, dtype=float)
        total = arr.sum()
        if not np.isfinite(total) or total <= 0:
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
        Class indices in [0, k).
    k : int
        Number of classes, at least 2.
    """
    arr = np.asarray(labels)
    if arr.size == 0:
        raise InvalidValue("labels is empty")
    if arr.ndim != 1:
        raise ShapeMismatch(f"labels must be 1-d, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == arr.astype(int)):
            raise InvalidValue("labels must be integers")
        arr = arr.astype(int)
    if arr.min() < 0 or arr.max() >= k:
        raise InvalidValue(f"labels must lie in [0, {k})")
    counts = np.bincount(arr, minlength=k).astype(float)
    return Categorical(counts / arr.size)

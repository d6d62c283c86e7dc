"""Adversarial, classification and kernel-discrepancy losses.

Every loss takes raw model outputs. Each ``*_grads`` function returns
``(value, grad...)``: the batch value and its derivative with respect to
those outputs, so the caller can route it through backpropagation. The
plain-named function returns the value alone. With all-ones weights each
weighted loss reduces exactly to its unweighted base version.
"""

from __future__ import annotations

import functools

import numpy as np

from .distributions import Categorical
from .errors import InvalidValue, ShapeMismatch
from .estimator import WeightVector

__all__ = [
    "weighted_da_loss",
    "weighted_da_loss_grads",
    "cross_entropy_loss",
    "cross_entropy_loss_grads",
    "weighted_classification_loss",
    "weighted_classification_loss_grads",
    "median_heuristic_bandwidths",
    "weighted_mmd_loss",
    "weighted_mmd_loss_grads",
]

LOG_EPS = 1e-12
MMD_SCALES = (0.5, 1.0, 2.0)


def _check_discriminator(out, name: str) -> np.ndarray:
    arr = np.asarray(out, dtype=float).reshape(-1)
    if arr.size and (np.any(arr <= 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr))):
        raise InvalidValue(f"{name} must lie strictly inside (0, 1)")
    return arr


def _class_weights(labels: np.ndarray, w: WeightVector) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size == 0:
        raise InvalidValue("labels is empty")
    if labels.min() < 0 or labels.max() >= len(w):
        raise InvalidValue("labels index outside the weight vector")
    return w.w[labels]


def weighted_da_loss_grads(d_src, d_tgt, labels_src, w: WeightVector):
    """Importance-weighted discriminator loss on a paired batch.

    -(1/s) * sum_i [ w_{y_i} * log d(src_i) + log(1 - d(tgt_i)) ]

    The discriminator is trained to drive this down (source toward 1,
    target toward 0); the feature extractor is trained to drive it up.
    Returns (value, d(loss)/d(d_src), d(loss)/d(d_tgt)).
    """
    ds = _check_discriminator(d_src, "d_src")
    dt = _check_discriminator(d_tgt, "d_tgt")
    if ds.size != dt.size:
        raise ShapeMismatch(f"paired batches of sizes {ds.size} and {dt.size}")
    ws = _class_weights(labels_src, w)
    s = ds.size
    src = np.maximum(ds, LOG_EPS)
    tgt = np.maximum(1.0 - dt, LOG_EPS)
    value = float(-(np.sum(ws * np.log(src)) + np.sum(np.log(tgt))) / s)
    return value, -ws / src / s, 1.0 / tgt / s


def weighted_da_loss(d_src, d_tgt, labels_src, w: WeightVector) -> float:
    return weighted_da_loss_grads(d_src, d_tgt, labels_src, w)[0]


def _nll_grads(preds, labels, coeff):
    """Mean of -coeff_i * log p_i[y_i] and its gradient in the predictions."""
    p = np.asarray(preds, dtype=float)
    labels = np.asarray(labels)
    rows = np.arange(p.shape[0])
    picked = np.maximum(p[rows, labels], LOG_EPS)
    grad = np.zeros_like(p)
    grad[rows, labels] = -coeff / picked / p.shape[0]
    return float(-np.mean(coeff * np.log(picked))), grad


def cross_entropy_loss_grads(preds, labels):
    """Plain mean negative log likelihood of the true labels: (value, d/d(preds))."""
    return _nll_grads(preds, labels, 1.0)


def cross_entropy_loss(preds, labels) -> float:
    return cross_entropy_loss_grads(preds, labels)[0]


def weighted_classification_loss_grads(preds, labels, p_source: Categorical, w: WeightVector | None = None):
    """Balanced cross entropy: each sample scaled by 1 / (k * p_S(y)).

    With uniform p_S this is exactly the plain mean cross entropy. The
    optional ``w`` adds the extra per-class ratio factor used by the
    kernel-matching variant, giving w_y / (k * p_S(y)). Returns
    (value, d(loss)/d(preds)).
    """
    p = np.asarray(preds, dtype=float)
    if p.ndim != 2 or p.shape[1] != p_source.k:
        raise ShapeMismatch(f"preds has shape {p.shape}, expected (n, {p_source.k})")
    if np.any(p_source.probs == 0):
        raise InvalidValue("source label distribution has a zero entry")
    labels = np.asarray(labels)
    coeff = 1.0 / (p_source.k * p_source.probs[labels])
    if w is not None:
        coeff = coeff * w.w[labels]
    return _nll_grads(p, labels, coeff)


def weighted_classification_loss(preds, labels, p_source: Categorical, w: WeightVector | None = None) -> float:
    return weighted_classification_loss_grads(preds, labels, p_source, w)[0]


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


@functools.lru_cache(maxsize=8)
def _strict_upper(n: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of an n x n matrix."""
    rows, cols = np.triu_indices(n, k=1)
    flat = rows * n + cols
    flat.flags.writeable = False  # shared by every caller through the cache
    return flat


def _median_bandwidths(sq_ss, sq_tt, sq_st) -> list[float]:
    """The median heuristic from the three distance blocks of the pooled batch.

    The pooled matrix's strict upper triangle holds exactly the strict
    upper triangles of the two within-domain blocks plus the whole cross
    block, so the median of their union is the pooled median.
    """
    pairs = np.concatenate(
        [
            sq_ss.ravel()[_strict_upper(sq_ss.shape[0])],
            sq_tt.ravel()[_strict_upper(sq_tt.shape[0])],
            sq_st.ravel(),
        ]
    )
    med = float(np.median(pairs)) if pairs.size else 1.0
    med = max(med, 1e-12)
    return [s * med for s in MMD_SCALES]


def median_heuristic_bandwidths(feats_src, feats_tgt) -> list[float]:
    """Median pairwise squared distance of the pooled batch, times each of ``MMD_SCALES``."""
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    return _median_bandwidths(_sq_dists(fs, fs), _sq_dists(ft, ft), _sq_dists(fs, ft))


def weighted_mmd_loss_grads(feats_src, labels_src, feats_tgt, w: WeightVector, bandwidths=None):
    """Kernel alignment loss, the negative weighted squared MMD.

    -(1/s^2) sum_ij w_i w_j k(s_i, s_j) - (1/s^2) sum_ij k(t_i, t_j)
    + (2/s^2) sum_ij w_i k(s_i, t_j)

    k is the sum of Gaussian kernels exp(-|a - b|^2 / bw) over the
    bandwidths, which are squared length scales; ``None`` takes them from
    :func:`median_heuristic_bandwidths` of the same batch. Maximizing this
    over the feature extractor shrinks the discrepancy between the
    w-reweighted source batch and the target batch. Returns
    (value, d(loss)/d(feats_src), d(loss)/d(feats_tgt)).
    """
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    if fs.ndim != 2 or ft.ndim != 2 or fs.shape[1] != ft.shape[1]:
        raise ShapeMismatch(f"feature shapes {fs.shape} and {ft.shape} are incompatible")
    if fs.shape[0] != ft.shape[0]:
        raise ShapeMismatch(f"paired batches of sizes {fs.shape[0]} and {ft.shape[0]}")
    ws = _class_weights(labels_src, w)
    s = fs.shape[0]
    sq_ss = _sq_dists(fs, fs)
    sq_tt = _sq_dists(ft, ft)
    sq_st = _sq_dists(fs, ft)
    if bandwidths is None:
        bandwidths = _median_bandwidths(sq_ss, sq_tt, sq_st)
    # kernel sums for the value, and the same sums over k / bw for the gradient
    sum_ss = np.zeros_like(sq_ss)
    sum_tt = np.zeros_like(sq_tt)
    sum_st = np.zeros_like(sq_st)
    c_ss = np.zeros_like(sq_ss)
    c_tt = np.zeros_like(sq_tt)
    c_st = np.zeros_like(sq_st)
    for bw in bandwidths:
        k_ss = np.exp(-sq_ss / bw)
        k_tt = np.exp(-sq_tt / bw)
        k_st = np.exp(-sq_st / bw)
        sum_ss += k_ss
        sum_tt += k_tt
        sum_st += k_st
        c_ss += k_ss / bw
        c_tt += k_tt / bw
        c_st += k_st / bw
    # d/da exp(-|a - b|^2 / bw) = -(2 / bw) (a - b) k(a, b); each block's pair
    # coefficient (-w_i w_j, -1 and +2 w_i, over s^2) is folded into a_*
    a_ss = (4.0 / (s * s)) * np.outer(ws, ws) * c_ss
    a_tt = (4.0 / (s * s)) * c_tt
    a_st = (-4.0 / (s * s)) * ws[:, None] * c_st
    g_src = (a_ss.sum(axis=1) + a_st.sum(axis=1))[:, None] * fs - a_ss @ fs - a_st @ ft
    g_tgt = (a_tt.sum(axis=1) + a_st.sum(axis=0))[:, None] * ft - a_tt @ ft - a_st.T @ fs
    total = -ws @ sum_ss @ ws - sum_tt.sum() + 2.0 * (ws @ sum_st.sum(axis=1))
    return float(total / (s * s)), g_src, g_tgt


def weighted_mmd_loss(feats_src, labels_src, feats_tgt, w: WeightVector, bandwidths) -> float:
    return weighted_mmd_loss_grads(feats_src, labels_src, feats_tgt, w, bandwidths)[0]

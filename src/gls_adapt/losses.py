"""Adversarial, classification and kernel-discrepancy losses.

Every loss takes raw model outputs; the two alignment losses share the
argument order ``(out_src, labels_src, out_tgt, w)``. Each ``*_grads``
function returns ``(value, grad...)``: the batch value and its derivative
with respect to those outputs, so the caller can route it through
backpropagation. The plain-named function returns the value alone. With all-ones weights each
weighted loss reduces exactly to its unweighted base version.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from .distributions import Categorical, check_labels
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
    if not ((arr > 0.0) & (arr < 1.0)).all():  # NaN fails both comparisons
        raise InvalidValue(f"{name} must lie strictly inside (0, 1)")
    return arr


def _labels(labels, k: int, rows: int) -> np.ndarray:
    """The batch's labels, once there is at least one, one per row, and :func:`check_labels` passes them."""
    if np.size(labels) == 0:
        raise InvalidValue("labels is empty")
    arr = check_labels(labels, k, "labels")
    if arr.size != rows:
        raise ShapeMismatch(f"labels has {arr.size} entries for {rows} batch rows")
    return arr


def weighted_da_loss_grads(d_src, labels_src, d_tgt, w: WeightVector):
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
    ws = w.w[_labels(labels_src, len(w), ds.size)]
    s = ds.size
    src = np.maximum(ds, LOG_EPS)
    tgt = np.maximum(1.0 - dt, LOG_EPS)
    value = float(-(np.sum(ws * np.log(src)) + np.sum(np.log(tgt))) / s)
    return value, -ws / src / s, 1.0 / tgt / s


def weighted_da_loss(d_src, labels_src, d_tgt, w: WeightVector) -> float:
    return weighted_da_loss_grads(d_src, labels_src, d_tgt, w)[0]


def _nll_grads(p: np.ndarray, labels, class_coeff: np.ndarray):
    """Mean of -class_coeff[y_i] * log p_i[y_i] and its gradient in the (n, k) predictions p."""
    labels = _labels(labels, p.shape[1], p.shape[0])
    coeff = class_coeff[labels]
    rows = np.arange(p.shape[0])
    picked = np.maximum(p[rows, labels], LOG_EPS)
    grad = np.zeros_like(p)
    grad[rows, labels] = -coeff / picked / p.shape[0]
    return float(-np.mean(coeff * np.log(picked))), grad


def cross_entropy_loss_grads(preds, labels):
    """Plain mean negative log likelihood of the true labels: (value, d/d(preds))."""
    p = np.asarray(preds, dtype=float)
    return _nll_grads(p, labels, np.ones(p.shape[1]))


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
    coeff = 1.0 / (p_source.k * p_source.probs)
    if w is not None:
        coeff = coeff * w.w
    return _nll_grads(p, labels, coeff)


def weighted_classification_loss(preds, labels, p_source: Categorical, w: WeightVector | None = None) -> float:
    return weighted_classification_loss_grads(preds, labels, p_source, w)[0]


def _sq_dists(a: np.ndarray, b: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """|a_i - b_j|^2 clipped at 0, written into ``out`` with ``tmp`` as work space when given."""
    tmp = np.add(np.sum(a * a, axis=1)[:, None], np.sum(b * b, axis=1)[None, :], out=tmp)
    out = np.matmul(a, b.T, out=out)
    out *= 2.0
    np.subtract(tmp, out, out=out)
    return np.maximum(out, 0.0, out=out)


@functools.lru_cache(maxsize=8)
def _strict_upper(n: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of an n x n matrix."""
    rows, cols = np.triu_indices(n, k=1)
    flat = rows * n + cols
    flat.flags.writeable = False  # shared by every caller through the cache
    return flat


def _median_bandwidths(sq_ss, sq_tt, sq_st, pairs=None) -> list[float]:
    """The median heuristic from the three distance blocks of the pooled batch.

    The pooled matrix's strict upper triangle holds exactly the strict
    upper triangles of the two within-domain blocks plus the whole cross
    block, so the median of their union is the pooled median. ``pairs``,
    when given, is the work buffer for that union; it is partitioned in
    place at the upper middle only, and the lower middle of an even count
    is the largest value below it, so the result is ``np.median``'s float.
    """
    m_ss = sq_ss.shape[0] * (sq_ss.shape[0] - 1) // 2
    m_tt = sq_tt.shape[0] * (sq_tt.shape[0] - 1) // 2
    size = m_ss + m_tt + sq_st.size
    if size == 0:
        med = 1.0
    else:
        pairs = np.empty(size) if pairs is None else pairs
        np.take(sq_ss, _strict_upper(sq_ss.shape[0]), out=pairs[:m_ss], mode="clip")
        np.take(sq_tt, _strict_upper(sq_tt.shape[0]), out=pairs[m_ss : m_ss + m_tt], mode="clip")
        pairs[m_ss + m_tt :] = sq_st.ravel()
        half = size // 2
        pairs.partition(half)
        med = float(pairs[half] if size % 2 else (pairs[:half].max() + pairs[half]) / 2.0)
        if np.isnan(pairs[half:].max()):  # NaNs sort last; np.median returns NaN for any
            med = float("nan")
    med = max(med, 1e-12)
    return [s * med for s in MMD_SCALES]


def median_heuristic_bandwidths(feats_src, feats_tgt) -> list[float]:
    """Median pairwise squared distance of the pooled batch, times each of ``MMD_SCALES``."""
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    return _median_bandwidths(_sq_dists(fs, fs), _sq_dists(ft, ft), _sq_dists(fs, ft))


class _Scratch(threading.local):
    """The kernel loss's work arrays, private to each thread, for up to four batch sizes.

    ``get(s)`` gives a (4, 3, s, s) stack (distances, kernel, kernel sums
    and gradient coefficients, each over the source-source, target-target
    and source-target blocks) and the buffer for the 2s^2 - s pooled pairs.
    """

    def __init__(self):
        self.get = functools.lru_cache(maxsize=4)(lambda s: (np.empty((4, 3, s, s)), np.empty(2 * s * s - s)))


_scratch = _Scratch()


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

    The s x s blocks live in a scratch kept per thread and batch size, so a
    training step maps no fresh pages; nothing returned refers to it.
    """
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    if fs.ndim != 2 or ft.ndim != 2 or fs.shape[1] != ft.shape[1]:
        raise ShapeMismatch(f"feature shapes {fs.shape} and {ft.shape} are incompatible")
    if fs.shape[0] != ft.shape[0]:
        raise ShapeMismatch(f"paired batches of sizes {fs.shape[0]} and {ft.shape[0]}")
    ws = w.w[_labels(labels_src, len(w), fs.shape[0])]
    s = fs.shape[0]
    stacks, pairs = _scratch.get(s)
    sq, kern, ksum, coef = stacks
    for i, (a, b) in enumerate(((fs, fs), (ft, ft), (fs, ft))):
        _sq_dists(a, b, out=sq[i], tmp=kern[i])
    if bandwidths is None:
        bandwidths = _median_bandwidths(*sq, pairs)
    # kernel sums for the value, and the same sums over k / bw for the gradient;
    # sq holds -|a - b|^2 from here on
    np.negative(sq, out=sq)
    ksum.fill(0.0)
    coef.fill(0.0)
    for bw in bandwidths:
        np.divide(sq, bw, out=kern)
        np.exp(kern, out=kern)
        ksum += kern
        kern /= bw
        coef += kern
    # d/da exp(-|a - b|^2 / bw) = -(2 / bw) (a - b) k(a, b); each block's pair
    # coefficient (-w_i w_j, -1 and +2 w_i, over s^2) is folded into a_*
    a_ss, a_tt, a_st = coef
    np.multiply(ws[:, None], ws[None, :], out=kern[0])
    kern[0] *= 4.0 / (s * s)
    a_ss *= kern[0]
    a_tt *= 4.0 / (s * s)
    a_st *= (-4.0 / (s * s)) * ws[:, None]
    g_src = (a_ss.sum(axis=1) + a_st.sum(axis=1))[:, None] * fs
    g_src -= a_ss @ fs
    g_src -= a_st @ ft
    g_tgt = (a_tt.sum(axis=1) + a_st.sum(axis=0))[:, None] * ft
    g_tgt -= a_tt @ ft
    g_tgt -= a_st.T @ fs
    sum_ss, sum_tt, sum_st = ksum
    total = -ws @ sum_ss @ ws - sum_tt.sum() + 2.0 * (ws @ sum_st.sum(axis=1))
    return float(total / (s * s)), g_src, g_tgt


def weighted_mmd_loss(feats_src, labels_src, feats_tgt, w: WeightVector, bandwidths) -> float:
    return weighted_mmd_loss_grads(feats_src, labels_src, feats_tgt, w, bandwidths)[0]

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
import math
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


def _sq_dist_blocks(fs: np.ndarray, ft: np.ndarray, out=(None,) * 3, tmp=(None,) * 3) -> list[np.ndarray]:
    """The source-source, target-target and source-target blocks of |a_i - b_j|^2, clipped at 0.

    Each block is (|a|^2 + |b|^2) + (-2a) b^T, and each domain's row norms
    are formed once. The norm sums are the rank-2 gemm [|a|^2, 1] [1, |b|^2]^T,
    whose entries round once, as a broadcast add does, but faster; the product
    is a gemm against a contiguous transposed copy (scaling by -2 is exact).
    ``out`` and ``tmp`` give each block's storage and work space when not None.
    """
    norms = [np.sum(a * a, axis=1) for a in (fs, ft)]
    lhs = [np.stack([n, np.ones_like(n)], axis=1) for n in norms]
    rhs = [np.stack([np.ones_like(n), n]) for n in norms]
    neg2 = [-2.0 * a for a in (fs, ft)]
    trans = [np.ascontiguousarray(a.T) for a in (fs, ft)]
    blocks = []
    for (i, j), o, t in zip(((0, 0), (1, 1), (0, 1)), out, tmp):
        block = np.matmul(lhs[i], rhs[j], out=o)
        block += np.matmul(neg2[i], trans[j], out=t)
        blocks.append(np.maximum(block, 0.0, out=block))
    return blocks


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
    return _median_bandwidths(*_sq_dist_blocks(fs, ft))


class _Scratch(threading.local):
    """The kernel loss's work arrays, private to each thread, for up to four batch sizes.

    ``get(s)`` gives a (3, 3, s, s) stack (distances, one bandwidth's k / bw,
    and the gradient coefficients sum(k / bw) over the bandwidths, each over
    the source-source, target-target and source-target blocks) and the
    buffer for the 2s^2 - s pooled pairs.
    """

    def __init__(self):
        self.get = functools.lru_cache(maxsize=4)(lambda s: (np.empty((3, 3, s, s)), np.empty(2 * s * s - s)))


_scratch = _Scratch()


def weighted_mmd_loss_grads(feats_src, labels_src, feats_tgt, w: WeightVector, bandwidths=None):
    """Kernel alignment loss, the negative weighted squared MMD.

    -(1/s^2) sum_ij w_i w_j k(s_i, s_j) - (1/s^2) sum_ij k(t_i, t_j)
    + (2/s^2) sum_ij w_i k(s_i, t_j)

    k is the sum of Gaussian kernels exp(-|a - b|^2 / bw) over the
    bandwidths, which are squared length scales, each finite and > 0;
    ``None`` takes them from :func:`median_heuristic_bandwidths` of the same
    batch. Maximizing this over the feature extractor shrinks the
    discrepancy between the w-reweighted source batch and the target batch.
    Returns (value, d(loss)/d(feats_src), d(loss)/d(feats_tgt)).

    Each bandwidth takes one exp of -|a - b|^2 / bw - ln bw, which is
    k / bw: the loss value is bw times its matrix-vector products, and the
    sums C = sum(k / bw) over the bandwidths give both gradients in four
    gemms. The s x s blocks live in a scratch kept per thread and batch
    size, so a training step maps no fresh pages; nothing returned refers
    to it.
    """
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    if fs.ndim != 2 or ft.ndim != 2 or fs.shape[1] != ft.shape[1]:
        raise ShapeMismatch(f"feature shapes {fs.shape} and {ft.shape} are incompatible")
    if fs.shape[0] != ft.shape[0]:
        raise ShapeMismatch(f"paired batches of sizes {fs.shape[0]} and {ft.shape[0]}")
    ws = w.w[_labels(labels_src, len(w), fs.shape[0])]
    if bandwidths is not None:
        bandwidths = [float(bw) for bw in bandwidths]
        if not bandwidths:
            raise InvalidValue("bandwidths is empty")
        if not all(math.isfinite(bw) and bw > 0.0 for bw in bandwidths):
            raise InvalidValue(f"bandwidths must be finite and > 0, got {bandwidths}")
    s, dim = fs.shape
    (sq, kern, coef), pairs = _scratch.get(s)
    _sq_dist_blocks(fs, ft, out=sq, tmp=kern)
    if bandwidths is None:
        bandwidths = _median_bandwidths(*sq, pairs)
    # kv stacks K_ss ws, K_tt 1 and K_st 1, summed over the bandwidths
    right = np.ones((3, s, 1))
    right[0, :, 0] = ws
    kv = np.zeros((3, s, 1))
    for i, bw in enumerate(bandwidths):
        k_bw = coef if i == 0 else kern
        np.multiply(sq, -1.0 / bw, out=k_bw)
        k_bw -= math.log(bw)
        np.exp(k_bw, out=k_bw)  # k / bw
        kv += bw * np.matmul(k_bw, right)
        if i:
            coef += kern
    value = ws @ (2.0 * kv[2, :, 0] - kv[0, :, 0]) - kv[1].sum()
    # d/da exp(-|a - b|^2 / bw) = -(2 / bw) (a - b) k(a, b), so with C = sum(k / bw),
    # R_src = [w z_src | w] and R_tgt = [z_tgt | 1], M = C_own R_own - C_cross R_other
    # gives each row's gradient (4/s^2) (M_last z - M_rest), times w_i on the source
    c_ss, c_tt, c_st = coef
    r_src = np.ones((s, dim + 1))
    r_src[:, :dim] = fs
    r_src *= ws[:, None]
    r_tgt = np.ones((s, dim + 1))
    r_tgt[:, :dim] = ft
    m_src = c_ss @ r_src
    m_src -= c_st @ r_tgt
    m_tgt = c_tt @ r_tgt
    m_tgt -= c_st.T @ r_src
    g_src = m_src[:, dim:] * fs
    g_src -= m_src[:, :dim]
    g_src *= (4.0 / (s * s)) * ws[:, None]
    g_tgt = m_tgt[:, dim:] * ft
    g_tgt -= m_tgt[:, :dim]
    g_tgt *= 4.0 / (s * s)
    return float(value / (s * s)), g_src, g_tgt


def weighted_mmd_loss(feats_src, labels_src, feats_tgt, w: WeightVector, bandwidths) -> float:
    return weighted_mmd_loss_grads(feats_src, labels_src, feats_tgt, w, bandwidths)[0]

"""Adversarial, classification and kernel-discrepancy losses.

Every loss takes raw model outputs; the two alignment losses share the
argument order ``(out_src, labels_src, out_tgt, w)``. Each ``*_grads``
function returns ``(value, grad...)``: the batch value and its derivative
with respect to those outputs, so the caller can route it through
backpropagation. The plain-named function returns the value alone. With all-ones weights each
weighted loss reduces exactly to its unweighted base version.

Each ``*_grads`` function checks its inputs and then calls one private
kernel, the loss's only arithmetic, which takes validated arrays with the
source rows and the target rows stacked. The training step checks each of
its arrays once and calls the kernels directly.
"""

from __future__ import annotations

import math

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
    if not np.logical_and.reduce((arr > 0.0) & (arr < 1.0)):  # NaN fails both comparisons
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
    s = ds.size
    ws = w.w[_labels(labels_src, len(w), s)]
    grad = np.empty(2 * s)
    value = _da(np.concatenate([ds, dt]), ws, grad)
    return value, grad[:s], grad[s:]


def _da(d: np.ndarray, ws: np.ndarray, grad: np.ndarray) -> float:
    """The adversarial loss of :func:`weighted_da_loss_grads` on the stacked (2s,) output d, source rows first.

    ``ws`` holds the s source rows' weights. Writes d(loss)/d(d) into
    ``grad``, a (2s,) array, and returns the value.
    """
    s = ws.size
    src = np.maximum(d[:s], LOG_EPS)
    tgt = np.subtract(1.0, d[s:])
    np.maximum(tgt, LOG_EPS, out=tgt)
    value = float(-(np.add.reduce(ws * np.log(src)) + np.add.reduce(np.log(tgt))) / s)
    np.divide(np.negative(ws), src, out=grad[:s])
    np.divide(1.0, tgt, out=grad[s:])
    grad /= s
    return value


def weighted_da_loss(d_src, labels_src, d_tgt, w: WeightVector) -> float:
    return weighted_da_loss_grads(d_src, labels_src, d_tgt, w)[0]


def _nll(p: np.ndarray, labels: np.ndarray, class_coeff: np.ndarray, grad: np.ndarray) -> float:
    """Mean of -class_coeff[y_i] * log p_i[y_i] over the (n, k) predictions p; the classification losses' arithmetic.

    Writes its gradient in p into ``grad``, an (n, k) array, and returns
    the value.
    """
    n = p.shape[0]
    coeff = class_coeff[labels]
    rows = np.arange(n)
    picked = np.maximum(p[rows, labels], LOG_EPS)
    grad.fill(0.0)
    grad[rows, labels] = -coeff / picked / n
    return float(-(np.add.reduce(coeff * np.log(picked)) / n))


def cross_entropy_loss_grads(preds, labels):
    """Plain mean negative log likelihood of the true labels: (value, d/d(preds))."""
    p = np.asarray(preds, dtype=float)
    labels = _labels(labels, p.shape[1], p.shape[0])
    grad = np.empty_like(p)
    return _nll(p, labels, np.ones(p.shape[1]), grad), grad


def cross_entropy_loss(preds, labels) -> float:
    return cross_entropy_loss_grads(preds, labels)[0]


def _class_coeff(p_source: Categorical, w: WeightVector | None) -> np.ndarray:
    """The balanced classification loss's per-class factors 1 / (k * p_S(y)), times w_y when ``w`` is given."""
    coeff = 1.0 / (p_source.k * p_source.probs)
    return coeff if w is None else coeff * w.w


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
    if np.logical_or.reduce(p_source.probs == 0):
        raise InvalidValue("source label distribution has a zero entry")
    labels = _labels(labels, p_source.k, p.shape[0])
    grad = np.empty_like(p)
    return _nll(p, labels, _class_coeff(p_source, w), grad), grad


def weighted_classification_loss(preds, labels, p_source: Categorical, w: WeightVector | None = None) -> float:
    return weighted_classification_loss_grads(preds, labels, p_source, w)[0]


def _feature_pair(feats_src, feats_tgt) -> tuple[np.ndarray, np.ndarray]:
    """The two feature batches as float arrays, once they are (s, d) each with s >= 2."""
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    if fs.ndim != 2 or ft.ndim != 2 or fs.shape[1] != ft.shape[1]:
        raise ShapeMismatch(f"feature shapes {fs.shape} and {ft.shape} are incompatible")
    if fs.shape[0] != ft.shape[0]:
        raise ShapeMismatch(f"paired batches of sizes {fs.shape[0]} and {ft.shape[0]}")
    if fs.shape[0] < 2:
        raise InvalidValue(f"the kernel loss pairs rows, so it needs at least 2 per batch, got {fs.shape[0]}")
    return fs, ft


def _pair_differences(fs: np.ndarray, ft: np.ndarray) -> np.ndarray:
    """The (4, s // 2, d) differences s_a - s_b, t_a - t_b, s_a - t_b, s_b - t_a of two (s, d) batches.

    Row pair i is a = 2i, b = 2i + 1 of each batch; the last row of an odd
    batch is in no pair.
    """
    s = fs.shape[0]
    s_a, s_b, t_a, t_b = fs[0 : s - 1 : 2], fs[1::2], ft[0 : s - 1 : 2], ft[1::2]
    diff = np.empty((4, s // 2, fs.shape[1]))
    for out, (a, b) in zip(diff, ((s_a, s_b), (t_a, t_b), (s_a, t_b), (s_b, t_a))):
        np.subtract(a, b, out=out)
    return diff


def _median_bandwidths(sq: np.ndarray) -> list[float]:
    """``MMD_SCALES`` times the median of ``sq``, an even count of squared distances, floored at 1e-12.

    The median is np.median's: the mean of the two middle values, or NaN
    when any value is NaN (NaN sorts last).
    """
    half = sq.size // 2
    part = np.partition(sq, (half - 1, half, -1), axis=None)
    med = math.nan if math.isnan(part[-1]) else max(float(part[half - 1] + part[half]) / 2.0, 1e-12)
    return [s * med for s in MMD_SCALES]


def median_heuristic_bandwidths(feats_src, feats_tgt) -> list[float]:
    """Median squared distance of the 4 * (s // 2) row pairs the kernel loss compares, times each of ``MMD_SCALES``."""
    diff = _pair_differences(*_feature_pair(feats_src, feats_tgt))
    return _median_bandwidths(np.einsum("pmd,pmd->pm", diff, diff))


def weighted_mmd_loss_grads(feats_src, labels_src, feats_tgt, w: WeightVector, bandwidths=None):
    """Kernel alignment loss, the negative of the linear-time weighted squared MMD estimate.

    -(1/m) sum_i [w_a w_b k(s_a, s_b) + k(t_a, t_b) - w_a k(s_a, t_b) - w_b k(s_b, t_a)]

    over the m = s // 2 row pairs a = 2i, b = 2i + 1 of the paired batch:
    Gretton et al.'s unbiased linear-time estimate (JMLR 2012, "A Kernel
    Two-Sample Test", section 6), which DAN trains with (Long et al. 2015,
    arXiv 1502.02791), with each source row weighted by w of its label. The
    last row of an odd batch is in no pair, so its gradient is zero. k is
    the sum of Gaussian kernels exp(-|x - y|^2 / bw) over the bandwidths,
    which are squared length scales, each finite and > 0; ``None`` takes
    them from :func:`median_heuristic_bandwidths` of the same batch.
    Maximizing this over the feature extractor shrinks the discrepancy
    between the w-reweighted source batch and the target batch. Returns
    (value, d(loss)/d(feats_src), d(loss)/d(feats_tgt)).
    """
    fs, ft = _feature_pair(feats_src, feats_tgt)
    s = fs.shape[0]
    ws = w.w[_labels(labels_src, len(w), s)]
    if bandwidths is not None:
        bandwidths = [float(bw) for bw in bandwidths]
        if not bandwidths:
            raise InvalidValue("bandwidths is empty")
        if not all(math.isfinite(bw) and bw > 0.0 for bw in bandwidths):
            raise InvalidValue(f"bandwidths must be finite and > 0, got {bandwidths}")
    value, grad = _mmd(fs, ft, ws, bandwidths)
    return value, grad[:s], grad[s:]


def _mmd(fs: np.ndarray, ft: np.ndarray, ws: np.ndarray, bandwidths=None) -> tuple[float, np.ndarray]:
    """The kernel loss of :func:`weighted_mmd_loss_grads` on two (s, d) batches and the source rows' weights ``ws``.

    Returns the value and the stacked (2s, d) gradient, source rows first.
    """
    s = fs.shape[0]
    diff = _pair_differences(fs, ft)
    sq = np.einsum("pmd,pmd->pm", diff, diff)
    if bandwidths is None:
        bandwidths = _median_bandwidths(sq)
    m = s // 2
    w_a, w_b = ws[0 : s - 1 : 2], ws[1::2]
    coef = np.stack([w_a * w_b, np.ones(m), -w_a, -w_b])
    bw = np.array(bandwidths)[:, None, None]
    k_bw = np.exp(-sq / bw)  # one (4, m) kernel block per bandwidth, summed in bandwidth order
    kern = np.add.reduce(k_bw, axis=0)
    slope = np.add.reduce(k_bw / bw, axis=0)  # sum of k / bw: d/dx exp(-|x|^2 / bw) = -(2 / bw) x exp(-|x|^2 / bw)
    grad = np.multiply(diff, ((2.0 / m) * coef * slope)[:, :, None], out=diff)
    g = np.empty((2 * s, diff.shape[2]))
    g_src, g_tgt = g[:s], g[s:]
    np.add(grad[0], grad[2], out=g_src[0 : s - 1 : 2])
    np.subtract(grad[3], grad[0], out=g_src[1::2])
    np.subtract(grad[1], grad[3], out=g_tgt[0 : s - 1 : 2])
    np.subtract(np.negative(grad[1], out=g_tgt[1::2]), grad[2], out=g_tgt[1::2])
    if s % 2:
        g_src[-1] = g_tgt[-1] = 0.0
    return -float(np.sum(coef * kern)) / m, g


def weighted_mmd_loss(feats_src, labels_src, feats_tgt, w: WeightVector, bandwidths) -> float:
    return weighted_mmd_loss_grads(feats_src, labels_src, feats_tgt, w, bandwidths)[0]

"""Scaling measured intervals to an idle core's speed.

On the shared 2-vCPU Xeon VM the baseline was measured on, a core runs
40-60% slower for seconds to minutes at a time while other tenants are
busy, and identical ``train()`` calls varied by 12-20% in wall time. Two
fixed NumPy kernels that do not use gls_adapt are timed on both sides of
every measured interval: "small" is dominated by call overhead on 32x32
matrices, "dense" by matmul distances, a median and exp over 256x256
pairs, the operations of the kernel-matching losses. Scaling the interval
by the kernels' idle-core time over their time around it cancels most of
the slowdown. The two kernels count equally: that blend left the least
spread on repeated identical operations of kernel_train, bound_verify and
estimate.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_MS = {"small": 0.24, "dense": 1.8}  # idle-core times
_SMALL = np.random.default_rng(0).standard_normal((32, 32)) * 0.1
_DENSE = np.random.default_rng(1).standard_normal((256, 32)) * 0.5
_UPPER = np.triu_indices(256, k=1)


def _small_kernel():
    x = _SMALL
    for _ in range(60):
        x = np.tanh(x @ _SMALL)


def _dense_kernel():
    """Median-heuristic Gaussian kernel sums over 256 pooled 32-d rows."""
    norms = (_DENSE * _DENSE).sum(axis=1)
    sq = np.maximum(norms[:, None] + norms[None, :] - 2.0 * (_DENSE @ _DENSE.T), 0.0)
    median = np.median(sq[_UPPER])
    for scale in (0.5, 1.0, 2.0):
        np.exp(-sq / (scale * median)).sum()


_KERNELS = {"small": _small_kernel, "dense": _dense_kernel}


def reference_scale() -> float:
    """Idle-core time of the reference kernels over their time now.

    Each kernel runs once untimed first, to refill the caches the measured
    work evicted, so the timed pass sees the core's speed.
    """
    slowdown = 0.0
    for kind, kernel in _KERNELS.items():
        kernel()
        start = perf_counter()
        kernel()
        slowdown += (perf_counter() - start) * 1e3 / REFERENCE_MS[kind] / len(_KERNELS)
    return 1.0 / slowdown


def bracketed(scales) -> list:
    """Scale of each interval between consecutive kernel timings.

    Interval i lies between timings i and i+1; its slowdown is the mean of
    theirs, so an interval during which a slow phase began or ended gets
    half of it.
    """
    return [2.0 / (1.0 / a + 1.0 / b) for a, b in zip(scales, scales[1:])]

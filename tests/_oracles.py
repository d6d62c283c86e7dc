"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (plain
python loops, brute-force search) so the fast library paths are checked
against code that shares nothing with them.
"""

import math
from typing import NamedTuple

import numpy as np

from gls_adapt.distributions import Categorical, jsd
from gls_adapt.errors import ShapeMismatch


def kl_terms(p, q):
    """KL divergence evaluated term by term with python floats."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * math.log(pi / qi)
    return total


def jsd_terms(p, q):
    """JSD from the mixture-KL definition, term by term."""
    m = [(pi + qi) / 2.0 for pi, qi in zip(p, q)]
    return 0.5 * kl_terms(p, m) + 0.5 * kl_terms(q, m)


def qp_objective(c, w, mu):
    r = mu - c @ w
    return 0.5 * float(r @ r)


def kkt_residual(c, mu, p, w):
    """KKT residual of w for min 0.5*||mu - C w||^2 over {w >= 0, w.p = 1}, and its scale.

    The free set is {w > 0} and the multiplier nu is its least-squares fit.
    The residual is the largest of the most negative w, |w.p - 1|, the
    stationarity error C^T (C w - mu) + nu p on the free set and the dual-sign
    violation on the rest; the scale is 1 + max|C^T C| max w + max|C^T mu|.
    By convexity, w is within residual * (|w|_1 + |w*|_1) of the optimum w*.
    """
    c, mu, p, w = (np.asarray(a, dtype=float) for a in (c, mu, p, w))
    h, b = c.T @ c, c.T @ mu
    grad = h @ w - b
    free = w > 0
    nu = -(grad[free] @ p[free]) / (p[free] @ p[free])
    lagrangian = grad + nu * p
    parts = [max(-w.min(), 0.0), abs(w @ p - 1.0), np.abs(lagrangian[free]).max()]
    if not free.all():
        parts.append(max(-lagrangian[~free].min(), 0.0))
    return max(parts), 1.0 + np.abs(h).max() * w.max() + np.abs(b).max()


def _refine_segment(value_of_t, lo, hi, rounds, pts):
    """1-d refined grid minimization of a convex function on [lo, hi]."""
    full_lo, full_hi = lo, hi
    best_t, best_val = None, np.inf
    for _ in range(rounds):
        ts = np.linspace(lo, hi, pts)
        vals = value_of_t(ts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_t = float(ts[i])
        span = (hi - lo) / (pts - 1)
        lo = max(full_lo, best_t - 2 * span)
        hi = min(full_hi, best_t + 2 * span)
    return best_t, best_val


def qp_grid_oracle(c, mu, p, rounds=16, pts=41):
    """Brute-force minimizer of 0.5*||mu - C w||^2 on {w >= 0, w.p = 1}.

    Enumerates every face of the feasible polytope: vertices exactly,
    edges by 1-d refined grid search, and (k = 3) the interior by 2-d
    refined grid search. A boundary optimum is found by its own face
    search, so the interior grid never has to chase a constraint.
    Supports k = 2 or 3.
    """
    c = np.asarray(c, dtype=float)
    mu = np.asarray(mu, dtype=float)
    p = np.asarray(p, dtype=float)
    k = p.size
    if k not in (2, 3):
        raise ValueError("grid oracle supports k in {2, 3} only")

    def objective(ws):
        return 0.5 * np.sum((mu[None, :] - ws @ c.T) ** 2, axis=1)

    candidates = []
    for i in range(k):  # vertices: one free coordinate pinned by the equality
        w = np.zeros(k)
        w[i] = 1.0 / p[i]
        candidates.append((w, float(objective(w[None, :])[0])))

    import itertools

    for i, j in itertools.combinations(range(k), 2):  # edges

        def seg_value(ts, i=i, j=j):
            ws = np.zeros((ts.size, k))
            ws[:, i] = ts
            ws[:, j] = (1.0 - p[i] * ts) / p[j]
            return objective(ws)

        t, val = _refine_segment(seg_value, 0.0, 1.0 / p[i], rounds, pts)
        w = np.zeros(k)
        w[i] = t
        w[j] = (1.0 - p[i] * t) / p[j]
        candidates.append((np.maximum(w, 0.0), val))

    if k == 3:  # interior search; boundary optima are already covered above
        lo = np.zeros(2)
        hi = np.array([1.0 / p[0], 1.0 / p[1]])
        best_xy, best_val = None, np.inf
        for _ in range(rounds):
            xs = np.linspace(lo[0], hi[0], pts)
            ys = np.linspace(lo[1], hi[1], pts)
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            w3 = (1.0 - p[0] * gx - p[1] * gy) / p[2]
            ok = w3 >= 0
            if not ok.any():
                break
            ws = np.stack([gx[ok], gy[ok], w3[ok]], axis=1)
            vals = objective(ws)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val = float(vals[i])
                best_xy = ws[i, :2].copy()
            span = np.array([(hi[0] - lo[0]) / (pts - 1), (hi[1] - lo[1]) / (pts - 1)])
            lo = np.maximum(0.0, best_xy - 2 * span)
            hi = np.minimum([1.0 / p[0], 1.0 / p[1]], best_xy + 2 * span)
        if best_xy is not None:
            w = np.array([best_xy[0], best_xy[1], (1.0 - p[:2] @ best_xy) / p[2]])
            candidates.append((np.maximum(w, 0.0), best_val))

    best = min(candidates, key=lambda pair: pair[1])
    return best[0], best[1]


def accumulated_sums(batches, k):
    """C and mu summed over ``(source_preds, source_labels, target_preds)`` batches.

    A frozen copy of the reductions ``ConfusionAccumulator.accumulate`` used
    before it summed mu with ``einsum``: one one-hot gemm per batch for C and
    ``sum(axis=0)`` for mu, which adds C-ordered rows one by one in row order.
    """
    c_hat, mu_hat = np.zeros((k, k)), np.zeros(k)
    for source_preds, source_labels, target_preds in batches:
        onehot = np.zeros((source_preds.shape[0], k))
        onehot[np.arange(source_preds.shape[0]), source_labels] = 1.0
        c_hat += source_preds.T @ onehot
        mu_hat += target_preds.sum(axis=0)
    return c_hat, mu_hat


def mmd_double_loop(feats_src, labels_src, feats_tgt, w, bandwidths):
    """Pairwise double-loop evaluation of the kernel alignment loss."""
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    s = fs.shape[0]

    def kern(a, b):
        d2 = float(np.sum((a - b) ** 2))
        return sum(math.exp(-d2 / bw) for bw in bandwidths)

    ws = [w[labels_src[i]] for i in range(s)]
    total = 0.0
    for i in range(s):
        for j in range(s):
            total -= ws[i] * ws[j] * kern(fs[i], fs[j])
            total -= kern(ft[i], ft[j])
            total += 2.0 * ws[i] * kern(fs[i], ft[j])
    return total / (s * s)


def finite_difference_gradient(fn, params, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def flatten_net_params(net):
    return np.concatenate([t.ravel() for pair in zip(net.weights, net.biases) for t in pair])


def set_net_params(net, flat):
    pos = 0
    for i in range(len(net.weights)):
        w, b = net.weights[i], net.biases[i]
        net.weights[i] = flat[pos : pos + w.size].reshape(w.shape).copy()
        pos += w.size
        net.biases[i] = flat[pos : pos + b.size].copy()
        pos += b.size
    assert pos == flat.size


def flatten_grads(grads):
    return np.concatenate([t.ravel() for gw, gb in grads for t in (gw, gb)])


def random_categorical(rng, k, floor=0.05):
    raw = rng.uniform(floor, 1.0, size=k)
    return raw / raw.sum()


def rbf_kernel(a, b, bandwidths):
    """Sum of Gaussian kernels exp(-|a_i - b_j|^2 / bw) over the bandwidth set.

    Bandwidths are squared length scales. Differences are formed directly
    rather than through the |a|^2 + |b|^2 - 2ab expansion the library uses.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return sum(np.exp(-sq / bw) for bw in bandwidths)


def add_grads(a, b):
    """Layer-by-layer sum of two per-net gradient lists; None marks an untouched net."""
    if a is None:
        return b
    if b is None:
        return a
    return [(aw + bw, ab + bb) for (aw, ab), (bw, bb) in zip(a, b)]


def pooled_median_bandwidths(feats_src, feats_tgt, scales=(0.5, 1.0, 2.0)):
    """The median heuristic over one pooled distance matrix.

    Stacks both batches, forms every squared distance with the same
    |a|^2 + |b|^2 - 2ab expansion the library uses, and takes the median
    of the strict upper triangle, floored at 1e-12 (1.0 for fewer than two
    rows).
    """
    pooled = np.vstack([np.asarray(feats_src, dtype=float), np.asarray(feats_tgt, dtype=float)])
    norms = np.sum(pooled * pooled, axis=1)
    sq = np.maximum(norms[:, None] + norms[None, :] - 2.0 * (pooled @ pooled.T), 0.0)
    iu = np.triu_indices(pooled.shape[0], k=1)
    med = float(np.median(sq[iu])) if iu[0].size else 1.0
    med = max(med, 1e-12)
    return [s * med for s in scales]


def mmd_loss_grads_fresh(feats_src, labels_src, feats_tgt, w, bandwidths=None):
    """The kernel loss and its gradients computed with fresh arrays for every block.

    Uses the same formulas and operation order as
    ``losses.weighted_mmd_loss_grads``, which works in a reused scratch
    instead; the two must agree bit for bit. The norm sums come from a
    broadcast add, which rounds each entry once as the library's rank-2 gemm
    does. ``w`` is the weight array.
    """
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    ws = np.asarray(w, dtype=float)[np.asarray(labels_src)]
    s, dim = fs.shape

    def sq_dists(a, b):
        norms = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
        return np.maximum(norms + (-2.0 * a) @ np.ascontiguousarray(b.T), 0.0)

    sq = np.stack([sq_dists(fs, fs), sq_dists(ft, ft), sq_dists(fs, ft)])
    if bandwidths is None:
        iu = np.triu_indices(s, k=1)
        med = float(np.median(np.concatenate([sq[0][iu], sq[1][iu], sq[2].ravel()])))
        bandwidths = [scale * max(med, 1e-12) for scale in (0.5, 1.0, 2.0)]
    right = np.stack([ws, np.ones(s), np.ones(s)])[:, :, None]
    kv = np.zeros((3, s, 1))
    coef = np.zeros_like(sq)
    for bw in bandwidths:
        k_bw = np.exp(sq * (-1.0 / bw) - math.log(bw))
        kv = kv + bw * np.matmul(k_bw, right)
        coef = coef + k_bw
    value = ws @ (2.0 * kv[2, :, 0] - kv[0, :, 0]) - kv[1].sum()
    c_ss, c_tt, c_st = coef
    r_src = np.hstack([fs, np.ones((s, 1))]) * ws[:, None]
    r_tgt = np.hstack([ft, np.ones((s, 1))])
    m_src = c_ss @ r_src - c_st @ r_tgt
    m_tgt = c_tt @ r_tgt - c_st.T @ r_src
    g_src = (m_src[:, dim:] * fs - m_src[:, :dim]) * ((4.0 / (s * s)) * ws[:, None])
    g_tgt = (m_tgt[:, dim:] * ft - m_tgt[:, :dim]) * (4.0 / (s * s))
    return float(value / (s * s)), g_src, g_tgt


def mmd_loss_grads_direct(feats_src, labels_src, feats_tgt, w, bandwidths):
    """The kernel loss and its gradients from row differences and :func:`rbf_kernel`.

    The gradient in a row a sums -(2 / bw) (a - b) k(a, b) over its pairs,
    times each block's pair coefficient (-w_i w_j, -1 or +2 w_i, over s^2);
    a within-domain pair counts twice, once in each order. ``w`` is the
    weight array.
    """
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    ws = np.asarray(w, dtype=float)[np.asarray(labels_src)]
    s = fs.shape[0]
    blocks = ((fs, fs), (ft, ft), (fs, ft))
    k_ss, k_tt, k_st = (rbf_kernel(a, b, bandwidths) for a, b in blocks)
    value = (-ws @ k_ss @ ws - k_tt.sum() + 2.0 * ws @ k_st.sum(axis=1)) / (s * s)
    c_ss, c_tt, c_st = (sum(rbf_kernel(a, b, [bw]) / bw for bw in bandwidths) for a, b in blocks)
    d_ss, d_tt, d_st = (a[:, None, :] - b[None, :, :] for a, b in blocks)
    g_src = ws[:, None] * (
        np.einsum("ij,ijd->id", ws[None, :] * c_ss, d_ss) - np.einsum("ij,ijd->id", c_st, d_st)
    )
    g_tgt = np.einsum("ij,ijd->id", c_tt, d_tt) + np.einsum("ij,ijd->jd", ws[:, None] * c_st, d_st)
    return value, 4.0 * g_src / (s * s), 4.0 * g_tgt / (s * s)


def binned_histogram(feats, pooled, weights=None, bins=16):
    """Normalized ``np.histogramdd`` histogram of ``feats``, raveled.

    The grid is the binned diagnostics' grid: ``bins`` cells per axis over
    the bounding box of ``pooled``, widened on each side by 1e-9 of its
    span (a span of at least 1e-9). Columns beyond the second are dropped,
    as the diagnostics project them away.
    """
    feats = np.asarray(feats, dtype=float)[:, :2]
    pooled = np.asarray(pooled, dtype=float)[:, :2]
    lo = pooled.min(axis=0)
    hi = pooled.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    lo = lo - 1e-9 * span
    hi = hi + 1e-9 * span
    edges = [np.linspace(lo[j], hi[j], bins + 1) for j in range(pooled.shape[1])]
    h, _ = np.histogramdd(feats, bins=edges, weights=weights)
    return (h / h.sum()).ravel()


def binned_tv(feats_a, feats_b, pooled):
    """Total variation between two ``binned_histogram``s on the grid of ``pooled``."""
    return 0.5 * float(np.abs(binned_histogram(feats_a, pooled) - binned_histogram(feats_b, pooled)).sum())


def conditional_gap_reference(feats_src, labels_src, feats_tgt, labels_tgt, seed=0, permutations=4):
    """Permutation-corrected per-class binned TV, one ``np.histogramdd`` per histogram.

    Each class's pooled rows are resplit ``permutations`` times with one
    ``default_rng(seed)`` stream, in class order; the mean resplit TV is
    subtracted from the class's TV and the result clipped at zero.
    """
    pooled = np.vstack([feats_src, feats_tgt])
    rng = np.random.default_rng(seed)
    k = int(max(labels_src.max(), labels_tgt.max())) + 1
    gaps = np.zeros(k)
    for y in range(k):
        a = feats_src[labels_src == y]
        b = feats_tgt[labels_tgt == y]
        pool = np.vstack([a, b])
        base = 0.0
        for _ in range(permutations):
            perm = rng.permutation(pool.shape[0])
            base += binned_tv(pool[perm[: a.shape[0]]], pool[perm[a.shape[0]:]], pooled)
        gaps[y] = max(binned_tv(a, b, pooled) - base / permutations, 0.0)
    return gaps


# Criterion 7's oracle, moved here from the library, which never called it:
# the optimal binned discriminator identity on random binned densities, not
# on a run. Unlike the rest of this file it uses the library's jsd.
EXACT_TOL = 1e-8
LOG4 = float(np.log(4.0))


def _discriminator_objective(p_w: np.ndarray, q: np.ndarray, d: np.ndarray) -> float:
    # terms with zero mass contribute nothing regardless of d there
    val = 0.0
    mask_p = p_w > 0
    mask_q = q > 0
    val -= float(np.sum(p_w[mask_p] * np.log(d[mask_p])))
    val -= float(np.sum(q[mask_q] * np.log(1.0 - d[mask_q])))
    return val


class DiscriminatorOptimum(NamedTuple):
    lhs: float
    holds: bool
    i_star: float
    best_improvement: float


def check_discriminator_optimum(
    p_w: Categorical,
    q: Categorical,
    perturbations: int = 100,
    seed: int = 0,
) -> DiscriminatorOptimum:
    """Optimal binned discriminator identity.

    d*(x) = p_w(x) / (p_w(x) + q(x)) must achieve objective value
    log 4 - 2 * jsd(p_w, q), and no perturbed discriminator may do
    better. ``lhs`` is the larger of the identity defect and the best
    improvement any perturbation achieved (0 when none did), and
    ``holds`` says whether it is at most ``EXACT_TOL``. ``i_star`` is
    d*'s objective value.
    """
    if p_w.k != q.k:
        raise ShapeMismatch(f"binned densities have lengths {p_w.k} and {q.k}")
    a = p_w.probs
    b = q.probs
    denom = a + b
    d_star = np.where(denom > 0, a / np.maximum(denom, 1e-300), 0.5)
    d_star = np.clip(d_star, 1e-300, 1.0 - 1e-16)
    i_star = _discriminator_objective(a, b, d_star)
    target = LOG4 - 2.0 * jsd(p_w, q)
    defect = abs(i_star - target)
    rng = np.random.default_rng(seed)
    best_improvement = 0.0
    for _ in range(perturbations):
        noise = rng.normal(scale=rng.uniform(0.01, 0.3), size=a.size)
        d_pert = np.clip(d_star + noise, 1e-12, 1.0 - 1e-12)
        best_improvement = max(best_improvement, i_star - _discriminator_objective(a, b, d_pert))
    lhs = max(defect, best_improvement)
    return DiscriminatorOptimum(lhs, lhs <= EXACT_TOL, i_star, best_improvement)

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


def da_loss_grads_reference(d_src, ws, d_tgt, log_eps=1e-12):
    """The adversarial loss and its two gradients as ``weighted_da_loss_grads`` computed them on its own
    halves, before the loss became a kernel on the stacked output: ``ws`` holds the source rows' weights."""
    s = d_src.size
    src = np.maximum(d_src, log_eps)
    tgt = np.maximum(1.0 - d_tgt, log_eps)
    value = float(-(np.add.reduce(ws * np.log(src)) + np.add.reduce(np.log(tgt))) / s)
    return value, -ws / src / s, 1.0 / tgt / s


def nll_grads_reference(p, labels, class_coeff, log_eps=1e-12):
    """Mean of -class_coeff[y] * log p[y] and its gradient, as the classification losses computed them
    before the loss became a kernel that writes into a reused buffer."""
    coeff = class_coeff[labels]
    rows = np.arange(p.shape[0])
    picked = np.maximum(p[rows, labels], log_eps)
    grad = np.zeros_like(p)
    grad[rows, labels] = -coeff / picked / p.shape[0]
    return float(-(np.add.reduce(coeff * np.log(picked)) / p.shape[0])), grad


def _kernel_sum(a, b, bandwidths):
    d2 = float(np.sum((a - b) ** 2))
    return sum(math.exp(-d2 / bw) for bw in bandwidths)


def mmd_pair_loop(feats_src, labels_src, feats_tgt, w, bandwidths):
    """The linear-time kernel alignment loss, one row quadruple at a time.

    Rows a = 2i and b = 2i + 1 of both batches, for i < s // 2, form a
    quadruple; the loss is minus the mean over quadruples of
    w_a w_b k(s_a, s_b) + k(t_a, t_b) - w_a k(s_a, t_b) - w_b k(s_b, t_a).
    """
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    m = fs.shape[0] // 2
    total = 0.0
    for i in range(m):
        a, b = 2 * i, 2 * i + 1
        wa, wb = w[labels_src[a]], w[labels_src[b]]
        total += wa * wb * _kernel_sum(fs[a], fs[b], bandwidths) + _kernel_sum(ft[a], ft[b], bandwidths)
        total -= wa * _kernel_sum(fs[a], ft[b], bandwidths) + wb * _kernel_sum(fs[b], ft[a], bandwidths)
    return -total / m


def pair_median_bandwidths(feats_src, feats_tgt, scales=(0.5, 1.0, 2.0)):
    """The median heuristic over the 4 * (s // 2) distances of :func:`mmd_pair_loop`'s quadruples, floored at 1e-12."""
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    d2 = []
    for i in range(fs.shape[0] // 2):
        a, b = 2 * i, 2 * i + 1
        for x, y in ((fs[a], fs[b]), (ft[a], ft[b]), (fs[a], ft[b]), (fs[b], ft[a])):
            d2.append(float(np.sum((x - y) ** 2)))
    med = max(float(np.median(d2)), 1e-12)
    return [s * med for s in scales]


def median_bandwidths_np(sq, scales=(0.5, 1.0, 2.0)):
    """The median heuristic as ``np.median`` of the squared distances ``sq``, floored at 1e-12."""
    med = max(float(np.median(sq)), 1e-12)
    return [s * med for s in scales]


def mmd_grads_bandwidth_loop(feats_src, labels_src, feats_tgt, w, bandwidths=None):
    """The linear-time kernel loss and its gradients, one exp per bandwidth.

    A frozen copy of ``losses.weighted_mmd_loss_grads`` before it stacked
    the bandwidths into one exp, with the bandwidths, when None, from
    :func:`median_bandwidths_np`. ``w`` is the weight array.
    """
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    s = fs.shape[0]
    s_a, s_b, t_a, t_b = fs[0 : s - 1 : 2], fs[1::2], ft[0 : s - 1 : 2], ft[1::2]
    diff = np.stack([s_a - s_b, t_a - t_b, s_a - t_b, s_b - t_a])
    ws = np.asarray(w, dtype=float)[np.asarray(labels_src)]
    sq = np.einsum("pmd,pmd->pm", diff, diff)
    if bandwidths is None:
        bandwidths = median_bandwidths_np(sq)
    m = s // 2
    w_a, w_b = ws[0 : s - 1 : 2], ws[1::2]
    coef = np.stack([w_a * w_b, np.ones(m), -w_a, -w_b])
    kern = np.zeros_like(sq)
    slope = np.zeros_like(sq)
    for bw in bandwidths:
        k_bw = np.exp(-sq / bw)
        kern += k_bw
        slope += k_bw / bw
    grad = diff * ((2.0 / m) * coef * slope)[:, :, None]
    g_src, g_tgt = np.zeros((2, s, diff.shape[2]))
    g_src[0 : s - 1 : 2] = grad[0] + grad[2]
    g_src[1::2] = grad[3] - grad[0]
    g_tgt[0 : s - 1 : 2] = grad[1] - grad[3]
    g_tgt[1::2] = -grad[1] - grad[2]
    return -float(np.sum(coef * kern)) / m, g_src, g_tgt


def mmd_u_statistic(feats_src, labels_src, feats_tgt, w, bandwidths):
    """Minus the quadratic weighted squared-MMD U-statistic of the batch, from :func:`rbf_kernel`.

    The mean over ordered pairs i != j of w_i w_j k(s_i, s_j) + k(t_i, t_j)
    - w_i k(s_i, t_j) - w_j k(s_j, t_i): every term leaves out i = j, the
    cross terms too. It is the mean of the linear-time loss over every
    joint pairing of the rows.
    """
    fs = np.asarray(feats_src, dtype=float)
    ft = np.asarray(feats_tgt, dtype=float)
    ws = np.asarray(w, dtype=float)[np.asarray(labels_src)]
    s = fs.shape[0]
    k_ss, k_tt, k_st = (rbf_kernel(a, b, bandwidths) for a, b in ((fs, fs), (ft, ft), (fs, ft)))
    total = ws @ k_ss @ ws - ws**2 @ np.diag(k_ss) + k_tt.sum() - np.trace(k_tt)
    total -= 2.0 * (ws @ k_st.sum(axis=1) - ws @ np.diag(k_st))
    return -total / (s * (s - 1))


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
    return net.params.copy()


def set_net_params(net, flat):
    # in place: the net's weights and biases are views of params
    net.params[...] = flat


def random_categorical(rng, k, floor=0.05):
    raw = rng.uniform(floor, 1.0, size=k)
    return raw / raw.sum()


def layer_views(net, flat):
    """The per-layer (W, b) views of a vector laid out W_0, b_0, W_1, b_1, ..., each W row-major."""
    views, pos = [], 0
    for w, b in zip(net.weights, net.biases):
        views.append((flat[pos : pos + w.size].reshape(w.shape), flat[pos + w.size : pos + w.size + b.size]))
        pos += w.size + b.size
    assert pos == flat.size
    return views


def mlp_head(head, pre):
    """A net's output from its last pre-activation, as ``Mlp`` computed it with one numpy call per step."""
    if head == "softmax":
        shifted = pre - pre.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    if head == "sigmoid":
        return np.clip(1.0 / (1.0 + np.exp(-pre)), 1e-12, 1.0 - 1e-12)
    return np.tanh(pre)


def mlp_backward_per_layer(net, cache, grad_out):
    """``Mlp.backward`` as it was before the gradient became one vector: ([(dW, db), ...], dL/d(input))."""
    inputs, out = cache["inputs"], cache["out"]
    if net.head == "softmax":
        inner = (grad_out * out).sum(axis=1, keepdims=True)
        delta = out * (grad_out - inner)
    elif net.head == "sigmoid":
        delta = grad_out * out * (1.0 - out)
    else:
        delta = grad_out * (1.0 - out * out)
    grads = [None] * len(net.weights)
    for i in range(len(net.weights) - 1, -1, -1):
        grads[i] = (inputs[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ net.weights[i].T) * (1.0 - inputs[i] * inputs[i])
    return grads, delta @ net.weights[0].T


def sgd_step_per_layer(weights, biases, velocities, grads, lr, momentum):
    """One momentum step on per-layer arrays, as ``network.sgd_step`` took it before each net kept one vector.

    ``velocities`` holds a (vw, vb) pair and ``grads`` a (gw, gb) pair per
    layer; ``weights``, ``biases`` and ``velocities`` change in place.
    """
    for i, (gw, gb) in enumerate(grads):
        vw, vb = velocities[i]
        vw *= momentum
        vw += gw
        vb *= momentum
        vb += gb
        weights[i] -= lr * vw
        biases[i] -= lr * vb


def rbf_kernel(a, b, bandwidths):
    """Sum of Gaussian kernels exp(-|a_i - b_j|^2 / bw) over the bandwidth set.

    Bandwidths are squared length scales; differences are formed directly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return sum(np.exp(-sq / bw) for bw in bandwidths)


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

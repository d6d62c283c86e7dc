"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (plain
python loops, brute-force search) so the fast library paths are checked
against code that shares nothing with them.
"""

import math
import warnings
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from gls_adapt import estimator
from gls_adapt.distributions import Categorical, jsd
from gls_adapt.errors import InvalidValue, NonFiniteValue, ShapeMismatch
from gls_adapt.estimator import WeightVector, solve_qp
from gls_adapt.losses import weighted_da_loss_grads


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


def solve_qp_reference(c, mu: Categorical, p_source: Categorical) -> WeightVector:
    """A frozen copy of ``estimator.solve_qp`` before its fast paths.

    The same checks, the same active-set iterations and the same
    certificate, written with no shortcut for the all-free first working
    set: every iteration gathers its KKT system from the full one and
    scatters the solution back. It reads ``MAX_ITER``, ``KKT_TOL`` and
    ``SLOPE_TOL`` from the library, so a patched constant patches both, and
    it calls ``np.linalg.lstsq`` by attribute, as the library does, so both
    see the same LAPACK and the same patched solver.
    """
    c = np.asarray(c, dtype=float)
    k = p_source.k
    if c.shape != (k, k):
        raise ShapeMismatch(f"C has shape {c.shape}, expected ({k}, {k})")
    if not np.isfinite(c).all():
        raise NonFiniteValue("C contains non-finite entries")
    if mu.k != k:
        raise ShapeMismatch(f"mu has length {mu.k}, expected {k}")
    p = p_source.probs
    if (p <= 0).any():
        raise InvalidValue("p_source must be strictly positive")
    zero_cols = np.flatnonzero(~c.any(axis=0))
    if zero_cols.size:
        warnings.warn(
            f"confusion matrix has all-zero columns for classes {zero_cols.tolist()}; "
            "their weights are determined by the constraints only",
            RuntimeWarning,
            stacklevel=2,
        )

    h = c.T @ c
    b = c.T @ mu.probs
    h_max, b_max = np.abs(h).max(), np.abs(b).max()

    feas_tol = 1e-12
    dual_tol = 1e-10
    # KKT system of all classes bordered by w.p = 1; a working set keeps its free rows and the last
    kkt_all = np.zeros((k + 1, k + 1))
    kkt_all[:k, :k] = h
    kkt_all[:k, k] = kkt_all[k, :k] = p
    rhs_all = np.concatenate((b, [1.0]))
    kept = np.ones(k + 1, dtype=bool)
    free = kept[:k]  # a view: the multiplier's row is always kept
    w = np.ones(k)  # w = 1 is always feasible since p sums to 1

    for _ in range(estimator.MAX_ITER):
        rows = kept.nonzero()[0]
        idx, nf = rows[:-1], rows.size - 1
        kkt, rhs = kkt_all[rows[:, None], rows], rhs_all[rows]
        sol, _, rank, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
        cand = np.zeros(k)
        cand[idx], nu = sol[:nf], sol[nf]
        if rank <= nf:  # lstsq dropped a numerically flat direction; the residual shows it
            res = kkt[:nf] @ sol - rhs[:nf]
            pf = p[idx]
            step = np.zeros(k)
            step[idx] = (res @ pf) / (pf @ pf) * pf - res  # descent along w.p = 1
        if rank <= nf and np.abs(step).max() > estimator.SLOPE_TOL * (1.0 + h_max * np.abs(sol).max() + b_max):
            # the objective still falls along it: follow it to the boundary
            drops = idx[step[idx] < 0]
        elif (sol[:nf] >= -feas_tol).all():
            w = np.maximum(cand, 0.0) * free
            lagr = h @ w - b + nu * p
            viol = ~free & (lagr < -dual_tol)
            if not viol.any():
                break
            free[viol.argmax()] = True
            continue
        else:
            # Step toward the candidate until the first coordinate hits zero.
            step, drops = cand - w, idx[sol[:nf] < -feas_tol]
        alphas = w[drops] / -step[drops]
        j = alphas.argmin()
        w = w + alphas[j] * step
        free[drops[j]] = False
        w = np.maximum(w, 0.0) * free
    else:
        raise NonFiniteValue(f"solve_qp did not converge in {estimator.MAX_ITER} active-set iterations")

    residual = max(np.abs(lagr[free]).max(), abs(w @ p - 1.0))
    tol = estimator.KKT_TOL * (1.0 + h_max * w.max() + b_max)
    if not residual <= tol:
        raise NonFiniteValue(f"solve_qp answer fails its KKT certificate: residual {residual:.3g} > {tol:.3g}")
    return WeightVector(w)


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
    """The adversarial loss and its two gradients in the discriminator's probabilities d = sigmoid(a).

    This is the probability formula ``weighted_da_loss_grads`` used before
    it took logits, with its log floor ``log_eps``: the value
    -(1/s) sum [ws log d_src + log(1 - d_tgt)] and its gradients in d_src
    and d_tgt. ``ws`` holds the source rows' weights. Multiply a gradient by
    d (1 - d) to compare it with one in the logits.
    """
    s = d_src.size
    src = np.maximum(d_src, log_eps)
    tgt = np.maximum(1.0 - d_tgt, log_eps)
    value = float(-(np.add.reduce(ws * np.log(src)) + np.add.reduce(np.log(tgt))) / s)
    return value, -ws / src / s, 1.0 / tgt / s


def logit(d):
    """The a with sigmoid(a) = d, to a few ulps: for d >= 1/2, 1 - d is exact, so log1p(-d) is log(1 - d)."""
    return np.log(d) - np.log1p(-d)


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
    if head == "linear":
        return pre
    return np.tanh(pre)


def mlp_backward_per_layer(net, cache, grad_out):
    """``Mlp.backward`` as it was before the gradient became one vector: ([(dW, db), ...], dL/d(input))."""
    inputs, out = cache["inputs"], cache["out"]
    if net.head == "softmax":
        inner = (grad_out * out).sum(axis=1, keepdims=True)
        delta = out * (grad_out - inner)
    elif net.head == "linear":
        delta = grad_out
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


# Criterion 7's oracle: the optimal binned discriminator identity on random
# binned densities, not on a run, scored by the library's adversarial loss.
# Unlike the rest of this file it uses the library's jsd and loss.
EXACT_TOL = 1e-8
LOG4 = float(np.log(4.0))
# the logit of a bin that only one density gives mass: softplus(-40) = 4.2e-18 of that mass is lost
EMPTY_BIN_LOGIT = 40.0


class DiscriminatorOptimum(NamedTuple):
    lhs: float
    holds: bool
    i_star: float
    best_improvement: float


def binned_da_loss(p_w: Categorical, q_counts: np.ndarray, logits: np.ndarray) -> float:
    """sum_j [p_w(j) softplus(-a_j) + q(j) softplus(a_j)], q = q_counts / sum, scored by ``weighted_da_loss_grads``.

    Both sides have s rows, s the least multiple of sum(q_counts) that is
    at least k. Bin j is q(j) s target rows at logit a_j and one source row
    at a_j of class j, whose weight is s p_w(j); the other s - k source
    rows are of an extra class of weight 0. The loss's 1/s leaves each bin
    its masses.
    """
    k = p_w.k
    reps = -(-k // int(q_counts.sum()))
    s = int(q_counts.sum()) * reps
    src = np.zeros(s)
    src[:k] = logits
    labels = np.full(s, k)
    labels[:k] = np.arange(k)
    w = WeightVector(np.append(s * p_w.probs, 0.0))
    return weighted_da_loss_grads(src, labels, np.repeat(logits, q_counts * reps), w)[0]


def check_discriminator_optimum(
    p_w: Categorical,
    q_counts,
    perturbations: int = 100,
    seed: int = 0,
) -> DiscriminatorOptimum:
    """Optimal binned discriminator identity, scored by the library's adversarial loss.

    q is ``Categorical.normalize(q_counts)``: target rows realize it exactly
    (:func:`binned_da_loss`). d*(x) = p_w(x) / (p_w(x) + q(x)), at logit
    log(p_w / q) (+-``EMPTY_BIN_LOGIT`` where one mass is zero), must
    achieve loss log 4 - 2 * jsd(p_w, q), and no perturbed discriminator
    may do better. ``lhs`` is the larger of the identity defect and the
    best improvement any perturbation achieved (0 when none did), and
    ``holds`` says whether it is at most ``EXACT_TOL``. ``i_star`` is d*'s
    loss.
    """
    q_counts = np.asarray(q_counts)
    if p_w.k != q_counts.size:
        raise ShapeMismatch(f"binned densities have lengths {p_w.k} and {q_counts.size}")
    q = Categorical.normalize(q_counts)
    a, b = p_w.probs, q.probs
    with np.errstate(divide="ignore"):
        a_star = np.where(a > 0, np.log(a), 0.0) - np.where(b > 0, np.log(b), 0.0)
    a_star = np.where((a > 0) == (b > 0), a_star, np.where(a > 0, EMPTY_BIN_LOGIT, -EMPTY_BIN_LOGIT))
    i_star = binned_da_loss(p_w, q_counts, a_star)
    defect = abs(i_star - (LOG4 - 2.0 * jsd(p_w, q)))
    d_star = 1.0 / (1.0 + np.exp(-a_star))
    rng = np.random.default_rng(seed)
    best_improvement = 0.0
    for _ in range(perturbations):
        noise = rng.normal(scale=rng.uniform(0.01, 0.3), size=a.size)
        d_pert = np.clip(d_star + noise, 1e-12, 1.0 - 1e-12)
        best_improvement = max(best_improvement, i_star - binned_da_loss(p_w, q_counts, logit(d_pert)))
    lhs = max(defect, best_improvement)
    return DiscriminatorOptimum(lhs, lhs <= EXACT_TOL, i_star, best_improvement)


# The training loop written for reading: a check of the composed step that
# holds under any gemm, since it shares none of the library's stacking,
# buffers or kernels. Bases and weightings as in trainer.ALGORITHMS.
REFERENCE_ALGORITHMS = {
    "none": (None, "ones"),
    "dann": ("dann", "ones"),
    "iwdan": ("dann", "estimated"),
    "iwdan_o": ("dann", "oracle"),
    "cdan": ("cdan", "ones"),
    "iwcdan": ("cdan", "estimated"),
    "iwcdan_o": ("cdan", "oracle"),
    "jan": ("jan", "ones"),
    "iwjan": ("jan", "estimated"),
    "iwjan_o": ("jan", "oracle"),
}


def _reference_net(sizes, head, rng):
    """A net's head, per-layer weights and biases and zero (vW, vb) velocities; each layer draws W, then b,
    from uniform(+-1/sqrt(fan_in))."""
    net = SimpleNamespace(head=head, weights=[], biases=[], velocity=[])
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        net.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        net.biases.append(rng.uniform(-bound, bound, size=fan_out))
        net.velocity.append((np.zeros((fan_in, fan_out)), np.zeros(fan_out)))
    return net


def _reference_forward(net, x):
    """(output, layer inputs) of one net on ``x``: tanh hidden layers, then the head on the last pre-activation."""
    inputs = [x]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        inputs.append(np.tanh(inputs[-1] @ w + b))
    return mlp_head(net.head, inputs[-1] @ net.weights[-1] + net.biases[-1]), inputs


def _reference_backward(net, inputs, out, grad_out):
    """([(dW, db), ...], dL/d(input)) of one net, by :func:`mlp_backward_per_layer`."""
    return mlp_backward_per_layer(net, {"inputs": inputs, "out": out}, grad_out)


def _add_grads(first, second):
    return [(dw1 + dw2, db1 + db2) for (dw1, db1), (dw2, db2) in zip(first, second)]


def _reference_confusion(net_g, net_h, data, k):
    """Argmax accuracy and the row-normalized confusion matrix of one unblocked pass over ``data``."""
    z, _ = _reference_forward(net_g, np.asarray(data.features))
    hard = _reference_forward(net_h, z)[0].argmax(axis=1)
    conf = np.zeros((k, k))
    for y, pred in zip(data.labels, hard):
        conf[y, pred] += 1.0
    for y in range(k):
        if conf[y].sum() > 0:
            conf[y] /= conf[y].sum()
    return float(np.mean(hard == data.labels)), conf


def train_reference(config, source, target):
    """``trainer.train`` as a plain loop; returns ({"g", "h", "d"}: parameter vector, [per-epoch dict]).

    It draws from ``default_rng(config.seed)`` in the library's order (g's,
    h's and d's layers, then each batch's source and target indices) and
    runs each net on the source half and on the target half separately.
    The losses are :func:`nll_grads_reference`, :func:`da_loss_grads_reference`
    on sigmoid(logit), with its gradient taken back to the logit by
    d (1 - d), and :func:`mmd_grads_bandwidth_loop`. d descends the
    alignment loss, h the classification loss, and g the classification
    loss minus ``reversal_coeff`` times the alignment loss. Each parameter
    vector is laid out W_0, b_0, W_1, b_1, ... as ``Mlp.params``; the
    dicts hold the ``EpochRecord`` fields that a trace keeps.
    """
    base, weighting = REFERENCE_ALGORITHMS[config.algorithm]
    k, s = source.k, config.batch_size
    p_s = np.bincount(source.labels, minlength=k) / source.n
    p_t = np.bincount(target.labels, minlength=k) / target.n
    w_star = p_t / p_s
    rng = np.random.default_rng(config.seed)
    g = _reference_net([source.dim, 64, config.feature_dim], "tanh", rng)
    h = _reference_net([config.feature_dim, k], "softmax", rng)
    d_in = config.feature_dim * k if base == "cdan" else config.feature_dim
    d = _reference_net([d_in, 32, 1], "linear", rng)

    w_est = np.ones(k)
    w_model = w_star if weighting == "oracle" else w_est
    records = []
    for epoch in range(config.epochs):
        w_da = w_model if weighting != "ones" and config.weight_da_loss else np.ones(k)
        class_coeff = np.ones(k)
        if weighting != "ones" and config.weight_c_loss:
            class_coeff = 1.0 / (k * p_s) * (w_model if base == "jan" else 1.0)
        loss_da_sum = loss_c_sum = 0.0
        batches = []
        for _ in range(config.batches_per_epoch):
            idx_s = rng.integers(0, source.n, size=s)
            idx_t = rng.integers(0, target.n, size=s)
            ys = source.labels[idx_s]
            halves = []
            for x in (source.features[idx_s], target.features[idx_t]):
                z, g_inputs = _reference_forward(g, x)
                p, h_inputs = _reference_forward(h, z)
                halves.append(SimpleNamespace(z=z, p=p, g_inputs=g_inputs, h_inputs=h_inputs))
            src, tgt = halves
            batches.append((src.p, ys, tgt.p))

            loss_c, grad_p = nll_grads_reference(src.p, ys, class_coeff)
            grads_h, dz_cls = _reference_backward(h, src.h_inputs, src.p, grad_p)
            src.dz, tgt.dz = dz_cls, np.zeros_like(tgt.z)
            grads_d = None
            if base == "jan":
                loss_da, src.dz_da, tgt.dz_da = mmd_grads_bandwidth_loop(src.z, ys, tgt.z, w_da)
            elif base is not None:
                for half in halves:
                    if base == "cdan":
                        half.d_in = (half.p[:, :, None] * half.z[:, None, :]).reshape(s, -1)
                    else:
                        half.d_in = half.z
                    half.logit, half.d_inputs = _reference_forward(d, half.d_in)
                    half.sigma = 1.0 / (1.0 + np.exp(-half.logit[:, 0]))
                loss_da, grad_src, grad_tgt = da_loss_grads_reference(src.sigma, w_da[ys], tgt.sigma)
                for half, grad in ((src, grad_src), (tgt, grad_tgt)):
                    grad_logit = (grad * half.sigma * (1.0 - half.sigma))[:, None]
                    grads, du = _reference_backward(d, half.d_inputs, half.logit, grad_logit)
                    grads_d = grads if grads_d is None else _add_grads(grads_d, grads)
                    if base == "cdan":  # du/dz = p, plus the chain through p = h(z)
                        du3 = du.reshape(s, k, -1)
                        dp = np.einsum("nkz,nz->nk", du3, half.z)
                        dz_chain = _reference_backward(h, half.h_inputs, half.p, dp)[1]
                        du = np.einsum("nkz,nk->nz", du3, half.p) + dz_chain
                    half.dz_da = du
            else:
                loss_da = 0.0
            grads_g = None
            for half in halves:
                dz = half.dz if base is None else half.dz - config.reversal_coeff * half.dz_da
                grads = _reference_backward(g, half.g_inputs, half.z, dz)[0]
                grads_g = grads if grads_g is None else _add_grads(grads_g, grads)

            for net, grads in ((g, grads_g), (h, grads_h), (d, grads_d)):
                if grads is not None:
                    sgd_step_per_layer(net.weights, net.biases, net.velocity, grads, config.lr, config.momentum)
            loss_da_sum += loss_da
            loss_c_sum += loss_c

        c_sum, mu_sum = accumulated_sums(batches, k)
        n_src = sum(b[0].shape[0] for b in batches)
        n_tgt = sum(b[2].shape[0] for b in batches)
        w_qp = solve_qp(c_sum / n_src, Categorical.normalize(mu_sum / n_tgt), Categorical(p_s)).w
        w_est = config.ema_lambda * w_qp + (1.0 - config.ema_lambda) * w_est
        if weighting != "oracle":
            w_model = w_est
        acc_src, conf_src = _reference_confusion(g, h, source, k)
        acc_tgt, conf_tgt = _reference_confusion(g, h, target, k)
        records.append(
            dict(
                epoch=epoch,
                acc_src=acc_src,
                acc_tgt=acc_tgt,
                loss_da=loss_da_sum / config.batches_per_epoch,
                loss_c=loss_c_sum / config.batches_per_epoch,
                w=np.array(w_model),
                w_dist=float(np.linalg.norm(w_model - w_star)),
                jsd_label=jsd_terms(p_s, p_t),
                conf_src=conf_src,
                conf_tgt=conf_tgt,
            )
        )
    params = {
        name: np.concatenate([t.ravel() for pair in zip(net.weights, net.biases) for t in pair])
        for name, net in zip("ghd", (g, h, d))
    }
    return params, records

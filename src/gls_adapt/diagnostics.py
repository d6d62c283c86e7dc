"""Numeric checkers for the error bounds and identities the trainer relies on.

Every check produces a :class:`BoundReport` comparing a left-hand side
against a right-hand side: inequality checks carry a 0.02 absolute slack
to absorb finite-sample noise, identity checks 1e-8. Checkers never
mutate training state and may read target labels (a privilege reserved
for diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import Categorical, jsd, l1_distance
from .errors import InvalidValue, ShapeMismatch
from .estimator import WeightVector

__all__ = [
    "BoundReport",
    "INEQ_TOL",
    "EXACT_TOL",
    "balanced_error_rate",
    "conditional_error_gap",
    "gls_conditional_gap",
    "binned_feature_jsd",
    "check_lower_bound",
    "check_error_decomposition",
    "check_joint_error_bound",
    "check_sufficiency_bound",
    "check_discriminator_optimum",
    "bound_suite",
]

INEQ_TOL = 0.02
EXACT_TOL = 1e-8
ROW_TOL = 1e-6
BINS = 16  # histogram cells per projected feature axis
PERMUTATIONS = 4  # resplits averaged into the permutation baseline
LOG4 = float(np.log(4.0))


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one numeric check: holds iff lhs <= rhs + tolerance.

    ``applicable`` is False when the check's premise fails (the report
    then holds vacuously). ``components`` names the sub-terms that went
    into the two sides.
    """

    check: str
    lhs: float
    rhs: float
    holds: bool
    slack: float
    applicable: bool = True
    components: dict = field(default_factory=dict)


def _report(check, lhs, rhs, tol, applicable=True, **components) -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    return BoundReport(
        check=check,
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs <= rhs + tol) or not applicable,
        slack=rhs - lhs,
        applicable=applicable,
        components={k: float(v) for k, v in components.items()},
    )


def _check_confusion(conf, name: str) -> np.ndarray:
    arr = np.asarray(conf, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise ShapeMismatch(f"{name} must be square k x k with k >= 2, got {arr.shape}")
    if np.any(arr < -ROW_TOL) or not np.all(np.isfinite(arr)):
        raise ShapeMismatch(f"{name} has negative or non-finite entries")
    if np.max(np.abs(arr.sum(axis=1) - 1.0)) > ROW_TOL:
        raise ShapeMismatch(f"{name} rows must sum to 1 within {ROW_TOL}")
    return arr


def balanced_error_rate(confusion_rows) -> float:
    """Worst per-class conditional error max_j (1 - conf[j, j])."""
    conf = _check_confusion(confusion_rows, "confusion")
    return float(np.max(1.0 - np.diag(conf)))


def conditional_error_gap(conf_src, conf_tgt) -> float:
    """Largest cross-domain discrepancy in off-diagonal conditionals.

    max over ordered pairs y != y' of |src(y' | y) - tgt(y' | y)|. Zero
    whenever the two matrices coincide.
    """
    a = _check_confusion(conf_src, "conf_src")
    b = _check_confusion(conf_tgt, "conf_tgt")
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")
    diff = np.abs(a - b)
    np.fill_diagonal(diff, 0.0)
    return float(diff.max())


def _project2(feats: np.ndarray) -> np.ndarray:
    feats = np.asarray(feats, dtype=float)
    if feats.ndim != 2:
        raise ShapeMismatch(f"features must be 2-d arrays, got shape {feats.shape}")
    return feats[:, : min(feats.shape[1], 2)]


def _grid_edges(pooled: np.ndarray):
    lo = pooled.min(axis=0)
    hi = pooled.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    lo = lo - 1e-9 * span
    hi = hi + 1e-9 * span
    return [np.linspace(lo[j], hi[j], BINS + 1) for j in range(pooled.shape[1])]


def _hist(feats: np.ndarray, edges, weights=None) -> np.ndarray:
    h, _ = np.histogramdd(feats, bins=edges, weights=weights)
    total = h.sum()
    if total <= 0:
        raise InvalidValue("empty histogram")
    return (h / total).ravel()


def _binned_tv(a: np.ndarray, b: np.ndarray, edges) -> float:
    return 0.5 * float(np.abs(_hist(a, edges) - _hist(b, edges)).sum())


def gls_conditional_gap(
    feats_src,
    labels_src,
    feats_tgt,
    labels_tgt,
    min_count: int = 50,
    correct: bool = True,
    seed: int = 0,
) -> np.ndarray:
    """Per-class total variation between binned conditional feature laws.

    Features beyond two dimensions are projected onto their first two
    coordinates; histograms share a fixed grid of ``BINS`` cells per axis
    over the pooled bounding box. With ``correct=True`` a permutation
    baseline (the mean TV over ``PERMUTATIONS`` resplits of each pooled class)
    is subtracted and the result clipped at zero, removing most of the
    binning-noise bias.
    """
    fs = _project2(feats_src)
    ft = _project2(feats_tgt)
    ys = np.asarray(labels_src)
    yt = np.asarray(labels_tgt)
    k = int(max(ys.max(), yt.max())) + 1
    edges = _grid_edges(np.vstack([fs, ft]))
    rng = np.random.default_rng(seed)
    gaps = np.zeros(k)
    for y in range(k):
        a = fs[ys == y]
        b = ft[yt == y]
        if a.shape[0] < min_count or b.shape[0] < min_count:
            raise InvalidValue(
                f"class {y}: {a.shape[0]} source / {b.shape[0]} target samples, need {min_count}"
            )
        tv = _binned_tv(a, b, edges)
        if correct:
            pooled = np.vstack([a, b])
            base = 0.0
            for _ in range(PERMUTATIONS):
                perm = rng.permutation(pooled.shape[0])
                base += _binned_tv(pooled[perm[: a.shape[0]]], pooled[perm[a.shape[0]:]], edges)
            tv = max(tv - base / PERMUTATIONS, 0.0)
        gaps[y] = tv
    return gaps


def binned_feature_jsd(feats_a, feats_b, weights_a=None) -> float:
    """Plug-in divergence between two feature samples on a shared 2-d grid.

    Optional per-sample weights reweight the first sample, which is how
    the ratio-weighted source distribution is estimated.
    """
    a = _project2(feats_a)
    b = _project2(feats_b)
    edges = _grid_edges(np.vstack([a, b]))
    pa = Categorical(_hist(a, edges, weights_a))
    pb = Categorical(_hist(b, edges))
    return jsd(pa, pb)


def discriminator_route_jsd(d_src, d_tgt, labels_src, w: WeightVector) -> float:
    """Divergence lower bound read off a discriminator's achieved value.

    Any discriminator's weighted objective sits at or above the optimum
    log 4 - 2 * divergence, so (log 4 - value) / 2 bounds the divergence
    between the reweighted source and target feature laws from below.
    Cross-validates the binned plug-in estimate; tight only when the
    discriminator is trained to optimality.
    """
    ds = np.clip(np.asarray(d_src, dtype=float).reshape(-1), 1e-12, 1.0 - 1e-12)
    dt = np.clip(np.asarray(d_tgt, dtype=float).reshape(-1), 1e-12, 1.0 - 1e-12)
    ws = w.w[np.asarray(labels_src)]
    value = -float(np.mean(ws * np.log(ds))) - float(np.mean(np.log(1.0 - dt)))
    return max(0.0, (LOG4 - value) / 2.0)


def check_lower_bound(eps_s, eps_t, jsd_labels, jsd_features, tol: float = INEQ_TOL) -> BoundReport:
    """Joint-error floor: eps_S + eps_T >= 0.5*(sqrt(jsd_labels) - sqrt(jsd_features))^2.

    Applicable only when jsd_labels >= jsd_features; otherwise the report
    holds vacuously with lhs = 0.
    """
    applicable = jsd_labels >= jsd_features
    lhs = 0.5 * (np.sqrt(jsd_labels) - np.sqrt(jsd_features)) ** 2 if applicable else 0.0
    return _report(
        "lower_bound",
        lhs,
        eps_s + eps_t,
        tol,
        applicable=applicable,
        eps_s=eps_s,
        eps_t=eps_t,
        jsd_labels=jsd_labels,
        jsd_features=jsd_features,
    )


def check_error_decomposition(eps_s, eps_t, l1_labels, ber, delta_ce, k, tol: float = INEQ_TOL) -> BoundReport:
    """|eps_S - eps_T| <= L1(label dists) * BER + 2(k-1) * conditional error gap."""
    lhs = abs(eps_s - eps_t)
    rhs = l1_labels * ber + 2.0 * (k - 1) * delta_ce
    return _report(
        "error_decomposition",
        lhs,
        rhs,
        tol,
        eps_s=eps_s,
        eps_t=eps_t,
        l1_labels=l1_labels,
        ber=ber,
        delta_ce=delta_ce,
        k=k,
    )


def check_joint_error_bound(eps_s, eps_t, ber, gls_gap=None, tol: float = INEQ_TOL) -> BoundReport:
    """eps_S + eps_T <= 2 * BER, meaningful when the conditionals match.

    When a measured invariance gap is supplied, the report is marked
    not-applicable for gaps of 0.1 or more, where violations are expected.
    """
    applicable = True if gls_gap is None else bool(gls_gap < 0.1)
    comp = {"eps_s": eps_s, "eps_t": eps_t, "ber": ber}
    if gls_gap is not None:
        comp["gls_gap"] = gls_gap
    return _report("joint_error", eps_s + eps_t, 2.0 * ber, tol, applicable=applicable, **comp)


def check_sufficiency_bound(
    eps_s,
    eps_t,
    w: WeightVector,
    p_target: Categorical,
    jsd_weighted_feats,
    measured_gap,
    tol: float = INEQ_TOL,
) -> BoundReport:
    """Conditional-alignment ceiling.

    max_y TV(source|y, target|y) <= (w_M * eps_S + eps_T
    + sqrt(8 * jsd(weighted source feats, target feats))) / gamma,
    gamma = min_y target class mass. The right side is capped at 1 for
    reporting since a total variation never exceeds 1.
    """
    gamma = float(p_target.probs.min())
    if gamma <= 0:
        raise InvalidValue("target label distribution has a zero entry")
    w_max = float(np.max(w.w))
    rhs_raw = (w_max * eps_s + eps_t + np.sqrt(8.0 * jsd_weighted_feats)) / gamma
    return _report(
        "sufficiency",
        measured_gap,
        min(rhs_raw, 1.0),
        tol,
        eps_s=eps_s,
        eps_t=eps_t,
        gamma=gamma,
        w_max=w_max,
        jsd_weighted_feats=jsd_weighted_feats,
        rhs_uncapped=rhs_raw,
    )


def _discriminator_objective(p_w: np.ndarray, q: np.ndarray, d: np.ndarray) -> float:
    # terms with zero mass contribute nothing regardless of d there
    val = 0.0
    mask_p = p_w > 0
    mask_q = q > 0
    val -= float(np.sum(p_w[mask_p] * np.log(d[mask_p])))
    val -= float(np.sum(q[mask_q] * np.log(1.0 - d[mask_q])))
    return val


def check_discriminator_optimum(
    p_w: Categorical,
    q: Categorical,
    perturbations: int = 100,
    seed: int = 0,
    tol: float = EXACT_TOL,
) -> BoundReport:
    """Optimal binned discriminator identity.

    d*(x) = p_w(x) / (p_w(x) + q(x)) must achieve objective value
    log 4 - 2 * jsd(p_w, q), and no perturbed discriminator may do
    better. The report's lhs is the larger of the identity defect and
    the best improvement any perturbation achieved (0 when none did),
    compared against 0 at the identity tolerance.
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
    return _report(
        "discriminator_optimum",
        max(defect, best_improvement),
        0.0,
        tol,
        i_star=i_star,
        expected=target,
        best_perturbation_improvement=best_improvement,
    )


def bound_suite(
    *,
    conf_src,
    conf_tgt,
    p_src: Categorical,
    p_tgt: Categorical,
    feats_src,
    labels_src,
    feats_tgt,
    labels_tgt,
    w_true: WeightVector,
    min_count: int = 50,
    seed: int = 0,
    jsd_weighted_disc: float | None = None,
) -> list[BoundReport]:
    """Run every inequality check on one evaluation snapshot.

    Errors, label distances and confusion-derived terms all come from the
    same empirical joints, so the decomposition inequality is exact up to
    rounding. The representation divergence for the joint-error floor is
    instantiated on the argmax prediction marginals (the last-layer
    representation); the binned feature estimate is logged alongside in
    the report components.
    """
    conf_s = _check_confusion(conf_src, "conf_src")
    conf_t = _check_confusion(conf_tgt, "conf_tgt")
    eps_s = 1.0 - float(p_src.probs @ np.diag(conf_s))
    eps_t = 1.0 - float(p_tgt.probs @ np.diag(conf_t))
    mu_s = Categorical.normalize(p_src.probs @ conf_s)
    mu_t = Categorical.normalize(p_tgt.probs @ conf_t)
    jsd_labels = jsd(p_src, p_tgt)
    jsd_preds = jsd(mu_s, mu_t)
    jsd_feats_binned = binned_feature_jsd(feats_src, feats_tgt)
    l1 = l1_distance(p_src, p_tgt)
    ber = balanced_error_rate(conf_s)
    delta_ce = conditional_error_gap(conf_s, conf_t)
    gaps = gls_conditional_gap(
        feats_src, labels_src, feats_tgt, labels_tgt, min_count=min_count, seed=seed
    )
    gap = float(gaps.max())
    w_sample = w_true.w[np.asarray(labels_src)]
    jsd_w = binned_feature_jsd(feats_src, feats_tgt, weights_a=w_sample)

    lower = check_lower_bound(eps_s, eps_t, jsd_labels, jsd_preds)
    lower.components["jsd_features_binned"] = float(jsd_feats_binned)
    sufficiency = check_sufficiency_bound(eps_s, eps_t, w_true, p_tgt, jsd_w, gap)
    if jsd_weighted_disc is not None:
        # second estimation route for the same divergence; the gap between
        # the two is diagnostic output, not part of the inequality
        sufficiency.components["jsd_weighted_disc"] = float(jsd_weighted_disc)
        sufficiency.components["jsd_route_discrepancy"] = float(jsd_w - jsd_weighted_disc)
    reports = [
        lower,
        check_error_decomposition(eps_s, eps_t, l1, ber, delta_ce, p_src.k),
        check_joint_error_bound(eps_s, eps_t, ber, gls_gap=gap),
        sufficiency,
    ]
    return reports


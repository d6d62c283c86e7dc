"""Numeric checkers for the error bounds and identities the trainer relies on.

Every check produces a :class:`BoundReport` comparing a left-hand side
against a right-hand side, with a 0.02 absolute slack to absorb
finite-sample noise. Checkers never mutate training state and may read
target labels (a privilege reserved for diagnostics).
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
    "balanced_error_rate",
    "conditional_error_gap",
    "binned_divergences",
    "check_lower_bound",
    "check_error_decomposition",
    "check_joint_error_bound",
    "check_sufficiency_bound",
    "bound_suite",
]

INEQ_TOL = 0.02
ROW_TOL = 1e-6
BINS = 16  # histogram cells per projected feature axis
PERMUTATIONS = 4  # resplits averaged into the permutation baseline
MIN_COUNT = 50  # samples each class needs in each domain for the binned gap


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


def _grid_edges(columns) -> list[np.ndarray]:
    """``BINS + 1`` edges per pooled feature column, over its padded range."""
    edges = []
    for col in columns:
        lo, hi = col.min(), col.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidValue("features contain non-finite values")
        span = max(hi - lo, 1e-9)
        edges.append(np.linspace(lo - 1e-9 * span, hi + 1e-9 * span, BINS + 1))
    return edges


def _cell_index(feats_a, feats_b):
    """Flat grid cell of every row of two samples, on their pooled grid.

    Returns ``(cells_a, cells_b, d)`` for ``d`` projected axes; cells run
    over ``BINS**d`` in C order. A row takes ``np.histogramdd``'s cell:
    ``searchsorted(edges, x, side="right")`` per axis, and a value on the
    last edge counts in the last bin. The padded range holds every row, so
    no row falls outside the grid.
    """
    a = _project2(feats_a)
    b = _project2(feats_b)
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatch(f"feature widths {feats_a.shape[1]} and {feats_b.shape[1]} differ")
    # one contiguous pooled column per axis: min and max along the first
    # axis of a row-major (n, 2) array are many times slower
    columns = [np.concatenate([a[:, j], b[:, j]]) for j in range(a.shape[1])]
    cells = np.zeros(a.shape[0] + b.shape[0], dtype=np.intp)
    for col, edges in zip(columns, _grid_edges(columns)):
        i = np.searchsorted(edges, col, side="right")
        i[col == edges[-1]] -= 1
        cells = cells * BINS + (i - 1)
    return cells[: a.shape[0]], cells[a.shape[0]:], a.shape[1]


def _hist(cells: np.ndarray, d: int, weights=None) -> np.ndarray:
    """Normalized histogram of grid cells, bit for bit ``np.histogramdd``'s."""
    h = np.bincount(cells, weights, minlength=BINS**d)
    # histogramdd sums its BINS^d core as a strided view of a (BINS + 2)^d
    # array; summing the same view rounds a weighted total the same way
    core = d * (slice(1, -1),)
    padded = np.zeros(d * (BINS + 2,))
    padded[core] = h.reshape(d * (BINS,))
    total = padded[core].sum()
    if total <= 0:
        raise InvalidValue("empty histogram")
    return h / total


def _check_class_counts(ys: np.ndarray, yt: np.ndarray) -> int:
    """The class count k, once every class has ``MIN_COUNT`` samples in each domain."""
    k = int(max(ys.max(), yt.max())) + 1
    for y, n_a, n_b in zip(range(k), np.bincount(ys, minlength=k), np.bincount(yt, minlength=k)):
        if n_a < MIN_COUNT or n_b < MIN_COUNT:
            raise InvalidValue(f"class {y}: {n_a} source / {n_b} target samples, need {MIN_COUNT}")
    return k


def binned_divergences(feats_src, labels_src, feats_tgt, labels_tgt, weights_src, seed: int = 0):
    """Per-class conditional gaps and the weighted feature divergence, on one shared grid.

    Returns ``(gaps, jsd_w)``. ``gaps[y]`` is the total variation between
    the binned source and target feature laws of class y; ``jsd_w`` is the
    JSD between the source features reweighted per sample by
    ``weights_src`` (how the ratio-weighted source distribution is
    estimated) and the target features.

    Features beyond two dimensions are projected onto their first two
    coordinates; histograms share a fixed grid of ``BINS`` cells per axis
    over the pooled bounding box, and every class needs ``MIN_COUNT``
    samples in each domain. Each row's grid cell is computed once, as a
    flat index shared by every histogram of the call (the same cells
    ``np.histogramdd`` would give it), so each histogram is one
    ``np.bincount``. A permutation baseline (the mean TV over
    ``PERMUTATIONS`` resplits of each pooled class's cell indices) is
    subtracted from each gap and the result clipped at zero, removing most
    of the binning-noise bias. Each domain's labels, and the source
    weights, must number its feature rows.
    """
    cells_src, cells_tgt, d = _cell_index(feats_src, feats_tgt)
    ys = np.asarray(labels_src)
    yt = np.asarray(labels_tgt)
    for side, rows, n, what in (
        ("source", cells_src.size, ys.size, "labels"),
        ("target", cells_tgt.size, yt.size, "labels"),
        ("source", cells_src.size, np.size(weights_src), "weights"),
    ):
        if n != rows:
            raise ShapeMismatch(f"{rows} {side} feature rows but {n} {side} {what}")
    k = _check_class_counts(ys, yt)
    rng = np.random.default_rng(seed)
    gaps = np.zeros(k)
    for y in range(k):
        a = cells_src[ys == y]
        b = cells_tgt[yt == y]
        n_a, n_b = a.size, b.size
        pooled = np.concatenate([a, b])
        pooled_counts = np.bincount(pooled, minlength=BINS**d)

        def tv(part):
            # the counts are exact integers, so the other half is the pool minus this one
            counts = np.bincount(part, minlength=BINS**d)
            return 0.5 * float(np.abs(counts / n_a - (pooled_counts - counts) / n_b).sum())

        base = 0.0
        for _ in range(PERMUTATIONS):
            base += tv(pooled[rng.permutation(pooled.size)[:n_a]])
        gaps[y] = max(tv(a) - base / PERMUTATIONS, 0.0)
    jsd_w = jsd(Categorical(_hist(cells_src, d, weights_src)), Categorical(_hist(cells_tgt, d)))
    return gaps, jsd_w


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


def check_joint_error_bound(eps_s, eps_t, ber, gls_gap, tol: float = INEQ_TOL) -> BoundReport:
    """eps_S + eps_T <= 2 * BER, meaningful when the conditionals match.

    The report is marked not-applicable for a measured invariance gap of
    0.1 or more, where violations are expected.
    """
    comp = {"eps_s": eps_s, "eps_t": eps_t, "ber": ber, "gls_gap": gls_gap}
    return _report("joint_error", eps_s + eps_t, 2.0 * ber, tol, applicable=bool(gls_gap < 0.1), **comp)


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
    seed: int = 0,
) -> list[BoundReport]:
    """Run every inequality check on one evaluation snapshot.

    Errors, label distances and confusion-derived terms all come from the
    same empirical joints, so the decomposition inequality is exact up to
    rounding. The representation divergence for the joint-error floor is
    instantiated on the argmax prediction marginals (the last-layer
    representation); the sufficiency ceiling reads the binned divergence
    between the ratio-weighted source features and the target features.
    """
    conf_s = _check_confusion(conf_src, "conf_src")
    conf_t = _check_confusion(conf_tgt, "conf_tgt")
    eps_s = 1.0 - float(p_src.probs @ np.diag(conf_s))
    eps_t = 1.0 - float(p_tgt.probs @ np.diag(conf_t))
    mu_s = Categorical.normalize(p_src.probs @ conf_s)
    mu_t = Categorical.normalize(p_tgt.probs @ conf_t)
    jsd_labels = jsd(p_src, p_tgt)
    jsd_preds = jsd(mu_s, mu_t)
    l1 = l1_distance(p_src, p_tgt)
    ber = balanced_error_rate(conf_s)
    delta_ce = conditional_error_gap(conf_s, conf_t)
    gaps, jsd_w = binned_divergences(
        feats_src, labels_src, feats_tgt, labels_tgt, w_true.w[np.asarray(labels_src)], seed
    )
    gap = float(gaps.max())

    return [
        check_lower_bound(eps_s, eps_t, jsd_labels, jsd_preds),
        check_error_decomposition(eps_s, eps_t, l1, ber, delta_ce, p_src.k),
        check_joint_error_bound(eps_s, eps_t, ber, gls_gap=gap),
        check_sufficiency_bound(eps_s, eps_t, w_true, p_tgt, jsd_w, gap),
    ]


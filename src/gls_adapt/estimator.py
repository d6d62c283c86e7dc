"""Class-ratio estimation from classifier outputs.

A soft confusion matrix C (column = true class, row = predicted class) and
the marginal distribution of predictions on the target domain mu are
accumulated over an epoch. The importance weights w_y = target/source class
ratio are then recovered either by direct inversion w = C^-1 mu (diagnostic
path) or, robustly, by the constrained least-squares program

    minimize 0.5 * ||mu - C w||^2   subject to   w >= 0,  w^T p_S = 1,

solved with an active-set method on the nonnegativity constraints and
returned only with a passing KKT certificate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import Categorical, check_labels, check_rows
from .errors import InvalidValue, NonFiniteValue, ShapeMismatch

__all__ = [
    "WeightVector",
    "ConfusionAccumulator",
    "true_weights",
    "exact_inverse_weights",
    "solve_qp",
    "ema_update",
]

CONDITION_CAP = 1e8
KKT_TOL = 1e-9  # relative tolerance of solve_qp's certificate
SLOPE_TOL = 1e-12  # relative free-set residual of a KKT solve that counts as descent
DUAL_TOL = 1e-10  # an active-set multiplier below -DUAL_TOL frees its class
MAX_ITER = 200  # active-set iterations before solve_qp gives up


@dataclass(frozen=True)
class WeightVector:
    """Per-class ratio vector w_y = target mass / source mass.

    Vectors produced by :func:`solve_qp`, :func:`true_weights` and
    :func:`ema_update` are elementwise nonnegative and satisfy
    w . p_S = 1 against the source label distribution they were solved
    for. The constructor itself only checks shape and finiteness so that
    the raw inversion w = C^-1 mu, which may go negative on noisy inputs,
    can be represented too.
    """

    w: np.ndarray

    def __post_init__(self):
        arr = np.array(self.w, dtype=float)  # a copy, which the instance then owns
        if arr.ndim != 1 or arr.size < 2:
            raise ShapeMismatch(f"w must be a vector of length >= 2, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteValue("w contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)

    def __len__(self) -> int:
        return self.w.size


class ConfusionAccumulator:
    """Running soft confusion matrix and target prediction marginal.

    Each source sample adds its full prediction vector to the column of
    its integer true label; each target sample adds its prediction vector
    to the running marginal, summed row by row in row order. Both inputs
    must pass :func:`~gls_adapt.distributions.check_rows` and the labels
    :func:`~gls_adapt.distributions.check_labels`.
    Single-writer: one training loop owns an instance.
    """

    def __init__(self, k: int):
        if k < 2:
            raise InvalidValue(f"need at least 2 classes, got k={k}")
        self.k = k
        self._eye = np.eye(k)  # row y is the one-hot vector of label y
        self.c_hat = np.zeros((k, k))
        self.mu_hat = np.zeros(k)
        self.n_source = 0
        self.n_target = 0

    def accumulate(self, source_preds, source_labels, target_preds) -> "ConfusionAccumulator":
        """Add one batch of source predictions with labels and target predictions."""
        sp = check_rows(source_preds, self.k, "source_preds")
        tp = check_rows(target_preds, self.k, "target_preds")
        labels = check_labels(source_labels, self.k, "source_labels")
        if labels.shape[0] != sp.shape[0]:
            raise ShapeMismatch(f"source_labels has shape {labels.shape}, expected ({sp.shape[0]},)")
        return self._accumulate(sp, labels, tp)

    def _accumulate(self, sp: np.ndarray, labels: np.ndarray, tp: np.ndarray) -> "ConfusionAccumulator":
        """:meth:`accumulate`'s arithmetic, on arrays that have passed its checks."""
        # Column y receives the prediction vectors of all samples with true label y.
        self.c_hat += sp.T @ self._eye.take(labels, axis=0)  # take: a fancy index is slower at 2,400 rows
        self.mu_hat += np.einsum("ij->j", tp)
        self.n_source += sp.shape[0]
        self.n_target += tp.shape[0]
        return self

    def finalize(self) -> tuple[np.ndarray, Categorical]:
        """Average the counts into (C, mu). Does not mutate the accumulator.

        mu is renormalized explicitly: its raw sum can drift from 1 by up
        to the per-row tolerance admitted in accumulate().
        """
        if self.n_source == 0 or self.n_target == 0:
            raise InvalidValue("no source or no target samples accumulated")
        c = self.c_hat / self.n_source
        mu = Categorical.normalize(self.mu_hat / self.n_target)
        return c, mu


def true_weights(p_source: Categorical, p_target: Categorical) -> WeightVector:
    """Elementwise ratio p_target / p_source; satisfies w . p_S = 1 exactly."""
    if p_source.k != p_target.k:
        raise ShapeMismatch(f"lengths {p_source.k} and {p_target.k} differ")
    if np.any(p_source.probs == 0):
        raise InvalidValue("source label distribution has a zero entry")
    return WeightVector(p_target.probs / p_source.probs)


def exact_inverse_weights(c: np.ndarray, mu: Categorical) -> WeightVector:
    """Diagnostic inversion w = C^-1 mu, with no nonnegativity enforcement.

    Refuses matrices whose condition number exceeds ``CONDITION_CAP``.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] != mu.k:
        raise ShapeMismatch(f"C has shape {c.shape}, expected ({mu.k}, {mu.k})")
    cond = np.linalg.cond(c)
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise NonFiniteValue(f"condition number {cond:.3g} exceeds cap {CONDITION_CAP:.3g}")
    return WeightVector(np.linalg.solve(c, mu.probs))


def solve_qp(
    c: np.ndarray,
    mu: Categorical,
    p_source: Categorical,
) -> WeightVector:
    """Global minimizer of 0.5*||mu - C w||^2 over {w >= 0, w^T p_S = 1}.

    Active-set method on the nonnegativity constraints with one minimum-norm
    ``lstsq`` KKT solve on C^T C per working set, which keeps rank-deficient
    problems deterministic; ties go to the lowest index. The first working
    set frees every class, so it solves the whole bordered system as built;
    a later one gathers its rows from it. A direction of descent that the
    solve drops as numerically flat is followed to the boundary. The loop
    stops when the dual sign holds on the active set to within ``DUAL_TOL``
    (with every class free there is none to check), and the answer must
    pass a certificate of all three KKT conditions: stationarity on the free
    set, no negative multiplier on the active set and |w . p_S - 1|, each
    within ``KKT_TOL`` * (1 + max|C^T C| max w + max|C^T mu|). Raises
    ``NonFiniteValue`` with the residual when it does not, when C is not
    finite, or when ``MAX_ITER`` iterations end without a KKT point.

    A known limit: on classes that C cannot tell apart (columns in the
    ratio of their p_S to within about 1e-9), the answer can sit up to about
    5e-10 above the grid optimum while it passes its certificate. The
    objective is flat to that order along a long direction, and a free-set
    residual below ``SLOPE_TOL`` times the scale, or an active-set
    multiplier above -1e-10, is accepted there.
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
    if not np.minimum.reduce(p) > 0.0:
        raise InvalidValue("p_source must be strictly positive")
    used = np.logical_or.reduce(c, axis=0)
    if not np.logical_and.reduce(used):
        warnings.warn(
            f"confusion matrix has all-zero columns for classes {np.flatnonzero(~used).tolist()}; "
            "their weights are determined by the constraints only",
            RuntimeWarning,
            stacklevel=2,
        )

    h = c.T @ c
    b = c.T @ mu.probs
    h_max, b_max = np.abs(h).max(), np.abs(b).max()

    feas_tol = 1e-12
    # KKT system of all classes bordered by w.p = 1; a working set keeps its free rows and the last
    kkt_all = np.zeros((k + 1, k + 1))
    kkt_all[:k, :k] = h
    kkt_all[:k, k] = kkt_all[k, :k] = p
    rhs_all = np.concatenate((b, [1.0]))
    kept = np.ones(k + 1, dtype=bool)
    free = kept[:k]  # a view: the multiplier's row is always kept
    w = np.ones(k)  # w = 1 is always feasible since p sums to 1
    # The first working set frees every class, so it is the whole system: no gather, no scatter.
    idx, kkt, rhs = np.arange(k), kkt_all, rhs_all

    for _ in range(MAX_ITER):
        nf = idx.size
        sol, _, rank, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
        if nf == k:
            cand = sol[:k]
        else:
            cand = np.zeros(k)
            cand[idx] = sol[:nf]
        if rank <= nf:  # lstsq dropped a numerically flat direction; the residual shows it
            res = kkt[:nf] @ sol - rhs[:nf]
            pf = p[idx]
            step = np.zeros(k)
            step[idx] = (res @ pf) / (pf @ pf) * pf - res  # descent along w.p = 1
        if rank <= nf and np.abs(step).max() > SLOPE_TOL * (1.0 + h_max * np.abs(sol).max() + b_max):
            # the objective still falls along it: follow it to the boundary
            w = _step_to_boundary(w, step, idx[step[idx] < 0], free)
        elif np.minimum.reduce(sol[:nf]) >= -feas_tol:
            w = np.maximum(cand, 0.0)  # cand is 0 off the free set already
            lagr = h @ w
            lagr -= b
            lagr += sol[nf] * p
            if nf == k:
                break  # no class is held at zero, so no dual sign can fail
            viol = ~free & (lagr < -DUAL_TOL)
            if not viol.any():
                break
            free[viol.argmax()] = True
        else:
            # Step toward the candidate until the first coordinate hits zero.
            w = _step_to_boundary(w, cand - w, idx[sol[:nf] < -feas_tol], free)
        rows = kept.nonzero()[0]
        idx, kkt, rhs = rows[:-1], kkt_all[rows[:, None], rows], rhs_all[rows]
    else:
        raise NonFiniteValue(f"solve_qp did not converge in {MAX_ITER} active-set iterations")

    # stationarity on the free set, the dual sign on the active set, and w.p = 1
    residual = max(np.abs(lagr[free]).max(), -np.minimum.reduce(lagr, where=~free, initial=0.0), abs(w @ p - 1.0))
    tol = KKT_TOL * (1.0 + h_max * w.max() + b_max)
    if not residual <= tol:
        raise NonFiniteValue(f"solve_qp answer fails its KKT certificate: residual {residual:.3g} > {tol:.3g}")
    return WeightVector(w)


def _step_to_boundary(w: np.ndarray, step: np.ndarray, drops: np.ndarray, free: np.ndarray) -> np.ndarray:
    """``w`` moved along ``step`` until the first of ``drops`` reaches zero; that class leaves ``free``."""
    alphas = w[drops] / -step[drops]
    j = alphas.argmin()
    w = w + alphas[j] * step
    free[drops[j]] = False
    return np.maximum(w, 0.0) * free


def ema_update(w_prev: WeightVector, w_qp: WeightVector, lam: float) -> WeightVector:
    """Convex combination lam * w_qp + (1 - lam) * w_prev."""
    if len(w_prev) != len(w_qp):
        raise ShapeMismatch(f"lengths {len(w_prev)} and {len(w_qp)} differ")
    if not 0.0 <= lam <= 1.0:
        raise InvalidValue(f"lambda must lie in [0, 1], got {lam!r}")
    return WeightVector(lam * w_qp.w + (1.0 - lam) * w_prev.w)


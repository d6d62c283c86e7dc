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

from .distributions import Categorical
from .errors import InvalidValue, NonFiniteValue, ShapeMismatch

__all__ = [
    "WeightVector",
    "ConfusionAccumulator",
    "true_weights",
    "exact_inverse_weights",
    "solve_qp",
    "ema_update",
]

ROW_SUM_TOL = 1e-6
CONDITION_CAP = 1e8
KKT_TOL = 1e-9  # relative tolerance of solve_qp's certificate
SLOPE_TOL = 1e-12  # relative free-set residual of a KKT solve that counts as descent
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
        arr = np.asarray(self.w, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ShapeMismatch(f"w must be a vector of length >= 2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("w contains non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)

    def __len__(self) -> int:
        return self.w.size


class ConfusionAccumulator:
    """Running soft confusion matrix and target prediction marginal.

    Each source sample adds its full prediction vector to the column of
    its true label; each target sample adds its prediction vector to the
    running marginal. Single-writer: one training loop owns an instance.
    """

    def __init__(self, k: int):
        if k < 2:
            raise InvalidValue(f"need at least 2 classes, got k={k}")
        self.k = k
        self.c_hat = np.zeros((k, k))
        self.mu_hat = np.zeros(k)
        self.n_source = 0
        self.n_target = 0

    def accumulate(self, source_preds, source_labels, target_preds) -> "ConfusionAccumulator":
        """Add one batch of source predictions with labels and target predictions."""
        sp = _check_pred_matrix(source_preds, self.k, "source_preds")
        tp = _check_pred_matrix(target_preds, self.k, "target_preds")
        labels = np.asarray(source_labels)
        if labels.ndim != 1 or labels.shape[0] != sp.shape[0]:
            raise ShapeMismatch(
                f"source_labels has shape {labels.shape}, expected ({sp.shape[0]},)"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise InvalidValue(f"labels must lie in [0, {self.k})")
        # Column y receives the prediction vectors of all samples with true label y.
        onehot = np.zeros((sp.shape[0], self.k))
        onehot[np.arange(sp.shape[0]), labels] = 1.0
        self.c_hat += sp.T @ onehot
        self.mu_hat += tp.sum(axis=0)
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


def _check_pred_matrix(preds, k: int, name: str) -> np.ndarray:
    arr = np.asarray(preds, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != k:
        raise ShapeMismatch(f"{name} has shape {arr.shape}, expected (n, {k})")
    # written so that a NaN or infinite row sum fails too; a row holding
    # both inf and -inf sums to NaN, which raises here instead of warning
    with np.errstate(invalid="ignore"):
        sums = arr.sum(axis=1)
    if arr.size and not np.all(np.abs(sums - 1.0) <= ROW_SUM_TOL):
        raise ShapeMismatch(f"{name} rows must be finite and sum to 1 within {ROW_SUM_TOL}")
    return arr


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
    problems deterministic; ties go to the lowest index. A direction of
    descent that the solve drops as numerically flat is followed to the
    boundary. The loop stops when the dual sign holds on the active set, and
    the answer must pass a certificate: stationarity on the free set and
    |w . p_S - 1| within ``KKT_TOL`` * (1 + max|C^T C| max w + max|C^T mu|).
    Raises ``NonFiniteValue`` with the residual when it does not, when C is
    not finite, or when ``MAX_ITER`` iterations end without a KKT point.
    """
    c = np.asarray(c, dtype=float)
    k = p_source.k
    if c.shape != (k, k):
        raise ShapeMismatch(f"C has shape {c.shape}, expected ({k}, {k})")
    if not np.all(np.isfinite(c)):
        raise NonFiniteValue("C contains non-finite entries")
    if mu.k != k:
        raise ShapeMismatch(f"mu has length {mu.k}, expected {k}")
    p = p_source.probs
    if np.any(p <= 0):
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
    free = np.ones(k, dtype=bool)
    w = np.ones(k)  # w = 1 is always feasible since p sums to 1

    for _ in range(MAX_ITER):
        idx = np.flatnonzero(free)
        nf = idx.size
        pf = p[idx]
        kkt = np.zeros((nf + 1, nf + 1))
        kkt[:nf, :nf] = h[np.ix_(idx, idx)]
        kkt[:nf, nf] = pf
        kkt[nf, :nf] = pf
        sol, _, rank, _ = np.linalg.lstsq(kkt, np.append(b[idx], 1.0), rcond=None)
        cand = np.zeros(k)
        cand[idx], nu = sol[:nf], sol[nf]
        if rank <= nf:  # lstsq dropped a numerically flat direction; the residual shows it
            res = kkt[:nf] @ sol - b[idx]
            step = np.zeros(k)
            step[idx] = (res @ pf) / (pf @ pf) * pf - res  # descent along w.p = 1
        if rank <= nf and np.abs(step).max() > SLOPE_TOL * (1.0 + h_max * np.abs(sol).max() + b_max):
            # the objective still falls along it: follow it to the boundary
            drops = idx[step[idx] < 0]
        elif np.all(cand[idx] >= -feas_tol):
            w = np.maximum(cand, 0.0) * free
            lagr = h @ w - b + nu * p
            viol = np.flatnonzero(~free & (lagr < -dual_tol))
            if viol.size == 0:
                break
            free[viol[0]] = True
            continue
        else:
            # Step toward the candidate until the first coordinate hits zero.
            step, drops = cand - w, idx[cand[idx] < -feas_tol]
        alphas = w[drops] / -step[drops]
        j = int(np.argmin(alphas))
        w = w + alphas[j] * step
        free[drops[j]] = False
        w = np.maximum(w, 0.0) * free
    else:
        raise NonFiniteValue(f"solve_qp did not converge in {MAX_ITER} active-set iterations")

    residual = max(np.abs(lagr[free]).max(), abs(w @ p - 1.0))
    tol = KKT_TOL * (1.0 + h_max * w.max() + b_max)
    if not residual <= tol:
        raise NonFiniteValue(f"solve_qp answer fails its KKT certificate: residual {residual:.3g} > {tol:.3g}")
    return WeightVector(w)


def ema_update(w_prev: WeightVector, w_qp: WeightVector, lam: float) -> WeightVector:
    """Convex combination lam * w_qp + (1 - lam) * w_prev."""
    if len(w_prev) != len(w_qp):
        raise ShapeMismatch(f"lengths {len(w_prev)} and {len(w_qp)} differ")
    if not 0.0 <= lam <= 1.0:
        raise InvalidValue(f"lambda must lie in [0, 1], got {lam!r}")
    return WeightVector(lam * w_qp.w + (1.0 - lam) * w_prev.w)


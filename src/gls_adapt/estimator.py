"""Class-ratio estimation from classifier outputs.

A soft confusion matrix C (column = true class, row = predicted class) and
the marginal distribution of predictions on the target domain mu are
accumulated over an epoch. The importance weights w_y = target/source class
ratio are then recovered either by direct inversion w = C^-1 mu (diagnostic
path) or, robustly, by the constrained least-squares program

    minimize 0.5 * ||mu - C w||^2   subject to   w >= 0,  w^T p_S = 1,

solved with an active-set method on the nonnegativity constraints.
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
RIDGE = 1e-12
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

    def reset(self) -> None:
        self.c_hat[:] = 0.0
        self.mu_hat[:] = 0.0
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
    if arr.size and np.max(np.abs(arr.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
        raise ShapeMismatch(f"{name} rows must sum to 1 within {ROW_SUM_TOL}")
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

    Active-set method on the nonnegativity constraints with an exact KKT
    solve per working set. Deterministic: ties are broken by lowest index.
    A 1e-12 ridge on the normal equations selects the minimum-norm optimum
    when C is rank deficient. Raises ``NonFiniteValue`` when ``MAX_ITER``
    iterations end without a KKT point, rather than return a truncated
    iterate.
    """
    c = np.asarray(c, dtype=float)
    k = p_source.k
    if c.shape != (k, k):
        raise ShapeMismatch(f"C has shape {c.shape}, expected ({k}, {k})")
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

    h_exact = c.T @ c
    h = h_exact + RIDGE * np.eye(k)
    b = c.T @ mu.probs

    def kkt_solve(hh, idx, solver):
        nf = idx.size
        kkt = np.zeros((nf + 1, nf + 1))
        kkt[:nf, :nf] = hh[np.ix_(idx, idx)]
        kkt[:nf, nf] = p[idx]
        kkt[nf, :nf] = p[idx]
        rhs = np.concatenate([b[idx], [1.0]])
        sol = solver(kkt, rhs)
        cand = np.zeros(k)
        cand[idx] = sol[:nf]
        return cand, sol[nf]

    feas_tol = 1e-12
    dual_tol = 1e-10
    free = np.ones(k, dtype=bool)
    w = np.ones(k)  # w = 1 is always feasible since p sums to 1

    for _ in range(MAX_ITER):
        idx = np.flatnonzero(free)
        cand, nu = kkt_solve(h, idx, np.linalg.solve)

        if np.all(cand[idx] >= -feas_tol):
            w = np.maximum(cand, 0.0) * free
            lagr = h @ w - b + nu * p
            viol = np.flatnonzero(~free & (lagr < -dual_tol))
            if viol.size == 0:
                break
            free[viol[0]] = True
        else:
            # Step toward the candidate until the first coordinate hits zero.
            drops = idx[cand[idx] < -feas_tol]
            denom = w[drops] - cand[drops]
            alphas = np.where(denom > 0, w[drops] / denom, 0.0)
            j = int(np.argmin(alphas))
            alpha = float(alphas[j])
            w = w + alpha * (cand - w)
            w[drops[j]] = 0.0
            free[drops[j]] = False
            w = np.maximum(w, 0.0) * free
    else:
        raise NonFiniteValue(f"solve_qp did not converge in {MAX_ITER} active-set iterations")

    # Polish on the converged working set without the ridge; the minimum
    # norm lstsq solution keeps rank-deficient problems deterministic.
    idx = np.flatnonzero(free)
    polished, _ = kkt_solve(
        h_exact, idx, lambda a, r: np.linalg.lstsq(a, r, rcond=None)[0]
    )
    if (
        np.all(np.isfinite(polished))
        and np.all(polished[idx] >= -1e-9)
        and abs(polished @ p - 1.0) <= 1e-9
    ):
        w = np.maximum(polished, 0.0) * free
    return WeightVector(np.maximum(w, 0.0))


def ema_update(w_prev: WeightVector, w_qp: WeightVector, lam: float) -> WeightVector:
    """Convex combination lam * w_qp + (1 - lam) * w_prev."""
    if len(w_prev) != len(w_qp):
        raise ShapeMismatch(f"lengths {len(w_prev)} and {len(w_qp)} differ")
    if not 0.0 <= lam <= 1.0:
        raise InvalidValue(f"lambda must lie in [0, 1], got {lam!r}")
    return WeightVector(lam * w_qp.w + (1.0 - lam) * w_prev.w)


"""End-to-end training loop with per-epoch weight re-estimation.

One run owns all of its state. Per epoch, B paired batches are drawn
with replacement, and each batch takes a single combined SGD step per
net (classification descent, adversarial ascent for the feature
extractor via gradient reversal, adversarial descent for the
discriminator). A step makes one forward over the stacked batch
[source; target], which yields the features, the predictions and the
discriminator output, and one backward, which writes all three nets'
gradients into one model gradient (d's is zero under ``none`` and the
``jan`` variants, which do not train it, so d never moves there). The
same forward's predictions, taken before the update, feed the soft
confusion accumulator, so a step makes no other pass. A step calls the
losses' and the accumulator's kernels directly, then makes one check,
:func:`_check_step`, whose failures name the epoch and batch. A run
keeps one model gradient and the stacked batch and loss-gradient buffers,
which every step overwrites; the forward and backward allocate their own
arrays. Each epoch opens its own accumulator, and at the epoch's end the
constrained least-squares estimate from it is blended into the running
weights with an exponential moving average, so one estimate reads one
epoch's batches.

The estimation bookkeeping runs for every algorithm so that traces are
comparable; only the importance-weighted variants feed the weights into
their losses, and the oracle variants pin them to the true ratios.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses, network
from .datagen import Dataset
from .distributions import jsd
from .errors import ConfigInvalid, InvalidValue, NonFiniteValue, ShapeMismatch
from .estimator import ConfusionAccumulator, WeightVector, ema_update, solve_qp, true_weights
from .network import ModelState

__all__ = [
    "ALGORITHMS",
    "TrainConfig",
    "EpochRecord",
    "TrainTrace",
    "train",
    "train_many",
    "evaluate",
    "make_bound_hook",
]

# name -> (base alignment, weighting). The base is an adversarial
# discriminator on z (dann) or on the prediction/feature outer product
# (cdan), a kernel MMD on z (jan), or no alignment at all (None). The
# weighting is "ones" for the base algorithm itself, "estimated" for the
# importance-weighted variant fed the running estimate of w, and "oracle"
# for the variant fed the true ratios.
ALGORITHMS = {
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

# every |logit| of a saturated d's batch exceeds -log(LOG_EPS) ~ 27.63, where sigmoid(-|a|) < LOG_EPS
SATURATED_LOGIT = -math.log(losses.LOG_EPS)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one run, checked when built. ``seed`` fixes everything."""

    algorithm: str = "iwdan"
    epochs: int = 30
    batches_per_epoch: int = 25
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    ema_lambda: float = 0.5
    seed: int = 0
    weight_da_loss: bool = True
    weight_c_loss: bool = True
    feature_dim: int = 32
    reversal_coeff: float = 1.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigInvalid(f"unknown algorithm {self.algorithm!r}")
        if self.feature_dim < 1:
            raise ConfigInvalid(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.epochs < 1 or self.batches_per_epoch < 1 or self.batch_size < 1:
            raise ConfigInvalid("epochs, batches_per_epoch and batch_size must be >= 1")
        if ALGORITHMS[self.algorithm][0] == "jan" and self.batch_size < 2:
            raise ConfigInvalid(
                f"{self.algorithm}'s kernel loss pairs rows, so batch_size must be >= 2, got {self.batch_size}"
            )
        if not 0.0 <= self.ema_lambda <= 1.0:
            raise ConfigInvalid("ema_lambda must lie in [0, 1]")
        if self.lr <= 0 or not 0.0 <= self.momentum < 1.0:
            raise ConfigInvalid("need lr > 0 and momentum in [0, 1)")
        for name in ("lr", "reversal_coeff"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigInvalid(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's summary; ``conf_src``/``conf_tgt`` are the k x k confusions of :func:`evaluate`.

    ``feats_src``/``feats_tgt`` are the features z of the same evaluation,
    (n, feature_dim) each. Only the record an epoch hook receives carries
    them: read-only views of buffers that the next epoch overwrites, so
    they are valid only during the hook call. Records kept in the trace
    hold None there.
    """

    epoch: int
    acc_src: float
    acc_tgt: float
    loss_da: float
    loss_c: float
    w: np.ndarray
    w_dist: float
    jsd_label: float
    conf_src: np.ndarray
    conf_tgt: np.ndarray
    feats_src: np.ndarray | None = None
    feats_tgt: np.ndarray | None = None


@dataclass
class TrainTrace:
    """One record per completed epoch."""

    records: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def best_target_accuracy(self) -> float:
        return max(r.acc_tgt for r in self.records)


# Rows per forward in evaluate's full-data pass. The reason is memory, not
# arithmetic: one block's arrays, one per layer, are small enough to be
# reused from the heap instead of mapped fresh on every pass; 128, 256, 512
# and 1,024 rows trained within the noise (~15%).
BLOCK_ROWS = 256


def evaluate(state: ModelState, data: Dataset, features_out: np.ndarray) -> tuple[float, np.ndarray]:
    """Argmax accuracy and the row-normalized confusion matrix.

    Row y holds the empirical distribution of predictions among samples
    whose true class is y; rows for absent classes are left at zero. One
    pass of :func:`network.forward` over blocks of at most ``BLOCK_ROWS``
    rows, in order, gives the predictions: each block writes its features
    z into ``features_out``, (n, feature_dim), and the argmax of its cached
    predictions p into the labels that are scored.
    """
    if data.dim != state.g.in_dim:
        raise ShapeMismatch(f"data dim {data.dim} != model input dim {state.g.in_dim}")
    if features_out.shape != (data.n, state.feature_dim):
        raise ShapeMismatch(f"features_out has shape {features_out.shape}, expected {(data.n, state.feature_dim)}")
    hard = np.empty(data.n, dtype=np.intp)
    for start in range(0, data.n, BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        z, cache = network.forward(state, data.features[start:stop])
        features_out[start:stop] = z
        cache["p"].argmax(axis=1, out=hard[start:stop])
    acc = float(np.mean(hard == data.labels))
    k = state.k
    conf = np.bincount(data.labels * k + hard, minlength=k * k).reshape(k, k).astype(float)
    counts = conf.sum(axis=1, keepdims=True)
    np.divide(conf, counts, out=conf, where=counts > 0)
    return acc, conf


def train(config: TrainConfig, source: Dataset, target: Dataset, epoch_hook=None):
    """Run the full loop; returns (final ModelState, TrainTrace).

    ``epoch_hook(epoch_index, state, record)``, when given, is called at
    the end of each epoch (diagnostics live there). Its ``record`` is the
    trace's record plus the evaluation's features, ``feats_src`` and
    ``feats_tgt``: read-only views of two buffers allocated once per run,
    valid only during the hook call.
    """
    if source.dim != target.dim:
        raise ShapeMismatch(f"feature dims differ: {source.dim} vs {target.dim}")
    if source.k != target.k:
        raise ShapeMismatch(f"class counts differ: {source.k} vs {target.k}")
    k = source.k
    base, weighting = ALGORITHMS[config.algorithm]
    kernel = base == "jan"
    oracle = weighting == "oracle"
    weighted = weighting != "ones"
    p_source = source.label_distribution()
    if np.any(p_source.probs == 0):
        raise InvalidValue("every class needs at least one source sample")
    p_target = target.label_distribution()
    w_star = true_weights(p_source, p_target)
    jsd_label = jsd(p_source, p_target)

    rng = np.random.default_rng(config.seed)
    state = network.init_model_state(
        input_dim=source.dim,
        k=k,
        feature_dim=config.feature_dim,
        conditional=base == "cdan",
        rng=rng,
    )

    ones = WeightVector(np.ones(k))
    w_est = ones  # running moving-average estimate, tracked for every algorithm
    w_model = w_star if oracle else w_est  # what the losses may consume and the trace logs

    s = config.batch_size
    # the adversarial losses read d's output on the stacked batch, jan's reads z
    discriminate = base in ("dann", "cdan")
    # the run's buffers: the stacked batch [source; target], the loss
    # gradients whose shape the step fixes and the model gradient, all
    # overwritten every step; the classification loss reads the source rows
    # only, so the target rows of its gradient stay zero
    x = np.empty((2 * s, source.dim))
    grad_preds = np.zeros((2 * s, k))
    grad_d = np.empty((2 * s, 1))
    grads = network.ModelGrads(state)
    trace = TrainTrace()
    # evaluate writes the features the hook reads into buffers kept for the
    # whole run: fresh ones each epoch would be page-faulted in every time
    feats = tuple(np.empty((data.n, config.feature_dim)) for data in (source, target))
    views = tuple(f.view() for f in feats)
    for v in views:
        v.flags.writeable = False

    for epoch in range(config.epochs):
        loss_da_sum = 0.0
        loss_c_sum = 0.0
        # the weights change only at an epoch's end
        w_da = w_model if weighted and config.weight_da_loss else ones
        # the kernel variant also scales its classification loss by w
        if weighted and config.weight_c_loss:
            class_coeff = losses._class_coeff(p_source, w_model if kernel else None)
        else:
            class_coeff = np.ones(k)
        acc = ConfusionAccumulator(k)
        for batch in range(config.batches_per_epoch):
            idx_s = rng.integers(0, source.n, size=s)
            idx_t = rng.integers(0, target.n, size=s)
            np.take(source.features, idx_s, axis=0, out=x[:s])
            np.take(target.features, idx_t, axis=0, out=x[s:])
            ys = source.labels[idx_s]

            # an overflow or NaN here reaches a loss or a prediction, which _check_step reports
            with np.errstate(over="ignore", invalid="ignore"):
                out, cache = network.forward(state, x, discriminate)
                preds = cache["p"]
                loss_c = losses._nll(preds[:s], ys, class_coeff, grad_preds[:s])
                loss_da, grad_da = 0.0, None
                if kernel:
                    loss_da, grad_da = losses._mmd(out[:s], out[s:], w_da.w[ys])
                elif discriminate:
                    loss_da = losses._da(out.reshape(-1), w_da.w[ys], grad_d.reshape(-1))
                    grad_da = grad_d
            network.backward(state, cache, grad_da, grad_preds, config.reversal_coeff, grads)
            _check_step(epoch, batch, loss_da, loss_c, preds, out if discriminate else None)
            acc._accumulate(preds[:s], ys, preds[s:])
            network.sgd_step(state, grads, config.lr, config.momentum)
            loss_da_sum += loss_da
            loss_c_sum += loss_c

        c_hat, mu_hat = acc.finalize()
        w_qp = solve_qp(c_hat, mu_hat, p_source)
        w_est = ema_update(w_est, w_qp, config.ema_lambda)
        if not oracle:
            w_model = w_est

        acc_src, conf_src = evaluate(state, source, feats[0])
        acc_tgt, conf_tgt = evaluate(state, target, feats[1])
        record = EpochRecord(
            epoch=epoch,
            acc_src=acc_src,
            acc_tgt=acc_tgt,
            loss_da=loss_da_sum / config.batches_per_epoch,
            loss_c=loss_c_sum / config.batches_per_epoch,
            w=np.array(w_model.w),
            w_dist=float(np.linalg.norm(w_model.w - w_star.w)),
            jsd_label=jsd_label,
            conf_src=conf_src,
            conf_tgt=conf_tgt,
        )
        trace.records.append(record)
        if epoch_hook is not None:
            epoch_hook(epoch, state, replace(record, feats_src=views[0], feats_tgt=views[1]))
    return state, trace


def _check_step(epoch: int, batch: int, loss_da: float, loss_c: float, preds: np.ndarray, logits) -> None:
    """A training step's one check, after its backward; each failure names the epoch and batch.

    Both losses and every prediction must be finite (no loss reads the target
    predictions under ``none``; a finite softmax row is a probability row),
    and d's stacked ``logits``, None if d did not run, must not be saturated.
    """
    where = f"epoch {epoch} batch {batch}"
    if not (math.isfinite(loss_da) and math.isfinite(loss_c)):
        raise NonFiniteValue(f"{where}: loss_da={loss_da!r}, loss_c={loss_c!r}")
    if not np.isfinite(preds).all():
        raise NonFiniteValue(f"{where}: the predictions are not finite")
    low = 0.0 if logits is None else float(np.abs(logits).min())
    if low > SATURATED_LOGIT:
        raise InvalidValue(f"{where}: the discriminator is saturated, min |logit| {low:.4g} > {SATURATED_LOGIT:.4g}")


def make_bound_hook(source: Dataset, target: Dataset, sink: list):
    """Epoch hook that runs the full inequality suite on both datasets.

    The hook reports on the run it is attached to: ``source`` and
    ``target`` must be the datasets given to :func:`train`, whose
    ``EpochRecord`` supplies the epoch's confusion matrices and the
    features of the same evaluation pass, so the hook makes no pass of its
    own. Building it checks the class counts the bound suite needs, so a
    run that could not be checked fails before it trains.

    Appends (epoch, BoundReport) pairs to ``sink``.
    """
    from .diagnostics import _check_class_counts, bound_suite

    _check_class_counts(source.labels, target.labels)

    def hook(epoch, state, record):
        if record.feats_src is None or record.feats_tgt is None:
            raise InvalidValue("record holds no features; use the record train hands its epoch hook")
        reports = bound_suite(
            conf_src=record.conf_src,
            conf_tgt=record.conf_tgt,
            feats_src=record.feats_src,
            labels_src=source.labels,
            feats_tgt=record.feats_tgt,
            labels_tgt=target.labels,
            seed=epoch,
        )
        sink.extend((epoch, r) for r in reports)

    return hook


def _train_one(config, source, target, bounds: bool):
    reports: list = []
    hook = make_bound_hook(source, target, reports) if bounds else None
    return train(config, source, target, epoch_hook=hook)[1], reports


def train_many(runs, bounds: bool = False, jobs: int = 1) -> list:
    """One (TrainTrace, reports) per ``(TrainConfig, source, target)`` in ``runs``, in input order.

    ``reports`` is the run's own (epoch, BoundReport) list, empty unless ``bounds``. The runs
    train in min(jobs, len(runs), usable CPUs) spawned workers, or in this process if that is 1.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(runs), cpus)
    if workers <= 1:
        return [_train_one(*run, bounds) for run in runs]
    # imported here: their ~15 ms import would count in perfbench's setup_s
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # pinned as perfbench/run.py pins them: with a BLAS thread per core, two workers ran slower than one
    blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    saved = {var: os.environ[var] for var in blas if var in os.environ}
    os.environ.update(blas)
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(_train_one, *zip(*runs), [bounds] * len(runs)))
    finally:
        for var in blas:
            os.environ.pop(var, None)
        os.environ.update(saved)

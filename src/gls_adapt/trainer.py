"""End-to-end training loop with per-epoch weight re-estimation.

One run owns all of its state. Per epoch: the soft confusion accumulator
is reset, B paired batches are drawn with replacement, and each batch
takes a single combined SGD step per net (classification descent,
adversarial ascent for the feature extractor via gradient reversal,
adversarial descent for the discriminator). A step makes one forward
over the stacked batch [source; target], which yields the features, the
predictions and the discriminator output, and one backward, which yields
all three nets' gradients (``none`` runs both on the source rows alone).
A second stacked forward after the update supplies the post-update
predictions that feed the accumulator. At epoch end the constrained
least-squares estimate is blended into the running weights with an
exponential moving average.

The estimation bookkeeping runs for every algorithm so that traces are
comparable; only the importance-weighted variants feed the weights into
their losses, and the oracle variants pin them to the true ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "evaluate",
]

ALGORITHMS = (
    "none",
    "dann",
    "iwdan",
    "iwdan_o",
    "cdan",
    "iwcdan",
    "iwcdan_o",
    "jan",
    "iwjan",
    "iwjan_o",
)

_CONDITIONAL = {"cdan", "iwcdan", "iwcdan_o"}
_KERNEL = {"jan", "iwjan", "iwjan_o"}
_WEIGHTED = {"iwdan", "iwdan_o", "iwcdan", "iwcdan_o", "iwjan", "iwjan_o"}
_ORACLE = {"iwdan_o", "iwcdan_o", "iwjan_o"}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one run. ``seed`` fixes everything."""

    algorithm: str = "iwdan"
    epochs: int = 30
    batches_per_epoch: int = 25
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    ema_lambda: float = 0.5
    seed: int = 0
    weight_update_period: int = 1
    weight_da_loss: bool = True
    weight_c_loss: bool = True
    feature_dim: int = 32
    g_hidden: tuple = (64,)
    d_hidden: tuple = (32,)
    reversal_coeff: float = 1.0

    def validated(self) -> "TrainConfig":
        if self.algorithm not in ALGORITHMS:
            raise ConfigInvalid(f"unknown algorithm {self.algorithm!r}")
        if self.epochs < 1 or self.batches_per_epoch < 1 or self.batch_size < 1:
            raise ConfigInvalid("epochs, batches_per_epoch and batch_size must be >= 1")
        if not 0.0 <= self.ema_lambda <= 1.0:
            raise ConfigInvalid("ema_lambda must lie in [0, 1]")
        if self.weight_update_period < 1:
            raise ConfigInvalid("weight_update_period must be >= 1")
        if self.lr <= 0 or not 0.0 <= self.momentum < 1.0:
            raise ConfigInvalid("need lr > 0 and momentum in [0, 1)")
        return self


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's summary; ``conf_src``/``conf_tgt`` are the k x k confusions of :func:`evaluate`."""

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


@dataclass
class TrainTrace:
    """One record per completed epoch."""

    records: list = field(default_factory=list)

    def append(self, rec: EpochRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def best_target_accuracy(self) -> float:
        return max(r.acc_tgt for r in self.records)

    def best_source_accuracy(self) -> float:
        return max(r.acc_src for r in self.records)

    def final_weights(self) -> np.ndarray:
        return self.records[-1].w


def evaluate(state: ModelState, data: Dataset) -> tuple[float, np.ndarray]:
    """Argmax accuracy and the row-normalized confusion matrix.

    Row y holds the empirical distribution of predictions among samples
    whose true class is y; rows for absent classes are left at zero.
    """
    if data.dim != state.g.in_dim:
        raise ShapeMismatch(f"data dim {data.dim} != model input dim {state.g.in_dim}")
    preds, _ = network.forward(state, data.features, "classify")
    hard = preds.argmax(axis=1)
    acc = float(np.mean(hard == data.labels))
    k = state.k
    conf = np.zeros((k, k))
    np.add.at(conf, (data.labels, hard), 1.0)
    counts = conf.sum(axis=1, keepdims=True)
    np.divide(conf, counts, out=conf, where=counts > 0)
    return acc, conf


def train(config: TrainConfig, source: Dataset, target: Dataset, epoch_hook=None):
    """Run the full loop; returns (final ModelState, TrainTrace).

    ``epoch_hook(epoch_index, state, record)``, when given, is called
    after each epoch's record is appended (diagnostics live there).
    """
    config = config.validated()
    if source.dim != target.dim:
        raise ShapeMismatch(f"feature dims differ: {source.dim} vs {target.dim}")
    if source.k != target.k:
        raise ShapeMismatch(f"class counts differ: {source.k} vs {target.k}")
    k = source.k
    algo = config.algorithm
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
        g_hidden=tuple(config.g_hidden),
        d_hidden=tuple(config.d_hidden),
        conditional=algo in _CONDITIONAL,
        rng=rng,
    )

    oracle = algo in _ORACLE
    weighted = algo in _WEIGHTED
    ones = WeightVector(np.ones(k))
    w_est = ones  # running moving-average estimate, tracked for every algorithm
    w_model = w_star if oracle else w_est  # what the losses may consume

    s = config.batch_size
    # the forward mode whose output the alignment loss reads
    align_mode = "features" if algo in _KERNEL else state.disc_mode
    acc = ConfusionAccumulator(k)
    trace = TrainTrace()

    for epoch in range(config.epochs):
        loss_da_sum = 0.0
        loss_c_sum = 0.0
        for batch in range(config.batches_per_epoch):
            idx_s = rng.integers(0, source.n, size=s)
            idx_t = rng.integers(0, target.n, size=s)
            x = np.concatenate([source.features[idx_s], target.features[idx_t]])
            ys = source.labels[idx_s]

            w_da = w_model if (weighted and config.weight_da_loss) else ones
            if weighted and config.weight_c_loss:
                extra = w_model if algo in _KERNEL else None
                w_c = (p_source, extra)
            else:
                w_c = None

            if algo == "none":
                preds, cache = network.forward(state, x[:s], "classify")
            else:
                out, cache = network.forward(state, x, align_mode, preds=True)
                preds = cache["p"][:s]
            if w_c is None:
                loss_c, grad_c = losses.cross_entropy_loss_grads(preds, ys)
            else:
                loss_c, grad_c = losses.weighted_classification_loss_grads(preds, ys, *w_c)
            if algo == "none":
                loss_da = 0.0
                grads = network.backward(state, cache, grad_c)
            else:
                if algo in _KERNEL:
                    loss_da, g_src, g_tgt = losses.weighted_mmd_loss_grads(out[:s], ys, out[s:], w_da)
                    grad_da = np.concatenate([g_src, g_tgt])
                else:
                    loss_da, g_src, g_tgt = losses.weighted_da_loss_grads(out[:s], out[s:], ys, w_da)
                    grad_da = np.concatenate([g_src, g_tgt])[:, None]
                # the classification loss reads the source rows only
                grad_preds = np.zeros_like(cache["p"])
                grad_preds[:s] = grad_c
                grads = network.backward(state, cache, grad_da, grad_preds, config.reversal_coeff)
            if not (np.isfinite(loss_da) and np.isfinite(loss_c)):
                raise NonFiniteValue(
                    f"epoch {epoch} batch {batch}: loss_da={loss_da!r}, loss_c={loss_c!r}"
                )
            network.sgd_step(state, grads, config.lr, config.momentum)
            loss_da_sum += loss_da
            loss_c_sum += loss_c

            preds, _ = network.forward(state, x, "classify")
            acc.accumulate(preds[:s], ys, preds[s:])

        if (epoch + 1) % config.weight_update_period == 0:
            c_hat, mu_hat = acc.finalize()
            w_qp = solve_qp(c_hat, mu_hat, p_source)
            w_est = ema_update(w_est, w_qp, config.ema_lambda)
            acc.reset()
            if not oracle:
                w_model = w_est

        w_logged = w_star if oracle else w_est
        acc_src, conf_src = evaluate(state, source)
        acc_tgt, conf_tgt = evaluate(state, target)
        record = EpochRecord(
            epoch=epoch,
            acc_src=acc_src,
            acc_tgt=acc_tgt,
            loss_da=loss_da_sum / config.batches_per_epoch,
            loss_c=loss_c_sum / config.batches_per_epoch,
            w=np.array(w_logged.w),
            w_dist=float(np.linalg.norm(w_logged.w - w_star.w)),
            jsd_label=jsd_label,
            conf_src=conf_src,
            conf_tgt=conf_tgt,
        )
        trace.append(record)
        if epoch_hook is not None:
            epoch_hook(epoch, state, record)
    return state, trace


def make_bound_hook(source: Dataset, target: Dataset, sink: list, min_count: int = 50):
    """Epoch hook that runs the full inequality suite on both datasets.

    The hook reports on the run it is attached to: ``source`` and
    ``target`` must be the datasets given to :func:`train`, whose
    ``EpochRecord`` supplies the epoch's confusion matrices. One
    discriminator pass per dataset supplies the features as well.

    Appends (epoch, BoundReport) pairs to ``sink``. The weighted feature
    divergence is estimated both from binned histograms and from the
    current discriminator's achieved value; the second lands in the
    sufficiency report's components.
    """
    from .diagnostics import bound_suite, discriminator_route_jsd

    p_src = source.label_distribution()
    p_tgt = target.label_distribution()
    w_star = true_weights(p_src, p_tgt)

    def hook(epoch, state, record):
        d_src, cache_s = network.forward(state, source.features, state.disc_mode)
        d_tgt, cache_t = network.forward(state, target.features, state.disc_mode)
        jsd_disc = discriminator_route_jsd(d_src, d_tgt, source.labels, w_star)
        reports = bound_suite(
            conf_src=record.conf_src,
            conf_tgt=record.conf_tgt,
            p_src=p_src,
            p_tgt=p_tgt,
            feats_src=cache_s["z"],
            labels_src=source.labels,
            feats_tgt=cache_t["z"],
            labels_tgt=target.labels,
            w_true=w_star,
            min_count=min_count,
            seed=epoch,
            jsd_weighted_disc=jsd_disc,
        )
        sink.extend((epoch, r) for r in reports)

    return hook

"""Importance-weighted domain adaptation on synthetic domains.

Estimates per-class target/source ratios from a soft confusion matrix via
a constrained quadratic program, trains small adversarial or kernel
matching models with reweighted losses, and numerically checks the error
bounds the approach rests on.
"""

from .datagen import (
    Dataset,
    DomainSpec,
    Task,
    jsd_task_suite,
    make_gaussian_domain,
    make_shift_task,
    subsample_protocol,
)
from .diagnostics import (
    BoundReport,
    balanced_error_rate,
    binned_feature_jsd,
    bound_suite,
    check_discriminator_optimum,
    check_error_decomposition,
    check_joint_error_bound,
    check_lower_bound,
    check_sufficiency_bound,
    check_weight_contraction,
    conditional_error_gap,
    discriminator_route_jsd,
    gls_conditional_gap,
)
from .distributions import Categorical, empirical_label_dist, jsd, js_distance, kl, l1_distance, tv_distance
from .estimator import (
    ConfusionAccumulator,
    WeightVector,
    ema_update,
    exact_inverse_weights,
    solve_qp,
    true_weights,
)
from .losses import (
    cross_entropy_loss,
    weighted_classification_loss,
    weighted_da_loss,
    weighted_mmd_loss,
)
from .network import ModelState, Mlp, init_model_state, sgd_step
from .trainer import ALGORITHMS, TrainConfig, TrainTrace, evaluate, train

__version__ = "0.1.0"

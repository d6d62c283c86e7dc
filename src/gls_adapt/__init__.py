"""Importance-weighted domain adaptation on synthetic domains.

Estimates per-class target/source ratios from a soft confusion matrix via
a constrained quadratic program, trains small adversarial or kernel
matching models with reweighted losses, and numerically checks the error
bounds the approach rests on.
"""

from .datagen import make_shift_task
from .trainer import TrainConfig, train

__version__ = "0.1.0"

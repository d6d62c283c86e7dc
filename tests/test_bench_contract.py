"""The names the benchmark tracer patches must stay in the library.

``perfbench/tracing.py`` wraps library entry points with ``getattr`` and
``setattr`` for a traced run. If a refactor drops or renames one of them,
entering the tracer raises AttributeError here rather than in the
benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import gls_adapt
import gls_adapt.diagnostics
import gls_adapt.estimator
import gls_adapt.losses
import gls_adapt.network
import gls_adapt.trainer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

OWNERS = {
    "network": gls_adapt.network,
    "trainer": gls_adapt.trainer,
    "estimator": gls_adapt.estimator,
    "ConfusionAccumulator": gls_adapt.estimator.ConfusionAccumulator,
    "diagnostics": gls_adapt.diagnostics,
    "losses": gls_adapt.losses,
}

WRAPPED = {
    ("network", "forward"),
    ("network", "backward"),
    ("network", "sgd_step"),
    ("trainer", "evaluate"),
    ("trainer", "solve_qp"),
    ("estimator", "solve_qp"),
    ("ConfusionAccumulator", "accumulate"),
    ("diagnostics", "bound_suite"),
    ("losses", "weighted_da_loss"),
    ("losses", "weighted_da_loss_grads"),
    ("losses", "cross_entropy_loss"),
    ("losses", "cross_entropy_loss_grads"),
    ("losses", "weighted_classification_loss"),
    ("losses", "weighted_classification_loss_grads"),
    ("losses", "median_heuristic_bandwidths"),
    ("losses", "weighted_mmd_loss"),
    ("losses", "weighted_mmd_loss_grads"),
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return {owner: dict(vars(obj)) for owner, obj in OWNERS.items()}


def _changed(before, now):
    return {
        (owner, name)
        for owner, attrs in before.items()
        for name, value in attrs.items()
        if now[owner].get(name) is not value
    }


def test_tracer_wraps_every_target_and_restores_it():
    tracing = _load_tracing()
    before = _snapshot()
    with tracing.instrumented(tracing.Tracer(), gls_adapt):
        during = _snapshot()
    after = _snapshot()
    assert _changed(before, during) == WRAPPED
    assert _changed(before, after) == set()
    assert {owner: set(attrs) for owner, attrs in after.items()} == {
        owner: set(attrs) for owner, attrs in before.items()
    }

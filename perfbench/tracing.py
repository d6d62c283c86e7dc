"""Spans recorded from outside the library, and the per-layer metrics read from them.

The tracer wraps the names the trainer resolves at call time, so the
library itself carries no timing code. Spans stay in memory until the
run ends. A layer's self time is its span minus its direct child spans.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

# Losses grouped into the three families the per-layer metrics report.
LOSS_GROUPS = {
    "adv": ("weighted_da_loss", "weighted_da_loss_grads"),
    "cls": (
        "cross_entropy_loss",
        "cross_entropy_loss_grads",
        "weighted_classification_loss",
        "weighted_classification_loss_grads",
    ),
    "mmd": ("median_heuristic_bandwidths", "weighted_mmd_loss", "weighted_mmd_loss_grads"),
}

# A forward under one of these spans runs on a full dataset, not a batch.
FULL_DATA_PARENTS = ("trainer.evaluate", "diagnostics.hook")


@dataclass(frozen=True)
class Span:
    run: int
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    rows: int


class Tracer:
    """Records one span per wrapped call; ``run`` tags the operation in progress."""

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self._stack: list = []

    def wrap(self, name, fn, rows=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                n = rows(args) if rows is not None else 0
                spans[sid] = Span(self.run, sid, parent, name, start, end, n)

        return traced

    def write_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run\tid\tparent\tname\tstart_ns\tend_ns\trows\n")
            for s in self.spans:
                fh.write(f"{s.run}\t{s.id}\t{s.parent}\t{s.name}\t{s.start_ns}\t{s.end_ns}\t{s.rows}\n")


@contextlib.contextmanager
def instrumented(tracer: Tracer, gls):
    """Wrap every traced library entry point for the duration of the block.

    ``trainer.solve_qp`` is patched as well as ``estimator.solve_qp``
    because the trainer imports it by name. ``diagnostics.bound_suite``
    must be patched before ``make_bound_hook`` runs, since the hook
    imports it when it is built.
    """
    targets = [
        (gls.network, "forward", "network.forward", lambda a: len(a[1])),
        (gls.network, "backward", "network.backward", None),
        (gls.network, "sgd_step", "network.sgd_step", None),
        (gls.trainer, "evaluate", "trainer.evaluate", None),
        (gls.trainer, "solve_qp", "estimator.solve_qp", None),
        (gls.estimator, "solve_qp", "estimator.solve_qp", None),
        (gls.estimator.ConfusionAccumulator, "accumulate", "estimator.accumulate", None),
        (gls.diagnostics, "bound_suite", "diagnostics.bound_suite", None),
    ]
    for group, names in LOSS_GROUPS.items():
        targets += [(gls.losses, fn, f"losses.{group}.{fn}", None) for fn in names]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in targets]
    try:
        for obj, attr, name, rows in targets:
            setattr(obj, attr, tracer.wrap(name, getattr(obj, attr), rows))
        yield
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


def layer_totals(spans) -> dict:
    """Sum counts and self/total nanoseconds per layer over the given spans.

    Every key is an exact integer, so two runs of the same operation can
    be compared for equality on the count keys.
    """
    by_id = {s.id: s for s in spans}
    child_ns: dict = defaultdict(int)
    for s in spans:
        if s.parent in by_id:
            child_ns[s.parent] += s.end_ns - s.start_ns
    t: dict = defaultdict(int)
    for s in spans:
        dur = s.end_ns - s.start_ns
        self_ns = dur - child_ns[s.id]
        layer = s.name
        if s.name.startswith("losses."):
            layer = s.name.rsplit(".", 1)[0]
        t[f"{layer}.calls"] += 1
        t[f"{layer}.ns"] += dur
        t[f"{layer}.self_ns"] += self_ns
        if s.name == "network.forward" and _under_full_data(s, by_id):
            t["network.full_forward.calls"] += 1
            t["network.full_forward.rows"] += s.rows
            t["network.full_forward.self_ns"] += self_ns
    return dict(t)


def _under_full_data(span, by_id) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name in FULL_DATA_PARENTS:
            return True
        parent = by_id.get(parent.parent)
    return False


# Exact counts that must repeat between traced runs of one operation.
COUNT_KEYS = (
    "network.forward.calls",
    "network.full_forward.calls",
    "network.full_forward.rows",
    "network.backward.calls",
    "losses.mmd.calls",
    "trainer.evaluate.calls",
    "estimator.solve_qp.calls",
)


def unit(name: str) -> str:
    if "calls_per_" in name:
        return "count"
    if name.endswith("rows_per_epoch"):
        return "rows"
    if name.endswith("_pct"):
        return "%"
    return "ms"


def per_layer_metrics(totals: dict, steps: int, epochs: int, runs: int, estimates: int) -> dict:
    """Per-layer metrics as named in BENCHMARK.json, from summed totals."""

    def get(key):
        return totals.get(key, 0)

    def per(value, n):
        return value / n if n else 0.0

    ms = 1e-6
    step_forwards = get("network.forward.calls") - get("network.full_forward.calls")
    step_forward_ns = get("network.forward.self_ns") - get("network.full_forward.self_ns")
    solve_calls = get("estimator.solve_qp.calls")
    return {
        "network.forward.calls_per_step": per(step_forwards, steps),
        "network.forward.self_ms_per_step": per(step_forward_ns * ms, steps),
        "network.backward.calls_per_step": per(get("network.backward.calls"), steps),
        "network.backward.self_ms_per_step": per(get("network.backward.self_ns") * ms, steps),
        "network.sgd_step.ms_per_step": per(get("network.sgd_step.ns") * ms, steps),
        "network.full_rows_per_epoch": per(get("network.full_forward.rows"), epochs),
        "losses.adv.ms_per_step": per(get("losses.adv.ns") * ms, steps),
        "losses.cls.ms_per_step": per(get("losses.cls.ns") * ms, steps),
        "losses.mmd.ms_per_step": per(get("losses.mmd.ns") * ms, steps),
        "losses.mmd.calls_per_step": per(get("losses.mmd.calls"), steps),
        "estimator.accumulate.ms_per_step": per(get("estimator.accumulate.ns") * ms, steps),
        "estimator.accumulate.ms_per_estimate": per(get("estimator.accumulate.ns") * ms, estimates),
        "estimator.solve_qp.ms_per_call": per(get("estimator.solve_qp.ns") * ms, solve_calls),
        "estimator.solve_qp.calls_per_run": per(solve_calls, runs),
        "trainer.evaluate.calls_per_epoch": per(get("trainer.evaluate.calls"), epochs),
        "trainer.evaluate.ms_per_epoch": per(get("trainer.evaluate.ns") * ms, epochs),
        "trainer.train.self_ms_per_step": per(get("trainer.train.self_ns") * ms, steps),
        "diagnostics.hook.ms_per_epoch": per(get("diagnostics.hook.ns") * ms, epochs),
        "diagnostics.bound_suite.ms_per_epoch": per(get("diagnostics.bound_suite.ns") * ms, epochs),
        "datagen.make_shift_task.ms": per(get("datagen.make_shift_task.ns") * ms, get("datagen.make_shift_task.calls")),
    }

"""Closed-loop benchmark of gls_adapt: one caller, one operation at a time.

Run from the repository root:

    python3 perfbench/run.py --workload adv_train --seed 1 --seconds 20 --trace 0

Workloads: adv_train, kernel_train, bound_verify (one ``train()`` call per
operation) and estimate (one accumulate + finalize + solve_qp per
operation). ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs each operation untraced and traced in turn and prints the per-layer
metrics read from the spans. Human-readable lines come first; the last
line of standard output is one JSON object. See perfbench/README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import os  # noqa: E402

# BLAS is pinned to one thread before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import scaling  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# iwjan collapses at reversal coefficient 20 on this task, so it runs at 1.
TRAIN_SPECS = {
    "adv_train": wl.TrainSpec(("iwdan", "iwcdan"), 20.0, bound_hook=False),
    "kernel_train": wl.TrainSpec(("iwjan",), 1.0, bound_hook=False),
    "bound_verify": wl.TrainSpec(("iwdan",), 20.0, bound_hook=True),
}
WORKLOADS = (*TRAIN_SPECS, "estimate")
WARMUP_EPOCHS = 3
# Epoch cost depends a little on the data (up to 10% between two seeds),
# so each run cycles over several datasets instead of one.
DATASETS = 3
SETUP_REPEATS = 5  # this process plus four fresh ones
CHILD_TIMEOUT_S = 150
ESTIMATES_PER_CALIBRATION = 8

# Exact counts recorded on the parent commit; the traced run reports any change.
RECORDED_COUNTS = {
    "adv_train": {
        "network.forward.calls_per_step": 5,
        "network.backward.calls_per_step": 3,
        "trainer.evaluate.calls_per_epoch": 2,
        "network.full_rows_per_epoch": 6000,
    },
    "kernel_train": {
        "network.forward.calls_per_step": 5,
        "network.backward.calls_per_step": 3,
        "losses.mmd.calls_per_step": 3,
        "trainer.evaluate.calls_per_epoch": 2,
        "network.full_rows_per_epoch": 6000,
    },
    "bound_verify": {
        "network.forward.calls_per_step": 5,
        "network.backward.calls_per_step": 3,
        "trainer.evaluate.calls_per_epoch": 4,
        "network.full_rows_per_epoch": 24000,
    },
    "estimate": {},
}


def import_library():
    """Import gls_adapt from this checkout's src/, never from site-packages."""
    try:
        import gls_adapt
        import gls_adapt.datagen
        import gls_adapt.diagnostics
        import gls_adapt.distributions
        import gls_adapt.estimator
        import gls_adapt.losses
        import gls_adapt.network
        import gls_adapt.trainer
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gls_adapt from {SRC}: {exc}")
    if not Path(gls_adapt.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: gls_adapt was imported from {gls_adapt.__file__}, not {SRC}")
    return gls_adapt


def training_seed(seed: int, op: int) -> int:
    return 1000 * seed + op


def dataset_seed(seed: int, index: int) -> int:
    return 2 * (DATASETS * seed + index)  # make_shift_task also uses seed + 1


def setup(gls, workload: str, seed: int, tracer=None):
    """Build the workload's inputs and warm every code path it times."""
    if workload == "estimate":
        problems = wl.make_estimate_problems(gls, seed)
        for problem in problems:
            wl.estimate_once(gls, problem)
        return problems
    spec = TRAIN_SPECS[workload]
    make = wl.make_task if tracer is None else tracer.wrap("datagen.make_shift_task", wl.make_task)
    tasks = [make(gls, dataset_seed(seed, i)) for i in range(DATASETS)]
    # A fresh process runs its first train() about 30% slower; pay that here.
    for algorithm in spec.algorithms:
        wl.train_once(gls, spec, algorithm, *tasks[0], training_seed(seed, 0), WARMUP_EPOCHS)
    return tasks


def child_setup_seconds(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up process failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def geomean_percentile(groups, q) -> float:
    """Geometric mean over groups of each group's q-th percentile.

    adv_train mixes two algorithms with different costs; pooling them
    would put the median on the gap between the two modes.
    """
    return float(np.exp(np.mean([np.log(np.percentile(g, q)) for g in groups])))


class Tally:
    """Operations attempted and failed; prints the first failures."""

    PRINTED = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= self.PRINTED:
                print(f"FAILED {label}: {'; '.join(problems)}")


@dataclass
class TracedRun:
    ratios: list = field(default_factory=list)  # traced / untraced time of each pair
    steps: int = 0
    epochs: int = 0
    runs: int = 0
    estimates: int = 0
    failures: list = field(default_factory=list)  # run-level checks


def cycles(seconds: float):
    """Yield until ``seconds`` have passed, at least once; callers finish whole cycles."""
    deadline = time.perf_counter() + seconds
    yield
    while time.perf_counter() < deadline:
        yield


def run_training_op(gls, spec, algorithm, task, seed, tally, wrap=None, calibrate=False):
    label = f"{algorithm} seed {seed}"
    try:
        result = wl.train_once(gls, spec, algorithm, *task, seed, wrap=wrap, calibrate=calibrate)
    except Exception as exc:  # any raise is a failed operation, counted and reported
        tally.record(label, [f"raised {exc!r}"])
        return None
    tally.record(label, wl.check_training(result, spec))
    return result


def run_estimate_op(gls, problem, index, tally, estimate=wl.estimate_once):
    start = time.perf_counter()
    try:
        c, mu, w = estimate(gls, problem)
    except Exception as exc:  # any raise is a failed operation, counted and reported
        tally.record(f"problem {index}", [f"raised {exc!r}"])
        return time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    tally.record(f"problem {index}", wl.check_estimate(problem, c, mu, w))
    return seconds, w


def training_ops(spec, seed, seconds, tasks):
    """(op, algorithm, task, training seed) in whole cycles over datasets x algorithms.

    Whole cycles keep the mix of algorithms and datasets the same in every run.
    """
    op = 1
    for _ in cycles(seconds):
        for task in tasks:
            for algorithm in spec.algorithms:
                yield op, algorithm, task, training_seed(seed, op)
                op += 1


def measure_training(gls, workload, seed, seconds, tasks, tally):
    spec = TRAIN_SPECS[workload]
    results = []
    for _, algorithm, task, train_seed in training_ops(spec, seed, seconds, tasks):
        result = run_training_op(gls, spec, algorithm, task, train_seed, tally, calibrate=True)
        if result is not None:
            results.append(result)
    if not results:
        raise SystemExit("perfbench: every operation raised")
    above = [r for r in results if r.trace.records[-1].w_dist >= wl.W_DIST_CAP]
    steps = sum(r.steps for r in results)
    train_s = sum(r.seconds for r in results)
    raw = [[ms for r in results if r.algorithm == a for ms in r.epoch_ms] for a in spec.algorithms]
    scaled = {id(r): [ms * f for ms, f in zip(r.epoch_ms, r.epoch_scale)] for r in results}
    groups = [[ms for r in results if r.algorithm == a for ms in scaled[id(r)]] for a in spec.algorithms]
    rates = [[1e3 * r.steps / sum(scaled[id(r)]) for r in results if r.algorithm == a] for a in spec.algorithms]
    n_epochs = sum(map(len, groups))
    metrics = {
        "throughput_per_s": geomean_percentile(rates, 50),
        "latency_ms_p50": geomean_percentile(groups, 50),
        "latency_ms_p90": geomean_percentile(groups, 90),
    }
    lines = [
        ("steps_per_s", metrics["throughput_per_s"], "1/s", f"median of {len(results)} runs, scaled"),
        ("epoch_ms_p50", metrics["latency_ms_p50"], "ms", f"{n_epochs} epochs, scaled"),
        ("epoch_ms_p90", metrics["latency_ms_p90"], "ms", f"{n_epochs} epochs, scaled"),
        ("raw steps_per_s", steps / train_s, "1/s", f"{steps} steps in {train_s:.2f} s of train()"),
        ("raw epoch_ms_p50", geomean_percentile(raw, 50), "ms", f"{n_epochs} epochs"),
        ("raw epoch_ms_p90", geomean_percentile(raw, 90), "ms", f"{n_epochs} epochs"),
        ("acc_tgt", float(np.mean([r.trace.best_target_accuracy() for r in results])), "1",
         f"mean best target accuracy over {len(results)} runs"),
        ("w_err", float(np.mean([r.trace.records[-1].w_dist for r in results])), "1",
         f"mean final w_dist over {len(results)} runs"),
        ("runs_above_w_cap", len(above), "count", ", ".join(
            f"{r.algorithm} seed {r.seed}: {r.trace.records[-1].w_dist:.3f}" for r in above)),
    ]
    for algorithm, group in zip(spec.algorithms, groups):
        lines.append((f"epoch_ms_p50[{algorithm}]", float(np.percentile(group, 50)), "ms", f"{len(group)} epochs"))
    return metrics, lines, wl.check_weight_estimates(results, spec.algorithms)


def measure_estimate(gls, seed, seconds, problems, tally):
    latencies, scales, matched_err = [], [scaling.reference_scale()], 0.0
    for _ in cycles(seconds):
        for index, problem in enumerate(problems):  # whole cycles keep the k mix fixed
            dt, w = run_estimate_op(gls, problem, index, tally)
            latencies.append(dt)
            if w is not None and problem.w_star is not None:
                matched_err = max(matched_err, float(np.abs(w.w - problem.w_star).max()))
            if len(latencies) % ESTIMATES_PER_CALIBRATION == 0:
                scales.append(scaling.reference_scale())
    scales.append(scaling.reference_scale())
    raw = np.array(latencies) * 1e3
    ms = raw * np.repeat(scaling.bracketed(scales), ESTIMATES_PER_CALIBRATION)[: raw.size]
    metrics = {
        "throughput_per_s": 1e3 * ms.size / float(ms.sum()),
        "latency_ms_p50": float(np.percentile(ms, 50)),
        "latency_ms_p90": float(np.percentile(ms, 90)),
    }
    lines = [
        ("estimates_per_s", metrics["throughput_per_s"], "1/s", f"{ms.size} estimates, scaled"),
        ("estimate_ms_p50", metrics["latency_ms_p50"], "ms", f"{ms.size} estimates, scaled"),
        ("estimate_ms_p90", metrics["latency_ms_p90"], "ms", f"{ms.size} estimates, scaled"),
        ("raw estimates_per_s", 1e3 * raw.size / float(raw.sum()), "1/s", f"{raw.size} estimates"),
        ("raw estimate_ms_p50", float(np.percentile(raw, 50)), "ms", f"{raw.size} estimates"),
        ("raw estimate_ms_p90", float(np.percentile(raw, 90)), "ms", f"{raw.size} estimates"),
        ("w_err", matched_err, "1", "max |w - w*| over matched problems"),
    ]
    return metrics, lines, []


def traced_training(gls, workload, seed, seconds, tasks, tracer, tally) -> TracedRun:
    """Alternate untraced and traced runs of the same operation.

    The traced run's spans give the per-layer metrics; the untraced twin
    gives the tracing overhead on identical work. Traced runs of one
    algorithm must agree exactly on every count.
    """
    spec = TRAIN_SPECS[workload]
    out = TracedRun()
    counts: dict = {}
    results = []
    for op, algorithm, task, train_seed in training_ops(spec, seed, seconds, tasks):
        pair = {}
        for traced in (op % 2 == 0, op % 2 == 1):  # alternate which twin runs first
            if not traced:
                pair[traced] = run_training_op(gls, spec, algorithm, task, train_seed, tally)
                continue
            tracer.run = op
            first = len(tracer.spans)
            with tracing.instrumented(tracer, gls):
                pair[traced] = result = run_training_op(
                    gls, spec, algorithm, task, train_seed, tally, wrap=tracer.wrap
                )
            if result is None:
                continue
            out.steps += result.steps
            out.epochs += len(result.trace)
            out.runs += 1
            totals = tracing.layer_totals(tracer.spans[first:])
            exact = tuple(totals.get(key, 0) for key in tracing.COUNT_KEYS)
            if counts.setdefault(algorithm, exact) != exact:
                out.failures.append(f"{algorithm} counts {exact} != {counts[algorithm]}")
        results += [r for r in pair.values() if r is not None]
        if None not in pair.values():
            out.ratios.append(pair[True].seconds / pair[False].seconds)
    out.failures += wl.check_weight_estimates(results, spec.algorithms)
    return out


def traced_estimate(gls, seed, seconds, problems, tracer, tally) -> TracedRun:
    out = TracedRun()
    estimate = tracer.wrap("estimate", wl.estimate_once)
    for _ in cycles(seconds):
        for index, problem in enumerate(problems):
            seconds_by_twin = {}
            for traced in (index % 2 == 0, index % 2 == 1):
                if not traced:
                    seconds_by_twin[traced] = run_estimate_op(gls, problem, index, tally)[0]
                    continue
                tracer.run = out.estimates
                with tracing.instrumented(tracer, gls):
                    seconds_by_twin[traced] = run_estimate_op(gls, problem, index, tally, estimate)[0]
                out.estimates += 1
            out.ratios.append(seconds_by_twin[True] / seconds_by_twin[False])
    return out


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"python {platform.python_version()}, numpy {np.__version__}, BLAS {blas}, "
            f"{os.cpu_count()} cpus, {threads}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    gls = import_library()
    tracer = tracing.Tracer() if args.trace else None
    inputs = setup(gls, args.workload, args.seed, tracer)
    setup_s = (time.perf_counter() - START) * statistics.median(scaling.reference_scale() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"perfbench {args.workload} seed {args.seed}: {environment()}")
    tally = Tally()
    if not args.trace:
        setups = [setup_s] + [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        if args.workload == "estimate":
            metrics, lines, failures = measure_estimate(gls, args.seed, args.seconds, inputs, tally)
        else:
            metrics, lines, failures = measure_training(gls, args.workload, args.seed, args.seconds, inputs, tally)
        metrics["setup_s"] = statistics.median(setups)
        metrics["pass_frac"] = 1.0 - tally.failed / tally.attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {"setup_s": "s", "throughput_per_s": "1/s", "latency_ms_p50": "ms",
                 "latency_ms_p90": "ms", "pass_frac": "fraction", "peak_rss_mb": "MB"}
        lines = [("setup_s", metrics["setup_s"], "s", f"median of {len(setups)} set-ups, scaled")] + lines + [
            ("fail_frac", tally.failed / tally.attempted, "1", f"{tally.failed} of {tally.attempted} operations"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "this process"),
        ]
    else:
        if args.workload == "estimate":
            out = traced_estimate(gls, args.seed, args.seconds, inputs, tracer, tally)
        else:
            out = traced_training(gls, args.workload, args.seed, args.seconds, inputs, tracer, tally)
        totals = tracing.layer_totals(tracer.spans)
        metrics = tracing.per_layer_metrics(totals, out.steps, out.epochs, out.runs or out.estimates, out.estimates)
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(out.ratios) - 1.0)
        units = {name: tracing.unit(name) for name in metrics}
        lines = [(name, value, units[name], "") for name, value in metrics.items()]
        for name, want in RECORDED_COUNTS[args.workload].items():
            got = metrics[name]
            note = "matches the recorded count" if got == want else f"CHANGED from the recorded {want}"
            lines.append((f"count {name}", got, "count", note))
        failures = out.failures
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write_tsv(span_file)
        print(f"wrote {len(tracer.spans)} spans to {span_file.relative_to(ROOT)}")

    for failure in failures:
        print(f"FAILED {failure}")
    correct = tally.failed == 0 and not failures
    for name, value, unit, note in lines:
        print(f"{name:44s} {value:14.6g} {unit:6s} {note}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

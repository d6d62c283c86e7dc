"""Batch entry point: dataset generation, training runs, divergence sweeps,
standalone weight estimation and bound verification, all emitting CSV.

Options can come from a flat ``key = value`` config file; command-line
flags override file values. The environment variable ``GLS_ADAPT_SEED``
supplies the default seed. Floating-point output is printed with six
significant digits; ``--full-precision`` adds a ``.raw.csv`` sidecar with
full-precision values.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .datagen import (
    Dataset,
    _read_csv,
    jsd_task_suite,
    make_shift_task,
    read_dataset_csv,
    subsample_protocol,
    write_dataset_csv,
)
from .distributions import Categorical, empirical_label_dist, jsd
from .errors import ConfigInvalid, GlsAdaptError, ParseError
from .estimator import ConfusionAccumulator, exact_inverse_weights, solve_qp
from .trainer import TrainConfig, make_bound_hook, train

__all__ = ["main", "parse_config_file"]

_BASE_OF = {
    "iwdan": "dann",
    "iwdan_o": "dann",
    "iwcdan": "cdan",
    "iwcdan_o": "cdan",
    "iwjan": "jan",
    "iwjan_o": "jan",
}


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_floats(text) -> list[float]:
    return [float(v) for v in str(text).split(",") if v.strip()]


def _parse_ints(text) -> list[int]:
    return [int(v) for v in str(text).split(",") if v.strip()]


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` file; '#' starts a comment; keys use underscores."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _fmt(value, full: bool) -> str:
    if isinstance(value, float):
        return repr(value) if full else f"{value:.6g}"
    return str(value)


def _write_csv(path: Path, header: str, rows, full_precision: bool) -> None:
    def render(full: bool) -> str:
        lines = [header]
        for row in rows:
            lines.append(",".join(_fmt(v, full) for v in row))
        return "\n".join(lines) + "\n"

    path.write_text(render(False), encoding="ascii")
    if full_precision:
        path.with_suffix(".raw.csv").write_text(render(True), encoding="ascii")


# ---------------------------------------------------------------------------
# option plumbing: defaults -> config file -> explicit flags
# ---------------------------------------------------------------------------

# Defaults live in TrainConfig and in the signature of _make_domains.
_TRAIN_OPTS = {
    "epochs": int,
    "batches_per_epoch": int,
    "batch_size": int,
    "lr": float,
    "momentum": float,
    "ema_lambda": float,
    "weight_update_period": int,
    "weight_da_loss": _parse_bool,
    "weight_c_loss": _parse_bool,
    "feature_dim": int,
    "reversal_coeff": float,
}

_DOMAIN_OPTS = {
    "k": int,
    "dim": int,
    "n": int,
    "sigma": float,
    "radius": float,
    "source_label_dist": _parse_floats,
    "target_label_dist": _parse_floats,
}


def _add_opts(parser, opts) -> None:
    for name, typ in opts.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ, default=argparse.SUPPRESS, dest=name)


def _resolve(ns, opts) -> dict:
    """Config-file values overridden by explicit flags; unset options are left out."""
    file_values = parse_config_file(ns.config) if getattr(ns, "config", None) else {}
    out = {}
    for name, typ in opts.items():
        if hasattr(ns, name):
            out[name] = getattr(ns, name)
        elif name in file_values:
            try:
                out[name] = typ(file_values[name])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ParseError(f"{ns.config}: {name}: {exc}") from exc
    return out


def _resolve_seed(ns) -> int:
    """--seed, else the config file's seed, else $GLS_ADAPT_SEED, else 0."""
    opts = _resolve(ns, {"seed": int})
    return opts["seed"] if "seed" in opts else int(os.environ.get("GLS_ADAPT_SEED", "0"))


def _label_dist(name: str, probs, k: int):
    """Check one label-distribution option, if set; errors end with the option's name."""
    if probs is None:
        return None
    flag = "--" + name.replace("_", "-")
    try:
        dist = Categorical(np.asarray(probs, dtype=float))
    except GlsAdaptError as exc:
        raise type(exc)(f"{exc} ({flag})") from exc
    if dist.k != k:
        raise ConfigInvalid(f"label_dist length must equal k ({flag})")
    return dist.probs


def _make_domains(
    seed: int,
    subsample=None,
    conditional_shift: float = 0.0,
    k: int = 3,
    dim: int = 2,
    n: int = 3000,
    sigma: float = 0.25,
    radius: float = 1.0,
    source_label_dist=None,
    target_label_dist=None,
):
    shift = None
    if conditional_shift:
        rng = np.random.default_rng(seed + 7919)
        direction = rng.standard_normal((k, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        shift = conditional_shift * direction
    src, tgt = make_shift_task(
        k=k,
        d=dim,
        n_source=n,
        n_target=n,
        sigma=sigma,
        radius=radius,
        p_source=_label_dist("source_label_dist", source_label_dist, k),
        p_target=_label_dist("target_label_dist", target_label_dist, k),
        seed=seed,
        conditional_shift=shift,
    )
    if subsample is not None:
        src = subsample_protocol(src, subsample, seed=seed + 13)
    return src, tgt


def _load_or_make_datasets(ns, opts, seed):
    if bool(ns.source) != bool(ns.target):
        raise ConfigInvalid("--source and --target must be given together")
    if ns.source:
        src = read_dataset_csv(ns.source)
        tgt = read_dataset_csv(ns.target)
        k = max(src.k, tgt.k)
        if src.k != k:
            src = Dataset(src.features, src.labels, k)
        if tgt.k != k:
            tgt = Dataset(tgt.features, tgt.labels, k)
        return src, tgt
    return _make_domains(seed, subsample=ns.subsample, **opts)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(ns) -> int:
    opts = _resolve(ns, _DOMAIN_OPTS)
    seed = _resolve_seed(ns)
    src, tgt = _make_domains(seed, subsample=ns.subsample, conditional_shift=ns.conditional_shift, **opts)
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(src, out / "source.csv")
    write_dataset_csv(tgt, out / "target.csv")
    p_s = src.label_distribution()
    p_t = tgt.label_distribution()
    manifest = [
        f"k = {src.k}",
        f"dim = {src.dim}",
        f"n_source = {src.n}",
        f"n_target = {tgt.n}",
        f"seed = {seed}",
        "source_label_dist = " + ",".join(f"{v:.6g}" for v in p_s.probs),
        "target_label_dist = " + ",".join(f"{v:.6g}" for v in p_t.probs),
        f"jsd_label_dist = {jsd(p_s, p_t):.6g}",
    ]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="ascii")
    print(f"wrote {out / 'source.csv'}, {out / 'target.csv'}, {out / 'manifest.txt'}")
    return 0


def _trace_header_rows(trace, k):
    header = (
        "epoch,acc_src,acc_tgt,loss_da,loss_c,"
        + ",".join(f"w_{i}" for i in range(k))
        + ",w_dist,jsd_label"
    )
    rows = [
        (r.epoch, r.acc_src, r.acc_tgt, r.loss_da, r.loss_c, *map(float, r.w), r.w_dist, r.jsd_label)
        for r in trace.records
    ]
    return header, rows


def _write_bounds(path: Path, sink, full_precision: bool) -> None:
    rows = [(r.check, ep, r.lhs, r.rhs, int(r.holds), r.slack) for ep, r in sink]
    _write_csv(path, "check,epoch,lhs,rhs,holds,slack", rows, full_precision)


def cmd_train(ns) -> int:
    train_opts = _resolve(ns, _TRAIN_OPTS)
    domain_opts = _resolve(ns, _DOMAIN_OPTS)
    seed = _resolve_seed(ns)
    source, target = _load_or_make_datasets(ns, domain_opts, seed)
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    algorithms = ns.algorithms
    seeds = ns.seeds if ns.seeds else [seed]
    best: dict[tuple[str, int], tuple[float, float]] = {}
    for alg in algorithms:
        for s in seeds:
            cfg = TrainConfig(algorithm=alg, seed=s, **train_opts)
            sink: list = []
            hook = make_bound_hook(source, target, sink) if ns.bounds else None
            _, trace = train(cfg, source, target, epoch_hook=hook)
            header, rows = _trace_header_rows(trace, source.k)
            _write_csv(out / f"trace_{alg}_seed{s}.csv", header, rows, ns.full_precision)
            if ns.bounds:
                _write_bounds(out / f"bounds_{alg}_seed{s}.csv", sink, ns.full_precision)
            best[(alg, s)] = (trace.best_source_accuracy(), trace.best_target_accuracy())
    rows = []
    for alg in algorithms:
        accs = [best[(alg, s)][1] for s in seeds]
        mean_acc = float(np.mean(accs))
        base = _BASE_OF.get(alg)
        if base in algorithms:
            wins = [best[(alg, s)][1] > best[(base, s)][1] for s in seeds]
            win_fraction = float(np.mean(wins))
        else:
            win_fraction = float("nan")
        for s in seeds:
            rows.append((alg, s, best[(alg, s)][0], best[(alg, s)][1], mean_acc, win_fraction))
    _write_csv(
        out / "summary.csv",
        "algorithm,seed,best_acc_src,best_acc_tgt,mean_best_acc_tgt,win_fraction_vs_base",
        rows,
        ns.full_precision,
    )
    print(f"wrote {out / 'summary.csv'} ({len(algorithms)} algorithms x {len(seeds)} seeds)")
    return 0


def _sweep_one(payload):
    task_id, src, tgt, base_alg, variant_alg, train_opts, seed = payload
    acc = {}
    for alg in (base_alg, variant_alg):
        cfg = TrainConfig(algorithm=alg, seed=seed, **train_opts)
        _, trace = train(cfg, src, tgt)
        acc[alg] = trace.best_target_accuracy()
    jsd_label = jsd(src.label_distribution(), tgt.label_distribution())
    return task_id, jsd_label, acc[base_alg], acc[variant_alg]


def cmd_sweep_jsd(ns) -> int:
    train_opts = _resolve(ns, _TRAIN_OPTS)
    domain_opts = _resolve(ns, _DOMAIN_OPTS)
    seed = _resolve_seed(ns)
    variant = ns.algorithm
    base = _BASE_OF.get(variant)
    if base is None:
        raise GlsAdaptError(f"--algorithm must be an importance-weighted variant, got {variant!r}")
    base_src, base_tgt = _make_domains(seed, **domain_opts)
    tasks = jsd_task_suite(base_src, base_tgt, count=ns.tasks, seed=seed)
    payloads = [
        (i, t.source, t.target, base, variant, train_opts, seed) for i, t in enumerate(tasks)
    ]
    if ns.jobs > 1:
        with ProcessPoolExecutor(max_workers=ns.jobs) as pool:
            results = list(pool.map(_sweep_one, payloads))
    else:
        results = [_sweep_one(p) for p in payloads]
    results.sort(key=lambda r: r[0])
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        (task_id, j, acc_b, acc_v, acc_v - acc_b) for task_id, j, acc_b, acc_v in results
    ]
    _write_csv(
        out / "sweep.csv", "task_id,jsd,acc_base,acc_variant,gain", rows, ns.full_precision
    )
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} tasks)")
    return 0


def _read_matrix_csv(path, prefix: str) -> np.ndarray:
    def header_error(header):
        return None if all(h.startswith(prefix) for h in header) else f"expected columns named {prefix}*"

    return np.asarray(_read_csv(path, header_error, lambda parts: [float(v) for v in parts]))


def _read_labels_csv(path) -> np.ndarray:
    def header_error(header):
        return None if [h.strip() for h in header] == ["label"] else "expected header 'label'"

    return np.asarray(_read_csv(path, header_error, lambda parts: int(parts[0])))


def cmd_estimate_weights(ns) -> int:
    preds = _read_matrix_csv(ns.source_preds, "p_")
    labels = _read_labels_csv(ns.source_labels)
    tgt_preds = _read_matrix_csv(ns.target_preds, "p_")
    if preds.shape[0] != labels.shape[0]:
        raise GlsAdaptError(
            f"{preds.shape[0]} source predictions but {labels.shape[0]} labels"
        )
    k = preds.shape[1]
    acc = ConfusionAccumulator(k)
    acc.accumulate(preds, labels, tgt_preds)
    c_hat, mu_hat = acc.finalize()
    if ns.p_source:
        p_source = Categorical(_label_dist("p_source", ns.p_source, k))
    else:
        p_source = empirical_label_dist(labels, k)
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    methods = {"qp": solve_qp(c_hat, mu_hat, p_source).w}
    try:
        methods["exact_inverse"] = exact_inverse_weights(c_hat, mu_hat).w
    except GlsAdaptError:
        pass
    header = "method," + ",".join(f"w_{i}" for i in range(k))
    rows = [(name, *map(float, vec)) for name, vec in methods.items()]
    _write_csv(out / "weights.csv", header, rows, ns.full_precision)
    conf_header = ",".join(f"c_{i}_{j}" for i in range(k) for j in range(k))
    _write_csv(out / "confusion.csv", conf_header, [tuple(map(float, c_hat.ravel()))], ns.full_precision)
    print(f"wrote {out / 'weights.csv'} and {out / 'confusion.csv'}")
    return 0


def cmd_verify_bounds(ns) -> int:
    train_opts = _resolve(ns, _TRAIN_OPTS)
    domain_opts = _resolve(ns, _DOMAIN_OPTS)
    seed = _resolve_seed(ns)
    source, target = _load_or_make_datasets(ns, domain_opts, seed)
    cfg = TrainConfig(algorithm=ns.algorithm, seed=seed, **train_opts)
    sink: list = []
    _, trace = train(cfg, source, target, epoch_hook=make_bound_hook(source, target, sink))
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_bounds(out / "bounds.csv", sink, ns.full_precision)
    header, trace_rows = _trace_header_rows(trace, source.k)
    _write_csv(out / "trace.csv", header, trace_rows, ns.full_precision)
    n_fail = sum(1 for _, r in sink if not r.holds)
    print(f"wrote {out / 'bounds.csv'}: {len(sink)} checks, {n_fail} violations")
    return 1 if n_fail else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gls-adapt",
        description="importance-weighted domain adaptation experiments on synthetic domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key = value options file")
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        p.add_argument("--out", default="out")
        p.add_argument("--full-precision", action="store_true", dest="full_precision")

    p_gen = sub.add_parser("generate", help="write a synthetic source/target pair")
    common(p_gen)
    _add_opts(p_gen, _DOMAIN_OPTS)
    p_gen.add_argument("--subsample", type=float, default=None)
    p_gen.add_argument("--conditional-shift", type=float, default=0.0, dest="conditional_shift")
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train one or more algorithms over seeds")
    common(p_train)
    _add_opts(p_train, _TRAIN_OPTS)
    _add_opts(p_train, _DOMAIN_OPTS)
    p_train.add_argument("--source", default=None)
    p_train.add_argument("--target", default=None)
    p_train.add_argument("--subsample", type=float, default=None)
    p_train.add_argument("--algorithms", type=lambda t: str(t).split(","), default=["iwdan"])
    p_train.add_argument("--seeds", type=_parse_ints, default=None)
    p_train.add_argument("--bounds", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep-jsd", help="gain vs label-divergence scatter")
    common(p_sweep)
    _add_opts(p_sweep, _TRAIN_OPTS)
    _add_opts(p_sweep, _DOMAIN_OPTS)
    p_sweep.add_argument("--algorithm", default="iwdan")
    p_sweep.add_argument("--tasks", type=int, default=20)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep_jsd)

    p_est = sub.add_parser("estimate-weights", help="estimate ratios from prediction files")
    common(p_est)
    p_est.add_argument("--source-preds", required=True, dest="source_preds")
    p_est.add_argument("--source-labels", required=True, dest="source_labels")
    p_est.add_argument("--target-preds", required=True, dest="target_preds")
    p_est.add_argument("--p-source", type=_parse_floats, default=None, dest="p_source")
    p_est.set_defaults(func=cmd_estimate_weights)

    p_ver = sub.add_parser("verify-bounds", help="train once and log every bound check")
    common(p_ver)
    _add_opts(p_ver, _TRAIN_OPTS)
    _add_opts(p_ver, _DOMAIN_OPTS)
    p_ver.add_argument("--source", default=None)
    p_ver.add_argument("--target", default=None)
    p_ver.add_argument("--subsample", type=float, default=None)
    p_ver.add_argument("--algorithm", default="iwdan")
    p_ver.set_defaults(func=cmd_verify_bounds)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GlsAdaptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Batch entry point: dataset generation, training runs with optional
per-epoch bound checks, divergence sweeps and standalone weight
estimation, all emitting CSV.

Options can come from a flat ``key = value`` config file; command-line
flags override file values, and a file key that names no option of the
command is an error. The environment variable ``GLS_ADAPT_SEED``
supplies the default seed. Floating-point output is printed with six
significant digits; ``--full-precision`` adds a ``.raw.csv`` sidecar with
full-precision values.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .datagen import (
    Dataset,
    _read_csv,
    _write_csv,
    jsd_task_suite,
    make_shift_task,
    read_dataset_csv,
    subsample_protocol,
    write_dataset_csv,
)
from .distributions import Categorical, empirical_label_dist, jsd
from .errors import ConfigInvalid, GlsAdaptError, NonFiniteValue, ParseError, ShapeMismatch
from .estimator import ConfusionAccumulator, exact_inverse_weights, solve_qp
from .trainer import ALGORITHMS, TrainConfig, train_many

__all__ = ["main", "parse_config_file"]

# each importance-weighted variant -> the base algorithm it is compared with
_BASE_OF = {name: base for name, (base, weighting) in ALGORITHMS.items() if weighting != "ones"}


def _parse_bool(text) -> bool:
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _out_dir(text) -> Path:
    # the writer makes the directory; a file in its place is refused before any run
    if Path(text).exists() and not Path(text).is_dir():
        raise argparse.ArgumentTypeError(f"{text} exists and is not a directory")
    return Path(text)


def _parse_list(convert):
    """An option type for comma-separated entries: each is stripped and converted, and empty ones are dropped."""

    def parse(text) -> list:
        return [convert(v.strip()) for v in str(text).split(",") if v.strip()]

    parse.__name__ = f"{convert.__name__} list"  # argparse names it: "invalid int list value: 'x'"
    return parse


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


def _write_table(path: Path, header: str, rows, full_precision: bool) -> None:
    """The 6-digit CSV and, with ``full_precision``, its full-precision ``.raw.csv`` sidecar."""
    _write_csv(path, header, rows, full=False)
    if full_precision:
        _write_csv(path.with_suffix(".raw.csv"), header, rows, full=True)


# ---------------------------------------------------------------------------
# option plumbing: defaults -> config file -> explicit flags
# ---------------------------------------------------------------------------

# The train options are TrainConfig's numeric and boolean fields other than
# seed, so a new field gets its flag and config key. Defaults live in
# TrainConfig, in make_shift_task and in the signature of _make_domains.
_PARSERS = {"int": int, "float": float, "bool": _parse_bool}
_TRAIN_OPTS = {
    f.name: _PARSERS[f.type] for f in fields(TrainConfig) if f.type in _PARSERS and f.name != "seed"
}

_DOMAIN_OPTS = {
    "k": int,
    "dim": int,
    "n": int,
    "sigma": float,
    "radius": float,
    "source_label_dist": _parse_list(float),
    "target_label_dist": _parse_list(float),
}


def _resolve(ns) -> tuple[dict, dict, int | None]:
    """The command's train options, domain options and seed, from one read of the config file.

    A flag overrides the file, and an option that neither sets is left out,
    so it takes its default; the seed's is $GLS_ADAPT_SEED, else 0, and a
    seed from any of the three must be a non-negative integer. A command
    without a seed option gets None and reads no $GLS_ADAPT_SEED. A file
    key that names no option of the command is an error, and so is a domain
    option or --subsample given with the --source/--target dataset files.
    """
    file_values = parse_config_file(ns.config) if ns.config else {}
    unknown = next((key for key in file_values if not any(key in table for table in ns.tables)), None)
    if unknown is not None:
        raise ConfigInvalid(f"{ns.config}: {unknown}: not an option of {ns.command}")
    resolved = []
    for table in ns.tables:
        opts = {}
        for name, typ in table.items():
            if hasattr(ns, name):
                opts[name] = getattr(ns, name)
            elif name in file_values:
                try:
                    opts[name] = typ(file_values[name])
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ParseError(f"{ns.config}: {name}: {exc}") from exc
        resolved.append(opts)
    train_opts, domain_opts, seed_opt = resolved
    if getattr(ns, "source", None) or getattr(ns, "target", None):
        if not (ns.source and ns.target):
            raise ConfigInvalid("--source and --target must be given together")
        given = [*domain_opts] + (["subsample"] if ns.subsample is not None else [])
        if given:
            name = given[0]
            where = f"--{name.replace('_', '-')}" if hasattr(ns, name) else f"{ns.config}: {name}:"
            raise ConfigInvalid(f"{where} does not combine with --source and --target")
    if not ns.tables[2]:
        return train_opts, domain_opts, None
    where, seed = "GLS_ADAPT_SEED", os.environ.get("GLS_ADAPT_SEED", "0")
    if seed_opt:
        where, seed = ("--seed" if hasattr(ns, "seed") else f"{ns.config}: seed"), seed_opt["seed"]
    try:
        if int(seed) >= 0:
            return train_opts, domain_opts, int(seed)
    except ValueError:
        pass
    raise ConfigInvalid(f"{where}: expected a non-negative integer, got {seed!r}")


def _label_dist(name: str, probs, k: int):
    """Check one label-distribution option, if set; errors end with the option's name."""
    if probs is None:
        return None
    flag = "--" + name.replace("_", "-")
    try:
        with np.errstate(over="ignore"):  # an overflowing sum is reported by the error alone
            dist = Categorical(np.asarray(probs, dtype=float))
    except GlsAdaptError as exc:
        raise type(exc)(f"{exc} ({flag})") from exc
    if dist.k != k:
        raise ConfigInvalid(f"label_dist length must equal k ({flag})")
    return dist.probs


def _make_domains(
    seed: int, subsample=None, k: int = 3, dim: int = 2, n: int = 3000,
    source_label_dist=None, target_label_dist=None, **shape,
):
    """make_shift_task's pair, ``dim`` as its d and ``n`` as both sizes; ``shape`` passes through."""
    src, tgt = make_shift_task(
        k=k,
        d=dim,
        n_source=n,
        n_target=n,
        p_source=_label_dist("source_label_dist", source_label_dist, k),
        p_target=_label_dist("target_label_dist", target_label_dist, k),
        seed=seed,
        **shape,
    )
    if subsample is not None:
        src = subsample_protocol(src, subsample, seed=seed + 13)
    return src, tgt


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(ns) -> int:
    _, opts, seed = _resolve(ns)
    src, tgt = _make_domains(seed, subsample=ns.subsample, conditional_shift=ns.conditional_shift, **opts)
    write_dataset_csv(src, ns.out / "source.csv")
    write_dataset_csv(tgt, ns.out / "target.csv")
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
    (ns.out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="ascii")
    print(f"wrote {ns.out / 'source.csv'}, {ns.out / 'target.csv'}, {ns.out / 'manifest.txt'}")
    return 0


def _write_run(out: Path, run: str, trace, k: int, reports, full_precision: bool) -> None:
    """Write trace_{run}.csv and, unless ``reports`` is None, the run's checks to bounds_{run}.csv."""
    w_cols = ",".join(f"w_{i}" for i in range(k))
    header = f"epoch,acc_src,acc_tgt,loss_da,loss_c,{w_cols},w_dist,jsd_label"
    rows = [
        (r.epoch, r.acc_src, r.acc_tgt, r.loss_da, r.loss_c, *map(float, r.w), r.w_dist, r.jsd_label)
        for r in trace.records
    ]
    _write_table(out / f"trace_{run}.csv", header, rows, full_precision)
    if reports is not None:
        rows = [(r.check, ep, r.lhs, r.rhs, int(r.holds), r.slack) for ep, r in reports]
        _write_table(out / f"bounds_{run}.csv", "check,epoch,lhs,rhs,holds,slack", rows, full_precision)


def cmd_train(ns) -> int:
    train_opts, domain_opts, seed = _resolve(ns)
    algorithms = ns.algorithms
    seeds = [seed] if ns.seeds is None else ns.seeds
    for flag, what, values in (("--algorithms", "algorithm", algorithms), ("--seeds", "seed", seeds)):
        if not values:
            raise ConfigInvalid(f"{flag} lists no {what}")
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ConfigInvalid(f"{flag} lists {repeated} more than once")
    # every run's config is checked before the first one trains
    configs = {
        (alg, s): TrainConfig(algorithm=alg, seed=s, **train_opts)
        for alg in algorithms
        for s in seeds
    }
    if ns.source:  # _resolve has checked that --target comes with it
        src, tgt = read_dataset_csv(ns.source), read_dataset_csv(ns.target)
        k = max(src.k, tgt.k)  # a class missing from one file is still a class of the pair
        source, target = Dataset(src.features, src.labels, k), Dataset(tgt.features, tgt.labels, k)
    else:
        source, target = _make_domains(seed, subsample=ns.subsample, **domain_opts)
    best, reports = {}, []
    for (alg, s), cfg in configs.items():  # one run per call, so each run's files are written when it ends
        [(trace, run)] = train_many([(cfg, source, target)], bounds=ns.bounds)
        _write_run(ns.out, f"{alg}_seed{s}", trace, source.k, run if ns.bounds else None, ns.full_precision)
        reports += run
        best[(alg, s)] = (max(r.acc_src for r in trace.records), trace.best_target_accuracy())
    rows = []
    for alg in algorithms:
        mean_acc = float(np.mean([best[(alg, s)][1] for s in seeds]))
        base = _BASE_OF.get(alg)
        win_fraction = float("nan")
        if base in algorithms:
            win_fraction = float(np.mean([best[(alg, s)][1] > best[(base, s)][1] for s in seeds]))
        for s in seeds:
            rows.append((alg, s, best[(alg, s)][0], best[(alg, s)][1], mean_acc, win_fraction))
    header = "algorithm,seed,best_acc_src,best_acc_tgt,mean_best_acc_tgt,win_fraction_vs_base"
    _write_table(ns.out / "summary.csv", header, rows, ns.full_precision)
    print(f"wrote {ns.out / 'summary.csv'} ({len(algorithms)} algorithms x {len(seeds)} seeds)")
    if not ns.bounds:
        return 0
    n_fail = sum(1 for _, r in reports if not r.holds)
    print(f"wrote {ns.out / 'bounds_*.csv'} ({len(configs)} runs): {len(reports)} checks, {n_fail} violations")
    return 1 if n_fail else 0


def cmd_sweep_jsd(ns) -> int:
    train_opts, domain_opts, seed = _resolve(ns)
    if ns.jobs < 1:
        raise ConfigInvalid(f"--jobs must be >= 1, got {ns.jobs}")
    if ns.tasks < 1:
        raise ConfigInvalid(f"--tasks must be >= 1, got {ns.tasks}")
    variant = ns.algorithm
    base = _BASE_OF.get(variant)
    if base is None:
        raise ConfigInvalid(f"--algorithm must be an importance-weighted variant, got {variant!r}")
    configs = [TrainConfig(algorithm=alg, seed=seed, **train_opts) for alg in (base, variant)]
    base_src, base_tgt = _make_domains(seed, **domain_opts)
    tasks = jsd_task_suite(base_src, base_tgt, count=ns.tasks, seed=seed)
    runs = [(cfg, src, tgt) for src, tgt in tasks for cfg in configs]
    traces = [trace for trace, _ in train_many(runs, jobs=ns.jobs)]
    rows = []
    for i, (t_base, t_var) in enumerate(zip(traces[::2], traces[1::2])):  # each task's base run, then its variant's
        acc_b, acc_v = t_base.best_target_accuracy(), t_var.best_target_accuracy()
        rows.append((i, t_base.records[0].jsd_label, acc_b, acc_v, acc_v - acc_b))
    _write_table(ns.out / "sweep.csv", "task_id,jsd,acc_base,acc_variant,gain", rows, ns.full_precision)
    print(f"wrote {ns.out / 'sweep.csv'} ({len(rows)} tasks)")
    return 0


def _read_matrix_csv(path, prefix: str) -> np.ndarray:
    def header_error(header):
        return None if all(h.startswith(prefix) for h in header) else f"expected columns named {prefix}*"

    def row(parts):
        values = [float(v) for v in parts]
        if not all(map(math.isfinite, values)):
            raise ValueError("values contain non-finite entries")
        return values

    return np.asarray(_read_csv(path, header_error, row))


def _read_labels_csv(path) -> np.ndarray:
    def header_error(header):
        return None if [h.strip() for h in header] == ["label"] else "expected header 'label'"

    return np.asarray(_read_csv(path, header_error, lambda parts: int(parts[0])))


def cmd_estimate_weights(ns) -> int:
    _resolve(ns)  # reads no option; rejects a missing or malformed config file and any key
    preds = _read_matrix_csv(ns.source_preds, "p_")
    labels = _read_labels_csv(ns.source_labels)
    tgt_preds = _read_matrix_csv(ns.target_preds, "p_")
    if preds.shape[0] != labels.shape[0]:
        raise ShapeMismatch(f"{preds.shape[0]} source predictions but {labels.shape[0]} labels")
    k = preds.shape[1]
    acc = ConfusionAccumulator(k)
    acc.accumulate(preds, labels, tgt_preds)
    c_hat, mu_hat = acc.finalize()
    if ns.p_source:
        p_source = Categorical(_label_dist("p_source", ns.p_source, k))
    else:
        p_source = empirical_label_dist(labels, k)
    methods = {"qp": solve_qp(c_hat, mu_hat, p_source).w}
    try:
        methods["exact_inverse"] = exact_inverse_weights(c_hat, mu_hat).w
    except NonFiniteValue:  # C is too ill-conditioned to invert
        pass
    header = "method," + ",".join(f"w_{i}" for i in range(k))
    rows = [(name, *map(float, vec)) for name, vec in methods.items()]
    _write_table(ns.out / "weights.csv", header, rows, ns.full_precision)
    conf_header = ",".join(f"c_{i}_{j}" for i in range(k) for j in range(k))
    _write_table(ns.out / "confusion.csv", conf_header, [tuple(map(float, c_hat.ravel()))], ns.full_precision)
    print(f"wrote {ns.out / 'weights.csv'} and {ns.out / 'confusion.csv'}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints it as one error line, not a usage dump
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gls-adapt",
        description="importance-weighted domain adaptation experiments on synthetic domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, train=False, domain=True, seed=True, subsample=False):
        """A subcommand with the flags every command has and the options that _resolve reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", default=None, help="flat key = value options file")
        p.add_argument("--out", type=_out_dir, default="out")
        p.add_argument("--full-precision", action="store_true", dest="full_precision")
        tables = (
            _TRAIN_OPTS if train else {}, _DOMAIN_OPTS if domain else {}, {"seed": int} if seed else {}
        )
        for opt, typ in (tables[0] | tables[1] | tables[2]).items():
            p.add_argument(f"--{opt.replace('_', '-')}", type=typ, default=argparse.SUPPRESS, dest=opt)
        if subsample:
            p.add_argument("--subsample", type=float, default=None)
        p.set_defaults(func=func, tables=tables)
        return p

    p_gen = command("generate", cmd_generate, "write a synthetic source/target pair", subsample=True)
    p_gen.add_argument("--conditional-shift", type=float, default=0.0, dest="conditional_shift")

    p_train = command("train", cmd_train, "train one or more algorithms over seeds", train=True, subsample=True)
    p_train.add_argument("--source", default=None)
    p_train.add_argument("--target", default=None)
    p_train.add_argument("--algorithms", type=_parse_list(str), default=["iwdan"])
    p_train.add_argument("--seeds", type=_parse_list(int), default=None)
    p_train.add_argument("--bounds", action="store_true")

    p_sweep = command("sweep-jsd", cmd_sweep_jsd, "gain vs label-divergence scatter", train=True)
    p_sweep.add_argument("--algorithm", default="iwdan")
    p_sweep.add_argument("--tasks", type=int, default=20)
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_est = command(
        "estimate-weights", cmd_estimate_weights, "estimate ratios from prediction files",
        domain=False, seed=False,
    )
    p_est.add_argument("--source-preds", required=True, dest="source_preds")
    p_est.add_argument("--source-labels", required=True, dest="source_labels")
    p_est.add_argument("--target-preds", required=True, dest="target_preds")
    p_est.add_argument("--p-source", type=_parse_list(float), default=None, dest="p_source")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (GlsAdaptError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Synthetic domain construction with controllable label shift.

Domains are Gaussian class-conditional clouds. With zero conditional
shift the source and target share D(X | Y = y) exactly, so any label
distribution pair realizes label shift by construction; the optional
per-class target offset deliberately breaks it. The module also reads and
writes the package's CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import Categorical, check_labels, empirical_label_dist, jsd
from .errors import ConfigInvalid, InvalidValue, ParseError

__all__ = [
    "Dataset",
    "make_shift_task",
    "subsample_protocol",
    "jsd_task_suite",
    "write_dataset_csv",
    "read_dataset_csv",
]

JSD_ENVELOPE = (0.004, 0.095)  # label-divergence range the task ladder spans


@dataclass(frozen=True)
class Dataset:
    """A labeled feature matrix for one domain.

    Target labels stay out of the training losses; they exist for
    diagnostics and oracle weighting only.
    """

    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ConfigInvalid(f"features must be (n >= 1, d), got {feats.shape}")
        labels = check_labels(self.labels, self.k, "labels").astype(int)
        if labels.size != feats.shape[0]:
            raise ConfigInvalid("labels must be one per feature row")
        if not np.all(np.isfinite(feats)):
            raise ConfigInvalid("features contain non-finite values")
        feats = feats.copy()
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def label_distribution(self) -> Categorical:
        return empirical_label_dist(self.labels, self.k)


def _exact_class_counts(probs: np.ndarray, n: int) -> np.ndarray:
    raw = probs * n
    counts = np.floor(raw).astype(int)
    remainder = n - counts.sum()
    order = np.argsort(-(raw - counts))
    counts[order[:remainder]] += 1
    return counts


def make_shift_task(
    k: int = 3,
    d: int = 2,
    n_source: int = 3000,
    n_target: int = 3000,
    sigma: float = 0.25,
    radius: float = 1.0,
    p_source=None,
    p_target=None,
    seed: int = 0,
    conditional_shift: float = 0.0,
    exact_counts: bool = False,
) -> tuple[Dataset, Dataset]:
    """Build a source/target pair sharing class-conditional clouds.

    The k class means sit evenly on a circle of ``radius`` in the first two
    coordinates. Each domain samples its labels from its label
    distribution (uniform when None), then features from
    N(mean_y, sigma^2 I); the source draws from ``seed``, the target from
    ``seed + 1``. A nonzero ``conditional_shift`` moves every target class
    by that distance along a per-class unit direction drawn from
    ``seed + 7919``, which breaks label shift on purpose.

    ``exact_counts`` draws class sizes by largest-remainder rounding of
    n * label_dist instead of i.i.d. sampling, so the realized label
    distribution matches the requested one exactly.
    """
    for name, value in (("sigma", sigma), ("radius", radius), ("conditional_shift", conditional_shift)):
        if not math.isfinite(value):
            raise ConfigInvalid(f"{name} must be finite, got {value!r}")
    if k < 2 or d < 1:
        raise ConfigInvalid("need k >= 2 and d >= 1")
    if sigma < 0:
        raise ConfigInvalid("covariance scale must be nonnegative")
    if n_source < 1 or n_target < 1:
        raise ConfigInvalid("n must be at least 1")
    dists = [Categorical(np.full(k, 1.0 / k) if p is None else p) for p in (p_source, p_target)]
    if any(dist.k != k for dist in dists):
        raise ConfigInvalid("label_dist length must equal k")
    means = np.zeros((k, d))
    angles = 2.0 * np.pi * np.arange(k) / k
    means[:, 0] = radius * np.cos(angles)
    if d > 1:
        means[:, 1] = radius * np.sin(angles)
    shifts = [np.zeros((k, d)), np.zeros((k, d))]
    if conditional_shift:
        direction = np.random.default_rng(seed + 7919).standard_normal((k, d))
        shifts[1] = conditional_shift * (direction / np.linalg.norm(direction, axis=1, keepdims=True))
    domains = []
    for dist, n, domain_seed, shift in zip(dists, (n_source, n_target), (seed, seed + 1), shifts):
        rng = np.random.default_rng(domain_seed)
        if exact_counts:
            labels = np.repeat(np.arange(k), _exact_class_counts(dist.probs, n))
            rng.shuffle(labels)
        else:
            labels = rng.choice(k, size=n, p=dist.probs)
        with np.errstate(over="ignore"):  # an overflow raises below, naming its cause
            noise = rng.standard_normal((n, d)) * sigma
            features = means[labels] + shift[labels] + noise
        if not np.isfinite(features).all():
            # a sum of three terms overflows only if one reaches a third of the largest float
            terms = {"sigma": (sigma, noise), "radius": (radius, means[labels]),
                     "conditional_shift": (conditional_shift, shift[labels])}
            causes = [f"{name}={value!r}" for name, (value, term) in terms.items()
                      if np.abs(term).max() >= np.finfo(float).max / 3]
            raise ConfigInvalid(f"features overflow float64; reduce {' and '.join(causes)}")
        domains.append(Dataset(features=features, labels=labels, k=k))
    return tuple(domains)


def _keep_rows(data: Dataset, sizes, rng) -> Dataset:
    """``sizes[y]`` rows of class y, drawn without replacement, or all where the size is None; row order is kept."""
    keep = []
    for y, size in enumerate(sizes):
        idx = np.flatnonzero(data.labels == y)
        keep.append(idx if size is None else rng.choice(idx, size=size, replace=False))
    order = np.sort(np.concatenate(keep))
    return Dataset(data.features[order], data.labels[order], data.k)


def subsample_protocol(data: Dataset, fraction: float, seed: int = 0) -> Dataset:
    """Keep only ``fraction`` of the samples in the first half of the classes.

    Classes 0 .. ceil(k/2)-1 keep floor(fraction * n_y) uniformly chosen
    samples each; the remaining classes are untouched.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigInvalid(f"fraction must lie in (0, 1], got {fraction!r}")
    counts = np.bincount(data.labels, minlength=data.k)
    sizes = [int(np.floor(fraction * n)) if y < (data.k + 1) // 2 else None for y, n in enumerate(counts)]
    if 0 in sizes:
        y = sizes.index(0)
        raise InvalidValue(f"class {y} would keep 0 of {counts[y]} samples")
    return _keep_rows(data, sizes, np.random.default_rng(seed))


def jsd_task_suite(
    base_source: Dataset,
    base_target: Dataset,
    count: int,
    seed: int = 0,
) -> list[tuple[Dataset, Dataset]]:
    """Generate (source, target) adaptation tasks with an approximately
    uniform spread of label-distribution divergences.

    Per-class keep fractions are drawn in [0.1, 1]^k; half of the tasks
    subsample the source, half the target, and the other side is the base
    dataset itself. A large candidate pool is scored by the divergence its
    keep vector would induce, and one candidate is selected per rung of an
    evenly spaced divergence ladder inside ``JSD_ENVELOPE`` (automatic
    replacement for hand rejection). Class y of the subsampled side keeps
    round(keep_y * n_y) of its n_y rows, at least one and at most all.
    """
    if count < 1:
        raise InvalidValue(f"count must be >= 1, got {count}")
    if base_source.k != base_target.k:
        raise ConfigInvalid("base domains disagree on the class count")
    k = base_source.k
    rng = np.random.default_rng(seed)
    n_src_tasks = (count + 1) // 2

    pool = max(80, 30 * count)
    exponents = rng.uniform(0.4, 5.0, size=pool)
    raw = rng.uniform(0.0, 1.0, size=(pool, k))
    keeps = 0.1 + 0.9 * raw ** exponents[:, None]

    tasks = []
    for side, n_side in (("source", n_src_tasks), ("target", count - n_src_tasks)):
        if n_side == 0:
            continue
        base = base_source if side == "source" else base_target
        other = (base_target if side == "source" else base_source).label_distribution()
        counts = np.bincount(base.labels, minlength=k).astype(float)
        cand_jsd = np.empty(pool)
        for i in range(pool):
            cand_jsd[i] = jsd(Categorical.normalize(counts * keeps[i]), other)
        lo = max(JSD_ENVELOPE[0], float(cand_jsd.min()))
        hi = min(JSD_ENVELOPE[1], float(cand_jsd.max()))
        ladder = np.linspace(lo, hi, n_side) if n_side > 1 else np.array([(lo + hi) / 2])
        used: set[int] = set()
        for target_jsd in ladder:
            order = np.argsort(np.abs(cand_jsd - target_jsd))
            pick = next(int(i) for i in order if int(i) not in used)
            used.add(pick)
            sizes = [min(max(1, int(round(keep * n))), int(n)) for keep, n in zip(keeps[pick], counts)]
            sub = _keep_rows(base, sizes, rng)
            tasks.append((sub, base_target) if side == "source" else (base_source, sub))
    return tasks


def write_dataset_csv(data: Dataset, path) -> None:
    """CSV with header feature_0,...,feature_{d-1},label; the file's directory is created."""
    header = ",".join(f"feature_{j}" for j in range(data.dim)) + ",label"
    rows = ((*map(float, row), int(lab)) for row, lab in zip(data.features, data.labels))
    _write_csv(path, header, rows, full=True)


def _fmt(value, full: bool) -> str:
    if isinstance(value, float):
        return repr(value) if full else f"{value:.6g}"
    return str(value)


def _write_csv(path, header: str, rows, full: bool) -> None:
    """Write ``header`` and one line per row, creating the file's directory.

    Floats are written with ``repr`` when ``full``, else with 6 significant
    digits; every other value with ``str``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header, *(",".join(_fmt(v, full) for v in row) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _read_csv(path, header_error, convert) -> list:
    """Rows of a headed CSV file, each converted by ``convert(fields)``.

    ``header_error(fields)`` returns None for a good header, else the
    complaint. Blank lines are skipped; every row must have as many
    fields as the header. Parse failures raise :class:`ParseError` naming
    the line.
    """
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    complaint = header_error(header)
    if complaint is not None:
        raise ParseError(f"{path}: line 1: {complaint}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ParseError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(parts)}")
        try:
            rows.append(convert(parts))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows


def read_dataset_csv(path) -> Dataset:
    """Read a dataset written by :func:`write_dataset_csv`; k = max(label) + 1.

    Parse failures, non-finite features and negative labels name the line.
    """

    def header_error(header):
        if header[-1] != "label" or not all(h.startswith("feature_") for h in header[:-1]):
            return f"bad header {','.join(header)!r}"
        return None

    def row(parts):
        feats = [float(v) for v in parts[:-1]]
        label = int(parts[-1])
        if not all(map(math.isfinite, feats)):
            raise ValueError("features contain non-finite values")
        if label < 0:
            raise ValueError(f"label {label} is negative")
        return feats, label

    rows = _read_csv(path, header_error, row)
    labels = np.asarray([label for _, label in rows])
    return Dataset(np.asarray([feats for feats, _ in rows]), labels, k=int(labels.max()) + 1)

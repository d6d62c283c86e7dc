"""Named mutants of ``src/``, and the check that the suite kills each one.

A mutant is one exact edit: in ``file`` (relative to ``src/gls_adapt``),
replace ``old``, which must occur there exactly once, with ``new``. For
each mutant this script copies ``src/``, ``tests/`` and ``pyproject.toml``
into a temporary directory, applies the edit there and runs the mutant's
test files. A mutant that no test fails survives: the suite cannot see
the fault it plants. Before any mutant runs, every test file set must
pass on the unmutated copy.

Run from the repository root::

    python tests/mutants.py [NAME ...]

It prints, per mutant, the tests that killed it, or ``SURVIVED``, and
exits with 1 if any mutant survived or any edit did not apply. A change
that removes or rewrites a mutant's ``old`` text retires or re-aims the
mutant here; ``tests/test_mutants.py`` fails until it does.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gls_adapt"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = [
    Mutant(
        "reversal-sign-flipped",
        "network.py",
        "dz = dz_cls - reversal * dz",
        "dz = dz_cls + reversal * dz",
        ("tests/test_network.py",),
    ),
    Mutant(
        "cdan-chain-dropped",
        "network.py",
        "dz += dz_chain",
        "dz += 0.0",
        ("tests/test_network.py",),
    ),
    Mutant(
        "d-fed-z-not-outer-product",
        "network.py",
        "outer_map(p, z)",
        "outer_map(np.ones_like(p), z)",
        ("tests/test_network.py",),
    ),
    Mutant(
        "classification-gradient-dropped-without-alignment",
        "network.py",
        "dz = dz_cls\n",
        "dz = np.zeros_like(dz_cls)\n",
        ("tests/test_network.py",),
    ),
    Mutant(
        "mmd-cross-term-halved",
        "losses.py",
        "-w_a, -w_b]",
        "-0.5 * w_a, -0.5 * w_b]",
        ("tests/test_losses.py",),
    ),
    Mutant(
        "mmd-source-weights-dropped-from-gradient",
        "losses.py",
        "(2.0 / m) * coef * slope",
        "(2.0 / m) * np.sign(coef) * slope",
        ("tests/test_losses.py",),
    ),
    Mutant(
        "mmd-bandwidth-coefficient-dropped",
        "losses.py",
        "np.add.reduce(k_bw / bw, axis=0)",
        "np.add.reduce(k_bw, axis=0)",
        ("tests/test_losses.py",),
    ),
    Mutant(
        "mmd-second-pair-member-sign-flipped",
        "losses.py",
        "np.subtract(grad[3], grad[0], out=g_src[1::2])",
        "np.add(grad[3], grad[0], out=g_src[1::2])",
        ("tests/test_losses.py",),
    ),
    Mutant(
        "mmd-bandwidth-finiteness-check-dropped",
        "losses.py",
        "math.isfinite(bw) and bw > 0.0",
        "bw > 0.0",
        ("tests/test_losses.py",),
    ),
    Mutant(
        "label-count-check-one-sided",
        "losses.py",
        "if arr.size != rows:",
        "if arr.size > rows:",
        ("tests/test_losses.py",),
    ),
    Mutant(
        "median-nan-check-dropped",
        "losses.py",
        "math.nan if math.isnan(part[-1]) else ",
        "",
        ("tests/test_losses.py",),
    ),
    Mutant(
        "classification-gradient-buffer-not-cleared",
        "losses.py",
        "grad.fill(0.0)",
        "pass",
        ("tests/test_losses.py",),
    ),
    Mutant(
        "step-guard-skips-the-predictions",
        "trainer.py",
        "if not np.isfinite(preds).all():",
        "if False:",
        ("tests/test_trainer.py",),
    ),
    Mutant(
        "saturation-bound-raised-tenfold",
        "trainer.py",
        "SATURATED_LOGIT = -math.log(losses.LOG_EPS)",
        "SATURATED_LOGIT = -10.0 * math.log(losses.LOG_EPS)",
        ("tests/test_trainer.py",),
    ),
    Mutant(
        "softplus-sign-flipped",
        "losses.py",
        "sp_neg = np.logaddexp(0.0, -a)",
        "sp_neg = np.logaddexp(0.0, a)",
        ("tests/test_losses.py", "tests/test_acceptance.py"),
    ),
    Mutant(
        "softmax-column-sum-threshold-moved",
        "network.py",
        "if a.shape[1] >= 8:",
        "if a.shape[1] >= 9:",
        ("tests/test_network.py",),
    ),
    Mutant(
        "row-negativity-check-dropped",
        "distributions.py",
        "if np.minimum.reduce(arr, axis=None) < -ROW_TOL:",
        "if False:",
        ("tests/test_distributions.py", "tests/test_estimator.py"),
    ),
    Mutant(
        "row-sum-errstate-dropped",
        "distributions.py",
        'with np.errstate(over="ignore", invalid="ignore"):',
        "if True:",
        ("tests/test_distributions.py", "tests/test_estimator.py"),
    ),
    Mutant(
        "categorical-fast-path-accepts-plus-inf",
        "distributions.py",
        "float(np.add.reduce(arr))",
        "float(np.add.reduce(arr[np.isfinite(arr)]))",
        ("tests/test_distributions.py",),
    ),
    Mutant(
        "qp-all-free-shortcut-skips-the-certificate",
        "estimator.py",
        "            if nf == k:\n                break",
        "            if nf == k:\n                return WeightVector(w)",
        ("tests/test_estimator.py",),
    ),
    Mutant(
        "qp-dual-sign-check-dropped",
        "estimator.py",
        "            if not viol.any():\n                break",
        "            break",
        ("tests/test_estimator.py",),
    ),
    Mutant(
        "qp-certificate-dual-sign-dropped",
        "estimator.py",
        " -np.minimum.reduce(lagr, where=~free, initial=0.0),",
        "",
        ("tests/test_estimator.py",),
    ),
    Mutant(
        "qp-flat-direction-branch-dropped",
        "estimator.py",
        "if rank <= nf and np.abs(step).max() >",
        "if False and np.abs(step).max() >",
        ("tests/test_estimator.py",),
    ),
    Mutant(
        "evaluate-writes-a-fresh-feature-buffer",
        "trainer.py",
        "features_out[start:stop] = z",
        "np.empty_like(features_out)[start:stop] = z",
        ("tests/test_trainer.py",),
    ),
    Mutant(
        "hidden-tanh-derivative-written-into-the-cached-input",
        "network.py",
        "t = np.square(inputs[i])",
        "t = np.square(inputs[i], out=inputs[i])",
        ("tests/test_network.py",),
    ),
    Mutant(
        "softmax-written-into-the-callers-array",
        "network.py",
        "a = a @ w",
        "a = np.matmul(a, w, out=a if a.shape[1] == w.shape[1] else None)",
        ("tests/test_network.py",),
    ),
    Mutant(
        "softmax-backward-written-into-grad-out",
        "network.py",
        "delta = grad_out - inner",
        "delta = np.subtract(grad_out, inner, out=grad_out)",
        ("tests/test_network.py",),
    ),
    Mutant(
        "momentum-decay-dropped",
        "network.py",
        "v *= momentum",
        "v *= 1.0",
        ("tests/test_network.py",),
    ),
    Mutant(
        "bound-violations-exit-0",
        "cli.py",
        "1 if n_fail else 0",
        "0",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "label-dist-overflow-warning-shown",
        "cli.py",
        'with np.errstate(over="ignore"):',
        "if True:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "one-dataset-file-accepted",
        "cli.py",
        "not (ns.source and ns.target)",
        "not (ns.source or ns.target)",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "list-parser-keeps-empty-entries",
        "cli.py",
        'for v in str(text).split(",") if v.strip()]',
        'for v in str(text).split(",")]',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "step-errstate-dropped",
        "trainer.py",
        'with np.errstate(over="ignore", invalid="ignore"):',
        "if True:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "keep-rows-order-dropped",
        "datagen.py",
        "order = np.sort(np.concatenate(keep))",
        "order = np.concatenate(keep)",
        ("tests/test_datagen.py",),
    ),
    Mutant(
        "untouched-net-gradient-not-zeroed",
        "network.py",
        "        grads.d.fill(0.0)\n",
        "        pass\n",
        ("tests/test_network.py",),
    ),
    Mutant(
        "evaluate-last-partial-block-skipped",
        "trainer.py",
        "for start in range(0, data.n, BLOCK_ROWS):",
        "for start in range(0, data.n // BLOCK_ROWS * BLOCK_ROWS, BLOCK_ROWS):",
        ("tests/test_trainer.py",),
    ),
    Mutant(
        "runs-share-the-velocity-vector",
        "network.py",
        "self.velocity = np.zeros_like(self.params)",
        "self.velocity = init_model_state.__dict__.setdefault(self.params.size, np.zeros_like(self.params))",
        ("tests/test_trainer.py",),
    ),
    Mutant(
        "sweep-task-count-check-dropped",
        "cli.py",
        "if ns.tasks < 1:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "kernel-loss-batch-size-check-dropped",
        "trainer.py",
        "self.batch_size < 2",
        "self.batch_size < 1",
        ("tests/test_trainer.py", "tests/test_cli.py"),
    ),
    Mutant(
        "accumulator-pools-every-epoch",
        "trainer.py",
        "        acc = ConfusionAccumulator(k)\n        for batch in range",
        "        acc = acc if epoch else ConfusionAccumulator(k)\n        for batch in range",
        ("tests/test_trainer.py",),
    ),
    Mutant(
        "ema-blend-weights-swapped",
        "estimator.py",
        "lam * w_qp.w + (1.0 - lam) * w_prev.w",
        "lam * w_prev.w + (1.0 - lam) * w_qp.w",
        ("tests/test_trainer.py",),
    ),
    Mutant(
        "kernel-pair-weights-swapped",
        "losses.py",
        "w_a, w_b = ws[0 : s - 1 : 2], ws[1::2]",
        "w_a, w_b = ws[1::2], ws[0 : s - 1 : 2]",
        ("tests/test_trainer.py",),
    ),
    Mutant(
        "feature-dim-check-dropped",
        "trainer.py",
        "if self.feature_dim < 1:",
        "if False:",
        ("tests/test_trainer.py", "tests/test_cli.py"),
    ),
]

FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def occurrences(mutant: Mutant) -> int:
    return (PACKAGE / mutant.file).read_text().count(mutant.old)


def run_tests(root: Path, tests) -> tuple[int, list]:
    """Run ``tests`` under ``root``; return pytest's exit code and the failed test ids."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=root, capture_output=True, text=True,
    )
    return done.returncode, FAILED.findall(done.stdout)


def copy_tree(dest: Path) -> None:
    # the tests travel with src/: pyproject.toml's pythonpath puts the src/ next to it first on sys.path
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    bad = [m.name for m in mutants if occurrences(m) != 1]
    if bad:
        print(f"old text not found exactly once for: {', '.join(bad)}")
        return 1
    with tempfile.TemporaryDirectory(prefix="gls-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        for tests in sorted({m.tests for m in mutants}):
            code, failed = run_tests(clean, tests)
            if code != 0:
                print(f"unmutated tests fail ({' '.join(tests)}): {failed or f'exit code {code}'}")
                return 1
        survivors = []
        for m in mutants:
            work = Path(tmp) / m.name
            copy_tree(work)
            target = work / "src" / "gls_adapt" / m.file
            target.write_text(target.read_text().replace(m.old, m.new))
            code, failed = run_tests(work, m.tests)
            shutil.rmtree(work)
            if code == 0:
                survivors.append(m.name)
                print(f"{m.name}: SURVIVED")
            else:
                print(f"{m.name}: killed by {len(failed)} tests: {', '.join(failed) or f'exit code {code}'}")
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

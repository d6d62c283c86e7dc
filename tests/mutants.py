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
        "dz_cls - reversal * dz",
        "dz_cls + reversal * dz",
        ("tests/test_network.py",),
    ),
    Mutant(
        "cdan-chain-dropped",
        "network.py",
        'np.einsum("nkz,nk->nz", du3, cache["p"]) + dz_chain',
        'np.einsum("nkz,nk->nz", du3, cache["p"])',
        ("tests/test_network.py",),
    ),
    Mutant(
        "d-fed-z-not-outer-product",
        "network.py",
        "else outer_map(p, z)",
        "else outer_map(np.ones_like(p), z)",
        ("tests/test_network.py",),
    ),
    Mutant(
        "classification-gradient-dropped-without-alignment",
        "network.py",
        "dz = dz_cls if dz is None else",
        "dz = np.zeros_like(dz_cls) if dz is None else",
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
        "step-label-check-dropped",
        "trainer.py",
        "losses._labels(ys, k, s)",
        "pass",
        ("tests/test_trainer.py",),
    ),
    Mutant(
        "step-discriminator-check-dropped",
        "trainer.py",
        'd = _check_halves(losses._check_discriminator, out, s, "d_src", "d_tgt")',
        "d = out.reshape(-1)",
        ("tests/test_trainer.py",),
    ),
    Mutant(
        "step-rows-check-dropped",
        "trainer.py",
        '_check_halves(lambda a, name: check_rows(a, k, name), preds, s, "source_preds", "target_preds")',
        "pass",
        ("tests/test_trainer.py",),
    ),
    Mutant(
        "stacked-check-failure-names-no-half",
        "trainer.py",
        "check(stacked[:s], src_name)",
        "pass",
        ("tests/test_trainer.py",),
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
        "if np.logical_or.reduce(arr < -ROW_TOL, axis=None):",
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
        "infer-single-row-block-shift-dropped",
        "network.py",
        "if n > 1 and n % BLOCK_ROWS == 1:",
        "if False:",
        ("tests/test_network.py",),
    ),
    Mutant(
        "infer-writes-a-fresh-feature-buffer",
        "trainer.py",
        "network.infer(state, data.features, features_out)",
        "network.infer(state, data.features, np.empty_like(features_out))",
        ("tests/test_trainer.py",),
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
        "one-dataset-file-accepted",
        "cli.py",
        "not (ns.source and ns.target)",
        "not (ns.source or ns.target)",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "kernel-loss-batch-size-check-dropped",
        "trainer.py",
        "self.batch_size < 2",
        "self.batch_size < 1",
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

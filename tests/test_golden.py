"""Golden fixed-seed outputs of every command, byte for byte.

The fixtures under ``tests/golden/`` pin the full-precision CSVs of small
runs: `train --bounds` over every algorithm, `estimate-weights` on fixed
prediction files, and `generate`. A refactor that claims "same behaviour" must
leave them unchanged. A mismatching CSV fails with the largest absolute
change in each of its columns, and with the environment the fixtures were
recorded in next to the running one. Regenerate the fixtures with
``PYTHONPATH=src python tests/test_golden.py`` only for a change whose
new outputs are intended and stated; it rewrites the fixtures that
changed, prints those changes and records the environment in
``ENVIRONMENT.txt``.

The bits belong to that environment: OpenBLAS picks its gemm kernels by
CPU core, and numpy its ufunc loops by SIMD target, and both change the
rounding.
"""

import ctypes
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gls_adapt.cli import main
from gls_adapt.trainer import ALGORITHMS

GOLDEN = Path(__file__).parent / "golden"
ENVIRONMENT = GOLDEN / "ENVIRONMENT.txt"
SEED = 0
DOMAIN = [
    "--seed", str(SEED),
    "--n", "500",
    "--source-label-dist", "0.5,0.3,0.2",
    "--target-label-dist", "0.2,0.3,0.5",
]
TRAIN = [
    "--epochs", "3",
    "--batches-per-epoch", "5",
    "--batch-size", "24",
    "--feature-dim", "8",
]
ARGS = ["train", "--bounds", "--full-precision", "--algorithms", ",".join(ALGORITHMS), *DOMAIN, *TRAIN]
FILES = [
    *(f"{kind}_{alg}_seed{SEED}.raw.csv" for alg in ALGORITHMS for kind in ("trace", "bounds")),
    "summary.raw.csv",
]

# The other commands, each writing into its own directory.
COMMANDS = {
    "estimate-weights": ["weights.raw.csv", "confusion.raw.csv"],
    "generate": ["source.csv", "target.csv", "manifest.txt"],
}
COMMAND_FILES = [f"{name}/{f}" for name, files in COMMANDS.items() for f in files]


def column_changes(got: bytes, want: bytes) -> str:
    """Largest absolute change per column of two CSVs, as one line.

    A column whose cells do not parse as numbers reports ``differs`` or
    ``same``; a file that is not a CSV of matching shape says so.
    """
    rows_got = [line.split(",") for line in got.decode().splitlines()]
    rows_want = [line.split(",") for line in want.decode().splitlines()]
    if not rows_want or rows_got[:1] != rows_want[:1] or len(rows_got) != len(rows_want):
        return "header or row count differs"
    if any(len(a) != len(rows_want[0]) or len(b) != len(a) for a, b in zip(rows_got, rows_want)):
        return "not a CSV with one value per column"
    parts = []
    for col, name in enumerate(rows_want[0]):
        pairs = [(a[col], b[col]) for a, b in zip(rows_got[1:], rows_want[1:])]
        try:
            change = max((abs(float(a) - float(b)) for a, b in pairs), default=0.0)
            parts.append(f"{name}={change:.3g}")
        except ValueError:
            parts.append(f"{name}={'same' if all(a == b for a, b in pairs) else 'differs'}")
    return "max |change| per column: " + ", ".join(parts)


def environment() -> str:
    """numpy's version, OpenBLAS's version and core, and numpy's enabled AVX-512 targets, as one line."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    # the OpenBLAS that numpy's wheel vendors names the core it picked at load time
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    avx512 = [t for t in __cpu_dispatch__ if __cpu_features__.get(t) and (t == "X86_V4" or t.startswith("AVX512"))]
    return (
        f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')} core {core}; "
        f"AVX-512 targets: {' '.join(avx512) or 'none'}"
    )


def assert_same_bytes(got: Path, want: Path) -> None:
    a, b = got.read_bytes(), want.read_bytes()
    if a != b:
        recorded = ENVIRONMENT.read_text().strip() if ENVIRONMENT.exists() else "not recorded"
        pytest.fail(
            f"{want.relative_to(GOLDEN)} differs; {column_changes(a, b)}\n"
            f"  recorded in: {recorded}\n  running in:  {environment()}",
            pytrace=False,
        )


def _run(out: Path) -> None:
    assert main([*ARGS, "--out", str(out)]) == 0


def _write_prediction_files(out: Path) -> list:
    """Noisy softmax predictions for a k=3 label shift, as estimate-weights reads them."""
    rng = np.random.default_rng(SEED)
    k = 3

    def preds(labels, sharpness):
        logits = sharpness * np.eye(k)[labels] + rng.standard_normal((labels.size, k))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def write(path, rows):
        lines = ["p_0,p_1,p_2", *(",".join(repr(float(v)) for v in row) for row in rows)]
        path.write_text("\n".join(lines) + "\n", encoding="ascii")

    labels = rng.choice(k, size=400, p=[0.5, 0.3, 0.2])
    target_labels = rng.choice(k, size=400, p=[0.2, 0.3, 0.5])
    write(out / "sp.csv", preds(labels, 2.0))
    write(out / "tp.csv", preds(target_labels, 2.0))
    (out / "sl.csv").write_text("label\n" + "".join(f"{y}\n" for y in labels), encoding="ascii")
    return [
        "--source-preds", str(out / "sp.csv"),
        "--source-labels", str(out / "sl.csv"),
        "--target-preds", str(out / "tp.csv"),
    ]


def _run_command(name: str, out: Path) -> None:
    if name == "estimate-weights":
        argv = ["estimate-weights", *_write_prediction_files(out)]
    else:
        argv = ["generate", *DOMAIN, "--subsample", "0.5", "--conditional-shift", "0.3"]
    assert main([*argv, "--full-precision", "--out", str(out / name)]) == 0


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    _run(out)
    return out


@pytest.fixture(scope="module")
def command_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_commands")
    for name in COMMANDS:
        _run_command(name, out)
    return out


@pytest.mark.parametrize("name", FILES)
def test_matches_golden(run_dir, name):
    assert_same_bytes(run_dir / name, GOLDEN / name)


@pytest.mark.parametrize("name", COMMAND_FILES)
def test_command_matches_golden(command_dir, name):
    assert_same_bytes(command_dir / name, GOLDEN / name)


def test_a_mismatch_names_the_recorded_and_the_running_environment(tmp_path):
    got = tmp_path / "summary.raw.csv"
    got.write_bytes(b"algorithm\n")
    with pytest.raises(pytest.fail.Exception) as info:
        assert_same_bytes(got, GOLDEN / "summary.raw.csv")
    lines = str(info.value).splitlines()
    assert lines[1:] == [f"  recorded in: {ENVIRONMENT.read_text().strip()}", f"  running in:  {environment()}"]
    assert lines[2].startswith("  running in:  numpy ")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _run(Path(tmp))
        for name in COMMANDS:
            _run_command(name, Path(tmp))
        for name in FILES + COMMAND_FILES:
            new, old = Path(tmp) / name, GOLDEN / name
            old.parent.mkdir(exist_ok=True)
            if old.exists() and new.read_bytes() == old.read_bytes():
                continue
            if old.exists():
                print(f"{name}: {column_changes(new.read_bytes(), old.read_bytes())}")
            else:
                print(f"{name}: new")
            shutil.copyfile(new, old)
    ENVIRONMENT.write_text(environment() + "\n", encoding="ascii")

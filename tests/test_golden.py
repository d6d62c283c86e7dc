"""Golden fixed-seed outputs: `train --bounds` over every algorithm, byte for byte.

The fixtures under ``tests/golden/`` pin the full-precision trace and
bound-report CSVs of a small run. A refactor that claims "same
behaviour" must leave them unchanged. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` only for a change whose
new outputs are intended and stated.
"""

import shutil
import tempfile
from pathlib import Path

import pytest

from gls_adapt.cli import main
from gls_adapt.trainer import ALGORITHMS

GOLDEN = Path(__file__).parent / "golden"
SEED = 0
ARGS = [
    "train",
    "--bounds",
    "--full-precision",
    "--algorithms", ",".join(ALGORITHMS),
    "--seed", str(SEED),
    "--n", "500",
    "--epochs", "3",
    "--batches-per-epoch", "5",
    "--batch-size", "24",
    "--feature-dim", "8",
    "--source-label-dist", "0.5,0.3,0.2",
    "--target-label-dist", "0.2,0.3,0.5",
]
FILES = [f"{kind}_{alg}_seed{SEED}.raw.csv" for alg in ALGORITHMS for kind in ("trace", "bounds")]


def _run(out: Path) -> None:
    assert main([*ARGS, "--out", str(out)]) == 0


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    _run(out)
    return out


@pytest.mark.parametrize("name", FILES)
def test_matches_golden(run_dir, name):
    assert (run_dir / name).read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _run(Path(tmp))
        for name in FILES:
            shutil.copyfile(Path(tmp) / name, GOLDEN / name)

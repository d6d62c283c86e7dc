"""The test oracles are references: they borrow no private name from the package they check.

An oracle that borrowed a private builder would change meaning silently
whenever that builder's signature changed.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "_oracles.py"


def test_oracles_import_no_private_name():
    borrowed = []
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gls_adapt":
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "gls_adapt"]
        else:
            continue
        borrowed += [name for name in names if any(part.startswith("_") for part in name.split("."))]
    assert borrowed == []

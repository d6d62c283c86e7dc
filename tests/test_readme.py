"""The README's examples run or parse, every CLI flag is documented, and every
error class is raised somewhere.

The ```python blocks run in order in one namespace, as a reader would paste
them, so a name the README imports from the package must stay exported.
Every ``gls-adapt`` command in the ```sh blocks must parse and resolve its
options, so a stale flag in an example fails here.
"""

import argparse
import ast
import re
import shlex
from pathlib import Path

from gls_adapt import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gls_adapt"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_command_examples_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("gls-adapt ")]
    assert len(commands) >= 5
    parser = cli._build_parser()
    for argv in commands:
        cli._resolve(parser.parse_args(argv[1:]))


def test_every_flag_is_documented():
    # a flag counts as documented when the README names it or its config key
    readme = (ROOT / "README.md").read_text()
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    missing = [
        f"{name} {flag}"
        for name, sub in commands.items()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--")
        and not re.search(rf"{re.escape(flag)}(?![\w-])", readme)
        and f"`{action.dest}`" not in readme
    ]
    assert missing == []


def test_train_config_key_row_names_exactly_the_train_options():
    # the other direction from test_every_flag_is_documented: a deleted field must leave the row too
    lines = (ROOT / "README.md").read_text().splitlines()
    row = next(line for line in lines if line.startswith("| `train`, `sweep-jsd` |"))
    listed = re.search(r"the train options (.*?) \(", row).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(cli._TRAIN_OPTS)


def test_every_error_class_is_raised():
    # every subclass names one cause; the base class names none and is not a ValueError
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"GlsAdaptError"}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                if isinstance(func, ast.Name):
                    raised.add(func.id)
    assert defined - raised == set()
    assert "GlsAdaptError" not in raised

"""The python examples of README.md run as written, so they cannot name a
deleted function or class, and its command-line table matches the parser."""

import argparse
import re
from pathlib import Path

from squint.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {})


def test_command_table_names_each_declared_flag():
    # each row of the command-line table names exactly the flags its
    # subcommand declares, apart from --out and --help, which every one takes
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|$", README.read_text(), flags=re.M)
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(name for name, _ in rows) == sorted(commands)
    for name, cells in rows:
        declared = {flag for a in commands[name]._actions for flag in a.option_strings if flag.startswith("--")}
        assert set(re.findall(r"--[a-z][a-z-]*", cells)) == declared - {"--out", "--help"}, name

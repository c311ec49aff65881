"""The suite's own tooling. Its pytest configuration: a failing property test
reports its falsifying example, and the run goes on to the next test. The
command list of ``preset_outputs.py``: every argv parses, and together they
run every preset."""

import argparse
import subprocess
import sys
from pathlib import Path

from preset_outputs import COMMANDS
from squint.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after():
    pass
"""


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def test_preset_outputs_commands_parse_and_cover_every_preset():
    parser = build_parser()
    for _, argv in COMMANDS:
        parser.parse_args(argv)
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {(name, preset) for name, sub in commands.choices.items()
                for a in sub._actions if a.dest == "preset" for preset in a.choices}
    listed = {(argv[0], argv[argv.index("--preset") + 1]) for _, argv in COMMANDS if "--preset" in argv}
    assert declared <= listed, declared - listed

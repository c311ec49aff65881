"""The suite's own tooling. Its pytest configuration: a failing property test
reports its falsifying example, and the run goes on to the next test. The
command list of ``preset_outputs.py``: every argv parses, and together they
run every preset; its --base comparison reports every changed file, with
the largest relative change of a CSV or JSON file's numbers, and refuses a
revision it cannot extract. ``ab_timing.py``: against a copy of this tree
it finds every value bitwise equal and times every row, and it reports a
changed value, a changed sign of zero included."""

import argparse
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import ab_timing
import preset_outputs
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


def test_preset_outputs_base_reports_each_changed_file(monkeypatch, capsys):
    # the trees' command lists are not run: each side's hashes are given
    sides = {"base": ({"a": "1", "b": "2", "gone": "3"}, 0), "head": ({"a": "1", "b": "9", "new": "4"}, 0)}
    monkeypatch.setattr(preset_outputs, "_extract", lambda rev, dest: None)
    monkeypatch.setattr(preset_outputs, "_hashes", lambda tree, out: sides[out.name.split("_")[0]])
    assert preset_outputs.compare("REV") == 1
    assert capsys.readouterr().out.splitlines() == ["sha256 differs: b", "only in base: gone", "only in this tree: new"]
    sides["head"] = sides["base"]
    assert preset_outputs.compare("REV") == 0
    sides["head"] = (sides["base"][0], 1)  # same files, but a command failed
    assert preset_outputs.compare("REV") == 1


def test_preset_outputs_base_reports_the_largest_numeric_change(monkeypatch, capsys):
    # each side's command list is stubbed by writing its files
    files = {
        "base": {"t.csv": "phi,p\n0.5,0.25\n1,nan\n", "s.json": '{"a": [1.0, 2], "b": null, "c": true}',
                 "x.csv": "phi\n1\n", "same.json": "[0.5]"},
        "head": {"t.csv": "phi,p\n0.5,0.2500000001\n1.0000001,nan\n", "s.json": '{"a": [1.0, 2.000004], "b": null, "c": true}',
                 "x.csv": "theta\n1\n", "same.json": "[0.5]"},
    }

    def hashes(tree, out):
        out.mkdir()
        side = files[out.name.split("_")[0]]
        for name, text in side.items():
            (out / name).write_text(text)
        return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in side.items()}, 0

    monkeypatch.setattr(preset_outputs, "_extract", lambda rev, dest: None)
    monkeypatch.setattr(preset_outputs, "_hashes", hashes)
    assert preset_outputs.compare("REV") == 1
    assert capsys.readouterr().out.splitlines() == [
        "sha256 differs: s.json: 1 of 2 numbers differ, largest relative change 2e-06, largest absolute change 4e-06",
        "sha256 differs: t.csv: 2 of 4 numbers differ, largest relative change 1e-07, largest absolute change 1e-07",
        "sha256 differs: x.csv: layout or text differs",
    ]


def test_preset_outputs_base_refuses_a_revision_it_cannot_extract():
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "preset_outputs.py"), "--base", "no-such-rev"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("cannot extract revision 'no-such-rev'") and proc.stderr.count("\n") == 1


def test_ab_timing_against_head_finds_equal_bits_and_times_each_row(monkeypatch, capsys):
    # the base tree is a copy of this tree's src/, so that no git checkout is needed
    monkeypatch.setattr(ab_timing, "_extract", lambda rev, dest: shutil.copytree(
        ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__")))
    try:
        code = ab_timing.main(["--base", "HEAD", "--rounds", "1", "--windows", "5"])
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] in ("squint_base", "squint_head")]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    assert code == 0, lines
    assert lines[0].startswith("bit check: every value bitwise equal")
    assert [line.split(" | ")[0] for line in lines[3:]] == [
        "clicks, 1 phase", "fisher, 1 phase", "estimate_phase, 1 window", "estimate_phase, 1 far window",
        "clicks, 2049 phases",
        "estimate_phases, 2200 windows", "estimate_phases, 2200 far windows", "estimate_phases, 2200 empty windows",
        "bootstrap_sigma, 200 resamples",
        "calibrate, 16 phases", "max_fisher, r 0.59"]


def test_ab_timing_reports_a_changed_value():
    assert ab_timing.difference("p", [0.5, 0.25], [0.5, 0.25]) is None
    assert ab_timing.difference("p", [0.5, 0.25, 0.0], [0.5, 0.2, -0.0]) == (
        "p: 2 of 3 values differ, largest absolute change 0.05, largest relative change 0.2")
    assert ab_timing.difference("p", [1.0], [1.0, 2.0]) == "p: shape (1,) -> (2,)"

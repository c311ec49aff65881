"""Run the preset command list and print the sha256 of every data file.

Usage: PYTHONPATH=src python tests/preset_outputs.py OUT_DIR

Each command writes into its own directory under OUT_DIR. The script prints
one "sha256  path" line per data file, paths relative to OUT_DIR, so the
outputs of two checkouts compare with diff. The commands' own messages go to
stderr. The exit code is 1 if any command fails.
"""

import contextlib
import hashlib
import sys
from pathlib import Path

from squint.cli import main

COMMANDS = [
    ("sweep_fig3", ["sweep", "--preset", "fig3"]),
    ("fisher_fig3", ["fisher", "--preset", "fig3", "--phi-steps", "61"]),
    ("fisher_fig3_json", ["fisher", "--preset", "fig3", "--format", "json"]),
    ("fisher_fig3c", ["fisher", "--preset", "fig3c"]),
    ("fisher_fig1b", ["fisher", "--preset", "fig1b"]),
    ("fisher_default", ["fisher"]),
    ("thresholds_fig1c", ["thresholds", "--preset", "fig1c", "--nbar", "0.5", "0.78", "--noon-max", "20"]),
    ("thresholds_json", ["thresholds", "--skip-numeric", "--format", "json"]),
    ("track_fig4", ["track", "--preset", "fig4", "--seed", "0"]),
    ("estimate", ["estimate", "--counts", "{track_fig4}/tracking.csv", "--calibration",
                  "{track_fig4}/calibration.json", "--branch-lo", "0.25", "--branch-hi", "1.45"]),
    ("validate", ["validate", "--phi-steps", "7"]),
    ("validate_default", ["validate"]),
]


def run(out: Path) -> int:
    dirs = {name: out / name for name, _ in COMMANDS}
    failed = 0
    for name, argv in COMMANDS:
        argv = [arg.format(**dirs) for arg in argv] + ["--out", str(dirs[name])]
        with contextlib.redirect_stdout(sys.stderr):
            code = main(argv)
        if code:
            print(f"{name}: exit {code}", file=sys.stderr)
            failed = 1
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(Path(sys.argv[1])))

"""Run the preset command list and print the sha256 of every data file.

Usage: PYTHONPATH=src python tests/preset_outputs.py OUT_DIR
       python tests/preset_outputs.py --base REV

Each command writes into its own directory under OUT_DIR. The script prints
one "sha256  path" line per data file, paths relative to OUT_DIR, so the
outputs of two checkouts compare with diff. The commands' own messages go to
stderr.

With --base REV the script compares two trees itself. It extracts REV with
``git archive REV | tar -x`` into a temporary directory, runs that tree's own
command list with its own src/, then this tree's list with this tree's src/.
It prints each file whose sha256 differs or that exists on one side only.
For a CSV or JSON file on both sides it adds how many of its numbers differ,
their largest relative change |new - old| / max(|old|, |new|) and their
largest absolute change |new - old|, or that its layout or text differs,
when anything but a number does.

Exit codes: 0 when every command succeeds (and, with --base, no file
differs); 1 when a command fails or, with --base, a file differs or exists on
one side only; 2 for a usage error or a REV that git archive or tar cannot
extract, with one line naming it.
"""

import contextlib
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
ROOT = Path(__file__).resolve().parent.parent


def run(out: Path) -> int:
    from squint.cli import main

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


def _hashes(tree: Path, out: Path) -> tuple[dict[str, str], int]:
    """{path: sha256} of ``tree``'s own command list, run in a fresh process
    on ``tree``'s src/, and that process's exit code; its messages are shown
    only if it fails."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, str(tree / "tests" / "preset_outputs.py"), str(out)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
    return dict(line.split("  ", 1)[::-1] for line in proc.stdout.splitlines()), proc.returncode


def _values(path: Path) -> list:
    """Every value of a CSV or JSON file in file order, JSON keys included:
    each number as a float, anything else as it reads."""
    def number(value):
        with contextlib.suppress(TypeError, ValueError):
            if not isinstance(value, bool):
                return float(value)
        return value

    def leaves(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from leaves(value)
        elif isinstance(node, list):
            for value in node:
                yield from leaves(value)
        else:
            yield number(node)

    if path.suffix == ".json":
        return list(leaves(json.loads(path.read_text())))
    return [number(cell) for row in csv.reader(path.read_text().splitlines()) for cell in row]


def numeric_change(old: Path, new: Path) -> str:
    """How two versions of a CSV or JSON file differ, as one phrase."""
    a, b = _values(old), _values(new)
    if len(a) != len(b) or any(isinstance(x, float) != isinstance(y, float)
                               or not isinstance(x, float) and x != y for x, y in zip(a, b)):
        return "layout or text differs"
    numbers = [(x, y) for x, y in zip(a, b) if isinstance(x, float)]
    changed = [(x, y) for x, y in numbers if x != y and not (math.isnan(x) and math.isnan(y))]

    def largest(change):
        return max((change(x, y) if math.isfinite(x) and math.isfinite(y) else math.inf for x, y in changed),
                   default=0.0)

    return (f"{len(changed)} of {len(numbers)} numbers differ, largest relative change "
            f"{largest(lambda x, y: abs(y - x) / max(abs(x), abs(y))):.2g}, "
            f"largest absolute change {largest(lambda x, y: abs(y - x)):.2g}")


def _extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, capture_output=True, check=True)


def compare(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        try:
            _extract(rev, base)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"cannot extract revision {rev!r}: {exc}", file=sys.stderr)
            return 2
        old_out, new_out = Path(tmp) / "base_out", Path(tmp) / "head_out"
        old, old_code = _hashes(base, old_out)
        new, new_code = _hashes(ROOT, new_out)
        changed = sorted(path for path in old.keys() | new.keys() if old.get(path) != new.get(path))
        for path in changed:
            if path not in old or path not in new:
                print(f"only in {'base' if path in old else 'this tree'}: {path}")
            elif Path(path).suffix in (".csv", ".json"):
                print(f"sha256 differs: {path}: {numeric_change(old_out / path, new_out / path)}")
            else:
                print(f"sha256 differs: {path}")
    print(f"{len(old.keys() & new.keys())} files on both sides, {len(changed)} differ or exist on one side; "
          f"exit codes: base {old_code}, this tree {new_code}", file=sys.stderr)
    return int(bool(changed or old_code or new_code))


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--base":
        sys.exit(compare(sys.argv[2]))
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(run(Path(sys.argv[1])))

import subprocess
import sys
from pathlib import Path

import pytest

from squint import presets
from squint.detection import overlap_for_visibility


@pytest.mark.parametrize("preset, overlap", [(presets.fringe_config, 0.9887022972106934),
                                             (presets.tracking_config, 0.9859747886657715)])
def test_overlap_literal_is_the_bisection_result(preset, overlap):
    # the bisection at 96.6% visibility, rerun; any drift changes every preset output
    cfg = preset()
    assert cfg.overlap == overlap
    assert overlap_for_visibility(cfg.with_updates(overlap=1.0), presets.FRINGE_VISIBILITY) == overlap


def test_presets_make_no_click_call():
    # each preset is a constant: building one evaluates no click probability
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); from squint import detection, presets; calls = []; "
            "inner = detection._clicks; "
            "detection._clicks = lambda *a: calls.append(1) or inner(*a); "
            "presets.fringe_config(); presets.tracking_config(); print(len(calls))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]

from squint import presets


def test_fringe_overlap_pinned(fringe_cfg):
    # bisection result at 96.6% visibility; any drift changes every fig3 output
    assert fringe_cfg.overlap == 0.9887022972106934
    assert presets.fringe_config() is fringe_cfg


def test_tracking_overlap_pinned(tracking_cfg):
    assert tracking_cfg.overlap == 0.9859747886657715
    assert presets.tracking_config() is tracking_cfg

import pytest

from squint import CalibrationModel, presets


@pytest.fixture(scope="session")
def fringe_cfg():
    """r = 0.59, measured arm efficiencies, overlap calibrated to 96.6%."""
    return presets.fringe_config()


@pytest.fixture(scope="session")
def tracking_cfg():
    """r = 0.43, symmetric 75% efficiencies, overlap calibrated to 96.6%."""
    return presets.tracking_config()


@pytest.fixture(scope="session")
def tracking_cal(tracking_cfg):
    return CalibrationModel(tracking_cfg)

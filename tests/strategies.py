"""Hypothesis strategies shared by the property tests."""

import math

from hypothesis import strategies as st

from squint.gaussian import InterferometerConfig

random_configs = st.builds(
    InterferometerConfig,
    r1=st.floats(0.0, 1.0),
    r2=st.floats(0.0, 1.0),
    eta_h=st.floats(0.0, 1.0),
    eta_v=st.floats(0.0, 1.0),
    eta_internal=st.floats(0.3, 1.0),
    overlap=st.floats(0.5, 1.0),
    phase_offset=st.floats(-math.pi, math.pi),
)
phase_lists = st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=5)

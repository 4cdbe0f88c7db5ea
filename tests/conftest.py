import math

import numpy as np
import pytest

from nanogrid_ems.controller import FuzzyEms, NanogridParams
from nanogrid_ems.engine import Profile


@pytest.fixture(scope="session")
def params():
    return NanogridParams()


@pytest.fixture(scope="session")
def ems(params):
    return FuzzyEms(params)


@pytest.fixture
def flat_profile():
    def make(value, name="flat", t_end=86400.0):
        return Profile(name, np.array([0.0, t_end]), np.array([value, value]))

    return make


@pytest.fixture
def undershoot():
    """``(profile, t_s)``: ``np.interp`` samples ``profile`` at ``t_s``, one ulp
    before its 0 W point, at -5.684341886080802e-14 W."""
    zero_t_s = 95.21550525985691
    profile = Profile(
        "undershoot",
        np.array([0.0, 22.77228440258039, zero_t_s, 400.0]),
        np.array([315.49747073105164, 315.49747073105164, 0.0, 0.0]),
    )
    return profile, math.nextafter(zero_t_s, 0.0)

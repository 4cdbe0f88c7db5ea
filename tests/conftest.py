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

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


@pytest.fixture
def write_scenario(tmp_path):
    """``write(name, pv, load, *lines)`` writes ``<name>.cfg`` in ``tmp_path``.

    ``pv`` and ``load`` are each a list of ``t_s,power_w`` rows, written to
    ``pv.csv`` or ``load.csv`` beside the config, or a profile reference
    written as given.  The config names the scenario and its two profiles,
    then holds ``lines``, one a line.  ``write`` gives the config's path.
    """

    def write(name, pv, load, *lines):
        refs = []
        for kind, profile in (("pv", pv), ("load", load)):
            if isinstance(profile, list):
                text = "t_s,power_w\n" + "\n".join(profile) + "\n"
                (tmp_path / f"{kind}.csv").write_text(text)
                profile = f"{kind}.csv"
            refs.append(profile)
        head = (f"name = {name}", f"pv_profile = {refs[0]}", f"load_profile = {refs[1]}")
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("".join(f"{line}\n" for line in (*head, *lines)))
        return cfg

    return write

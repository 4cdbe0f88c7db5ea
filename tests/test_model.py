import ast
import logging
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nanogrid_ems import model
from nanogrid_ems.controller import NanogridParams
from nanogrid_ems.errors import SlackOverload
from nanogrid_ems.model import aux_power, battery_soc_update, grid_step, pv_power

import reference_seed

_PARAMS = NanogridParams()
# The frequencies where a droop clamp switches: PV starts to curtail above
# the first, and the auxiliary unit reaches its rating at the second.
_OMEGA_NOM = _PARAMS.omega_nom_rad_s
_OMEGA_AUX_FULL = _OMEGA_NOM - _PARAMS.p_aux_rating_w * _PARAMS.m_aux_rad_s_per_w


@pytest.mark.parametrize(
    "name", ["pv_power", "aux_power", "grid_step", "battery_soc_update"]
)
def test_per_step_plant_calls_no_builtin_min_or_max(name):
    # A builtin min or max call costs ~6-8x the comparison it makes, and
    # these functions run every step, so their clamps are written out.
    tree = ast.parse(Path(model.__file__).read_text(encoding="utf-8"))
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    calls = sorted(
        node.func.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("min", "max")
    )
    assert not calls, f"{name} calls the builtin {', '.join(calls)}"


class TestPvPower:
    def test_no_curtailment_at_nominal(self, params):
        assert pv_power(params.omega_nom_rad_s, 2230.0, params) == 2230.0

    def test_droop_arithmetic(self, params):
        value = pv_power(params.omega_nom_rad_s + 0.0375, 2230.0, params)
        assert value == pytest.approx(1730.0, abs=1e-6)

    def test_full_curtailment_at_bound(self, params):
        assert pv_power(params.omega_nom_rad_s + 0.167250, 2230.0, params) == 0.0

    def test_under_frequency_does_not_boost(self, params):
        assert pv_power(params.omega_nom_rad_s - 0.05, 1500.0, params) == 1500.0

    @settings(max_examples=60)
    @given(
        st.floats(min_value=314.0, max_value=314.5),
        st.floats(min_value=314.0, max_value=314.5),
        st.floats(min_value=0.0, max_value=2230.0),
    )
    def test_non_increasing_in_frequency(self, w1, w2, avail):
        params = NanogridParams()
        lo, hi = sorted((w1, w2))
        assert pv_power(hi, avail, params) <= pv_power(lo, avail, params)

    @given(st.floats(min_value=313.0, max_value=315.0))
    def test_never_negative_never_above_available(self, omega):
        params = NanogridParams()
        value = pv_power(omega, 1800.0, params)
        assert 0.0 <= value <= 1800.0


class TestAuxPower:
    def test_floats_at_nominal(self, params):
        assert aux_power(params.omega_nom_rad_s, params) == 0.0

    def test_droop_arithmetic(self, params):
        assert aux_power(params.omega_nom_rad_s - 0.0375, params) == pytest.approx(
            500.0, abs=1e-6
        )

    def test_rating_reached_at_bound(self, params):
        assert aux_power(314.085, params) == 1000.0

    def test_over_frequency_does_not_absorb(self, params):
        assert aux_power(params.omega_nom_rad_s + 0.1, params) == 0.0

    @settings(max_examples=60)
    @given(
        st.floats(min_value=313.9, max_value=314.4),
        st.floats(min_value=313.9, max_value=314.4),
    )
    def test_non_increasing_in_frequency(self, w1, w2):
        params = NanogridParams()
        lo, hi = sorted((w1, w2))
        assert aux_power(hi, params) <= aux_power(lo, params)

    @given(st.floats(min_value=313.0, max_value=315.0))
    def test_bounded_by_rating(self, omega):
        params = NanogridParams()
        assert 0.0 <= aux_power(omega, params) <= 1000.0


class TestGridStep:
    def test_battery_supplies_isolated_load(self, params):
        p_pv, p_aux, p_bat = grid_step(params.omega_nom_rad_s, 0.0, 200.0, params)
        assert p_bat == -200.0
        assert p_aux == 0.0

    def test_exact_match_idles_battery(self, params):
        p_pv, p_aux, p_bat = grid_step(params.omega_nom_rad_s, 600.0, 600.0, params)
        assert p_bat == 0.0

    def test_under_frequency_dispatch(self, params):
        omega = params.omega_nom_rad_s - 0.075
        p_pv, p_aux, p_bat = grid_step(omega, 500.0, 600.0, params)
        assert p_aux == pytest.approx(1000.0, abs=1e-9)
        assert p_bat == pytest.approx(900.0, abs=1e-9)

    def test_slack_overload_raises(self, params):
        with pytest.raises(SlackOverload):
            grid_step(params.omega_nom_rad_s, 0.0, 9000.0, params)

    @pytest.mark.parametrize("avail,load", [(float("nan"), 100.0), (0.0, float("nan"))])
    def test_nan_power_fails_the_slack_check(self, params, avail, load):
        with pytest.raises(SlackOverload):
            grid_step(params.omega_nom_rad_s, avail, load, params)

    @settings(max_examples=80)
    @given(
        st.floats(min_value=314.085, max_value=314.33),
        st.floats(min_value=0.0, max_value=2230.0),
        st.floats(min_value=0.0, max_value=2000.0),
    )
    def test_balance_is_exact(self, omega, avail, load):
        params = NanogridParams()
        p_pv, p_aux, p_bat = grid_step(omega, avail, load, params)
        assert p_pv + p_aux - load - p_bat == 0.0
        assert p_pv >= 0.0
        assert p_aux >= 0.0

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.floats(min_value=314.0, max_value=314.4),
            st.sampled_from(
                [314.085, 314.16, 314.32725, _OMEGA_NOM, _OMEGA_AUX_FULL]
                + [0.0, -0.0, math.inf, -math.inf, math.nan]
            ),
        ),
        st.one_of(
            st.floats(0.0, 2230.0),
            st.sampled_from([0.0, -0.0, 5e-324, 2230.0]),
        ),
        st.one_of(st.floats(0.0, 6000.0), st.sampled_from([0.0, -0.0, 2230.0])),
    )
    # Where a clamp written in the wrong argument order parts from the
    # builtin: a NaN frequency, and a -0.0 power at the clamp's bound.
    @example(math.nan, 500.0, 500.0)
    @example(-0.0, -0.0, 1000.0)
    @example(_OMEGA_NOM, -0.0, -0.0)
    @example(_OMEGA_AUX_FULL, 0.0, 1000.0)
    @example(math.inf, 2230.0, -0.0)
    @example(-math.inf, -0.0, 0.0)
    def test_matches_seed_bit_for_bit(self, omega, avail, load):
        """Same floats and signs of zero, or the same overload message."""
        params = NanogridParams()
        # Each droop law on its own too: a NaN from one unit makes grid_step
        # raise whatever the other unit gives.
        pv = pv_power(omega, avail, params)
        assert _same_float(pv, reference_seed.pv_power(omega, avail, params))
        assert _same_float(aux_power(omega, params), reference_seed.aux_power(omega, params))
        try:
            seed = reference_seed.grid_step(omega, avail, load, params)
        except SlackOverload as exc:
            with pytest.raises(SlackOverload) as raised:
                grid_step(omega, avail, load, params)
            assert str(raised.value) == str(exc)
        else:
            new = grid_step(omega, avail, load, params)
            reference_seed.assert_same_fields(new, seed, ("p_pv_w", "p_aux_w", "p_bat_w"))


class TestSocUpdate:
    def test_one_hour_full_charge(self, params):
        new = battery_soc_update(50.0, 1000.0, 3600.0, params)
        assert new == pytest.approx(58.333333333333, abs=1e-9)

    def test_idle_battery_holds(self, params):
        assert battery_soc_update(50.0, 0.0, 123.0, params) == 50.0

    def test_short_discharge(self, params):
        # 1000 W for 36 s is 10 Wh out of 12000 Wh, i.e. 1/12 of a percent.
        new = battery_soc_update(50.0, -1000.0, 36.0, params)
        assert new == pytest.approx(50.0 - 1.0 / 12.0, abs=1e-9)

    def test_clamps_at_full(self, params):
        assert battery_soc_update(100.0, 1000.0, 3600.0, params) == 100.0

    @settings(max_examples=60)
    @given(
        st.floats(min_value=20.0, max_value=80.0),
        st.floats(min_value=-1000.0, max_value=1000.0),
        st.floats(min_value=1.0, max_value=600.0),
    )
    def test_two_half_steps_equal_one_full_step(self, soc, p_bat, dt):
        params = NanogridParams()
        half = battery_soc_update(soc, p_bat, dt, params)
        twice = battery_soc_update(half, p_bat, dt, params)
        once = battery_soc_update(soc, p_bat, 2 * dt, params)
        assert twice == pytest.approx(once, abs=1e-9)

    @settings(max_examples=400)
    @given(
        st.one_of(
            st.floats(min_value=0.0, max_value=100.0),
            st.sampled_from([0.0, -0.0, 1e-9, 99.999999, 100.0]),
        ),
        st.one_of(
            st.floats(min_value=-4000.0, max_value=4000.0),
            st.sampled_from([0.0, -0.0, -4000.0, 4000.0, math.nan]),
        ),
        st.one_of(
            st.floats(min_value=0.0, max_value=3600.0, exclude_min=True),
            st.sampled_from([5e-324, 1.0, 3600.0]),
        ),
    )
    @example(50.0, math.nan, 1.0)
    @example(-0.0, -0.0, 1.0)
    @example(100.0, 0.0, 1.0)
    @example(100.0, -0.0, 1.0)
    def test_matches_seed_bit_for_bit(self, soc, p_bat, dt):
        """Same float, same sign of zero and the same clamp records."""
        params = NanogridParams()
        new, new_logs = _with_records(
            "nanogrid_ems.model", battery_soc_update, soc, p_bat, dt, params
        )
        seed, seed_logs = _with_records(
            reference_seed.__name__,
            reference_seed.battery_soc_update,
            reference_seed.BatteryState(soc, p_bat),
            dt,
            params,
        )
        assert new == seed
        assert math.copysign(1.0, new) == math.copysign(1.0, seed)
        assert new_logs == seed_logs


def _same_float(a, b):
    """Equal with the same sign of zero, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _with_records(logger_name, fn, *args):
    """``fn(*args)`` and the messages it logged to ``logger_name``."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger(logger_name)
    logger.addHandler(handler)
    try:
        value = fn(*args)
    finally:
        logger.removeHandler(handler)
    return value, [r.getMessage() for r in records]

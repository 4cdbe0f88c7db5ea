import math
from dataclasses import fields
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanogrid_ems.controller import (
    FuzzyEms,
    NanogridParams,
    ProportionalEms,
    _margins,
    make_controller,
)
from nanogrid_ems.errors import ValidationError

import reference_seed
from reference_fuzzy import calibrated_shift_reference

# Reference values for the mid-grid operating point, computed with the
# fine-grid brute-force pipeline (10^6 Riemann samples) before the main
# implementation existed.
GOLDEN_SHIFT_PLUS_MID = 0.08362507602272722
GOLDEN_SHIFT_MINUS_MID = -0.037500034090909094


# Non-default limits move every normalisation span and calibration constant.
PARAM_SETS = (
    NanogridParams(),
    NanogridParams(
        p_pv_rating_w=3000.0,
        p_aux_rating_w=1500.0,
        soc_max_pct=90.0,
        soc_min_plus10_pct=35.0,
        soc_min_pct=20.0,
        p_charge_max_w=800.0,
        p_discharge_max_w=1200.0,
        m_pv_rad_s_per_w=1e-4,
    ),
)
# SOC and battery power at the breakpoints of both parameter sets, where the
# calibration corners pin the shifts to exactly 0 or exactly the bound.
SOC = st.one_of(
    st.floats(0.0, 100.0),
    st.sampled_from([0.0, 20.0, 35.0, 40.0, 50.0, 90.0, 95.0, 100.0]),
)
# Each power limit of both sets, charging and discharging, 1 ulp either side.
NEAR_LIMITS = [
    math.nextafter(sign * limit, toward)
    for limit in (800.0, 1000.0, 1200.0)
    for sign in (1.0, -1.0)
    for toward in (-math.inf, math.inf)
]
P_BAT = st.one_of(
    st.floats(-4000.0, 4000.0),
    st.sampled_from([-4000.0, -1200.0, -1000.0, -800.0, -0.0, 0.0, 800.0, 1000.0]),
    st.sampled_from([-5e-324, 5e-324, *NEAR_LIMITS]),
)


class TestParams:
    def test_table_defaults(self, params):
        assert params.p_pv_rating_w == 2230.0
        assert params.p_aux_rating_w == 1000.0
        assert params.c_bat_ah == 100.0
        assert params.v_bat_v == 120.0
        assert params.soc_max_pct == 95.0
        assert params.soc_min_plus10_pct == 50.0
        assert params.soc_min_pct == 40.0
        assert params.p_charge_max_w == 1000.0
        assert params.p_discharge_max_w == 1000.0
        assert params.omega_nom_rad_s == 314.16
        assert params.m_pv_rad_s_per_w == 0.75e-4
        assert params.m_aux_rad_s_per_w == 0.75e-4

    def test_derived_bounds(self, params):
        assert params.d_omega_plus_max == pytest.approx(0.167250, abs=1e-12)
        assert params.d_omega_minus_max == pytest.approx(0.075, abs=1e-12)
        assert params.e_bat_wh == pytest.approx(12000.0, abs=1e-9)

    def test_soc_threshold_ordering_enforced(self):
        with pytest.raises(ValidationError):
            NanogridParams(soc_min_pct=60.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(soc_min_pct=-1.0),
            dict(soc_max_pct=100.5),
            dict(p_pv_rating_w=1e-320),
            dict(m_aux_rad_s_per_w=1.7e308),
            dict(m_pv_rad_s_per_w=1.0),
            dict(c_bat_ah=1e-200, v_bat_v=1e-200),
            dict(c_bat_ah=1e200, v_bat_v=1e200),
        ],
    )
    def test_extreme_values_rejected(self, overrides):
        with pytest.raises(ValidationError):
            NanogridParams(**overrides)

    # Every field but the three SOC thresholds is a rating, limit or slope.
    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0])
    @pytest.mark.parametrize(
        "name", [f.name for f in fields(NanogridParams) if not f.name.endswith("_pct")]
    )
    def test_positive_ratings_enforced(self, name, value):
        with pytest.raises(ValidationError, match="must be positive"):
            NanogridParams(**{name: value})


# The ends of the shift bounds that NanogridParams accepts. 501 is the least
# multiple of the smallest subnormal whose 1001st part is not 0; the greatest
# bound times 1001 is the largest finite float.
LEAST_BOUND = 501 * math.ulp(0.0)
GREATEST_BOUND = 1.795897237624691e305


def bound_params(plus, minus):
    """Default params with exactly these two shift bounds, both below omega_nom."""
    return NanogridParams(
        omega_nom_rad_s=2.0 * max(plus, minus),
        p_pv_rating_w=1.0,
        m_pv_rad_s_per_w=plus,
        p_aux_rating_w=1.0,
        m_aux_rad_s_per_w=minus,
    )


class TestShiftBoundRange:
    """Every bound that NanogridParams accepts builds working guards."""

    def test_guards_work_at_the_ends_and_every_power_of_two(self):
        assert 2.0**-1066 < LEAST_BOUND < 2.0**-1065
        assert 2.0**1014 < GREATEST_BOUND < 2.0**1015
        bounds = [LEAST_BOUND, *(2.0**k for k in range(-1065, 1015)), GREATEST_BOUND]
        # Each controller takes one bound from each half of the list, so
        # every bound spans one guard once.
        half = len(bounds) // 2
        for plus_max, minus_max in zip(bounds[:half], reversed(bounds[half:])):
            params = bound_params(plus_max, minus_max)
            ems = FuzzyEms(params)
            for guard in (ems.overcharge_guard, ems.depletion_guard):
                zero, large = guard.term_centroid("zero"), guard.term_centroid("large")
                assert math.isfinite(zero) and math.isfinite(large), params
                assert zero < large, params
            # The four (soc margin, power margin) corners of both guards. The
            # ordered comparisons fail for a nan or an infinite shift.
            for soc in (params.soc_min_pct, params.soc_max_pct):
                for p_bat in (-params.p_discharge_max_w, params.p_charge_max_w):
                    plus, minus, _ = ems.step(soc, p_bat)
                    assert 0.0 <= plus <= plus_max, params
                    assert -minus_max <= minus <= 0.0, params

    @pytest.mark.parametrize("name", ["d_omega_plus_max", "d_omega_minus_max"])
    @pytest.mark.parametrize(
        "bound",
        [math.nextafter(LEAST_BOUND, 0.0), math.nextafter(GREATEST_BOUND, math.inf)],
        ids=["below", "above"],
    )
    def test_one_ulp_outside_is_rejected(self, name, bound):
        plus, minus = (bound, 1.0) if name == "d_omega_plus_max" else (1.0, bound)
        with pytest.raises(ValidationError, match=name):
            bound_params(plus, minus)


class TestNormalizations:
    """Hand-computed values of the four margins, exact to 1e-12."""

    def test_soc_high(self, params):
        margins = _margins(params)
        assert margins(95.0, 0.0)[0] == pytest.approx(0.0, abs=1e-12)
        assert margins(40.0, 0.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert margins(94.9, 0.0)[0] == pytest.approx(0.1 / 55.0, abs=1e-12)

    def test_charge(self, params):
        margins = _margins(params)
        assert margins(60.0, 1000.0)[1] == pytest.approx(0.0, abs=1e-12)
        assert margins(60.0, 0.0)[1] == pytest.approx(1.0, abs=1e-12)
        assert margins(60.0, 250.0)[1] == pytest.approx(0.75, abs=1e-12)

    def test_soc_low(self, params):
        margins = _margins(params)
        assert margins(40.0, 0.0)[2] == pytest.approx(0.0, abs=1e-12)
        assert margins(50.0, 0.0)[2] == pytest.approx(1.0, abs=1e-12)
        # raw value 5.5 clamps to the universe edge
        assert margins(95.0, 0.0)[2] == 1.0

    def test_discharge(self, params):
        margins = _margins(params)
        assert margins(60.0, -1000.0)[3] == pytest.approx(0.0, abs=1e-12)
        assert margins(60.0, -0.0)[3] == pytest.approx(1.0, abs=1e-12)
        assert margins(60.0, -600.0)[3] == pytest.approx(0.4, abs=1e-12)

    @given(st.floats(min_value=0, max_value=100))
    def test_outputs_clamped(self, soc):
        high, _, low, _ = _margins(NanogridParams())(soc, 0.0)
        for margin in (high, low):
            assert 0.0 <= margin <= 1.0

    @settings(max_examples=300)
    @given(st.sampled_from(PARAM_SETS), SOC, P_BAT)
    def test_matches_seed_bit_for_bit(self, params, soc, p_bat):
        """The seed's four ``normalize_*`` values, sign of zero included."""
        state = reference_seed.BatteryState(soc, p_bat)
        seed = (
            reference_seed.normalize_soc_high(soc, params),
            reference_seed.normalize_charge(state.p_charge_w, params),
            reference_seed.normalize_soc_low(soc, params),
            reference_seed.normalize_discharge(state.p_discharge_w, params),
        )
        new = _margins(params)(soc, p_bat)
        assert [m.hex() for m in new] == [m.hex() for m in seed]


class TestFuzzyShifts:
    def test_benign_corner_is_exactly_zero(self, ems):
        assert ems.shift_plus(1.0, 1.0) == 0.0
        assert ems.shift_minus(1.0, 1.0) == -0.0

    def test_critical_soc_edge_pins_to_bound(self, ems, params):
        # Only "large" consequents fire along this edge, so the calibration
        # pins the output to the bound for any second input.
        for x2 in (0.0, 0.25, 0.5, 0.77, 1.0):
            assert ems.shift_plus(0.0, x2) == params.d_omega_plus_max
            assert ems.shift_minus(0.0, x2) == -params.d_omega_minus_max

    def test_power_limit_corner_pins_to_bound(self, ems, params):
        assert ems.shift_plus(1.0, 0.0) == params.d_omega_plus_max
        assert ems.shift_minus(1.0, 0.0) == -params.d_omega_minus_max

    def test_mid_grid_matches_reference(self, ems, params):
        assert ems.shift_plus(0.5, 0.5) == pytest.approx(
            GOLDEN_SHIFT_PLUS_MID, abs=1e-4 * params.d_omega_plus_max
        )
        assert ems.shift_minus(0.5, 0.5) == pytest.approx(
            GOLDEN_SHIFT_MINUS_MID, abs=1e-4 * params.d_omega_minus_max
        )

    def test_shift_ranges_on_grid(self, ems, params):
        grid = [i * 0.1 for i in range(11)]
        for x1 in grid:
            for x2 in grid:
                plus = ems.shift_plus(x1, x2)
                minus = ems.shift_minus(x1, x2)
                assert 0.0 <= plus <= params.d_omega_plus_max
                assert -params.d_omega_minus_max <= minus <= 0.0

    def test_monotone_trend_on_grid(self, ems, params):
        """Non-increasing headroom response on the 21x21 grid.

        With min-AND activations and max aggregation the response scallops
        slightly between partition vertices, so strict per-step monotonicity
        holds only along the vertex lines; elsewhere the trend is enforced
        within 5% of the shift bound.
        """
        grid = [i * 0.05 for i in range(21)]
        slack_plus = 0.05 * params.d_omega_plus_max
        slack_minus = 0.05 * params.d_omega_minus_max
        for a in grid:
            rows = [
                [ems.shift_plus(a, b) for b in grid],
                [ems.shift_plus(b, a) for b in grid],
            ]
            for row in rows:
                for left, right in zip(row, row[1:]):
                    assert right <= left + slack_plus
            for row in [
                [ems.shift_minus(a, b) for b in grid],
                [ems.shift_minus(b, a) for b in grid],
            ]:
                for left, right in zip(row, row[1:]):
                    assert right >= left - slack_minus
        for vertex in (0.0, 0.5, 1.0):
            row = [ems.shift_plus(b, vertex) for b in grid]
            for left, right in zip(row, row[1:]):
                assert right <= left + 1e-9
            col = [ems.shift_minus(b, vertex) for b in grid]
            for left, right in zip(col, col[1:]):
                assert right >= left - 1e-9

    def test_calibration_matches_reference_midpoints(self, ems, params):
        for x1, x2 in [(0.3, 0.8), (0.6, 0.4), (0.9, 0.9)]:
            oracle = calibrated_shift_reference(
                ems.overcharge_guard, params.d_omega_plus_max, x1, x2, 200_000
            )
            assert ems.shift_plus(x1, x2) == pytest.approx(
                oracle, abs=1e-4 * params.d_omega_plus_max
            )


class TestEmsStep:
    def test_mid_soc_idle_battery_keeps_nominal_frequency(self, ems):
        plus, minus, omega = ems.step(60.0, 0.0)
        assert omega == 314.16
        assert abs(plus) < 1e-12
        assert abs(minus) < 1e-12

    def test_full_battery_commands_maximum_raise(self, ems, params):
        plus, minus, omega = ems.step(95.0, 0.0)
        assert plus == params.d_omega_plus_max
        assert minus == -0.0
        assert omega == params.omega_nom_rad_s + params.d_omega_plus_max
        assert omega == pytest.approx(314.32725, abs=1e-9)

    def test_empty_battery_commands_maximum_drop(self, ems, params):
        plus, minus, omega = ems.step(40.0, 0.0)
        assert plus == 0.0
        assert minus == -params.d_omega_minus_max
        assert omega == pytest.approx(314.085, abs=1e-9)

    def test_command_composition(self, ems, params):
        plus, minus, omega = ems.step(45.0, -300.0)
        assert omega == params.omega_nom_rad_s + plus + minus

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=-2000, max_value=2000),
    )
    def test_command_range(self, soc, p_bat):
        params = NanogridParams()
        plus, minus, omega = FuzzyEms(params).step(soc, p_bat)
        assert 0.0 <= plus <= params.d_omega_plus_max
        assert -params.d_omega_minus_max <= minus <= 0.0
        lo = params.omega_nom_rad_s - params.d_omega_minus_max
        hi = params.omega_nom_rad_s + params.d_omega_plus_max
        assert lo - 1e-12 <= omega <= hi + 1e-12

    def test_no_soc_drives_both_guards_hard(self, ems, params):
        # The critical regions are disjoint: 95% SOC for the raise guard,
        # 40% for the drop guard, so both can never saturate together.
        for i in range(1001):
            soc = i * 0.1
            plus, minus, omega = ems.step(soc, 0.0)
            both_hot = (
                plus > 0.9 * params.d_omega_plus_max
                and -minus > 0.9 * params.d_omega_minus_max
            )
            assert not both_hot


class TestProportional:
    def test_full_battery(self, params):
        plus, minus, omega = ProportionalEms(params).step(95.0, 0.0)
        assert plus == pytest.approx(0.167250, abs=1e-12)
        assert minus == pytest.approx(0.0, abs=1e-15)

    def test_empty_battery(self, params):
        plus, minus, omega = ProportionalEms(params).step(40.0, 0.0)
        assert plus == pytest.approx(0.0, abs=1e-15)
        assert minus == pytest.approx(-0.075, abs=1e-12)

    def test_mid_soc(self, params):
        plus, minus, omega = ProportionalEms(params).step(67.5, 0.0)
        assert plus == pytest.approx(0.0836250, abs=1e-12)
        assert minus == pytest.approx(0.0, abs=1e-15)

    def test_ignores_battery_power(self, params):
        idle = ProportionalEms(params).step(70.0, 0.0)
        loaded = ProportionalEms(params).step(70.0, 999.0)
        assert idle == loaded


def test_make_controller_kinds(params):
    assert isinstance(make_controller("flc", params), FuzzyEms)
    assert isinstance(make_controller("proportional", params), ProportionalEms)


MARGIN = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))


@cache
def controller_pair(kind, params):
    """The package's controller and its verbatim seed copy, built once."""
    seed_class = {
        "flc": reference_seed.FuzzyEms,
        "proportional": reference_seed.ProportionalEms,
    }[kind]
    return make_controller(kind, params), seed_class(params)


class TestMatchesSeed:
    """Constants built at construction give the seed's floats, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(("flc", "proportional")), st.sampled_from(PARAM_SETS), SOC, P_BAT
    )
    def test_step_bit_identical(self, kind, params, soc, p_bat):
        new, seed = controller_pair(kind, params)
        seed_state = reference_seed.BatteryState(soc, p_bat)
        reference_seed.assert_same_fields(new.step(soc, p_bat), seed.step(seed_state))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PARAM_SETS), MARGIN, MARGIN)
    def test_shifts_bit_identical(self, params, x1, x2):
        new, seed = controller_pair("flc", params)
        for shift in ("shift_plus", "shift_minus"):
            a, b = getattr(new, shift)(x1, x2), getattr(seed, shift)(x1, x2)
            assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)

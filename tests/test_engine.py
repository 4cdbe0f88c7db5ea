import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nanogrid_ems.controller import NanogridParams
from nanogrid_ems.engine import (
    BLOCK_ROWS,
    MAX_STEPS,
    TRACE_FIELDS,
    Profile,
    Scenario,
    SummaryMetrics,
    Trace,
    _step_count,
    run_scenario,
    summarize,
)
from nanogrid_ems.errors import ProfileOutOfRange, ValidationError
from nanogrid_ems.model import battery_soc_update

from trace_rows import Row, rows, summarize_rows_seed, trace_of


def scenario(**overrides):
    base = dict(
        name="test",
        params=NanogridParams(),
        soc_init_pct=60.0,
        pv_profile="pv",
        load_profile="load",
        dt_s=1.0,
        duration_s=60.0,
    )
    base.update(overrides)
    return Scenario(**base)


@st.composite
def step_pairs(draw):
    """``(duration_s, dt_s)``: equal, one ulp apart, or near a drawn ratio."""
    dt = draw(st.floats(min_value=5e-324, max_value=1e300))
    ratio = draw(
        st.one_of(
            st.integers(1, MAX_STEPS + 1),
            st.floats(0.0, 1.0),
            st.floats(1.0, 2.0 * MAX_STEPS),
        )
    )
    duration = draw(st.sampled_from([dt, math.nextafter(dt, math.inf), dt * ratio]))
    for _ in range(draw(st.integers(0, 2))):
        duration = math.nextafter(duration, draw(st.sampled_from([0.0, math.inf])))
    return duration, dt


def record(**overrides):
    base = dict(
        t_s=0.0,
        p_pv_avail_w=0.0,
        p_pv_w=0.0,
        p_aux_w=0.0,
        p_load_w=0.0,
        p_bat_w=0.0,
        soc_pct=60.0,
        omega_rad_s=314.16,
        d_omega_plus=0.0,
        d_omega_minus=0.0,
    )
    base.update(overrides)
    return Row(**base)


def assert_closed_loop_invariants(trace, sc):
    params = sc.params
    lo = params.omega_nom_rad_s - params.d_omega_minus_max
    hi = params.omega_nom_rad_s + params.d_omega_plus_max
    nom = params.omega_nom_rad_s
    replayed_soc = sc.soc_init_pct
    for r in rows(trace):
        assert r.p_pv_w + r.p_aux_w - r.p_load_w - r.p_bat_w == 0.0
        assert lo - 1e-12 <= r.omega_rad_s <= hi + 1e-12
        assert 0.0 <= r.soc_pct <= 100.0
        assert 0.0 <= r.p_pv_w <= r.p_pv_avail_w
        assert 0.0 <= r.p_load_w
        assert 0.0 <= r.p_aux_w <= params.p_aux_rating_w
        assert r.omega_rad_s == nom + r.d_omega_plus + r.d_omega_minus
        assert 0.0 <= r.d_omega_plus <= params.d_omega_plus_max
        assert -params.d_omega_minus_max <= r.d_omega_minus <= 0.0
        # One-sided droop: PV curtails only above nominal, aux only below.
        assert r.p_pv_w == r.p_pv_avail_w or r.omega_rad_s > nom
        assert r.p_aux_w == 0.0 or r.omega_rad_s < nom
        replayed_soc = battery_soc_update(replayed_soc, r.p_bat_w, sc.dt_s, params)
        assert r.soc_pct == replayed_soc


class TestScenarioValidation:
    def test_rejects_zero_dt(self):
        with pytest.raises(ValidationError):
            scenario(dt_s=0.0)

    def test_rejects_duration_below_dt(self):
        with pytest.raises(ValidationError):
            scenario(duration_s=0.5, dt_s=1.0)

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValidationError):
            scenario(load_multiplier=0.0)

    def test_rejects_bad_soc(self):
        with pytest.raises(ValidationError):
            scenario(soc_init_pct=120.0)

    def test_rejects_unknown_controller(self):
        with pytest.raises(ValidationError):
            scenario(controller="pid")

    @pytest.mark.parametrize(
        "field", ["soc_init_pct", "load_multiplier", "dt_s", "duration_s"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            scenario(**{field: value})

    def test_step_bound(self):
        # Construction only: nothing is allocated for the rejected run.
        assert scenario(duration_s=float(MAX_STEPS)).duration_s == MAX_STEPS
        with pytest.raises(ValidationError, match="steps"):
            scenario(duration_s=MAX_STEPS + 1.0)
        with pytest.raises(ValidationError, match="steps"):
            scenario(duration_s=1e13)
        with pytest.raises(ValidationError, match="steps"):
            scenario(duration_s=60.0, dt_s=5e-324)

    @settings(max_examples=300)
    @given(step_pairs())
    @example((float(MAX_STEPS), 1.0))
    @example((2.1, 0.3))
    def test_accepted_steps_give_one_to_max_steps(self, pair):
        # Why summarize needs no check for an empty trace.
        duration, dt = pair
        # A battery this large lets one step of any drawn dt pass the SOC band.
        big = NanogridParams(c_bat_ah=1e300)
        try:
            sc = scenario(params=big, dt_s=dt, duration_s=duration)
        except ValidationError:
            assume(False)
        assert 1 <= _step_count(sc.duration_s, sc.dt_s) <= MAX_STEPS

    def test_one_step_may_not_cross_the_low_soc_band(self):
        # Defaults: 4000 W for dt moves the SOC by dt / 108 %; the band is 10 %.
        assert scenario(dt_s=1000.0, duration_s=1000.0).dt_s == 1000.0
        with pytest.raises(ValidationError, match="lets one step"):
            scenario(dt_s=1100.0, duration_s=1100.0)
        small = NanogridParams(c_bat_ah=0.05)  # 6 Wh: 18.5 % in one second
        with pytest.raises(ValidationError, match="lets one step"):
            scenario(params=small, dt_s=1.0)


class TestRunScenario:
    def test_battery_alone_supplies_constant_load(self, flat_profile):
        sc = scenario(soc_init_pct=94.9, duration_s=300.0)
        trace = run_scenario(sc, flat_profile(0.0, "pv"), flat_profile(200.0, "load"))
        assert len(trace) == 300
        for r in rows(trace):
            assert r.p_aux_w == 0.0
            assert r.p_bat_w == -200.0
        socs = [r.soc_pct for r in rows(trace)]
        assert all(b < a for a, b in zip(socs, socs[1:]))

    def test_dead_network(self, flat_profile):
        sc = scenario(soc_init_pct=50.0, duration_s=120.0)
        trace = run_scenario(sc, flat_profile(0.0, "pv"), flat_profile(0.0, "load"))
        p = sc.params
        for r in rows(trace):
            assert r.p_pv_w == r.p_aux_w == r.p_bat_w == 0.0
            assert r.soc_pct == 50.0
            lo = p.omega_nom_rad_s - p.d_omega_minus_max
            hi = p.omega_nom_rad_s + p.d_omega_plus_max
            assert lo <= r.omega_rad_s <= hi

    def test_single_step_scenario_gives_one_record(self, flat_profile):
        sc = scenario(duration_s=1.0, dt_s=1.0)
        trace = run_scenario(sc, flat_profile(0.0, "pv"), flat_profile(0.0, "load"))
        assert len(trace) == 1

    def test_partial_trailing_step_is_executed(self, flat_profile):
        sc = scenario(duration_s=2.5, dt_s=1.0)
        trace = run_scenario(sc, flat_profile(0.0, "pv"), flat_profile(0.0, "load"))
        assert [r.t_s for r in rows(trace)] == [0.0, 1.0, 2.0]

    def test_first_step_sees_idle_battery(self, flat_profile):
        # One-step measurement delay: the first command is computed with
        # p_bat = 0 even though the plant immediately loads the battery.
        sc = scenario(soc_init_pct=60.0, duration_s=10.0)
        trace = run_scenario(sc, flat_profile(2230.0, "pv"), flat_profile(100.0, "load"))
        assert trace.d_omega_plus[0] == 0.0
        assert trace.p_bat_w[0] == 2130.0
        assert trace.d_omega_plus[1] > 0.0

    def test_deterministic(self, flat_profile):
        sc = scenario(soc_init_pct=94.9, duration_s=120.0)
        one = run_scenario(sc, flat_profile(800.0, "pv"), flat_profile(300.0, "load"))
        two = run_scenario(sc, flat_profile(800.0, "pv"), flat_profile(300.0, "load"))
        assert rows(one) == rows(two)

    def test_profile_must_cover_duration(self):
        sc = scenario(duration_s=7200.0)
        short = Profile("short", np.array([0.0, 3600.0]), np.array([0.0, 0.0]))
        full = Profile("full", np.array([0.0, 7200.0]), np.array([0.0, 0.0]))
        with pytest.raises(ProfileOutOfRange):
            run_scenario(sc, short, full)

    def test_balance_holds_in_closed_loop(self, flat_profile):
        sc = scenario(soc_init_pct=45.0, duration_s=600.0)
        trace = run_scenario(sc, flat_profile(1200.0, "pv"), flat_profile(900.0, "load"))
        for r in rows(trace):
            assert r.p_pv_w + r.p_aux_w - r.p_load_w - r.p_bat_w == 0.0

    # The SOC range ends are drawn exactly: the controllers take the SOC as a
    # bare float, so only Scenario and the SOC clamp keep it in [0, 100].
    @settings(max_examples=200, deadline=None)
    @given(
        soc=st.one_of(
            st.floats(min_value=0.0, max_value=100.0), st.sampled_from([0.0, 100.0])
        ),
        avail=st.floats(min_value=0.0, max_value=2230.0),
        load=st.floats(min_value=0.0, max_value=1500.0),
        controller=st.sampled_from(["flc", "proportional"]),
    )
    def test_closed_loop_invariants_on_random_flat_profiles(
        self, soc, avail, load, controller
    ):
        params = NanogridParams()
        sc = Scenario(
            name="prop",
            params=params,
            soc_init_pct=soc,
            pv_profile="pv",
            load_profile="load",
            controller=controller,
            duration_s=30.0,
        )
        pv = Profile("pv", np.array([0.0, 30.0]), np.array([avail, avail]))
        ld = Profile("load", np.array([0.0, 30.0]), np.array([load, load]))
        trace = run_scenario(sc, pv, ld)
        assert len(trace) == 30
        assert_closed_loop_invariants(trace, sc)

    # A run at dt = t_s samples the undershooting profile at t_s in step 1.
    @pytest.mark.parametrize("controller", ["flc", "proportional"])
    @pytest.mark.parametrize("column", ["pv", "load"])
    def test_closed_loop_invariants_on_an_undershooting_profile(
        self, undershoot, flat_profile, column, controller
    ):
        profile, t_s = undershoot
        sc = scenario(controller=controller, dt_s=t_s, duration_s=380.0)
        if column == "pv":
            pv, load = profile, flat_profile(100.0, "load")
        else:
            pv, load = flat_profile(0.0, "pv"), profile
        assert_closed_loop_invariants(run_scenario(sc, pv, load), sc)

    def test_inputs_reach_their_steps_across_blocks(self):
        # The loop reads its inputs BLOCK_ROWS at a time. Under ramps every
        # step has its own PV and load, so an input read at the wrong step
        # breaks the exact balance against the trace's columns.
        n = 2 * BLOCK_ROWS + 1
        sc = scenario(controller="proportional", duration_s=float(n))
        ramp = np.array([0.0, float(n)])
        trace = run_scenario(
            sc,
            Profile("pv", ramp, np.array([0.0, 2230.0])),
            Profile("load", ramp, np.array([1500.0, 0.0])),
        )
        assert len(trace) == n
        assert len(np.unique(trace.p_load_w)) == n
        balance = trace.p_pv_w + trace.p_aux_w - trace.p_load_w - trace.p_bat_w
        assert np.all(balance == 0.0)
        assert np.all(trace.p_pv_w <= trace.p_pv_avail_w)

    def test_memory_beyond_the_trace_columns_does_not_grow(self):
        # Bound: less than 1 B per added step beyond the ten float64 trace
        # columns. The loop turns its two input columns into Python floats
        # BLOCK_ROWS rows at a time; turning them whole costs 64 B a step
        # (a list pointer and a float object, twice), and a temporary
        # column made by a product costs 8 B a step.
        beyond = {}
        for blocks in (4, 8):
            n = blocks * BLOCK_ROWS
            sc = scenario(controller="proportional", duration_s=float(n))
            flat = np.array([0.0, float(n)])
            pv = Profile("pv", flat, np.array([800.0, 800.0]))
            load = Profile("load", flat, np.array([500.0, 500.0]))
            tracemalloc.start()
            try:
                run_scenario(sc, pv, load)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            beyond[n] = peak - len(TRACE_FIELDS) * 8 * n
        (n_small, small), (n_large, large) = sorted(beyond.items())
        assert large - small < n_large - n_small


class TestSummarize:
    def test_dead_network_summary(self, params, flat_profile):
        sc = scenario(soc_init_pct=50.0, duration_s=60.0)
        trace = run_scenario(sc, flat_profile(0.0, "pv"), flat_profile(0.0, "load"))
        m = summarize(trace, params, 1.0)
        assert m.curtailed_energy_wh == 0.0
        assert m.aux_energy_wh == 0.0
        assert m.max_charge_w == 0.0
        assert m.max_discharge_w == 0.0
        assert m.charging_fraction == 0.0
        assert (
            m.violations_charge
            == m.violations_discharge
            == m.violations_soc_high
            == m.violations_soc_low
            == 0
        )

    def test_single_hour_record_aggregation(self, params):
        trace = trace_of([record(p_bat_w=900.0, p_aux_w=150.0, soc_pct=55.0)])
        m = summarize(trace, params, 3600.0)
        assert m.max_charge_w == 900.0
        assert m.charging_fraction == 1.0
        assert m.aux_energy_wh == pytest.approx(150.0)

    def test_brief_excursion_above_band_is_tolerated(self, params):
        # The one-step measurement delay makes short spikes unavoidable;
        # up to three consecutive steps above the 5% band are absorbed.
        trace = trace_of([record(p_bat_w=1100.0)] * 3 + [record(p_bat_w=500.0)])
        assert summarize(trace, params, 1.0).violations_charge == 0

    def test_sustained_excursion_counts_once(self, params):
        trace = trace_of(
            [record(p_bat_w=500.0)]
            + [record(p_bat_w=1100.0)] * 6
            + [record(p_bat_w=500.0)]
        )
        assert summarize(trace, params, 1.0).violations_charge == 1

    def test_within_band_excursion_never_counts(self, params):
        trace = trace_of([record(p_bat_w=1040.0)] * 50)
        assert summarize(trace, params, 1.0).violations_charge == 0

    def test_separate_episodes_count_separately(self, params):
        burst = [record(p_bat_w=-1200.0)] * 4
        calm = [record(p_bat_w=0.0)] * 2
        m = summarize(trace_of(burst + calm + burst), params, 1.0)
        assert m.violations_discharge == 2

    def test_soc_band(self, params):
        trace = trace_of([record(soc_pct=95.05)] * 10)
        assert summarize(trace, params, 1.0).violations_soc_high == 0
        trace = trace_of([record(soc_pct=95.2)] * 10)
        assert summarize(trace, params, 1.0).violations_soc_high == 1
        trace = trace_of([record(soc_pct=39.8)] * 10)
        assert summarize(trace, params, 1.0).violations_soc_low == 1

    @pytest.mark.parametrize(
        "column",
        [
            # 0.0 added in order; 1.0 under a compensated sum (Python 3.12's).
            [1e16, 1.0, -1e16],
            # The start value 0.0 turns an all -0.0 total into 0.0.
            [-0.0, -0.0],
        ],
    )
    def test_energy_totals_add_in_order(self, params, column):
        trace = trace_of([record(p_pv_avail_w=p, p_aux_w=p) for p in column])
        m = summarize(trace, params, 3600.0)
        assert m.curtailed_energy_wh.hex() == m.aux_energy_wh.hex() == (0.0).hex()

    def test_short_lived_memory_per_row(self, params):
        # Bound: under 8.5 B per added row, as the one float64 column of
        # running sums that an energy total takes is 8 B a row. np.diff with
        # int pads works in int64 (18 B a row), a cumsum beside the
        # difference it sums takes 16 B, and a negated column beside the
        # flags made from it 9 B.
        rng = np.random.default_rng(0)
        peaks = {}
        for blocks in (4, 8):
            n = blocks * BLOCK_ROWS
            trace = Trace(**{f: rng.uniform(-2000.0, 2000.0, n) for f in TRACE_FIELDS})
            trace.soc_pct[:] = rng.uniform(0.0, 100.0, n)
            tracemalloc.start()
            try:
                summarize(trace, params, 1.0)
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        (n_small, small), (n_large, large) = sorted(peaks.items())
        assert large - small < 8.5 * (n_large - n_small)

    def test_idempotent(self, params):
        trace = trace_of([record(p_bat_w=300.0), record(p_bat_w=-200.0, t_s=1.0)])
        assert summarize(trace, params, 1.0) == summarize(trace, params, 1.0)
        assert isinstance(summarize(trace, params, 1.0), SummaryMetrics)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1300.0, max_value=1300.0),
                st.floats(min_value=0.0, max_value=2230.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1000.0),
                st.floats(min_value=39.0, max_value=96.0),
                st.floats(min_value=314.0, max_value=314.4),
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([0.1, 1.0, 3600.0]),
    )
    def test_matches_row_by_row_seed(self, params, steps, dt_s):
        # Bit equality: each value the column reductions return, including
        # the energy totals' order of addition, must be the seed's.
        trace = [
            record(
                t_s=k * dt_s,
                p_bat_w=p_bat,
                p_pv_avail_w=avail,
                p_pv_w=avail * share,
                p_aux_w=aux,
                soc_pct=soc,
                omega_rad_s=omega,
            )
            for k, (p_bat, avail, share, aux, soc, omega) in enumerate(steps)
        ]
        expected = summarize_rows_seed(trace, params, dt_s)
        assert summarize(trace_of(trace), params, dt_s) == expected

"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the gate can be read off the
pytest output directly (run with -s to see the lines as they happen).
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from nanogrid_ems.cli import main
from nanogrid_ems.controller import _margins
from nanogrid_ems.engine import VIOLATION_BAND_FRACTION, run_scenario, summarize
from nanogrid_ems.model import aux_power, pv_power
from nanogrid_ems.profiles import load_scenario

from reference_fuzzy import infer_reference, random_covering_system
from trace_rows import rows


@contextmanager
def criterion(tag, description):
    try:
        yield
    except BaseException:
        print(f"{tag} FAIL: {description}")
        raise
    print(f"{tag} PASS: {description}")


@pytest.fixture(scope="module")
def scenario1_run():
    scenario, pv, load = load_scenario("scenario1_high_soc")
    start = time.perf_counter()
    trace = run_scenario(scenario, pv, load)
    elapsed = time.perf_counter() - start
    return scenario, trace, summarize(trace, scenario.params, scenario.dt_s), elapsed


@pytest.fixture(scope="module")
def scenario2_run():
    scenario, pv, load = load_scenario("scenario2_low_soc_4x")
    trace = run_scenario(scenario, pv, load)
    return scenario, trace, summarize(trace, scenario.params, scenario.dt_s)


@pytest.fixture(scope="module")
def stress_flc_run():
    scenario, pv, load = load_scenario("stress_charge")  # its controller is flc
    return scenario, run_scenario(scenario, pv, load)


@pytest.fixture(scope="module")
def stress_compare(tmp_path_factory):
    out = tmp_path_factory.mktemp("stress")
    code = main(["compare", "stress_charge", "--out", str(out)])
    assert code == 0
    summaries = {}
    for kind in ("flc", "proportional"):
        text = (out / f"stress_charge_{kind}_summary.txt").read_text()
        summaries[kind] = dict(
            (k.strip(), v.strip())
            for k, v in (line.split("=") for line in text.splitlines())
        )
    return summaries


def test_a1_high_soc_scenario(scenario1_run, params):
    scenario, trace, metrics, elapsed = scenario1_run
    with criterion("A1", "high-SOC run: no auxiliary energy, SOC and power in limits"):
        assert metrics.aux_energy_wh == 0.0
        assert metrics.soc_max_pct <= 95.0 + 0.1
        assert metrics.violations_charge == 0
        assert metrics.violations_discharge == 0
        lo = params.omega_nom_rad_s - params.d_omega_minus_max
        hi = params.omega_nom_rad_s + params.d_omega_plus_max
        assert metrics.omega_min_rad_s >= lo - 1e-12
        assert metrics.omega_max_rad_s <= hi + 1e-12
        assert metrics.omega_min_rad_s >= 314.085 - 1e-9
        assert metrics.omega_max_rad_s <= 314.32725 + 1e-9
        assert elapsed < 5.0


def test_a2_curtailment_only_above_nominal(scenario1_run, params):
    _, trace, metrics, _ = scenario1_run
    with criterion("A2", "PV energy is curtailed, and only at raised frequency"):
        assert metrics.curtailed_energy_wh > 0.0
        for r in rows(trace):
            if r.p_pv_avail_w - r.p_pv_w > 1e-9:
                assert r.omega_rad_s > params.omega_nom_rad_s


def test_a3_low_soc_heavy_load(scenario2_run, params):
    scenario, trace, metrics = scenario2_run
    with criterion("A3", "low-SOC 4x-load run: SOC floor held, power limits held, aux used"):
        assert metrics.soc_min_pct >= 40.0 - 0.1
        assert metrics.violations_charge == 0
        assert metrics.violations_discharge == 0
        assert metrics.aux_energy_wh > 0.0


def test_a4_low_soc_charging_trend(scenario2_run):
    scenario, trace, metrics = scenario2_run
    with criterion("A4", "low-SOC run charges most of the time and ends higher"):
        assert metrics.charging_fraction > 0.5
        assert trace.soc_pct[-1] > scenario.soc_init_pct


def test_a5_baseline_comparison(stress_compare):
    # "Fuzzy does not" holds only because violations_charge ignores over-band
    # runs of at most VIOLATION_MAX_RUN steps: on stress_charge the flc is over
    # the charge band on 5 819 one-step runs, a period-2 limit cycle (ROADMAP
    # item 17).
    with criterion("A5", "stress scenario: proportional violates charge limit, fuzzy does not"):
        assert int(stress_compare["proportional"]["violations_charge"]) >= 1
        assert int(stress_compare["flc"]["violations_charge"]) == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 18: the flc's period-2 limit cycle (item 17) crosses the band",
)
def test_a5_flc_never_over_the_charge_band(stress_flc_run):
    # A5's "fuzzy does not" with no over-band run forgiven.
    scenario, trace = stress_flc_run
    band = (1.0 + VIOLATION_BAND_FRACTION) * scenario.params.p_charge_max_w
    over = int((trace.p_bat_w > band).sum())
    assert over == 0, f"{over} steps over the {band} W charge band"


def test_a6_normalization_equations_exact(params):
    with criterion("A6", "state normalizations match hand values to 1e-12"):
        margins = _margins(params)
        # (margin index, soc_pct, p_bat_w > 0 charging, expected)
        cases = [
            (0, 95.0, 0.0, 0.0),
            (0, 40.0, 0.0, 1.0),
            (0, 94.9, 0.0, 0.1 / 55.0),
            (1, 60.0, 1000.0, 0.0),
            (1, 60.0, 0.0, 1.0),
            (1, 60.0, 250.0, 0.75),
            (2, 40.0, 0.0, 0.0),
            (2, 50.0, 0.0, 1.0),
            (2, 95.0, 0.0, 1.0),
            (3, 60.0, -1000.0, 0.0),
            (3, 60.0, -0.0, 1.0),
            (3, 60.0, -600.0, 0.4),
        ]
        for index, soc_pct, p_bat_w, expected in cases:
            assert abs(margins(soc_pct, p_bat_w)[index] - expected) <= 1e-12


def test_a7_droop_saturation_exact(params):
    with criterion("A7", "droop responses saturate exactly at the derived bounds"):
        assert aux_power(314.085, params) == 1000.0
        assert pv_power(params.omega_nom_rad_s + 0.167250, 2230.0, params) == 0.0
        # the same operating points written the other way stay within 1e-9 W
        assert aux_power(params.omega_nom_rad_s - 0.075, params) == pytest.approx(
            1000.0, abs=1e-9
        )
        assert pv_power(314.32725, 2230.0, params) == pytest.approx(0.0, abs=1e-9)


def test_a8_inference_against_brute_force(params):
    from nanogrid_ems.controller import FuzzyEms

    with criterion("A8", "inference matches the fine-grid oracle; corners are exact"):
        rng = random.Random(20260808)
        for _ in range(100):
            system = random_covering_system(rng, (-1.0, 0.5), (0.4, 2.5))
            x1, x2 = rng.random(), rng.random()
            width = system.output.hi - system.output.lo
            assert system.infer(x1, x2) == pytest.approx(
                infer_reference(system, x1, x2), abs=1e-4 * width
            )
        ems = FuzzyEms(params)
        assert ems.shift_plus(1.0, 1.0) == 0.0
        assert ems.shift_plus(0.0, 1.0) == params.d_omega_plus_max
        assert ems.shift_plus(1.0, 0.0) == params.d_omega_plus_max
        assert ems.shift_plus(0.0, 0.0) == params.d_omega_plus_max
        assert ems.shift_minus(1.0, 1.0) == -0.0
        assert ems.shift_minus(0.0, 1.0) == -params.d_omega_minus_max
        assert ems.shift_minus(1.0, 0.0) == -params.d_omega_minus_max
        assert ems.shift_minus(0.0, 0.0) == -params.d_omega_minus_max


def test_a9_conservation(scenario1_run, scenario2_run, stress_compare, params):
    with criterion("A9", "exact power balance and SOC bookkeeping on bundled runs"):
        for scenario, trace in [
            (scenario1_run[0], scenario1_run[1]),
            (scenario2_run[0], scenario2_run[1]),
        ]:
            for r in rows(trace):
                assert r.p_pv_w + r.p_aux_w - r.p_load_w - r.p_bat_w == 0.0
            stored = (
                (trace.soc_pct[-1] - scenario.soc_init_pct)
                / 100.0
                * scenario.params.e_bat_wh
            )
            integrated = math.fsum(trace.p_bat_w) * scenario.dt_s / 3600.0
            assert abs(stored - integrated) <= 1e-3


def test_a10_byte_identical_reruns(tmp_path):
    with criterion("A10", "repeated bundled commands produce byte-identical artifacts"):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "scenario1_high_soc", "--out", str(out1)]) == 0
        assert main(["run", "scenario1_high_soc", "--out", str(out2)]) == 0
        for name in (
            "scenario1_high_soc_flc_trace.csv",
            "scenario1_high_soc_flc_summary.txt",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        summary = (out1 / "scenario1_high_soc_flc_summary.txt").read_text()
        assert "aux_energy_wh = 0\n" in summary
        fis1, fis2 = tmp_path / "f1.cfg", tmp_path / "f2.cfg"
        assert main(["dump-fis", "--out", str(fis1)]) == 0
        assert main(["dump-fis", "--out", str(fis2)]) == 0
        assert fis1.read_bytes() == fis2.read_bytes()

"""Fixed-step closed-loop simulation and trace summaries.

Each step the controller reads the battery state observed at the end of
the previous step (one-step measurement delay, which avoids the algebraic
loop between battery power and frequency), commands a bus frequency, the
units respond, and the battery SOC integrates the resulting slack power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .controller import (
    CONTROLLER_KINDS,
    NanogridParams,
    make_controller,
    require_finite,
)
from .errors import ProfileOutOfRange, ValidationError
from .model import SLACK_LIMIT_FACTOR, battery_soc_update, grid_step

# Limit excursions are tolerated up to 5% of the limit for at most this many
# consecutive steps, absorbing the one-step measurement delay; anything
# longer counts as a violation episode.
VIOLATION_BAND_FRACTION = 0.05
VIOLATION_MAX_RUN = 3
SOC_BAND_PCT = 0.1

# Largest step count a scenario may ask for (about 116 days at dt = 1 s).
# A run holds its ten float64 trace columns, 80 B per step, beside a bounded
# rest: `run` on a flat 10 000 000-step scenario peaked at 869 MB of RSS.
MAX_STEPS = 10_000_000


@dataclass(eq=False)
class Profile:
    """Ordered (t, power) samples: finite, strictly increasing t, non-negative power."""

    name: str
    t_s: np.ndarray
    power_w: np.ndarray

    def __post_init__(self):
        self.t_s = np.asarray(self.t_s, dtype=float)
        self.power_w = np.asarray(self.power_w, dtype=float)
        if self.t_s.size < 2:
            raise ValidationError(f"profile {self.name!r} needs at least 2 samples")
        if not (np.all(np.isfinite(self.t_s)) and np.all(np.isfinite(self.power_w))):
            raise ValidationError(f"profile {self.name!r} has non-finite values")
        if not np.all(np.diff(self.t_s) > 0):
            raise ValidationError(f"profile {self.name!r} times must strictly increase")
        if np.any(self.power_w < 0):
            raise ValidationError(f"profile {self.name!r} has negative power values")

    def sample(self, ts: np.ndarray, duration_s: float) -> np.ndarray:
        """Linear interpolation at ``ts``; the profile must span [0, duration_s]."""
        if self.t_s[0] > 0.0 or self.t_s[-1] < duration_s:
            raise ProfileOutOfRange(
                f"profile {self.name!r} spans [{self.t_s[0]:g}, {self.t_s[-1]:g}] s "
                f"but the scenario needs [0, {duration_s:g}] s"
            )
        samples = np.interp(ts, self.t_s, self.power_w)
        # np.interp can round a sample just before a 0 W point below zero.
        return np.maximum(samples, 0.0, out=samples)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Everything needed to reproduce one run; profiles are file references.

    The fields after ``params`` are the config keys, in config order.
    """

    params: NanogridParams
    name: str = "scenario"
    pv_profile: str
    load_profile: str
    load_multiplier: float = 1.0
    soc_init_pct: float
    controller: str = CONTROLLER_KINDS[0]
    dt_s: float = 1.0
    duration_s: float = 43200.0

    def __post_init__(self):
        require_finite(self)
        # The name is the stem of the output files inside the output directory.
        if "/" in self.name or "\0" in self.name:
            raise ValidationError(f"name {self.name!r} must not hold '/' or NUL")
        # open() raises ValueError, not OSError, on a path that holds NUL.
        for ref in (self.pv_profile, self.load_profile):
            if "\0" in ref:
                raise ValidationError(f"profile reference {ref!r} must not hold NUL")
        if not self.dt_s > 0:
            raise ValidationError("dt must be positive")
        if self.duration_s < self.dt_s:
            raise ValidationError("duration must be at least one step")
        # Compared before _step_count rounds it up, as the quotient may be inf.
        if self.duration_s / self.dt_s - 1e-9 > MAX_STEPS:
            raise ValidationError(f"duration / dt exceeds {MAX_STEPS} steps")
        # One step at the slack limit may not cross the band between soc_min
        # and soc_min+10, which the depletion guard needs to see.
        p = self.params
        limit = SLACK_LIMIT_FACTOR * p.p_charge_max_w
        swing = 100.0 * limit * (self.dt_s / 3600.0) / p.e_bat_wh
        if not swing <= p.soc_min_plus10_pct - p.soc_min_pct:
            raise ValidationError(
                f"dt_s = {self.dt_s!r} lets one step at the slack limit move the SOC"
                f" by {swing:.6g}%, more than soc_min_plus10_pct - soc_min_pct"
            )
        if not self.load_multiplier > 0:
            raise ValidationError("load multiplier must be positive")
        if not 0.0 <= self.soc_init_pct <= 100.0:
            raise ValidationError("initial soc outside [0, 100]")
        if self.controller not in CONTROLLER_KINDS:
            raise ValidationError(f"unknown controller kind {self.controller!r}")


@dataclass(frozen=True, eq=False)
class Trace:
    """One run, one float64 column per quantity and one row per step."""

    t_s: np.ndarray
    p_pv_avail_w: np.ndarray
    p_pv_w: np.ndarray
    p_aux_w: np.ndarray
    p_load_w: np.ndarray
    p_bat_w: np.ndarray
    soc_pct: np.ndarray
    omega_rad_s: np.ndarray
    d_omega_plus: np.ndarray
    d_omega_minus: np.ndarray

    def __len__(self) -> int:
        return len(self.t_s)


TRACE_FIELDS = tuple(f.name for f in fields(Trace))


@dataclass(frozen=True)
class SummaryMetrics:
    max_charge_w: float
    max_discharge_w: float
    soc_min_pct: float
    soc_max_pct: float
    omega_min_rad_s: float
    omega_max_rad_s: float
    curtailed_energy_wh: float
    aux_energy_wh: float
    charging_fraction: float
    violations_charge: int
    violations_discharge: int
    violations_soc_high: int
    violations_soc_low: int


SUMMARY_FIELDS = tuple(f.name for f in fields(SummaryMetrics))


def _step_count(duration_s: float, dt_s: float) -> int:
    # Steps at t = 0, dt, ... strictly below duration; the epsilon guards
    # divisions like 2.1/0.3 (7.000000000000001) that land a hair above an integer.
    return int(math.ceil(duration_s / dt_s - 1e-9))


def run_scenario(scenario: Scenario, pv: Profile, load: Profile) -> Trace:
    """Run the closed loop; identical inputs give a bit-identical trace."""
    params, dt_s = scenario.params, scenario.dt_s
    controller = make_controller(scenario.controller, params)
    n = _step_count(scenario.duration_s, dt_s)
    # The products are taken in place, so no temporary column is made.
    ts = np.arange(n, dtype=float)
    ts *= dt_s
    pv_avail = pv.sample(ts, scenario.duration_s)
    # A Python float product overflows to inf without numpy's warning.
    if not math.isfinite(float(load.power_w.max()) * scenario.load_multiplier):
        raise ValidationError(
            f"load_multiplier = {scenario.load_multiplier!r} makes the load"
            f" profile {load.name!r} overflow"
        )
    load_w = load.sample(ts, scenario.duration_s)
    load_w *= scenario.load_multiplier

    # Memoryviews of the float64 columns hand out and take Python floats in
    # place: no row is copied, and a store costs less than numpy's.
    p_pv, p_aux, p_bat, soc_pct, omega, d_plus, d_minus = map(
        memoryview, np.empty((7, n))
    )
    soc = scenario.soc_init_pct
    p_bat_k = 0.0
    inputs = zip(memoryview(pv_avail), memoryview(load_w))
    for k, (p_avail_k, p_load_k) in enumerate(inputs):
        d_plus[k], d_minus[k], omega_k = controller.step(soc, p_bat_k)
        p_pv[k], p_aux[k], p_bat_k = grid_step(omega_k, p_avail_k, p_load_k, params)
        soc = battery_soc_update(soc, p_bat_k, dt_s, params)
        p_bat[k] = p_bat_k
        soc_pct[k] = soc
        omega[k] = omega_k
    return Trace(
        t_s=ts,
        p_pv_avail_w=pv_avail,
        p_pv_w=p_pv.obj,
        p_aux_w=p_aux.obj,
        p_load_w=load_w,
        p_bat_w=p_bat.obj,
        soc_pct=soc_pct.obj,
        omega_rad_s=omega.obj,
        d_omega_plus=d_plus.obj,
        d_omega_minus=d_minus.obj,
    )


def _count_episodes(flags: np.ndarray) -> int:
    """Number of runs of consecutive True flags longer than the tolerated run."""
    # int8 pads: an int pad would make np.diff work in int64, 8 B a row.
    edges = np.diff(flags.astype(np.int8), prepend=np.int8(0), append=np.int8(0))
    run_lengths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    return int(np.count_nonzero(run_lengths > VIOLATION_MAX_RUN))


def _sum_in_order(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, rounded after each addition, as
    Python 3.11's ``sum`` adds floats; the energy totals are pinned to it.
    The running sums overwrite ``values``."""
    # cumsum adds in order, unlike numpy's pairwise sum and Python 3.12's
    # compensated sum. An overflow gives inf, for require_finite to reject.
    # The last + 0.0 is the start value: an all -0.0 total becomes 0.0.
    with np.errstate(over="ignore"):
        return float(np.cumsum(values, out=values)[-1]) + 0.0


def summarize(trace: Trace, params: NanogridParams, dt_s: float) -> SummaryMetrics:
    """Pure aggregation of one trace of at least one step; idempotent."""
    hours = dt_s / 3600.0
    charge_band = (1.0 + VIOLATION_BAND_FRACTION) * params.p_charge_max_w
    discharge_band = (1.0 + VIOLATION_BAND_FRACTION) * params.p_discharge_max_w

    p_bat, soc, omega = trace.p_bat_w, trace.soc_pct, trace.omega_rad_s
    metrics = SummaryMetrics(
        max_charge_w=max(float(p_bat.max()), 0.0),
        max_discharge_w=max(float(-p_bat.min()), 0.0),
        soc_min_pct=float(soc.min()),
        soc_max_pct=float(soc.max()),
        omega_min_rad_s=float(omega.min()),
        omega_max_rad_s=float(omega.max()),
        curtailed_energy_wh=_sum_in_order(trace.p_pv_avail_w - trace.p_pv_w) * hours,
        aux_energy_wh=_sum_in_order(trace.p_aux_w.copy()) * hours,
        charging_fraction=np.count_nonzero(p_bat > 0.0) / len(trace),
        violations_charge=_count_episodes(p_bat > charge_band),
        violations_discharge=_count_episodes(p_bat < -discharge_band),
        violations_soc_high=_count_episodes(soc > params.soc_max_pct + SOC_BAND_PCT),
        violations_soc_low=_count_episodes(soc < params.soc_min_pct - SOC_BAND_PCT),
    )
    # Energy totals over ratings near the float range can overflow.
    require_finite(metrics)
    return metrics

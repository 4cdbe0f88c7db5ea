"""Verbatim copies of the per-step code and the profile parser as they were
before the step's constants moved to construction time, its results became
named tuples, profiles came to be parsed in chunks of lines, and
``battery_soc_update`` and the controllers' ``step`` came to take floats
instead of a ``BatteryState``.

Tests require the package to give the same floats as these copies, bit for
bit, and the same errors.  ``assert_same_fields`` at the end is the one
helper not copied.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nanogrid_ems.controller import NanogridParams, build_guard_system
from nanogrid_ems.engine import Profile
from nanogrid_ems.errors import ParseError, SlackOverload, ValidationError

PROFILE_HEADER = "t_s,power_w"

log = logging.getLogger(__name__)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


@dataclass(frozen=True)
class BatteryState:
    """SOC in percent plus signed battery power (positive = charging)."""

    soc_pct: float
    p_bat_w: float

    def __post_init__(self):
        if not 0.0 <= self.soc_pct <= 100.0:
            raise ValidationError(f"soc {self.soc_pct} outside [0, 100]")

    @property
    def p_charge_w(self) -> float:
        return max(self.p_bat_w, 0.0)

    @property
    def p_discharge_w(self) -> float:
        return max(-self.p_bat_w, 0.0)


@dataclass(frozen=True)
class FrequencyCommand:
    d_omega_plus: float
    d_omega_minus: float
    omega_cmd: float


def normalize_soc_high(soc_pct: float, params: NanogridParams) -> float:
    """Normalized SOC headroom below the maximum limit, clamped to [0, 1]."""
    span = params.soc_max_pct - params.soc_min_pct
    return _clamp01((params.soc_max_pct - soc_pct) / span)


def normalize_charge(p_charge_w: float, params: NanogridParams) -> float:
    """Normalized charging-power reserve, clamped to [0, 1]."""
    return _clamp01((params.p_charge_max_w - p_charge_w) / params.p_charge_max_w)


def normalize_soc_low(soc_pct: float, params: NanogridParams) -> float:
    """Normalized SOC margin above the minimum limit, clamped to [0, 1]."""
    span = params.soc_min_plus10_pct - params.soc_min_pct
    return _clamp01((soc_pct - params.soc_min_pct) / span)


def normalize_discharge(p_discharge_w: float, params: NanogridParams) -> float:
    """Normalized discharging-power reserve, clamped to [0, 1]."""
    return _clamp01(
        (params.p_discharge_max_w - p_discharge_w) / params.p_discharge_max_w
    )


class FuzzyEms:
    """Fuzzy supervisory controller; stateless given (BatteryState, params).

    Raw centroids of a Mamdani system cannot reach the ends of the output
    universe, so each guard output is passed through an affine calibration
    that pins the all-zero aggregate to exactly 0 and the all-large
    aggregate to exactly the shift bound.
    """

    def __init__(self, params: NanogridParams):
        self.params = params
        self.overcharge_guard = build_guard_system(
            "overcharge_guard", params.d_omega_plus_max
        )
        self.depletion_guard = build_guard_system(
            "depletion_guard", params.d_omega_minus_max
        )
        self._plus_cal = (
            self.overcharge_guard.term_centroid("zero"),
            self.overcharge_guard.term_centroid("large"),
        )
        self._minus_cal = (
            self.depletion_guard.term_centroid("zero"),
            self.depletion_guard.term_centroid("large"),
        )

    @staticmethod
    def _calibrated(system, cal, bound, x1, x2):
        c0, c1 = cal
        raw = system.infer(x1, x2)
        return bound * _clamp01((raw - c0) / (c1 - c0))

    def shift_plus(self, d_soc_high: float, d_charge: float) -> float:
        """Upward shift in [0, d_omega_plus_max] driving PV curtailment."""
        return self._calibrated(
            self.overcharge_guard,
            self._plus_cal,
            self.params.d_omega_plus_max,
            d_soc_high,
            d_charge,
        )

    def shift_minus(self, d_soc_low: float, d_discharge: float) -> float:
        """Downward shift in [-d_omega_minus_max, 0] driving auxiliary dispatch."""
        magnitude = self._calibrated(
            self.depletion_guard,
            self._minus_cal,
            self.params.d_omega_minus_max,
            d_soc_low,
            d_discharge,
        )
        return -magnitude

    def step(self, state: BatteryState) -> FrequencyCommand:
        p = self.params
        plus = self.shift_plus(
            normalize_soc_high(state.soc_pct, p), normalize_charge(state.p_charge_w, p)
        )
        minus = self.shift_minus(
            normalize_soc_low(state.soc_pct, p),
            normalize_discharge(state.p_discharge_w, p),
        )
        return FrequencyCommand(plus, minus, p.omega_nom_rad_s + plus + minus)


class ProportionalEms:
    """Droop-style baseline: shifts scale with the SOC margins alone.

    Deliberately blind to the instantaneous battery power, which is what
    the comparison scenarios expose.
    """

    def __init__(self, params: NanogridParams):
        self.params = params

    def step(self, state: BatteryState) -> FrequencyCommand:
        p = self.params
        plus = p.d_omega_plus_max * (1.0 - normalize_soc_high(state.soc_pct, p))
        minus = -p.d_omega_minus_max * (1.0 - normalize_soc_low(state.soc_pct, p))
        return FrequencyCommand(plus, minus, p.omega_nom_rad_s + plus + minus)


# |p_bat| beyond this multiple of the charge limit signals a mis-sized
# scenario rather than a controller bug.
_SLACK_LIMIT_FACTOR = 4.0


@dataclass(frozen=True)
class BusState:
    """All bus quantities for one step; p_bat = p_pv + p_aux - p_load exactly."""

    omega_rad_s: float
    p_pv_avail_w: float
    p_pv_w: float
    p_aux_w: float
    p_load_w: float
    p_bat_w: float


def pv_power(omega_rad_s: float, p_avail_w: float, params: NanogridParams) -> float:
    """Delivered PV power after frequency-droop curtailment."""
    curtail = max(omega_rad_s - params.omega_nom_rad_s, 0.0) / params.m_pv_rad_s_per_w
    return min(max(p_avail_w - curtail, 0.0), p_avail_w)


def aux_power(omega_rad_s: float, params: NanogridParams) -> float:
    """Auxiliary unit output; floats at zero until frequency drops below nominal."""
    lift = max(params.omega_nom_rad_s - omega_rad_s, 0.0) / params.m_aux_rad_s_per_w
    return min(lift, params.p_aux_rating_w)


def grid_step(
    omega_cmd_rad_s: float,
    p_avail_w: float,
    p_load_w: float,
    params: NanogridParams,
) -> BusState:
    """Resolve unit powers at the commanded frequency; battery is the slack."""
    p_pv = pv_power(omega_cmd_rad_s, p_avail_w, params)
    p_aux = aux_power(omega_cmd_rad_s, params)
    p_bat = p_pv + p_aux - p_load_w
    # Negated so that a NaN power fails the check too.
    if not abs(p_bat) <= _SLACK_LIMIT_FACTOR * params.p_charge_max_w:
        raise SlackOverload(
            f"battery asked for {p_bat:.0f} W "
            f"(limit {_SLACK_LIMIT_FACTOR * params.p_charge_max_w:.0f} W)"
        )
    return BusState(omega_cmd_rad_s, p_avail_w, p_pv, p_aux, p_load_w, p_bat)


def battery_soc_update(state: BatteryState, dt_s: float, params: NanogridParams) -> float:
    """Coulomb-counting SOC update at constant voltage and unit efficiency."""
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    delta = 100.0 * state.p_bat_w * (dt_s / 3600.0) / params.e_bat_wh
    raw = state.soc_pct + delta
    clamped = min(100.0, max(0.0, raw))
    if clamped != raw:
        log.warning("soc clamped from %.6f to %.1f", raw, clamped)
    return clamped


def _read_text(source) -> tuple[str, str]:
    """Return (text, display name) for a path or file-like source."""
    if hasattr(source, "read"):
        return source.read(), getattr(source, "name", "<stream>")
    path = Path(source)
    return path.read_text(encoding="utf-8"), str(path)


def load_profile(source, name: str | None = None) -> Profile:
    """Parse and validate a profile file (header ``t_s,power_w``)."""
    text, display = _read_text(source)
    lines = text.splitlines()
    if not lines or lines[0].strip() != PROFILE_HEADER:
        raise ParseError(f"{display}: expected header {PROFILE_HEADER!r}", line=1)
    ts, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{display}: expected 2 fields, got {len(parts)}", lineno)
        try:
            ts.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise ParseError(f"{display}: {exc}", lineno) from None
    if name is None:
        name = Path(display).stem
    return Profile(name, np.array(ts), np.array(values))



def assert_same_fields(new, seed) -> None:
    """``new`` has ``seed``'s fields in order, each equal with the same sign."""
    names = list(seed.__dataclass_fields__)
    assert list(new._fields) == names
    for name in names:
        a, b = getattr(new, name), getattr(seed, name)
        assert a == b, name
        assert math.copysign(1.0, a) == math.copysign(1.0, b), name

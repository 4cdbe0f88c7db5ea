"""Supervisory energy management for the EV-battery bus-forming inverter.

The controller watches only the local battery state (state of charge and
instantaneous power) and encodes its decisions as a shift of the AC bus
frequency: a positive shift makes the PV unit curtail, a negative shift
makes the auxiliary unit inject.  Two fuzzy guard subsystems produce the
two shifts; a proportional controller is provided as a baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ValidationError
from .fuzzy import SAMPLES, FuzzySystem, LinguisticVariable, Rule, triangular


def require_finite(config) -> None:
    """Reject a dataclass whose float fields include a NaN or an infinity."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class NanogridParams:
    """Plant ratings, battery limits and droop coefficients.

    Single source of truth for all limits; the frequency-shift bounds and
    battery energy are derived from it.
    """

    p_pv_rating_w: float = 2230.0
    p_aux_rating_w: float = 1000.0
    c_bat_ah: float = 100.0
    v_bat_v: float = 120.0
    soc_max_pct: float = 95.0
    soc_min_plus10_pct: float = 50.0
    soc_min_pct: float = 40.0
    p_charge_max_w: float = 1000.0
    p_discharge_max_w: float = 1000.0
    omega_nom_rad_s: float = 314.16
    m_pv_rad_s_per_w: float = 0.75e-4
    m_aux_rad_s_per_w: float = 0.75e-4

    def __post_init__(self):
        require_finite(self)
        soc = (self.soc_min_pct, self.soc_min_plus10_pct, self.soc_max_pct)
        if not 0.0 <= soc[0] < soc[1] < soc[2] <= 100.0:
            raise ValidationError(
                "SOC thresholds must be ordered 0 <= min < min+10 < max <= 100"
            )
        # Every field but the SOC thresholds is a rating, limit or slope.
        for f in fields(self):
            if not f.name.endswith("_pct") and getattr(self, f.name) <= 0:
                raise ValidationError("ratings, limits and droop slopes must be positive")
        # A guard samples [0, bound] at SAMPLES midpoints: its sample step
        # must not underflow to 0, nor its SAMPLES-point sums overflow.
        for name in ("d_omega_plus_max", "d_omega_minus_max"):
            bound = getattr(self, name)
            if not (
                bound / SAMPLES > 0.0
                and bound * SAMPLES < math.inf
                and bound < self.omega_nom_rad_s
            ):
                raise ValidationError(
                    f"{name} = {bound!r} outside (0, omega_nom_rad_s), or its"
                    f" {SAMPLES}-sample grid leaves the float range"
                )
        if not 0.0 < self.e_bat_wh < math.inf:
            raise ValidationError(f"e_bat_wh = {self.e_bat_wh!r} must be finite and > 0")

    @property
    def d_omega_plus_max(self) -> float:
        """Largest upward shift: saturates PV curtailment, rad/s."""
        return self.m_pv_rad_s_per_w * self.p_pv_rating_w

    @property
    def d_omega_minus_max(self) -> float:
        """Largest downward shift magnitude: saturates auxiliary dispatch, rad/s."""
        return self.m_aux_rad_s_per_w * self.p_aux_rating_w

    @property
    def e_bat_wh(self) -> float:
        return self.c_bat_ah * self.v_bat_v


def _margins(params: NanogridParams):
    """``margins(soc_pct, p_bat_w)`` giving the four normalized margins.

    They are ``(soc headroom below the maximum, charging-power reserve,
    soc margin above the minimum, discharging-power reserve)``, each
    clamped to [0, 1]; ``p_bat_w`` > 0 is charging.  Spans and limits are
    read from ``params`` once.
    """
    soc_max, soc_min = params.soc_max_pct, params.soc_min_pct
    high_span = soc_max - soc_min
    low_span = params.soc_min_plus10_pct - soc_min
    charge_max, discharge_max = params.p_charge_max_w, params.p_discharge_max_w

    def margins(soc_pct: float, p_bat_w: float) -> tuple[float, float, float, float]:
        # max(0.0, x) of each margin, then min(1.0, x) of the SOC margins, with
        # the builtins' comparisons written out. A power margin is (limit -
        # power) / limit with the power at least 0, so it is never above 1.
        high = (soc_max - soc_pct) / high_span
        high = high if high > 0.0 else 0.0
        charge = 1.0 if p_bat_w < 0.0 else (charge_max - p_bat_w) / charge_max
        charge = charge if charge > 0.0 else 0.0
        low = (soc_pct - soc_min) / low_span
        low = low if low > 0.0 else 0.0
        discharge = 1.0 if p_bat_w > 0.0 else (discharge_max + p_bat_w) / discharge_max
        discharge = discharge if discharge > 0.0 else 0.0
        return (
            high if high < 1.0 else 1.0,
            charge,
            low if low < 1.0 else 1.0,
            discharge,
        )

    return margins


# Shared 3-term partition for both normalized inputs.
_INPUT_TERMS = (
    ("low", triangular(0.0, 0.0, 0.5)),
    ("med", triangular(0.0, 0.5, 1.0)),
    ("high", triangular(0.5, 1.0, 1.0)),
)

# Consequent for every (soc margin term, power margin term) cell.  Low margin
# on either axis must dominate: curtail hard or inject hard.
_RULE_TABLE = {
    ("low", "low"): "large",
    ("low", "med"): "large",
    ("low", "high"): "large",
    ("med", "low"): "large",
    ("high", "low"): "large",
    ("med", "med"): "small",
    ("med", "high"): "zero",
    ("high", "med"): "zero",
    ("high", "high"): "zero",
}


def build_guard_system(name: str, span: float) -> FuzzySystem:
    """One guard subsystem mapping two normalized margins to a shift magnitude."""
    soc_margin = LinguisticVariable("soc_margin", 0.0, 1.0, _INPUT_TERMS)
    power_margin = LinguisticVariable("power_margin", 0.0, 1.0, _INPUT_TERMS)
    output = LinguisticVariable(
        "shift",
        0.0,
        span,
        (
            ("zero", triangular(0.0, 0.0, 0.4 * span)),
            ("small", triangular(0.2 * span, 0.5 * span, 0.8 * span)),
            ("large", triangular(0.6 * span, span, span)),
        ),
    )
    rules = tuple(
        Rule(
            antecedent=(("soc_margin", soc_term), ("power_margin", power_term)),
            consequent=out_term,
        )
        for (soc_term, power_term), out_term in _RULE_TABLE.items()
    )
    return FuzzySystem(name, (soc_margin, power_margin), output, rules)


def _guard(name: str, bound: float):
    """``(system, shift)``: one guard of width ``abs(bound)`` and its shift.

    ``shift(x1, x2)`` maps the zero and large terms' centroids to 0 and 1,
    clamps with min(1.0, max(0.0, x))'s comparisons written out, and
    scales by ``bound``, which ``NanogridParams`` holds inside the float
    range that the sampled centroids need.
    """
    system = build_guard_system(name, abs(bound))
    c0 = system.term_centroid("zero")
    span = system.term_centroid("large") - c0

    def shift(x1: float, x2: float) -> float:
        x = (system.infer(x1, x2) - c0) / span
        x = x if x > 0.0 else 0.0
        return bound * (x if x < 1.0 else 1.0)

    return system, shift


class FuzzyEms:
    """Fuzzy supervisory controller; stateless given (soc_pct, p_bat_w, params).

    Raw centroids of a Mamdani system cannot reach the ends of the output
    universe, so each guard output is passed through an affine calibration
    that pins the all-zero aggregate to exactly 0 and the all-large
    aggregate to exactly the shift bound.  ``shift_plus(d_soc_high,
    d_charge)`` is the upward shift in [0, d_omega_plus_max] driving PV
    curtailment; ``shift_minus(d_soc_low, d_discharge)`` is the downward
    shift in [-d_omega_minus_max, 0] driving auxiliary dispatch.
    """

    def __init__(self, params: NanogridParams):
        self.params = params
        # Negating the bound once equals negating every shift: -(b * c) is
        # (-b) * c bit for bit.
        self.overcharge_guard, self.shift_plus = _guard(
            "overcharge_guard", params.d_omega_plus_max
        )
        self.depletion_guard, self.shift_minus = _guard(
            "depletion_guard", -params.d_omega_minus_max
        )
        self._margins = _margins(params)

    def step(self, soc_pct: float, p_bat_w: float) -> tuple[float, float, float]:
        """``(d_omega_plus, d_omega_minus, omega_cmd)``; p_bat_w > 0 is charging."""
        high, charge, low, discharge = self._margins(soc_pct, p_bat_w)
        plus = self.shift_plus(high, charge)
        minus = self.shift_minus(low, discharge)
        return plus, minus, self.params.omega_nom_rad_s + plus + minus


class ProportionalEms:
    """Droop-style baseline: shifts scale with the SOC margins alone.

    Deliberately blind to the instantaneous battery power, which is what
    the comparison scenarios expose.
    """

    def __init__(self, params: NanogridParams):
        self.params = params
        self._plus_max = params.d_omega_plus_max
        # Negation is exact, so negating once equals negating every step.
        self._minus_max = -params.d_omega_minus_max
        self._margins = _margins(params)

    def step(self, soc_pct: float, p_bat_w: float) -> tuple[float, float, float]:
        """``(d_omega_plus, d_omega_minus, omega_cmd)``, as ``FuzzyEms.step``."""
        high, _, low, _ = self._margins(soc_pct, p_bat_w)
        plus = self._plus_max * (1.0 - high)
        minus = self._minus_max * (1.0 - low)
        return plus, minus, self.params.omega_nom_rad_s + plus + minus


_CONTROLLERS = {"flc": FuzzyEms, "proportional": ProportionalEms}
CONTROLLER_KINDS = tuple(_CONTROLLERS)


def make_controller(kind: str, params: NanogridParams):
    return _CONTROLLERS[kind](params)

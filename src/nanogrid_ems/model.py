"""Quasi-static unit models and the per-step power balance.

Inverter inner loops are assumed to settle within one step, so the
commanded frequency is the bus frequency.  Each droop response is
one-sided: PV curtails only above nominal frequency, the auxiliary
unit injects only below it, and the battery closes the balance as the
slack unit (positive battery power = charging).
"""

from __future__ import annotations

import logging

from .controller import NanogridParams
from .errors import SlackOverload

log = logging.getLogger(__name__)

# |p_bat| beyond this multiple of the charge limit signals a mis-sized
# scenario rather than a controller bug.
SLACK_LIMIT_FACTOR = 4.0


def pv_power(omega_rad_s: float, p_avail_w: float, params: NanogridParams) -> float:
    """Delivered PV power after frequency-droop curtailment, at most ``p_avail_w``.

    Needs ``p_avail_w >= 0``, which ``Profile.sample`` makes true.
    """
    curtail = max(omega_rad_s - params.omega_nom_rad_s, 0.0) / params.m_pv_rad_s_per_w
    return max(p_avail_w - curtail, 0.0)


def aux_power(omega_rad_s: float, params: NanogridParams) -> float:
    """Auxiliary unit output; floats at zero until frequency drops below nominal."""
    lift = max(params.omega_nom_rad_s - omega_rad_s, 0.0) / params.m_aux_rad_s_per_w
    return min(lift, params.p_aux_rating_w)


def grid_step(
    omega_cmd_rad_s: float,
    p_avail_w: float,
    p_load_w: float,
    params: NanogridParams,
) -> tuple[float, float, float]:
    """``(p_pv_w, p_aux_w, p_bat_w)`` at the commanded frequency; battery is the slack.

    p_bat = p_pv + p_aux - p_load exactly.
    """
    p_pv = pv_power(omega_cmd_rad_s, p_avail_w, params)
    p_aux = aux_power(omega_cmd_rad_s, params)
    p_bat = p_pv + p_aux - p_load_w
    limit = SLACK_LIMIT_FACTOR * params.p_charge_max_w
    # Negated so that a NaN power fails the check too.
    if not abs(p_bat) <= limit:
        raise SlackOverload(f"battery asked for {p_bat:.0f} W (limit {limit:.0f} W)")
    return p_pv, p_aux, p_bat


def battery_soc_update(
    soc_pct: float, p_bat_w: float, dt_s: float, params: NanogridParams
) -> float:
    """Coulomb-counting SOC update at constant voltage and unit efficiency."""
    delta = 100.0 * p_bat_w * (dt_s / 3600.0) / params.e_bat_wh
    raw = soc_pct + delta
    clamped = min(100.0, max(0.0, raw))
    if clamped != raw:
        log.warning("soc clamped from %.6f to %.1f", raw, clamped)
    return clamped

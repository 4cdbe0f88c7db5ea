"""Row views of the columnar ``Trace``, for tests that read or build one step at a time.

``summarize_rows_seed`` keeps the package's original row-by-row summary, so
the column reductions of ``summarize`` can be checked to the bit."""

from dataclasses import make_dataclass

import numpy as np

from nanogrid_ems.engine import (
    SOC_BAND_PCT,
    TRACE_FIELDS,
    VIOLATION_BAND_FRACTION,
    VIOLATION_MAX_RUN,
    SummaryMetrics,
    Trace,
)

# One step of a trace: the values of every column at one index.
Row = make_dataclass("Row", [(f, float) for f in TRACE_FIELDS], frozen=True)


def rows(trace: Trace) -> list:
    """The steps of ``trace`` as rows of Python floats."""
    columns = [getattr(trace, f).tolist() for f in TRACE_FIELDS]
    return [Row(*values) for values in zip(*columns)]


def trace_of(steps) -> Trace:
    """A trace with one row per element of ``steps``."""
    return Trace(
        **{f: np.array([getattr(r, f) for r in steps], dtype=float) for f in TRACE_FIELDS}
    )


def _count_episodes_seed(flags) -> int:
    episodes = 0
    run = 0
    for flag in flags:
        run = run + 1 if flag else 0
        if run == VIOLATION_MAX_RUN + 1:
            episodes += 1
    return episodes


def _sum_seed(values) -> float:
    """Floats added as the seed's ``sum`` added them on Python 3.11: in order,
    from 0.0, without the compensation Python 3.12's ``sum`` adds."""
    total = 0.0
    for value in values:
        total += value
    return total


def summarize_rows_seed(trace, params, dt_s) -> SummaryMetrics:
    """The original ``summarize``, over a list of rows."""
    hours = dt_s / 3600.0
    charge_band = (1.0 + VIOLATION_BAND_FRACTION) * params.p_charge_max_w
    discharge_band = (1.0 + VIOLATION_BAND_FRACTION) * params.p_discharge_max_w

    p_bat = [r.p_bat_w for r in trace]
    soc = [r.soc_pct for r in trace]
    omega = [r.omega_rad_s for r in trace]
    return SummaryMetrics(
        max_charge_w=max(max(p, 0.0) for p in p_bat),
        max_discharge_w=max(max(-p, 0.0) for p in p_bat),
        soc_min_pct=min(soc),
        soc_max_pct=max(soc),
        omega_min_rad_s=min(omega),
        omega_max_rad_s=max(omega),
        curtailed_energy_wh=_sum_seed(r.p_pv_avail_w - r.p_pv_w for r in trace) * hours,
        aux_energy_wh=_sum_seed(r.p_aux_w for r in trace) * hours,
        charging_fraction=sum(1 for p in p_bat if p > 0.0) / len(trace),
        violations_charge=_count_episodes_seed(p > charge_band for p in p_bat),
        violations_discharge=_count_episodes_seed(-p > discharge_band for p in p_bat),
        violations_soc_high=_count_episodes_seed(
            s > params.soc_max_pct + SOC_BAND_PCT for s in soc
        ),
        violations_soc_low=_count_episodes_seed(
            s < params.soc_min_pct - SOC_BAND_PCT for s in soc
        ),
    )

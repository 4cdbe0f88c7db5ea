"""Regenerate the bundled profiles and scenario configs.

The curves are synthetic stand-ins with the qualitative features the
bundled scenarios need: PV availability is zero for the first 30 minutes
and then follows a clipped sine that plateaus at the PV rating around
midday; the residential load starts at 200 W with a morning peak and a
larger evening peak, and stays below 500 W so that a healthy battery can
carry it alone.  Output is byte-deterministic.
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "nanogrid_ems" / "data"

DAY_S = 43200  # 12 h horizon
STEP_S = 60
PV_RATING_W = 2230.0
PV_SHAPE_PEAK_W = 2700.0  # pre-clip amplitude; the clip creates the plateau
PV_SUNRISE_S = 1800

# Residential load polyline, (hour, watts).  Morning peak near hour 2,
# shallow midday, evening peak near hour 11.5.
LOAD_BREAKPOINTS = [
    (0.0, 200.0),
    (0.5, 204.0),
    (1.0, 215.0),
    (1.5, 275.0),
    (2.0, 345.0),
    (2.5, 330.0),
    (3.0, 318.0),
    (4.0, 312.0),
    (5.0, 310.0),
    (6.0, 312.0),
    (7.0, 318.0),
    (8.0, 330.0),
    (9.0, 360.0),
    (10.0, 410.0),
    (11.0, 455.0),
    (11.5, 472.0),
    (12.0, 465.0),
]

STRESS_LOAD_W = 120.0

# Stress PV: quick climb to the full rating and a long plateau, so a large
# surplus meets the battery while its SOC is still mid-range.
STRESS_PV_BREAKPOINTS = [
    (0.0, 0.0),
    (0.5, 0.0),
    (1.0, PV_RATING_W),
    (11.0, PV_RATING_W),
    (12.0, 0.0),
]


def pv_available(t_s: float) -> float:
    if t_s < PV_SUNRISE_S:
        return 0.0
    x = (t_s - PV_SUNRISE_S) / (DAY_S - PV_SUNRISE_S)
    return min(PV_RATING_W, PV_SHAPE_PEAK_W * math.sin(math.pi * x))


def polyline_at(points, t_s: float) -> float:
    """The (hour, watts) polyline ``points`` at ``t_s`` seconds."""
    h = t_s / 3600.0
    for (h0, w0), (h1, w1) in zip(points, points[1:]):
        if h0 <= h <= h1:
            return w0 + (w1 - w0) * (h - h0) / (h1 - h0)
    return points[-1][1]


def write_profile(path: Path, values) -> None:
    lines = ["t_s,power_w"]
    lines += [f"{t},{v:.3f}" for t, v in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


SCENARIOS = {
    # High initial SOC on the plain residential day: PV is curtailed, the
    # auxiliary unit never runs.
    "scenario1_high_soc": {
        "pv_profile": "pv_clear_day.csv",
        "load_profile": "load_residential.csv",
        "load_multiplier": "1.0",
        "soc_init_pct": "94.9",
    },
    # Battery at its minimum with the load scaled 4x: the auxiliary unit
    # charges the battery and both power limits are exercised.
    "scenario2_low_soc_4x": {
        "pv_profile": "pv_clear_day.csv",
        "load_profile": "load_residential.csv",
        "load_multiplier": "4.0",
        "soc_init_pct": "40.0",
    },
    # Large PV surplus into a nearly idle house: exposes a controller that
    # ignores the charging-power limit.
    "stress_charge": {
        "pv_profile": "pv_high_plateau.csv",
        "load_profile": "load_low_flat.csv",
        "load_multiplier": "1.0",
        "soc_init_pct": "60.0",
    },
}


def write_scenarios() -> None:
    for name, fields in SCENARIOS.items():
        lines = [f"name = {name}"]
        lines += [f"{key} = {value}" for key, value in fields.items()]
        lines += ["controller = flc", "dt_s = 1.0", f"duration_s = {DAY_S}.0"]
        path = DATA / f"{name}.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def main() -> int:
    DATA.mkdir(parents=True, exist_ok=True)
    grid = range(0, DAY_S + STEP_S, STEP_S)
    write_profile(DATA / "pv_clear_day.csv", [(t, pv_available(t)) for t in grid])
    load = [(t, polyline_at(LOAD_BREAKPOINTS, t)) for t in grid]
    write_profile(DATA / "load_residential.csv", load)
    write_profile(
        DATA / "load_low_flat.csv", [(t, STRESS_LOAD_W) for t in (0, DAY_S)]
    )
    stress_pv = [(t, polyline_at(STRESS_PV_BREAKPOINTS, t)) for t in grid]
    write_profile(DATA / "pv_high_plateau.csv", stress_pv)
    write_scenarios()
    print(f"wrote profiles and scenarios under {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded generator for the ``measured_compare`` workload's inputs.

It writes a scenario config and two "measured-style" profiles: PV sampled
at 10 Hz with cloud transients, and a noisy household load with appliance
spikes.  Both span 12 h, so each file has 432 001 rows.  The same seed
gives byte-identical files.

The envelopes are chosen so that both controllers pass through every
rule-term mix of both fuzzy guards on any seed:

- a heavy morning load drains the battery from 52% into the 40-50% band,
  where the depletion guard and the auxiliary unit act;
- a midday PV surplus pushes the charging power to the 1000 W limit and
  the SOC above 67.5%, where the overcharge guard's SOC margin is "low";
- the evening load discharges it again.

Limits that hold for every seed: PV stays within its 2230 W rating and the
load within [50, 2900] W.  So |p_bat| <= 2230 + 1000 W, well under the
4 x 1000 W slack limit.  The 12 kWh battery stays inside [0, 100] % SOC.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

DAY_S = 43200
RATE_HZ = 10
N_ROWS = DAY_S * RATE_HZ + 1

PV_RATING_W = 2230.0
PV_SHAPE_PEAK_W = 2700.0  # pre-clip amplitude; the clip makes a plateau
PV_SUNRISE_S = 1800.0
CLOUDS_PER_DAY = 60

# Load envelope polyline, (hour, watts): heavy morning, light midday,
# heavy evening.
LOAD_ENVELOPE = (
    (0.0, 900.0),
    (1.0, 1150.0),
    (2.0, 1200.0),
    (3.0, 850.0),
    (4.0, 400.0),
    (8.0, 400.0),
    (9.0, 800.0),
    (10.0, 1100.0),
    (11.0, 1200.0),
    (12.0, 1000.0),
)
LOAD_MIN_W = 50.0
LOAD_MAX_W = 2900.0
SPIKES_PER_DAY = 40

SCENARIO_NAME = "measured_day"
PV_FILE = "measured_pv.csv"
LOAD_FILE = "measured_load.csv"
SCENARIO_FILE = f"{SCENARIO_NAME}.cfg"


def _events(rng, per_day, min_s, mean_s, max_s):
    """Start and end sample indices of Poisson-timed events."""
    count = rng.poisson(per_day)
    starts = rng.uniform(0.0, DAY_S, count)
    lengths = np.clip(rng.exponential(mean_s, count), min_s, max_s)
    lo = (starts * RATE_HZ).astype(np.int64)
    hi = np.minimum(((starts + lengths) * RATE_HZ).astype(np.int64), N_ROWS)
    return lo, hi


def pv_profile(rng, t_s):
    x = np.clip((t_s - PV_SUNRISE_S) / (DAY_S - PV_SUNRISE_S), 0.0, 1.0)
    clear = np.minimum(PV_RATING_W, PV_SHAPE_PEAK_W * np.sin(np.pi * x))
    attenuation = np.ones(N_ROWS)
    lo, hi = _events(rng, CLOUDS_PER_DAY, 10.0, 120.0, 900.0)
    depths = rng.uniform(0.3, 0.8, lo.size)
    ramp = 10 * RATE_HZ  # cloud edges pass in about 10 s
    for a, b, depth in zip(lo.tolist(), hi.tolist(), depths.tolist()):
        k = np.arange(a, b)
        edge = np.minimum(np.minimum(k - a, b - 1 - k) / ramp, 1.0)
        np.minimum(attenuation[a:b], 1.0 - depth * edge, out=attenuation[a:b])
    jitter = 1.0 + 0.01 * rng.standard_normal(N_ROWS)
    return np.clip(clear * attenuation * jitter, 0.0, PV_RATING_W)


def load_profile(rng, t_s):
    hours, watts = zip(*LOAD_ENVELOPE)
    base = np.interp(t_s / 3600.0, hours, watts)
    # Noise correlated over about 5 s, plus fast jitter.
    window = 5 * RATE_HZ
    slow = np.convolve(rng.standard_normal(N_ROWS), np.ones(window), mode="same")
    load = base + 80.0 * slow / np.sqrt(window) + 15.0 * rng.standard_normal(N_ROWS)
    lo, hi = _events(rng, SPIKES_PER_DAY, 5.0, 90.0, 300.0)
    heights = rng.uniform(800.0, 1500.0, lo.size)
    for a, b, height in zip(lo.tolist(), hi.tolist(), heights.tolist()):
        load[a:b] += height
    return np.clip(load, LOAD_MIN_W, LOAD_MAX_W)


def _write_profile(path: Path, t_s, power_w) -> None:
    rows = [f"{t:.1f},{p + 0.0:.3f}" for t, p in zip(t_s.tolist(), power_w.tolist())]
    path.write_text("t_s,power_w\n" + "\n".join(rows) + "\n", encoding="utf-8")


def write_inputs(out_dir: Path, seed: int) -> Path:
    """Write the scenario and its two profiles under ``out_dir``; return the config path."""
    rng = np.random.Generator(np.random.PCG64(seed))
    t_s = np.arange(N_ROWS) / RATE_HZ
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_profile(out_dir / PV_FILE, t_s, pv_profile(rng, t_s))
    _write_profile(out_dir / LOAD_FILE, t_s, load_profile(rng, t_s))
    config = out_dir / SCENARIO_FILE
    config.write_text(
        "\n".join(
            [
                f"name = {SCENARIO_NAME}",
                f"pv_profile = {PV_FILE}",
                f"load_profile = {LOAD_FILE}",
                "load_multiplier = 1.0",
                "soc_init_pct = 52.0",
                "controller = flc",
                "dt_s = 1.0",
                f"duration_s = {DAY_S}.0",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return config

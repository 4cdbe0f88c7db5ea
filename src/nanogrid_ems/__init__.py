"""Islanded AC nanogrid simulation with bus-frequency signaling.

A PV unit, an EV battery acting as the bus-forming slack, an auxiliary
turbine and a load share one AC bus without communication links: the
supervisory controller in the battery inverter shifts the bus frequency
and the other units respond through their droop characteristics.
"""

__version__ = "0.1.0"

from .controller import (
    BatteryState,
    FrequencyCommand,
    FuzzyEms,
    NanogridParams,
    ProportionalEms,
    make_controller,
    normalize_charge,
    normalize_discharge,
    normalize_soc_high,
    normalize_soc_low,
)
from .engine import Profile, Scenario, SummaryMetrics, Trace, run_scenario, summarize
from .fuzzy import (
    FuzzySystem,
    LinguisticVariable,
    MembershipFunction,
    Rule,
    fuzzify,
    mf_eval,
    trapezoidal,
    triangular,
)
from .model import BusState, aux_power, battery_soc_update, grid_step, pv_power
from .profiles import (
    load_profile,
    load_scenario,
    parse_scenario,
    render_scenario,
    write_outputs,
)

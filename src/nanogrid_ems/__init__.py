"""Islanded AC nanogrid simulation with bus-frequency signaling.

A PV unit, an EV battery acting as the bus-forming slack, an auxiliary
turbine and a load share one AC bus without communication links: the
supervisory controller in the battery inverter shifts the bus frequency
and the other units respond through their droop characteristics.
"""

__version__ = "0.1.0"

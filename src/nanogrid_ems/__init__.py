"""Islanded AC nanogrid simulation with bus-frequency signaling.

A PV unit, an EV battery acting as the bus-forming slack, an auxiliary
turbine and a load share one AC bus without communication links: the
supervisory controller in the battery inverter shifts the bus frequency
and the other units respond through their droop characteristics.
"""

import logging

__version__ = "0.1.0"

# Log records reach only the handlers the caller configures. Without this
# handler, Python's last-resort handler would print each one to stderr.
logging.getLogger(__name__).addHandler(logging.NullHandler())

"""Discrete-event MANET simulator comparing DSDV, AODV and DSR routing."""

__version__ = "0.1.0"

from .engine import Simulator, Event, RngStream, SchedulingInPast
from .scenario import ScenarioConfig, ConfigInvalid, run_scenario

__all__ = [
    "Simulator",
    "Event",
    "RngStream",
    "SchedulingInPast",
    "ScenarioConfig",
    "ConfigInvalid",
    "run_scenario",
]

"""Scheduler-evaluation drivers: the simulation loop and its results."""

from repro.evaluation.results import JobResult, SimulationResult
from repro.evaluation.simulator import MachineSimulation, simulate
from repro.evaluation.table import format_table

__all__ = [
    "JobResult",
    "SimulationResult",
    "MachineSimulation",
    "simulate",
    "format_table",
]

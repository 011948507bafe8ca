"""Event-driven simulation of EH-powered intermittent inference."""

from repro.sim.batch import BatchedFleetEngine
from repro.sim.profiles import InferenceProfile
from repro.sim.results import EventRecord, SimulationResult
from repro.sim.simulator import Simulator, SimulatorConfig

__all__ = [
    "BatchedFleetEngine",
    "InferenceProfile",
    "EventRecord",
    "SimulationResult",
    "Simulator",
    "SimulatorConfig",
]

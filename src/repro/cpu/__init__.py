"""CPU substrate: DVS frequency ladder, system-level energy model, processor."""

from .energy import EnergyError, EnergyModel, energy_optimal_frequency
from .frequency import POWERNOW_K6_MHZ, FrequencyError, FrequencyScale
from .processor import Processor, ProcessorStats

__all__ = [
    "FrequencyScale",
    "FrequencyError",
    "POWERNOW_K6_MHZ",
    "EnergyModel",
    "EnergyError",
    "energy_optimal_frequency",
    "Processor",
    "ProcessorStats",
]

"""Canonical configuration of the paper's evaluation (Section V-A).

Single source of truth for the experimental setup shared by the zoo, the
examples, and every benchmark:

* TI MSP432-class MCU at 1.5 mJ/MFLOP with 16 KB weight storage;
* a day-scale synthetic solar trace (NREL substitute, DESIGN.md §2);
* 500 events uniformly distributed over the trace;
* a 2 mJ capacitor at 80% charge efficiency;
* compression targets: 1.15M FLOPs and 16 KB (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy.events import uniform_random_events
from repro.energy.storage import EnergyStorage
from repro.energy.traces import PowerTrace, solar_trace
from repro.intermittent.mcu import MCUSpec, MSP432


@dataclass(frozen=True)
class PaperExperiment:
    """The evaluation environment of the paper, as reproduced here."""

    #: Compression targets (paper Fig. 4 caption).
    flops_target: float = 1.15e6
    size_target_kb: float = 16.0
    #: Number of events dropped on the trace (paper Section V-A).
    num_events: int = 500
    #: Solar trace parameters (see repro.energy.traces.solar_trace).
    trace_duration_s: float = 43_200.0
    trace_peak_mw: float = 0.027
    trace_seed: int = 5
    #: Event placement seed.
    event_seed: int = 9
    #: Energy storage.
    storage_capacity_mj: float = 2.0
    storage_efficiency: float = 0.8
    #: Target device.
    mcu: MCUSpec = MSP432

    def make_trace(self, seed: int = None) -> PowerTrace:
        """The solar harvesting trace used by all headline experiments."""
        return solar_trace(
            duration=self.trace_duration_s,
            peak_mw=self.trace_peak_mw,
            seed=self.trace_seed if seed is None else seed,
        )

    def make_events(self, trace: PowerTrace = None, seed: int = None) -> np.ndarray:
        """500 uniformly random event times over the trace."""
        duration = (trace or self.make_trace()).duration
        return uniform_random_events(
            self.num_events, duration, rng=self.event_seed if seed is None else seed
        )

    def make_storage(self) -> EnergyStorage:
        """A fresh capacitor at half charge."""
        return EnergyStorage(
            capacity_mj=self.storage_capacity_mj,
            efficiency=self.storage_efficiency,
            initial_mj=self.storage_capacity_mj / 2,
        )


#: Default experiment instance used across benchmarks and examples.
PAPER = PaperExperiment()

#: Canonical seed bank for multi-seed robustness sweeps.  Campaigns that
#: replicate cells over seeds draw a prefix of this tuple, so "seed 3 of
#: the bank" means the same trace/event randomness in every campaign,
#: every report, and every regression test.
SEED_BANK = (3, 5, 7, 11, 17, 23, 42, 97, 131, 257, 389, 641)


def seed_bank(n: int) -> list:
    """First ``n`` canonical sweep seeds (wraps by offsetting past the bank)."""
    if n <= len(SEED_BANK):
        return list(SEED_BANK[:n])
    extra = [SEED_BANK[i % len(SEED_BANK)] + 1000 * (i // len(SEED_BANK))
             for i in range(len(SEED_BANK), n)]
    return list(SEED_BANK) + extra


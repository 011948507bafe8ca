"""Deployable inference profiles.

An :class:`InferenceProfile` is everything the runtime needs to know about
a deployed network: per-exit accuracy, energy, FLOPs, and the marginal
costs of incremental inference.  It optionally carries the live network so
the simulator can run *real* forward passes per event ("dataset mode");
without it the simulator draws correctness from the measured per-exit
accuracies ("profile mode"), which is what the RL compression search uses
in its inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.intermittent.mcu import MCUSpec

if TYPE_CHECKING:
    # The training substrate (and SciPy behind it) loads only when a
    # profile is built from a live network; fleets never do.
    from repro.compress.compressor import CompressedModel
    from repro.compress.evaluator import ExitEvaluation
    from repro.nn.network import MultiExitNetwork


@dataclass
class InferenceProfile:
    """Cost/accuracy description of one deployed (possibly multi-exit) net."""

    name: str
    exit_accuracies: list
    exit_energy_mj: list
    exit_flops: list
    incremental_energy_mj: list = field(default_factory=list)
    incremental_flops: list = field(default_factory=list)
    net: MultiExitNetwork = None

    def __post_init__(self):
        m = len(self.exit_accuracies)
        if m < 1:
            raise ConfigError("profile needs at least one exit")
        if len(self.exit_energy_mj) != m or len(self.exit_flops) != m:
            raise ConfigError("per-exit lists must have equal length")
        if len(self.incremental_energy_mj) != m - 1 or len(self.incremental_flops) != m - 1:
            raise ConfigError("incremental lists must have length num_exits - 1")
        if any(not 0.0 <= a <= 1.0 for a in self.exit_accuracies):
            raise ConfigError("accuracies must be in [0, 1]")
        if any(e < 0 for e in self.exit_energy_mj):
            raise ConfigError("energies must be non-negative")

    @property
    def num_exits(self) -> int:
        return len(self.exit_accuracies)

    @property
    def min_energy_mj(self) -> float:
        """Cheapest possible inference (the miss threshold)."""
        return min(self.exit_energy_mj)

    @classmethod
    def from_compressed(
        cls,
        model: CompressedModel,
        evaluation: ExitEvaluation,
        mcu: MCUSpec,
        name: str = None,
        attach_net: bool = True,
    ) -> "InferenceProfile":
        """Profile a compressed model using its evaluation results."""
        inc_flops = model.incremental_exit_flops()
        return cls(
            name=name or model.net.name,
            exit_accuracies=list(evaluation.accuracies),
            exit_energy_mj=[mcu.inference_energy_mj(f) for f in model.exit_flops],
            exit_flops=[float(f) for f in model.exit_flops],
            incremental_energy_mj=[mcu.inference_energy_mj(f) for f in inc_flops],
            incremental_flops=[float(f) for f in inc_flops],
            net=model.net if attach_net else None,
        )

    @classmethod
    def from_network(
        cls,
        net: MultiExitNetwork,
        accuracies,
        mcu: MCUSpec,
        input_shape=(3, 32, 32),
        name: str = None,
        attach_net: bool = True,
    ) -> "InferenceProfile":
        """Profile an uncompressed network from its static FLOPs."""
        from repro.nn.flops import incremental_flops, profile_network

        prof = profile_network(net, input_shape)
        if len(accuracies) != len(prof.exits):
            raise ConfigError("need one accuracy per exit")
        inc = incremental_flops(prof)
        return cls(
            name=name or net.name,
            exit_accuracies=list(accuracies),
            exit_energy_mj=[mcu.inference_energy_mj(f) for f in prof.exit_flops],
            exit_flops=[float(f) for f in prof.exit_flops],
            incremental_energy_mj=[mcu.inference_energy_mj(f) for f in inc],
            incremental_flops=[float(f) for f in inc],
            net=net if attach_net else None,
        )


def reference_profile() -> InferenceProfile:
    """Paper-regime deployed multi-exit profile (no live network attached).

    The measured per-exit numbers of the compressed 3-exit LeNet in the
    paper's operating regime — the ``"paper-multi-exit"`` profile that
    :mod:`repro.sim.devices` resolves for fleet specs, shared with the
    examples so both simulate the same deployment without paying the
    zoo's train/search path.
    """
    return InferenceProfile(
        name="paper-multi-exit",
        exit_accuracies=[0.62, 0.70, 0.72],
        exit_energy_mj=[0.21, 0.84, 1.63],
        exit_flops=[0.14e6, 0.56e6, 1.09e6],
        incremental_energy_mj=[0.70, 0.85],
        incremental_flops=[0.47e6, 0.57e6],
    )


def sonic_profile() -> InferenceProfile:
    """SONIC-style single-exit deployment of a comparable network (the
    ``"sonic-single-exit"`` profile)."""
    return InferenceProfile(
        name="sonic-single-exit",
        exit_accuracies=[0.75],
        exit_energy_mj=[3.0],
        exit_flops=[2.0e6],
        incremental_energy_mj=[],
        incremental_flops=[],
    )

"""repro — reproduction of "Intermittent Inference with Nonuniformly
Compressed Multi-Exit Neural Network for Energy Harvesting Powered
Devices" (Wu et al., DAC 2020).

The package provides, from the bottom up:

* :mod:`repro.nn` — a pure-numpy DNN substrate (conv/pool/FC layers with
  backprop, multi-exit containers, training, FLOPs/size profiling);
* :mod:`repro.data` — the synthetic CIFAR-10 substitute;
* :mod:`repro.models` — the paper's 3-exit LeNet and the SonicNet /
  SpArSeNet / LeNet-Cifar baselines;
* :mod:`repro.prune` / :mod:`repro.quant` / :mod:`repro.compress` — channel
  pruning (Eq. 2), linear quantization (Eq. 3), and nonuniform compression
  with exact cost bookkeeping;
* :mod:`repro.rl` — the two-agent DDPG search over layer-wise pruning
  rates and bitwidths (Section III-B);
* :mod:`repro.energy` / :mod:`repro.intermittent` — power traces, capacitor
  storage, MCU cost model, SONIC-style multi-power-cycle execution;
* :mod:`repro.runtime` — Q-learning exit selection and incremental
  inference (Section IV);
* :mod:`repro.sim` — the event-driven evaluation harness and the IEpmJ
  metric (Eq. 1);
* :mod:`repro.fleet` — parallel multi-device fleet simulation with a
  scenario registry and a ``python -m repro.fleet`` CLI;
* :mod:`repro.zoo` — cached trained networks and searched specs;
* :mod:`repro.experiment` — the canonical evaluation setup (Section V-A).
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the module that defines it.  Nothing is imported here:
#: each name (and each subpackage, ``repro.nn`` and friends) loads on
#: first access (PEP 562), so a fleet, shard or gateway process pays only
#: for the modules it runs — NumPy, not the training substrate and the
#: SciPy behind ``repro.data``.
_EXPORTS = {
    "PAPER": "repro.experiment",
    "PaperExperiment": "repro.experiment",
    "CompressedModel": "repro.compress",
    "CompressionSpec": "repro.compress",
    "Compressor": "repro.compress",
    "LayerCompression": "repro.compress",
    "Dataset": "repro.data",
    "DatasetSplits": "repro.data",
    "SyntheticConfig": "repro.data",
    "make_cifar_like": "repro.data",
    "EnergyStorage": "repro.energy",
    "PowerTrace": "repro.energy",
    "solar_trace": "repro.energy",
    "uniform_random_events": "repro.energy",
    "SCENARIOS": "repro.fleet",
    "DeviceSpec": "repro.fleet",
    "FleetResult": "repro.fleet",
    "FleetRunner": "repro.fleet",
    "FleetSpec": "repro.fleet",
    "run_fleet": "repro.fleet",
    "MCUSpec": "repro.intermittent",
    "MSP432": "repro.intermittent",
    "make_lenet_cifar": "repro.models",
    "make_multi_exit_lenet": "repro.models",
    "make_sonic_net": "repro.models",
    "make_sparse_net": "repro.models",
    "MultiExitNetwork": "repro.nn",
    "profile_network": "repro.nn",
    "QLearningController": "repro.runtime",
    "StaticController": "repro.runtime",
    "StaticLUTPolicy": "repro.runtime",
    "InferenceProfile": "repro.sim",
    "SimulationResult": "repro.sim",
    "Simulator": "repro.sim",
    "SimulatorConfig": "repro.sim",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(module), name)
        globals()[name] = value
        return value
    # A subpackage not yet imported; importing binds it on this module.
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""A battery-less solar sensor node, end to end (paper Sections I-II).

Simulates the paper's motivating deployment: an event-driven sensor that
classifies locally and only wakes a main device for interesting events.
Compares the paper's execution model (select an exit the current charge
can finish) against the SONIC-style baseline (full inference across
however many power cycles it takes) on the same trace, events, and
hardware — then swaps in kinetic and RF harvesters to show how the
runtime adapts to different energy environments.

Run:  python examples/solar_sensor_node.py
"""

from repro.energy import (
    EnergyStorage,
    kinetic_trace,
    rf_trace,
    solar_trace,
    uniform_random_events,
)
from repro.intermittent import MSP432
from repro.runtime import (
    FixedExitPolicy,
    QLearningController,
    StaticController,
)
from repro.sim import Simulator, SimulatorConfig
from repro.sim.profiles import reference_profile, sonic_profile

# The deployed profiles live in repro.sim.profiles, where fleet specs
# resolve "paper-multi-exit" and "sonic-single-exit" too, so this example
# and every fleet scenario simulate the same paper-regime devices.
multi_exit_profile = reference_profile
single_exit_profile = sonic_profile


def storage():
    return EnergyStorage(2.0, efficiency=0.8, initial_mj=1.0)


def run_ours(trace, events, episodes=15):
    controller = QLearningController(3, epsilon=0.25, epsilon_decay=0.9, rng=11)
    sim = Simulator(
        trace, multi_exit_profile(), controller, mcu=MSP432, storage=storage(),
        config=SimulatorConfig(seed=3),
    )
    result = None
    for _ in range(episodes):
        result = sim.run(events)
    return result


def run_sonic(trace, events):
    sim = Simulator(
        trace, single_exit_profile(), StaticController(FixedExitPolicy(0)),
        mcu=MSP432, storage=storage(),
        config=SimulatorConfig(execution="intermittent", seed=3),
    )
    return sim.run(events)


def report(label, result):
    print(f"  {label:12s} IEpmJ {result.iepmj:5.3f}  acc(all) {result.average_accuracy:5.3f}  "
          f"processed {result.num_processed:3d}/{result.num_events}  "
          f"latency {result.mean_latency_s:7.1f}s  misses {result.miss_counts()}")


def main():
    harvesters = {
        "solar": solar_trace(seed=5),
        "kinetic": kinetic_trace(duration=43_200.0, burst_power_mw=0.08,
                                 burst_rate_hz=0.002, burst_length_s=300.0,
                                 base_mw=0.001, seed=5),
        "rf": rf_trace(duration=43_200.0, mean_mw=0.006, seed=5),
    }
    for name, trace in harvesters.items():
        mean_mw = trace.total_energy_mj / trace.duration
        events = uniform_random_events(500, trace.duration, rng=9)
        print(f"\n=== {name} harvester: {trace.total_energy_mj:.0f} mJ over "
              f"{trace.duration/3600:.0f} h (mean {mean_mw*1000:.1f} uW) ===")
        report("multi-exit", run_ours(trace, events))
        report("sonic-style", run_sonic(trace, events))


if __name__ == "__main__":
    main()

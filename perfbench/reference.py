"""Serial reference and provenance for one (fleet, seed), in-process.

    python perfbench/reference.py OUT.json SCENARIO SEED OVERRIDES_JSON EPISODES SPEC_OUT

Expands ``SCENARIO`` with ``OVERRIDES_JSON`` and ``SEED``; a positive
``EPISODES`` raises every device's episode count and writes the
resulting FleetSpec to ``SPEC_OUT`` (the file a workload then runs with
``--spec``).  It runs the fleet serially through
:class:`repro.fleet.runner.FleetRunner` and writes to ``OUT.json``:

* ``report`` / ``aggregate`` — sha256 of the canonical JSON of the full
  report and of ``{"aggregate": ...}``, the digests every measured run
  must reproduce;
* ``devices`` and ``sim_events`` — devices, and inference events summed
  over every episode of every device;
* ``manifest`` — :func:`repro.obs.manifest.build_manifest` plus usable
  CPUs, cache state, the resolved kernel lane and the BLAS/OpenMP
  thread environment (recorded, never changed).
"""

import json
import os
import sys

from repro.fleet.runner import FleetRunner, usable_cpus
from repro.fleet.scenarios import SCENARIOS
from repro.fleet.spec import FleetSpec
from repro.obs.manifest import build_manifest
from run import canonical_digest

#: Thread-pool variables numpy's BLAS and OpenMP read at import.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def kernel_lane() -> str:
    try:
        from repro.utils.kernelmode import resolve_kernel_mode
    except ImportError:
        return "numpy (no kernel-mode selector)"
    mode, detail = resolve_kernel_mode()
    return f"{mode} ({detail})"


def main(argv) -> int:
    out_path, scenario, seed, overrides, episodes, spec_out = argv
    spec = SCENARIOS.build(scenario, seed=int(seed), **json.loads(overrides))
    if int(episodes) > 0:
        data = spec.to_dict()
        for device in data["devices"]:
            device["episodes"] = int(episodes)
        spec = FleetSpec.from_dict(data)
        spec.to_json(spec_out)
    result = FleetRunner(spec).run()
    report = result.to_dict()
    out = {
        "report": canonical_digest(report),
        "aggregate": canonical_digest({"aggregate": report["aggregate"]}),
        "devices": result.num_devices,
        "sim_events": sum(d["events"] * d["episodes"] for d in report["devices"]),
        "manifest": build_manifest(
            fleet=spec.name,
            devices=spec.num_devices,
            seed=spec.seed,
            scenario_digest=spec.digest(),
            usable_cpus=usable_cpus(),
            cache_state="cold: a fresh process per run, empty trace cache, "
            "empty ledger directory",
            kernel_lane=kernel_lane(),
            thread_env={k: os.environ.get(k) for k in THREAD_ENV},
        ),
    }
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""What each entry point loads, checked in a fresh interpreter per entry point.

Fleet, shard and gateway processes run on NumPy alone: importing their
entry points loads neither SciPy nor the training substrate, and never
``repro.campaign``, which sits above them.  Every entry point also
imports cleanly as the first import of a process, the way a CLI run, a
spawned worker or a shard child starts; an import cycle shows up only
then.  The checks compare module sets, not timings.

The file needs only pytest and the standard library, so it runs without
SciPy too: ``python -m pytest --noconftest -q tests/test_import_graph.py``.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Entry points of processes that run fleets: they must stay on NumPy.
LEAN_ENTRY_POINTS = (
    "repro",
    "repro.fleet.__main__",
    "repro.fleet.shards",
    "repro.gateway.__main__",
    "repro.gateway.client",
)
ENTRY_POINTS = LEAN_ENTRY_POINTS + (
    "repro.campaign.__main__",
    "repro.campaign.store",
    "repro.store",
)
#: Packages a lean process must not load.
HEAVY = (
    "scipy",
    "repro.nn",
    "repro.compress",
    "repro.data",
    "repro.models",
    "repro.prune",
    "repro.quant",
    "repro.rl",
    "repro.zoo",
    "repro.campaign",
)


@functools.cache
def loaded_modules(code: str) -> tuple:
    """Run ``code`` first thing in a fresh interpreter; the names in its
    ``sys.modules`` afterwards."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    report = "import json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def heavy(modules) -> list:
    return [m for m in modules if any(m == h or m.startswith(h + ".") for h in HEAVY)]


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_entry_point_imports_first(entry_point):
    assert entry_point in loaded_modules(f"import {entry_point}")


@pytest.mark.parametrize("entry_point", LEAN_ENTRY_POINTS)
def test_fleet_and_gateway_processes_load_only_numpy(entry_point):
    assert heavy(loaded_modules(f"import {entry_point}")) == []


def test_store_sits_below_every_artifact_writer():
    """The sealed-artifact layer loads none of the packages that use it."""
    writers = ("repro.fleet", "repro.sim", "repro.campaign", "repro.gateway")
    loaded = loaded_modules("import repro.store")
    assert [m for m in loaded if ".".join(m.split(".")[:2]) in writers] == []
    assert heavy(loaded) == []


@pytest.mark.skipif(
    importlib.util.find_spec("scipy") is None, reason="repro.data needs SciPy"
)
def test_every_public_name_resolves():
    code = (
        "from repro import *\n"
        "import repro\n"
        "assert repro.nn.MultiExitNetwork is repro.MultiExitNetwork\n"
        "assert not hasattr(repro, 'no_such_module')"
    )
    assert "repro.data" in loaded_modules(code)

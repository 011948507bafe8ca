"""What each entry point loads, checked in a fresh interpreter per entry point.

Fleet, shard and gateway processes run on NumPy alone: importing their
entry points loads neither SciPy nor the training substrate, and never
``repro.campaign``, which sits above them.  Every entry point also
imports cleanly as the first import of a process, the way a CLI run, a
spawned worker or a shard child starts; an import cycle shows up only
then.  The checks compare module sets, not timings.

The layering itself ("packages never import upward") is checked twice:
statically, over every import statement in the source at any depth, so
a lazy import inside a function counts; and at runtime, by running the
engine in a process that must never load the fleet layer above it.

The file needs only pytest and the standard library, so it runs without
SciPy too: ``python -m pytest --noconftest -q tests/test_import_graph.py``.
"""

from __future__ import annotations

import ast
import functools
import glob
import importlib.util
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REPRO = os.path.join(SRC, "repro")

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
#: (packages, the packages they must never import).
LAYERS = (
    (("sim", "energy", "intermittent", "runtime"), ("fleet", "gateway", "campaign")),
    (("fleet", "gateway"), ("campaign",)),
    (
        ("obs", "faults", "utils", "errors", "store"),
        ("sim", "fleet", "gateway", "campaign"),
    ),
)
#: A one-device fleet on the engine alone, from a duck-typed spec.
ENGINE_ONLY = """
import types

from repro.sim.batch import BatchedFleetEngine

spec = types.SimpleNamespace(
    name="d0",
    trace={"family": "constant", "power_mw": 0.05, "duration": 600.0},
    events={"kind": "uniform", "count": 20},
    profile="paper-multi-exit",
    controller={"kind": "greedy"},
    storage={},
    mcu={},
    execution="single-cycle",
    episodes=1,
    power_window_s=30.0,
)
(result,) = BatchedFleetEngine([(0, spec, 7)]).run()
assert result.num_events == 20, result
"""
#: A gateway client process, with numpy made unimportable.
CLIENT_ONLY = """
import sys

sys.modules["numpy"] = None  # any import of numpy now raises
from repro.gateway.client import GatewayClient
from repro.gateway.__main__ import main

try:
    main(["client", "--help"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


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


def package_of(module: str):
    """The ``repro`` package ``module`` belongs to (``"fleet"``), or None."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else None


def sources(package: str) -> list:
    """The source files of ``repro.<package>``, a package or a module."""
    root = os.path.join(REPRO, package)
    if os.path.isdir(root):
        return sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True))
    return [root + ".py"]


def imported_modules(path: str):
    """``(line, module)`` for every import statement in ``path``: function
    bodies and ``TYPE_CHECKING`` blocks included, relative imports
    resolved, and ``from repro import fleet`` read as ``repro.fleet``."""
    name = os.path.splitext(os.path.relpath(path, SRC))[0].replace(os.sep, ".")
    package = name.removesuffix(".__init__")
    if not name.endswith(".__init__"):
        package = package.rpartition(".")[0]
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level:
                module = importlib.util.resolve_name(module, package)
            if module == "repro":
                for alias in node.names:
                    yield node.lineno, f"repro.{alias.name}"
            else:
                yield node.lineno, module


def upward_imports() -> list:
    """``"<file>:<line> <module>"`` for every import :data:`LAYERS` forbids."""
    found = []
    for packages, forbidden in LAYERS:
        for package in packages:
            for path in sources(package):
                for line, module in imported_modules(path):
                    if package_of(module) in forbidden:
                        where = os.path.relpath(path, REPRO).replace(os.sep, "/")
                        found.append(f"{where}:{line} {module}")
    return found


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_entry_point_imports_first(entry_point):
    assert entry_point in loaded_modules(f"import {entry_point}")


@pytest.mark.parametrize("entry_point", LEAN_ENTRY_POINTS)
def test_fleet_and_gateway_processes_load_only_numpy(entry_point):
    assert heavy(loaded_modules(f"import {entry_point}")) == []


@pytest.mark.parametrize("entry_point", [*LEAN_ENTRY_POINTS, "repro.sim.batch"])
def test_numpy_random_loads_with_the_first_generator(entry_point):
    """numpy imports ``numpy.random`` lazily (~15 ms); the bulk seeding
    in ``repro.utils.rng`` plugs into its ``ISeedSequence`` interface
    only when it first builds a Generator, so set-up does not pay it."""
    assert "numpy.random" not in loaded_modules(f"import {entry_point}")


def test_store_sits_below_every_artifact_writer():
    """The sealed-artifact layer loads none of the packages that use it."""
    writers = ("repro.fleet", "repro.sim", "repro.campaign", "repro.gateway")
    loaded = loaded_modules("import repro.store")
    assert [m for m in loaded if ".".join(m.split(".")[:2]) in writers] == []
    assert heavy(loaded) == []


def test_no_package_imports_upward():
    """Every import statement obeys :data:`LAYERS`, wherever it sits: a
    lazy import inside a function breaks the layering as much as a
    top-level one, though no module-set check can see it."""
    assert upward_imports() == []


def test_the_engine_runs_without_the_fleet_layer():
    """The engine materializes and runs a device from a duck-typed spec
    without loading the fleet, gateway or campaign layers above it."""
    loaded = loaded_modules(ENGINE_ONLY)
    above = [m for m in loaded if package_of(m) in ("fleet", "gateway", "campaign")]
    assert above == []


def test_the_gateway_client_loads_no_engine():
    """A client talks JSON over a socket: it runs without numpy and
    loads none of the engine, fleet, fault or observability layers the
    server runs on."""
    loaded = loaded_modules(CLIENT_ONLY)
    engine = [m for m in loaded if package_of(m) in ("sim", "fleet", "faults", "obs")]
    assert engine == []
    assert "repro.gateway.client" in loaded


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

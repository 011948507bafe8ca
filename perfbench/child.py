"""Run one ``repro`` CLI as ``__main__`` in a fresh process, with marks.

    python perfbench/child.py MARKS.json TRACE MODULE SETUP PRELOAD -- ARGS...

``MODULE`` is ``repro.fleet`` or ``repro.gateway``; ``ARGS`` are exactly
what a user passes to ``python -m MODULE``.  The process imports the CLI
(the ``import`` phase, plus the comma-separated ``PRELOAD`` modules the
CLI would import lazily anyway), wraps ``SETUP`` (``module:qualname``,
or ``-``) so its first call marks the end of set-up, and with ``TRACE``
= 1 installs the layer spans of :mod:`layers`.  It then runs the CLI
through :mod:`runpy`, the same path ``python -m`` takes, and writes the
marks — monotonic-clock times comparable with the parent's — and the
layer totals to ``MARKS.json`` before exiting with the CLI's code.
"""

import functools
import importlib
import json
import runpy
import sys

import layers


def main(argv) -> int:
    marks_path, trace, module, setup, preload = argv[:5]
    if argv[5] != "--":
        raise SystemExit("usage: child.py MARKS TRACE MODULE SETUP PRELOAD -- ARGS...")
    args = argv[6:]
    marks = {}
    t0 = layers.clock()
    importlib.import_module(module + ".__main__")
    for name in preload.split(","):
        if name != "-":
            importlib.import_module(name)
    tracer = None
    if trace == "1":
        tracer = layers.Tracer()
        tracer.record("import", layers.clock() - t0)
        tracer.install()

    def mark_setup(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            marks.setdefault("t_setup", layers.clock())
            return fn(*a, **k)

        return wrapper

    if setup != "-":
        layers.patch(setup, mark_setup)
    sys.argv = [module, *args]
    code = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        marks["t_done"] = layers.clock()
        if tracer is not None:
            marks["layers"] = tracer.to_dict()
        with open(marks_path, "w") as fh:
            json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

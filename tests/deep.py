"""One switch for the depth of every hypothesis property.

Each property's ``@settings`` asks for ``max_examples=examples(n)``,
where ``n`` is its tier-1 depth.  ``REPRO_PROPERTY_DEPTH=k`` (a positive
integer, default 1) multiplies every one of them by ``k``:

    REPRO_PROPERTY_DEPTH=20 PYTHONPATH=src python -m pytest -q tests/test_property_*.py

Tier-1 leaves the variable unset, so its depths are the ``n`` written
at each site.
"""

from __future__ import annotations

import os


def depth() -> int:
    """The multiplier ``REPRO_PROPERTY_DEPTH`` asks for (1 when unset)."""
    raw = os.environ.get("REPRO_PROPERTY_DEPTH", "1")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(
            f"REPRO_PROPERTY_DEPTH must be a positive integer, got {raw!r}"
        )
    return value


def examples(n: int) -> int:
    """``max_examples`` for a property whose tier-1 depth is ``n``."""
    return n * depth()

"""Campaign aggregation: per-cell tables and cross-controller marginals.

:class:`CampaignResult` consumes the deterministic per-cell payloads the
runner checkpoints (no wall-clock content) and reduces them two ways:

* **marginals** — for every (scenario, seed), each controller's fleet
  summary minus the baseline controller's under the *same* seed (same
  traces, same arrivals), then averaged over the seed bank.  This is the
  paper's comparison: does the learned runtime beat the static policies
  under identical harvesting conditions?
* **seed spread** — per (scenario, controller) percentile tables over the
  seed axis, the robustness view.

Everything reduces in grid order from JSON-safe scalars, so a report
rebuilt from checkpoints is byte-identical to the one produced live.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.sim.results import reduce_summaries, summary_delta
from repro.store import write_json

#: Fleet-aggregate metrics the comparative reductions run over.
COMPARE_METRICS = (
    "average_accuracy",
    "fleet_iepmj",
    "total_consumed_mj",
    "mean_exit_depth",
)


class CampaignResult:
    """All completed cells of one campaign, plus the comparative reductions."""

    def __init__(self, spec, cell_payloads: dict):
        """``cell_payloads`` maps cell key -> checkpointed payload dict."""
        self.spec = spec
        self.cells = []
        #: cell key -> ``{"wall_s", "workers", "parallel"}`` for
        #: cells whose payload carried a ``"timing"`` key.  Timing is
        #: stripped *before* aggregation so ``report.json`` stays free of
        #: wall-clock content (the resume byte-identity contract); it only
        #: surfaces in :meth:`render_text`'s per-cell columns.
        self.cell_timing = {}
        missing = []
        for cell in spec.cells():
            payload = cell_payloads.get(cell.key)
            if payload is None:
                missing.append(cell.key)
            else:
                payload = dict(payload)
                timing = payload.pop("timing", None)
                if timing is not None:
                    self.cell_timing[cell.key] = timing
                self.cells.append(payload)
        if missing:
            raise ConfigError(
                f"campaign {spec.name!r}: {len(missing)} cell(s) missing "
                f"from the store (first: {missing[0]!r}); finish the grid "
                "with the `resume` subcommand (or `run ... --resume`) first"
            )
        # Checkpoints can come from disk, so validate the payload schema
        # up front: a hand-edited or cross-version artifact surfaces as a
        # ConfigError here, not a KeyError deep inside a reduction.
        for cell, payload in zip(spec.cells(), self.cells):
            fleet = payload.get("fleet")
            bad = (
                [k for k in COMPARE_METRICS if k not in fleet]
                if isinstance(fleet, dict) else list(COMPARE_METRICS)
            )
            if bad:
                raise ConfigError(
                    f"cell artifact {cell.key!r} is missing fleet metric(s) "
                    f"{bad}; the checkpoint predates this code version or "
                    "was edited — delete it and resume to re-execute"
                )
        # Cells and spec never change after construction, so lookups and
        # the (O(cells * metrics)) reductions are computed once.  Keyed by
        # (scenario, controller, seed) so the cell-key *format* stays
        # defined in exactly one place (CampaignCell.key).
        self._index = {
            (c.scenario_label, c.controller_name, c.seed): p
            for c, p in zip(spec.cells(), self.cells)
        }
        self._marginals = None
        self._seed_spread = None

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def _fleet(self, scenario_label: str, controller_name: str, seed: int) -> dict:
        return self._index[(scenario_label, controller_name, seed)]["fleet"]

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def marginals(self) -> dict:
        """Per-scenario controller deltas vs. the baseline, seed-matched."""
        if self._marginals is not None:
            return self._marginals
        out = {}
        baseline = self.spec.baseline
        for s in self.spec.scenarios:
            label = s["label"]
            per_controller = {}
            for c in self.spec.controllers:
                name = c["name"]
                if name == baseline:
                    continue
                per_seed = {}
                for seed in self.spec.seeds:
                    per_seed[str(seed)] = summary_delta(
                        self._fleet(label, baseline, seed),
                        self._fleet(label, name, seed),
                        keys=list(COMPARE_METRICS),
                    )
                mean = {
                    metric: sum(d[metric] for d in per_seed.values()) / len(per_seed)
                    for metric in COMPARE_METRICS
                }
                per_controller[name] = {
                    "vs": baseline,
                    "mean": mean,
                    "per_seed": per_seed,
                }
            out[label] = per_controller
        self._marginals = out
        return out

    def seed_spread(self, qs=(10, 50, 90)) -> dict:
        """Percentile tables over the seed axis per (scenario, controller)."""
        if qs == (10, 50, 90) and self._seed_spread is not None:
            return self._seed_spread
        out = {}
        for s in self.spec.scenarios:
            label = s["label"]
            per_controller = {}
            for c in self.spec.controllers:
                name = c["name"]
                summaries = [
                    self._fleet(label, name, seed) for seed in self.spec.seeds
                ]
                per_controller[name] = reduce_summaries(
                    summaries, COMPARE_METRICS, qs
                )
            out[label] = per_controller
        if qs == (10, 50, 90):
            self._seed_spread = out
        return out

    # ------------------------------------------------------------------ #
    # Serialization / rendering
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "campaign": self.spec.name,
            "description": self.spec.description,
            "digest": self.spec.digest(),
            "baseline": self.spec.baseline,
            "num_cells": self.spec.num_cells,
            "cells": self.cells,
            "marginals": self.marginals(),
            "seed_spread": self.seed_spread(),
        }

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            write_json(fh, self.to_dict())
            fh.write("\n")

    def render_text(self) -> str:
        """Human-readable report for the CLI (tables + marginal summary)."""
        lines = []
        spec = self.spec
        lines.append(
            f"campaign {spec.name!r}: {len(spec.scenarios)} scenario(s) x "
            f"{len(spec.controllers)} controller(s) x {len(spec.seeds)} "
            f"seed(s) = {spec.num_cells} cells"
        )
        lines.append(
            f"  {'cell':<42} {'acc':>6} {'IEpmJ':>7} {'depth':>6} "
            f"{'consumed mJ':>12} {'missed':>7} {'wall s':>8}"
        )
        for payload in self.cells:
            fleet = payload["fleet"]
            timing = self.cell_timing.get(payload["key"])
            wall = f"{'-':>8}" if timing is None else f"{timing['wall_s']:8.2f}"
            lines.append(
                f"  {payload['key']:<42} {fleet['average_accuracy']:6.3f} "
                f"{fleet['fleet_iepmj']:7.3f} {fleet['mean_exit_depth']:6.3f} "
                f"{fleet['total_consumed_mj']:12.2f} {fleet['missed']:7d} "
                f"{wall}"
            )
        marginals = self.marginals()
        for label, per_controller in marginals.items():
            for name, entry in per_controller.items():
                mean = entry["mean"]
                lines.append(
                    f"  [{label}] {name} vs {entry['vs']}: "
                    f"acc {mean['average_accuracy']:+.3f}  "
                    f"IEpmJ {mean['fleet_iepmj']:+.3f}  "
                    f"depth {mean['mean_exit_depth']:+.3f}  "
                    f"energy {mean['total_consumed_mj']:+.2f} mJ "
                    f"(mean over {len(entry['per_seed'])} seed(s))"
                )
        return "\n".join(lines)

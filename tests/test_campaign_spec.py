"""CampaignSpec validation + Hypothesis properties of grid expansion."""

import json

import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CAMPAIGNS, CampaignSpec
from repro.errors import ConfigError
from repro.runtime.controller import preset_names


def tiny_campaign(**overrides) -> CampaignSpec:
    base = dict(
        name="tiny",
        scenarios=["dev-smoke"],
        controllers=["greedy", "fixed-first"],
        seeds=[1, 2],
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestValidation:
    def test_string_axes_normalize(self):
        spec = tiny_campaign()
        assert spec.scenarios[0]["label"] == "dev-smoke"
        assert spec.controllers[0]["controller"]["kind"] == "greedy"
        assert spec.baseline == "greedy"  # defaults to the first entry

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="atlantis"):
            tiny_campaign(scenarios=["atlantis"])

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown controller preset"):
            tiny_campaign(controllers=["warp-drive"])

    def test_inline_controller_needs_valid_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            tiny_campaign(
                controllers=[{"name": "x", "controller": {"kind": "bandit"}}]
            )

    def test_empty_axes_rejected(self):
        for axis in ("scenarios", "controllers", "seeds"):
            with pytest.raises(ConfigError, match="empty"):
                tiny_campaign(**{axis: []})

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ConfigError, match="duplicate controller"):
            tiny_campaign(controllers=["greedy", "greedy"])
        with pytest.raises(ConfigError, match="duplicate seeds"):
            tiny_campaign(seeds=[1, 1])
        with pytest.raises(ConfigError, match="duplicate scenario"):
            tiny_campaign(scenarios=["dev-smoke", "dev-smoke"])

    def test_seed_axis_owns_the_seed(self):
        with pytest.raises(ConfigError, match="seed axis"):
            tiny_campaign(
                scenarios=[{"scenario": "dev-smoke", "overrides": {"seed": 3}}]
            )

    def test_unsafe_labels_rejected(self):
        # Keys become checkpoint filenames; separators must not sneak in.
        with pytest.raises(ConfigError, match="label"):
            tiny_campaign(
                scenarios=[{"scenario": "dev-smoke", "label": "a/b"}]
            )

    def test_trailing_newline_label_rejected(self):
        # re '$' would accept "smoke\n"; the check must use fullmatch.
        with pytest.raises(ConfigError, match="label"):
            tiny_campaign(
                scenarios=[{"scenario": "dev-smoke", "label": "smoke\n"}]
            )

    def test_key_separator_in_labels_rejected(self):
        # "--" joins key parts: a label containing it could alias two
        # distinct cells onto one checkpoint file.
        with pytest.raises(ConfigError, match="--"):
            tiny_campaign(
                scenarios=[{"scenario": "dev-smoke", "label": "a--b"}]
            )
        with pytest.raises(ConfigError, match="--"):
            tiny_campaign(
                controllers=[{"name": "x--y", "controller": {"kind": "greedy"}}]
            )

    def test_baseline_must_be_on_the_axis(self):
        with pytest.raises(ConfigError, match="baseline"):
            tiny_campaign(baseline="qlearning")

    def test_non_int_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds must be ints"):
            tiny_campaign(seeds=[1, "2"])
        with pytest.raises(ConfigError, match="seeds must be ints"):
            tiny_campaign(seeds=[True])


class TestBuiltinCampaigns:
    def test_registered(self):
        for name in ("policy-shootout", "harvester-ablation",
                     "seed-robustness", "dev-smoke"):
            assert name in CAMPAIGNS.names()

    def test_all_builtins_expand(self):
        for name in CAMPAIGNS.names():
            spec = CAMPAIGNS.build(name)
            assert spec.num_cells == len(spec.cells()) >= 2

    def test_policy_shootout_covers_every_preset(self):
        """The registry blurb says 'every controller preset' — keep it true."""
        spec = CAMPAIGNS.build("policy-shootout")
        assert {c["name"] for c in spec.controllers} == set(preset_names())

    def test_smoke_mode_shrinks_grids(self, monkeypatch):
        full = CAMPAIGNS.build("seed-robustness").num_cells
        monkeypatch.setenv("BENCH_SMOKE", "1")
        assert CAMPAIGNS.build("seed-robustness").num_cells < full


# ---------------------------------------------------------------------- #
# Hypothesis: grid expansion over arbitrary (valid) axes
# ---------------------------------------------------------------------- #
SCENARIO_AXIS = st.lists(
    st.sampled_from(
        ["dev-smoke", "solar-farm-100", "indoor-rf-swarm", "mixed-harvester-city"]
    ),
    min_size=1, max_size=4, unique=True,
)
CONTROLLER_AXIS = st.lists(
    st.sampled_from(preset_names()), min_size=1, max_size=5, unique=True
)
SEED_AXIS = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=6, unique=True
)


@st.composite
def campaign_specs(draw):
    return CampaignSpec(
        name="prop",
        scenarios=draw(SCENARIO_AXIS),
        controllers=draw(CONTROLLER_AXIS),
        seeds=draw(SEED_AXIS),
    )


@given(spec=campaign_specs())
@settings(max_examples=examples(80), deadline=None)
def test_cell_count_is_product_of_axes(spec):
    cells = spec.cells()
    assert len(cells) == spec.num_cells
    assert spec.num_cells == (
        len(spec.scenarios) * len(spec.controllers) * len(spec.seeds)
    )


@given(spec=campaign_specs())
@settings(max_examples=examples(80), deadline=None)
def test_cell_keys_are_unique_and_safe(spec):
    keys = [c.key for c in spec.cells()]
    assert len(set(keys)) == len(keys)
    for key in keys:
        assert "/" not in key and "\\" not in key and not key.startswith(".")


@given(spec=campaign_specs())
@settings(max_examples=examples(60), deadline=None)
def test_json_roundtrip_is_exact(spec, tmp_path_factory):
    clone = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone.to_dict() == spec.to_dict()
    assert clone.canonical_json() == spec.canonical_json()
    assert clone.digest() == spec.digest()
    assert [c.key for c in clone.cells()] == [c.key for c in spec.cells()]


def test_json_file_roundtrip(tmp_path):
    spec = CAMPAIGNS.build("policy-shootout")
    path = tmp_path / "grid.json"
    spec.to_json(str(path))
    clone = CampaignSpec.from_json(str(path))
    assert clone.to_dict() == spec.to_dict()


def test_unknown_fields_rejected():
    data = tiny_campaign().to_dict()
    data["sedds"] = [1]
    with pytest.raises(ConfigError, match="sedds"):
        CampaignSpec.from_dict(data)
    with pytest.raises(ConfigError, match="missing"):
        CampaignSpec.from_dict({"name": "x"})

"""Tests for ArgusConfig dict round-tripping and the repro.api facade."""

from __future__ import annotations

import json

import pytest

import repro
from repro.core.config import ArgusConfig


# --------------------------------------------------------------------- #
# to_dict / from_dict
# --------------------------------------------------------------------- #


def test_config_round_trip_default():
    config = ArgusConfig()
    assert ArgusConfig.from_dict(config.to_dict()) == config


def test_config_round_trip_is_json_safe():
    config = ArgusConfig(num_workers=6, seed=9, autoscale_enabled=True)
    payload = json.loads(json.dumps(config.to_dict()))
    assert ArgusConfig.from_dict(payload) == config


def test_config_round_trip_with_tenants_and_slo():
    config = ArgusConfig(
        num_workers=4,
        tenants=[
            {"name": "gold", "weight": 2.0, "traffic_share": 0.6, "cache_quota": 100},
            {"name": "bronze", "weight": 1.0, "traffic_share": 0.4},
        ],
    )
    rebuilt = ArgusConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert rebuilt == config
    assert rebuilt.tenants[0].name == "gold"
    assert rebuilt.slo == config.slo


def test_config_from_dict_rejects_unknown_key_with_suggestion():
    with pytest.raises(ValueError, match="num_workers"):
        ArgusConfig.from_dict({"num_worker": 4})
    with pytest.raises(ValueError, match="unknown config key"):
        ArgusConfig.from_dict({"definitely_not_a_knob": 1})


@pytest.mark.parametrize("key", ["max_batch_size", "batch_timeout_s", "worker_memory_gib"])
def test_config_from_dict_refuses_removed_knobs(key):
    # Workers serve one request per GPU pass with their GPU's native
    # memory; a deployment file still naming these knobs fails loudly.
    with pytest.raises(ValueError, match="unknown config key"):
        ArgusConfig.from_dict({key: 1})


# --------------------------------------------------------------------- #
# Facade
# --------------------------------------------------------------------- #


def test_facade_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_facade_load_scenario_and_run():
    scenario = repro.load_scenario("steady-baseline")
    assert scenario.name == "steady-baseline"
    run = repro.run(scenario, preset="small")
    assert run.summary.total_completions > 0
    # Facade output matches the deep-import path bit for bit.
    from repro.scenarios.runtime import run_scenario

    deep = run_scenario("steady-baseline", preset="small")
    assert run.report().to_json() == deep.report().to_json()


def test_facade_replay_smoke():
    result = repro.replay(
        "steady-baseline", preset="small", time_scale=300.0, max_minutes=1.0
    )
    assert result.requests_ok == result.requests_sent > 0
    assert result.report["system"] == "gateway"

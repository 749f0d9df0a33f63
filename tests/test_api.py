"""The package's public names."""

import dataclasses
import inspect

import leodcb
from leodcb import emodrl, env, harness, orbits


def test_every_exported_name_resolves():
    for name in leodcb.__all__:
        assert getattr(leodcb, name) is not None, name


def test_object_actions_and_rewards_are_gone():
    # Actions and states are flat indices and rewards are (rate, energy,
    # switch) arrays.
    for name in ("MomdpAction", "MomdpState", "RewardVector"):
        assert name not in leodcb.__all__
        assert not hasattr(leodcb, name)
        assert not hasattr(env, name)


def test_run_takes_only_env_and_config():
    assert list(inspect.signature(emodrl.run).parameters) == ["env", "config"]


def test_replay_policy_takes_a_scenario():
    # Overrides are applied by Scenario.with_overrides, not by a dict.
    assert list(inspect.signature(harness.replay_policy).parameters) == [
        "params", "scenario", "seeds"
    ]


def test_orbital_elements_hold_the_five_orbit_inputs():
    assert [f.name for f in dataclasses.fields(orbits.OrbitalElements)] == [
        "inclination", "raan", "arg_perigee", "true_anomaly", "altitude"
    ]

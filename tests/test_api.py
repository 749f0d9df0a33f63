"""The package's public names."""

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import pytest

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


def _annotated(module):
    """The module, then every function, class, method and property getter
    it defines."""
    yield module
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)      # class/staticmethod
                member = getattr(member, "fget", member)          # property
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize(
    "name", sorted(info.name for info in pkgutil.iter_modules(leodcb.__path__))
)
def test_every_annotation_resolves(name):
    module = importlib.import_module(f"leodcb.{name}")
    for obj in _annotated(module):
        typing.get_type_hints(obj)

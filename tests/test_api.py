"""The package's public names, config checks and module imports."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import leodcb
from leodcb import emodrl, env, harness, orbits
from leodcb.agent import AgentConfig
from leodcb.channel import RfConstants
from leodcb.emodrl import EmodrlConfig
from leodcb.errors import ConfigError, is_integer, is_number
from leodcb.orbits import OrbitalElements, PhysicalConstants
from leodcb.scenario import Scenario, micro_scenario


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


def test_run_takes_env_config_and_a_snapshot_directory():
    # The directory is required: the archive has no in-memory mode.
    parameters = inspect.signature(emodrl.run).parameters
    assert list(parameters) == ["env", "config", "directory"]
    assert parameters["directory"].default is inspect.Parameter.empty


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


def _build(cls, **changes):
    # A scenario and its sections change a valid instance; the rest default.
    micro = micro_scenario()
    bases = {Scenario: micro, PhysicalConstants: micro.constants,
             OrbitalElements: micro.constellation[0], RfConstants: micro.rf}
    if cls in bases:
        return dataclasses.replace(bases[cls], **changes)
    return cls(**changes)


CONFIG_TYPES = (
    Scenario, PhysicalConstants, OrbitalElements, RfConstants, AgentConfig, EmodrlConfig
)
SCALAR_FIELDS = [
    (cls, name)
    for cls in CONFIG_TYPES
    for name, hint in typing.get_type_hints(cls).items()
    if hint in (int, float, int | None, float | None)
]


@pytest.mark.parametrize("value", ["1", True])
@pytest.mark.parametrize(
    ("cls", "name"), SCALAR_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in SCALAR_FIELDS]
)
def test_config_scalar_of_the_wrong_type_is_named(cls, name, value):
    # Built from Python, as from JSON or the CLI: a string or a bool is no
    # count and no real, and the error names the field.
    with pytest.raises(ConfigError, match=f"constraint violated: {name} "):
        _build(cls, **{name: value})


def test_the_sweep_covers_every_scalar_config_field():
    # Every Scenario field but its four sections; every field of each
    # section (rf.rho0 included); every AgentConfig field but hidden_sizes;
    # every EmodrlConfig field but agent.
    counts = {cls: sum(c is cls for c, _ in SCALAR_FIELDS) for cls in CONFIG_TYPES}
    assert counts == {Scenario: 9, PhysicalConstants: 3, OrbitalElements: 5, RfConstants: 7,
                      AgentConfig: 7, EmodrlConfig: 7}
    assert len(SCALAR_FIELDS) == 9 + 3 + 5 + 7 + 7 + 7


@pytest.mark.parametrize(
    ("value", "integer", "number"),
    [(3, True, True), (2.5, False, True), (np.float64(2.5), False, True),
     (np.int64(3), True, True), (Fraction(1, 3), False, True), (True, False, False),
     (np.bool_(True), False, False), ("1", False, False), (None, False, False)],
    ids=repr,
)
def test_integers_and_numbers_exclude_bools_and_strings(value, integer, number):
    assert (is_integer(value), is_number(value)) == (integer, number)


# Every module's imports outside the package. Interpreter start and these
# imports are most of a run's set-up time, so a new one shows up here.
MODULE_IMPORTS = {
    "__init__": set(),
    "agent": {"dataclasses", "math", "numpy", "typing"},
    "baselines": {"enum", "numpy"},
    "channel": {"dataclasses", "math", "numpy"},
    "cli": {"argparse", "dataclasses", "os", "pathlib"},
    "emodrl": {"dataclasses", "numpy", "pathlib", "typing"},
    "env": {"math", "numpy", "operator"},
    "errors": {"numbers"},
    "harness": {"dataclasses", "json", "numpy", "pathlib", "shutil", "time"},
    "neural": {"_queue", "dataclasses", "math", "numpy", "os", "threading"},
    "orbits": {"dataclasses", "math", "numpy"},
    "scenario": {"dataclasses", "json", "math", "pathlib"},
    "seeding": {"numpy", "zlib"},
    "svgplot": {"math", "pathlib"},
}


def test_module_imports_are_pinned():
    found = {}
    for path in Path(leodcb.__file__).parent.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
        found[path.stem] = {
            name for name in names if name != "__future__" and name.split(".")[0] != "leodcb"
        }
    assert found == MODULE_IMPORTS

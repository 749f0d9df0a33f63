"""Scenario configuration: constellation, terminals, RF constants, timeline.

Scenarios serialize to a strict JSON document (unknown keys rejected,
floats round-trip exactly) and are validated against named constraints on
construction.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import channel
from .channel import RfConstants
from .errors import ConfigError
from .orbits import OrbitalElements, PhysicalConstants, circular_orbit
from .seeding import stream

FORMAT_TAG = "leodcb-scenario-v1"

DEFAULT_MIN_ELEVATION = math.radians(10.0)  # S-band visibility cutoff
DEFAULT_NOISE_PSD_DBM_PER_HZ = -157.0
DEFAULT_BANDWIDTH = 1.0e7
DEFAULT_CARRIER = 2.4e9


@dataclass(frozen=True)
class Scenario:
    """Full experiment configuration."""

    constants: PhysicalConstants
    constellation: tuple[OrbitalElements, ...]
    terminals: tuple[tuple[float, float], ...]  # local-frame (east, north), m
    rf: RfConstants
    n_slots: int
    slot_seconds: float
    rate_threshold: float       # bps, minimum useful uplink rate
    unavailability: float       # per-satellite per-slot Bernoulli outage prob
    min_elevation: float        # rad
    n_schemes: int
    master_seed: int
    reference_longitude: float = 0.0
    terminal_area: float = 100.0  # side of the square terminal area, m

    def __post_init__(self):
        _require(len(self.terminals) >= 1, "n_terminals >= 1")
        _require(len(self.constellation) >= 1, "n_satellites >= 1")
        _require(0.0 <= self.unavailability <= 1.0, "0 <= unavailability <= 1")
        _require(self.n_slots >= 1, "n_slots >= 1")
        _require(self.slot_seconds > 0.0, "slot_seconds > 0")
        _require(self.n_schemes >= 1, "n_schemes >= 1")
        _require(self.rate_threshold >= 0.0, "rate_threshold >= 0")
        _require(
            -math.pi / 2 <= self.min_elevation <= math.pi / 2,
            "min_elevation within [-pi/2, pi/2]",
        )
        _require(self.master_seed >= 0, "master_seed >= 0")
        _require(self.terminal_area > 0.0, "terminal_area > 0")

    @property
    def n_terminals(self) -> int:
        return len(self.terminals)

    @property
    def n_satellites(self) -> int:
        return len(self.constellation)

    def with_overrides(
        self,
        unavailability: float | None = None,
        n_terminals: int | None = None,
        rate_threshold: float | None = None,
    ) -> "Scenario":
        """Scenario variant for portability studies.

        Overriding the terminal count redraws positions uniformly in the
        configured terminal area from the (master seed, "terminals", n)
        stream, so each count maps to one reproducible layout. It keeps
        ``rf.rho0``: rho0 is a scenario input that JSON can set explicitly,
        and a scenario cannot tell a derived value from a given one.
        """
        changes = {}
        if unavailability is not None:
            changes["unavailability"] = unavailability
        if rate_threshold is not None:
            changes["rate_threshold"] = rate_threshold
        if n_terminals is not None:
            changes["terminals"] = _draw_terminals(
                self.master_seed, n_terminals, self.terminal_area
            )
        return dataclasses.replace(self, **changes)

    def subset_terminals(self, indices) -> "Scenario":
        """Keep only the given terminal indices (used by the non-DCB baseline)."""
        kept = tuple(self.terminals[i] for i in indices)
        return dataclasses.replace(self, terminals=kept)


def _require(condition: bool, constraint: str) -> None:
    if not condition:
        raise ConfigError(f"scenario constraint violated: {constraint}")


def _draw_terminals(master_seed: int, count: int, area: float):
    rng = stream(master_seed, "terminals", count)
    points = rng.uniform(-area / 2.0, area / 2.0, size=(count, 2))
    return tuple((float(x), float(y)) for x, y in points)


def _resolve_rho0(rf_fields: dict, constellation, slot_seconds: float, n_terminals: int) -> float:
    reference = min(sat.altitude for sat in constellation)
    return channel.default_rho0(
        beta0=rf_fields["beta0"],
        path_loss_exponent=rf_fields["path_loss_exponent"],
        noise_power=rf_fields["noise_power"],
        p_max=rf_fields["p_max"],
        reference_distance=reference,
        slot_seconds=slot_seconds,
        n_terminals=n_terminals,
    )


def _evenly_spaced_plane(
    count: int,
    inclination: float,
    altitude: float,
    constants: PhysicalConstants,
    raan: float = 0.0,
    phase_offset: float = 0.0,
):
    step = 2.0 * math.pi / count
    return [
        circular_orbit(
            inclination=inclination,
            raan=raan,
            arg_perigee=phase_offset + i * step,
            true_anomaly=0.0,
            altitude=altitude,
            constants=constants,
        )
        for i in range(count)
    ]


def _default_rf(constellation, slot_seconds, n_terminals, p_min=1.0, p_max=2.0) -> RfConstants:
    beta0 = channel.free_space_reference_gain(DEFAULT_CARRIER)
    noise = 10.0 ** (DEFAULT_NOISE_PSD_DBM_PER_HZ / 10.0) * 1e-3 * DEFAULT_BANDWIDTH
    fields = {
        "beta0": beta0,
        "path_loss_exponent": 2.0,
        "noise_power": noise,
        "p_max": p_max,
    }
    return RfConstants(
        beta0=beta0,
        path_loss_exponent=2.0,
        noise_power=noise,
        bandwidth=DEFAULT_BANDWIDTH,
        carrier_frequency=DEFAULT_CARRIER,
        p_min=p_min,
        p_max=p_max,
        rho0=_resolve_rho0(fields, constellation, slot_seconds, n_terminals),
    )


def default_scenario(master_seed: int = 42) -> Scenario:
    """110-satellite constellation over a 10-terminal equatorial cluster.

    80 satellites at 5e5 m and 30 at 1e6 m; most planes equatorial, some
    inclined by +/- pi/8, satellites evenly spaced within each plane.
    The rate threshold sits in the gap between the rate regimes: every
    single-terminal rate stays below ~5.8e3 bps while the array's
    coherent gain keeps any visible-satellite transmission above
    ~9.3e3 bps at this geometry.
    """
    constants = PhysicalConstants()
    low, high = 5.0e5, 1.0e6
    tilt = math.pi / 8.0
    constellation = (
        _evenly_spaced_plane(60, 0.0, low, constants)
        + _evenly_spaced_plane(10, tilt, low, constants, phase_offset=0.1)
        + _evenly_spaced_plane(10, -tilt, low, constants, phase_offset=0.2)
        + _evenly_spaced_plane(20, 0.0, high, constants, phase_offset=0.05)
        + _evenly_spaced_plane(5, tilt, high, constants, phase_offset=0.15)
        + _evenly_spaced_plane(5, -tilt, high, constants, phase_offset=0.25)
    )
    slot_seconds = 60.0
    terminals = _draw_terminals(master_seed, 10, 100.0)
    return Scenario(
        constants=constants,
        constellation=tuple(constellation),
        terminals=terminals,
        rf=_default_rf(constellation, slot_seconds, len(terminals)),
        n_slots=60,
        slot_seconds=slot_seconds,
        rate_threshold=7.5e3,
        unavailability=0.1,
        min_elevation=DEFAULT_MIN_ELEVATION,
        n_schemes=10,
        master_seed=master_seed,
    )


def desk_scenario(master_seed: int = 42) -> Scenario:
    """Small constellation for fast training runs: 12 satellites, 30 slots."""
    constants = PhysicalConstants()
    constellation = (
        _evenly_spaced_plane(10, 0.0, 1.0e6, constants)
        + _evenly_spaced_plane(1, math.pi / 8.0, 1.0e6, constants, phase_offset=0.3)
        + _evenly_spaced_plane(1, -math.pi / 8.0, 1.0e6, constants, phase_offset=0.6)
    )
    slot_seconds = 60.0
    terminals = _draw_terminals(master_seed, 10, 100.0)
    return Scenario(
        constants=constants,
        constellation=tuple(constellation),
        terminals=terminals,
        rf=_default_rf(constellation, slot_seconds, len(terminals)),
        n_slots=30,
        slot_seconds=slot_seconds,
        rate_threshold=5.0e3,
        unavailability=0.2,
        min_elevation=DEFAULT_MIN_ELEVATION,
        n_schemes=10,
        master_seed=master_seed,
    )


def micro_scenario(master_seed: int = 7) -> Scenario:
    """Tiny deterministic-geometry scenario for golden-file tests."""
    constants = PhysicalConstants()
    constellation = tuple(_evenly_spaced_plane(3, 0.0, 1.0e6, constants))
    slot_seconds = 60.0
    terminals = _draw_terminals(master_seed, 2, 100.0)
    return Scenario(
        constants=constants,
        constellation=constellation,
        terminals=terminals,
        rf=_default_rf(constellation, slot_seconds, len(terminals)),
        n_slots=5,
        slot_seconds=slot_seconds,
        rate_threshold=1.0e3,
        unavailability=0.3,
        min_elevation=DEFAULT_MIN_ELEVATION,
        n_schemes=3,
        master_seed=master_seed,
    )


NAMED_SCENARIOS = {
    "default": default_scenario,
    "desk": desk_scenario,
    "micro": micro_scenario,
}


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "format": FORMAT_TAG,
        "constants": {
            "earth_radius_m": scenario.constants.earth_radius,
            "gravitational_constant": scenario.constants.gravitational_constant,
            "earth_mass_kg": scenario.constants.earth_mass,
        },
        "constellation": [
            {
                "inclination_rad": sat.inclination,
                "raan_rad": sat.raan,
                "arg_perigee_rad": sat.arg_perigee,
                "true_anomaly_rad": sat.true_anomaly,
                "altitude_m": sat.altitude,
            }
            for sat in scenario.constellation
        ],
        "terminals_m": [list(t) for t in scenario.terminals],
        "rf": {
            "beta0": scenario.rf.beta0,
            "path_loss_exponent": scenario.rf.path_loss_exponent,
            "noise_power_w": scenario.rf.noise_power,
            "bandwidth_hz": scenario.rf.bandwidth,
            "carrier_frequency_hz": scenario.rf.carrier_frequency,
            "p_min_w": scenario.rf.p_min,
            "p_max_w": scenario.rf.p_max,
            "rho0": scenario.rf.rho0,
        },
        "n_slots": scenario.n_slots,
        "slot_seconds": scenario.slot_seconds,
        "rate_threshold_bps": scenario.rate_threshold,
        "unavailability_p": scenario.unavailability,
        "min_elevation_rad": scenario.min_elevation,
        "n_schemes": scenario.n_schemes,
        "master_seed": scenario.master_seed,
        "reference_longitude_rad": scenario.reference_longitude,
        "terminal_area_m": scenario.terminal_area,
    }


def _take(section: dict, keys: set[str], where: str) -> None:
    unknown = set(section) - keys
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = keys - set(section)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def scenario_from_dict(doc: dict) -> Scenario:
    _take(
        doc,
        {
            "format", "constants", "constellation", "terminals_m", "rf",
            "n_slots", "slot_seconds", "rate_threshold_bps", "unavailability_p",
            "min_elevation_rad", "n_schemes", "master_seed",
            "reference_longitude_rad", "terminal_area_m",
        },
        "scenario",
    )
    if doc["format"] != FORMAT_TAG:
        raise ConfigError(f"unsupported scenario format: {doc['format']!r}")
    _take(
        doc["constants"],
        {"earth_radius_m", "gravitational_constant", "earth_mass_kg"},
        "constants",
    )
    constants = PhysicalConstants(
        earth_radius=doc["constants"]["earth_radius_m"],
        gravitational_constant=doc["constants"]["gravitational_constant"],
        earth_mass=doc["constants"]["earth_mass_kg"],
    )
    constellation = []
    for i, sat in enumerate(doc["constellation"]):
        _take(
            sat,
            {"inclination_rad", "raan_rad", "arg_perigee_rad", "true_anomaly_rad", "altitude_m"},
            f"constellation[{i}]",
        )
        constellation.append(
            circular_orbit(
                inclination=sat["inclination_rad"],
                raan=sat["raan_rad"],
                arg_perigee=sat["arg_perigee_rad"],
                true_anomaly=sat["true_anomaly_rad"],
                altitude=sat["altitude_m"],
                constants=constants,
            )
        )
    rf_doc = dict(doc["rf"])
    _take(
        rf_doc,
        {
            "beta0", "path_loss_exponent", "noise_power_w", "bandwidth_hz",
            "carrier_frequency_hz", "p_min_w", "p_max_w", "rho0",
        },
        "rf",
    )
    rho0 = rf_doc["rho0"]
    if rho0 is None:
        rho0 = _resolve_rho0(
            {
                "beta0": rf_doc["beta0"],
                "path_loss_exponent": rf_doc["path_loss_exponent"],
                "noise_power": rf_doc["noise_power_w"],
                "p_max": rf_doc["p_max_w"],
            },
            constellation,
            doc["slot_seconds"],
            len(doc["terminals_m"]),
        )
    rf = RfConstants(
        beta0=rf_doc["beta0"],
        path_loss_exponent=rf_doc["path_loss_exponent"],
        noise_power=rf_doc["noise_power_w"],
        bandwidth=rf_doc["bandwidth_hz"],
        carrier_frequency=rf_doc["carrier_frequency_hz"],
        p_min=rf_doc["p_min_w"],
        p_max=rf_doc["p_max_w"],
        rho0=rho0,
    )
    return Scenario(
        constants=constants,
        constellation=tuple(constellation),
        terminals=tuple((float(x), float(y)) for x, y in doc["terminals_m"]),
        rf=rf,
        n_slots=doc["n_slots"],
        slot_seconds=doc["slot_seconds"],
        rate_threshold=doc["rate_threshold_bps"],
        unavailability=doc["unavailability_p"],
        min_elevation=doc["min_elevation_rad"],
        n_schemes=doc["n_schemes"],
        master_seed=doc["master_seed"],
        reference_longitude=doc["reference_longitude_rad"],
        terminal_area=doc["terminal_area_m"],
    )


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load_scenario(path) -> Scenario:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario parse error at line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(doc)


def resolve_scenario(name_or_path: str) -> Scenario:
    """Named scenario ("default", "desk", "micro") or a JSON file path."""
    if name_or_path in NAMED_SCENARIOS:
        return NAMED_SCENARIOS[name_or_path]()
    return load_scenario(name_or_path)

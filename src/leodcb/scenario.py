"""Scenario configuration: constellation, terminals, RF constants, timeline.

Scenarios serialize to a strict JSON document (unknown keys rejected,
floats round-trip exactly) and are validated against named constraints on
construction, whether built from JSON or from Python: every count and seed
must be an integer and every other scalar a real number (``INTEGER_FIELDS``,
``REAL_FIELDS``; a bool is neither), and each section of the right type,
checked by ``errors.check``. Each section checks its own fields the same way.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import channel
from .channel import RfConstants
from .errors import ConfigError, check, is_number
from .orbits import OrbitalElements, PhysicalConstants
from .seeding import stream

FORMAT_TAG = "leodcb-scenario-v1"

DEFAULT_MIN_ELEVATION = math.radians(10.0)  # S-band visibility cutoff
DEFAULT_NOISE_PSD_DBM_PER_HZ = -157.0
DEFAULT_BANDWIDTH = 1.0e7
DEFAULT_CARRIER = 2.4e9
DEFAULT_TERMINAL_AREA = 100.0  # side of the square terminal area, m

# Scenario scalars that hold counts or seeds, and those that hold reals.
INTEGER_FIELDS = ("n_slots", "n_schemes", "master_seed")
REAL_FIELDS = ("slot_seconds", "rate_threshold", "unavailability", "min_elevation",
               "reference_longitude", "terminal_area")


@dataclass(frozen=True)
class Scenario:
    """Full experiment configuration.

    An ``rf`` whose rho0 is None gets it derived, once every other input
    is checked, for full power over a link as long as the lowest orbit
    altitude (see ``channel.default_rho0``).
    """

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
    terminal_area: float = DEFAULT_TERMINAL_AREA

    def __post_init__(self):
        check("scenario", vars(self), INTEGER_FIELDS, REAL_FIELDS, lambda: (
            (isinstance(self.constants, PhysicalConstants), "constants is a PhysicalConstants"),
            (isinstance(self.rf, RfConstants), "rf is an RfConstants"),
            (isinstance(self.constellation, tuple)
             and all(isinstance(sat, OrbitalElements) for sat in self.constellation),
             "constellation is a tuple of OrbitalElements"),
            (isinstance(self.terminals, tuple)
             and all(isinstance(point, tuple) and len(point) == 2 and all(map(is_number, point))
                     for point in self.terminals),
             "terminals is a tuple of (east, north) number pairs"),
        ))
        # A second call, as these rows read the sections checked above.
        check("scenario", vars(self), constraints=lambda: (
            (len(self.terminals) >= 1, "n_terminals >= 1"),
            (len(self.constellation) >= 1, "n_satellites >= 1"),
            (0.0 <= self.unavailability <= 1.0, "0 <= unavailability <= 1"),
            (self.n_slots >= 1, "n_slots >= 1"),
            (self.slot_seconds > 0.0, "slot_seconds > 0"),
            (self.n_schemes >= 1, "n_schemes >= 1"),
            (self.rate_threshold >= 0.0, "rate_threshold >= 0"),
            (-math.pi / 2 <= self.min_elevation <= math.pi / 2,
             "min_elevation within [-pi/2, pi/2]"),
            (self.master_seed >= 0, "master_seed >= 0"),
            (self.terminal_area > 0.0, "terminal_area > 0"),
            (math.isfinite(self.reference_longitude), "reference_longitude is finite"),
            (all(math.isfinite(coordinate) for point in self.terminals for coordinate in point),
             "terminal coordinates are finite"),
        ))
        rf = self.rf
        if rf.rho0 is None:
            rho0 = channel.default_rho0(
                rf.beta0, rf.path_loss_exponent, rf.noise_power, rf.p_max,
                min(sat.altitude for sat in self.constellation),
                self.slot_seconds, self.n_terminals,
            )
            object.__setattr__(self, "rf", dataclasses.replace(rf, rho0=rho0))

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
        if n_terminals is not None:
            check("scenario", {"n_terminals": n_terminals}, ("n_terminals",),
                  constraints=lambda: ((n_terminals >= 1, "n_terminals >= 1"),))
            changes["terminals"] = _draw_terminals(
                self.master_seed, n_terminals, self.terminal_area
            )
        return dataclasses.replace(self, **changes)

    def subset_terminals(self, indices) -> "Scenario":
        """Keep only the given terminal indices (used by the non-DCB baseline)."""
        kept = tuple(self.terminals[i] for i in indices)
        return dataclasses.replace(self, terminals=kept)


def _draw_terminals(master_seed: int, count: int, area: float):
    rng = stream(master_seed, "terminals", count)
    points = rng.uniform(-area / 2.0, area / 2.0, size=(count, 2))
    return tuple((float(x), float(y)) for x, y in points)


def _evenly_spaced_plane(count: int, inclination: float, altitude: float, phase_offset=0.0):
    step = 2.0 * math.pi / count
    return tuple(
        OrbitalElements(inclination, 0.0, phase_offset + i * step, 0.0, altitude)
        for i in range(count)
    )


# RF constants of the named scenarios; their rho0 is derived by Scenario.
DEFAULT_RF = RfConstants(
    beta0=channel.free_space_reference_gain(DEFAULT_CARRIER),
    path_loss_exponent=2.0,
    noise_power=10.0 ** (DEFAULT_NOISE_PSD_DBM_PER_HZ / 10.0) * 1e-3 * DEFAULT_BANDWIDTH,
    bandwidth=DEFAULT_BANDWIDTH,
    p_min=1.0,
    p_max=2.0,
    rho0=None,
)


def _named_scenario(master_seed: int, n_terminals: int, **inputs) -> Scenario:
    """A named scenario: the inputs all of them share, and ``inputs``."""
    return Scenario(
        constants=PhysicalConstants(),
        terminals=_draw_terminals(master_seed, n_terminals, DEFAULT_TERMINAL_AREA),
        rf=DEFAULT_RF,
        slot_seconds=60.0,
        min_elevation=DEFAULT_MIN_ELEVATION,
        master_seed=master_seed,
        **inputs,
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
    low, high = 5.0e5, 1.0e6
    tilt = math.pi / 8.0
    return _named_scenario(
        master_seed, 10,
        constellation=(
            _evenly_spaced_plane(60, 0.0, low)
            + _evenly_spaced_plane(10, tilt, low, phase_offset=0.1)
            + _evenly_spaced_plane(10, -tilt, low, phase_offset=0.2)
            + _evenly_spaced_plane(20, 0.0, high, phase_offset=0.05)
            + _evenly_spaced_plane(5, tilt, high, phase_offset=0.15)
            + _evenly_spaced_plane(5, -tilt, high, phase_offset=0.25)
        ),
        n_slots=60, rate_threshold=7.5e3, unavailability=0.1, n_schemes=10,
    )


def desk_scenario(master_seed: int = 42) -> Scenario:
    """Small constellation for fast training runs: 12 satellites, 30 slots."""
    return _named_scenario(
        master_seed, 10,
        constellation=(
            _evenly_spaced_plane(10, 0.0, 1.0e6)
            + _evenly_spaced_plane(1, math.pi / 8.0, 1.0e6, phase_offset=0.3)
            + _evenly_spaced_plane(1, -math.pi / 8.0, 1.0e6, phase_offset=0.6)
        ),
        n_slots=30, rate_threshold=5.0e3, unavailability=0.2, n_schemes=10,
    )


def micro_scenario(master_seed: int = 7) -> Scenario:
    """Tiny deterministic-geometry scenario for golden-file tests."""
    return _named_scenario(
        master_seed, 2,
        constellation=_evenly_spaced_plane(3, 0.0, 1.0e6),
        n_slots=5, rate_threshold=1.0e3, unavailability=0.3, n_schemes=3,
    )


NAMED_SCENARIOS = {
    "default": default_scenario,
    "desk": desk_scenario,
    "micro": micro_scenario,
}

# The JSON document: a format tag and four sections, then the top-level
# scalars. Each table maps a field to its JSON key, in document order; the
# fields are keywords, so each key string is written once in the package.
FORMAT, CONSTANTS, CONSTELLATION, TERMINALS, RF = (
    "format", "constants", "constellation", "terminals_m", "rf"
)
CONSTANTS_KEYS = dict(
    earth_radius="earth_radius_m",
    gravitational_constant="gravitational_constant",
    earth_mass="earth_mass_kg",
)
ORBIT_KEYS = dict(
    inclination="inclination_rad",
    raan="raan_rad",
    arg_perigee="arg_perigee_rad",
    true_anomaly="true_anomaly_rad",
    altitude="altitude_m",
)
RF_KEYS = dict(
    beta0="beta0",
    path_loss_exponent="path_loss_exponent",
    noise_power="noise_power_w",
    bandwidth="bandwidth_hz",
    p_min="p_min_w",
    p_max="p_max_w",
    rho0="rho0",
)
SCALAR_KEYS = dict(
    n_slots="n_slots",
    slot_seconds="slot_seconds",
    rate_threshold="rate_threshold_bps",
    unavailability="unavailability_p",
    min_elevation="min_elevation_rad",
    n_schemes="n_schemes",
    master_seed="master_seed",
    reference_longitude="reference_longitude_rad",
    terminal_area="terminal_area_m",
)


def _encode(obj, keys: dict) -> dict:
    return {key: getattr(obj, name) for name, key in keys.items()}


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        FORMAT: FORMAT_TAG,
        CONSTANTS: _encode(scenario.constants, CONSTANTS_KEYS),
        CONSTELLATION: [_encode(sat, ORBIT_KEYS) for sat in scenario.constellation],
        TERMINALS: [list(t) for t in scenario.terminals],
        RF: _encode(scenario.rf, RF_KEYS),
        **_encode(scenario, SCALAR_KEYS),
    }


def _object(section, keys, where: str) -> dict:
    """``section``, if it is a JSON object holding exactly ``keys``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(keys) - set(section)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")
    return section


def _number(value, where: str):
    if not is_number(value):
        raise ConfigError(f"{where} must be a JSON number")
    return value


def _section(build, section, keys: dict, where: str):
    """Section type ``build`` called on the fields of a JSON object holding
    ``keys``: each a number, or null for an rf rho0 to be derived (see ``Scenario``).
    Its ``ConfigError`` is raised again prefixed "``where``: ", chained."""
    section = _object(section, keys.values(), where)
    fields = {
        name: None if name == "rho0" and section[key] is None
        else _number(section[key], f"{where}.{key}")
        for name, key in keys.items()
    }
    try:
        return build(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _list(section, where: str) -> list:
    if not isinstance(section, list):
        raise ConfigError(f"{where} must be a JSON list")
    return section


def _terminal(entry, where: str) -> tuple[float, float]:
    if not (isinstance(entry, list) and len(entry) == 2):
        raise ConfigError(f"{where} must be a JSON list of two numbers")
    return tuple(float(_number(value, f"{where}[{j}]")) for j, value in enumerate(entry))


def scenario_from_dict(doc: dict) -> Scenario:
    """Inverse of :func:`scenario_to_dict`; an rf rho0 of null is derived
    by ``Scenario``."""
    top_level = [FORMAT, CONSTANTS, CONSTELLATION, TERMINALS, RF, *SCALAR_KEYS.values()]
    _object(doc, top_level, "scenario")
    if doc[FORMAT] != FORMAT_TAG:
        raise ConfigError(f"unsupported scenario format: {doc[FORMAT]!r}")
    constellation = tuple(
        _section(OrbitalElements, sat, ORBIT_KEYS, f"{CONSTELLATION}[{i}]")
        for i, sat in enumerate(_list(doc[CONSTELLATION], CONSTELLATION))
    )
    terminals = tuple(
        _terminal(entry, f"{TERMINALS}[{i}]")
        for i, entry in enumerate(_list(doc[TERMINALS], TERMINALS))
    )
    # Counts and seeds are checked as integers by Scenario itself.
    scalars = {
        name: doc[key] if name in INTEGER_FIELDS else _number(doc[key], key)
        for name, key in SCALAR_KEYS.items()
    }
    return Scenario(
        constants=_section(PhysicalConstants, doc[CONSTANTS], CONSTANTS_KEYS, CONSTANTS),
        constellation=constellation,
        terminals=terminals,
        rf=_section(RfConstants, doc[RF], RF_KEYS, RF),
        **scalars,
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

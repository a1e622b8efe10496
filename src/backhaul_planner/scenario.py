"""Planning instances and the radio model.

Everything the solvers consume is derived here: scenario geometry (candidate
sites, machines, subarea grid), the mmWave link model (distance-dependent
pathloss with lognormal shadowing and exponential LOS probability), and the
tables precomputed from it (coverage radii, backhaul link capacities and the
per-link limits on how many subareas a small cell may serve).

All types are frozen; a scenario plus its derived tables can be shared
read-only across solver threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import random
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional, Sequence

SPEED_OF_LIGHT = 299_792_458.0
SCENARIO_FORMAT_VERSION = 1

# Links with an effective SNR below this are treated as dead.
MIN_USABLE_SNR_DB = -20.0


class ScenarioFormatError(ValueError):
    """Raised when a scenario file does not match the expected schema."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"scenario field '{fieldname}': {message}")


def _check_number(fieldname: str, value, *, integer: bool = False, minimum=None, above=None) -> None:
    """Reject a non-number (bools included), NaN, an infinity, and a value
    below ``minimum`` or not above ``above``; the error names the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        expected = "an integer" if integer else "a number"
        raise ScenarioFormatError(fieldname, f"expected {expected}, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioFormatError(fieldname, f"must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioFormatError(fieldname, f"must be at least {minimum}, got {value!r}")
    if above is not None and value <= above:
        raise ScenarioFormatError(fieldname, f"must be greater than {above}, got {value!r}")


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkClassParams:
    """Propagation parameters for one link class (access or backhaul)."""

    los_exponent: float
    nlos_exponent: float
    los_shadowing_db: float
    nlos_shadowing_db: float
    bandwidth_hz: float


# Measurement-style defaults for the 73 GHz band; LOS close to free space,
# NLOS markedly steeper with heavier shadowing.
DEFAULT_ACCESS = LinkClassParams(2.0, 3.3, 5.2, 7.6, 1e9)
DEFAULT_BACKHAUL = LinkClassParams(2.0, 3.5, 4.2, 7.9, 1e9)


@dataclass(frozen=True)
class RadioConfig:
    """Radio and demand parameters shared by every station of a role."""

    carrier_hz: float = 73e9
    wavelength_m: float = SPEED_OF_LIGHT / 73e9
    reference_m: float = 1.0
    access: LinkClassParams = DEFAULT_ACCESS
    backhaul: LinkClassParams = DEFAULT_BACKHAUL
    blockage_per_m: float = 0.046
    ban_tx_dbm: float = 30.0
    sbs_tx_dbm: float = 30.0
    # Machine uplinks run on a sub-6 GHz band that is abstracted into
    # ma_range_m / machine_limit; the power is carried for completeness only.
    machine_tx_dbm: float = 10.0
    noise_dbm: float = -74.0
    snr_threshold_db: float = -10.0
    access_outage: float = 0.1
    backhaul_outage: float = 0.1
    user_density_per_m2: float = 200e-6
    per_user_rate_bps: float = 100e6
    compression_ratio: float = 1.0
    mtc_weight: float = 0.5
    machine_limit: int = 600
    ma_range_m: float = 100.0

    def __post_init__(self):
        """Fields are named as in the scenario file (``radio.<name>``)."""
        for name, bounds in _RADIO_BOUNDS.items():
            _check_number(f"radio.{name}", getattr(self, name), **bounds)
        for role in ("access", "backhaul"):
            link = getattr(self, role)
            if not isinstance(link, LinkClassParams):
                raise ScenarioFormatError(f"radio.{role}", f"expected link parameters, got {link!r}")
            for name, bounds in _LINK_BOUNDS.items():
                _check_number(f"radio.{role}.{name}", getattr(link, name), **bounds)
        expected = SPEED_OF_LIGHT / self.carrier_hz
        if abs(self.wavelength_m - expected) > 1e-3 * expected:
            raise ScenarioFormatError(
                "radio.wavelength_m",
                f"wavelength {self.wavelength_m} inconsistent with carrier "
                f"{self.carrier_hz} (expected {expected:.6g})",
            )
        for name in ("access_outage", "backhaul_outage"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ScenarioFormatError(f"radio.{name}", "must lie in (0, 1)")
        if not (0.0 < self.compression_ratio <= 1.0):
            raise ScenarioFormatError("radio.compression_ratio", "must lie in (0, 1]")

    @classmethod
    def for_carrier(cls, carrier_hz: float, **overrides) -> "RadioConfig":
        return cls(carrier_hz=carrier_hz, wavelength_m=SPEED_OF_LIGHT / carrier_hz, **overrides)


# Sign constraints of the numeric radio fields; every one must be finite.
_RADIO_BOUNDS = {
    "carrier_hz": {"above": 0.0},
    "wavelength_m": {"above": 0.0},
    "reference_m": {"above": 0.0},
    "blockage_per_m": {"minimum": 0.0},
    "ban_tx_dbm": {},
    "sbs_tx_dbm": {},
    "machine_tx_dbm": {},
    "noise_dbm": {},
    "snr_threshold_db": {},
    "access_outage": {},
    "backhaul_outage": {},
    "user_density_per_m2": {"minimum": 0.0},
    "per_user_rate_bps": {"above": 0.0},
    "compression_ratio": {},
    "mtc_weight": {"minimum": 0.0},
    "machine_limit": {"integer": True, "minimum": 0},
    "ma_range_m": {"minimum": 0.0},
}
_LINK_BOUNDS = {
    "los_exponent": {"minimum": 0.0},
    "nlos_exponent": {"minimum": 0.0},
    "los_shadowing_db": {"minimum": 0.0},
    "nlos_shadowing_db": {"minimum": 0.0},
    "bandwidth_hz": {"minimum": 0.0},
}


@dataclass(frozen=True)
class LinkSpec:
    """A fully resolved link budget: transmit role applied to a link class."""

    tx_dbm: float
    los_exponent: float
    nlos_exponent: float
    los_shadowing_db: float
    nlos_shadowing_db: float
    bandwidth_hz: float


def access_link(radio: RadioConfig, role: str) -> LinkSpec:
    tx = radio.ban_tx_dbm if role == "ban" else radio.sbs_tx_dbm
    a = radio.access
    return LinkSpec(tx, a.los_exponent, a.nlos_exponent, a.los_shadowing_db, a.nlos_shadowing_db, a.bandwidth_hz)


def backhaul_link(radio: RadioConfig, role: str) -> LinkSpec:
    tx = radio.ban_tx_dbm if role == "ban" else radio.sbs_tx_dbm
    b = radio.backhaul
    return LinkSpec(tx, b.los_exponent, b.nlos_exponent, b.los_shadowing_db, b.nlos_shadowing_db, b.bandwidth_hz)


# ---------------------------------------------------------------------------
# scenario geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Site:
    x: float
    y: float
    cost: float


@dataclass(frozen=True)
class Machine:
    x: float
    y: float
    rate_bps: float


@dataclass(frozen=True)
class Scenario:
    """One planning instance: geometry, candidate sites, machines, knobs."""

    width: float
    height: float
    radio: RadioConfig
    ban_sites: tuple[Site, ...]
    sbs_sites: tuple[Site, ...]
    ma_sites: tuple[Site, ...]
    machines: tuple[Machine, ...]
    subarea_side: float
    ban_slots: int = 5
    max_relays: int = 2

    def __post_init__(self):
        """Fields are named as in the scenario file (``area.w``, ``n_b``,
        ``machines[3].rate``, ...)."""
        _check_number("area.w", self.width, above=0)
        _check_number("area.h", self.height, above=0)
        _check_number("subarea_side", self.subarea_side, above=0)
        _check_number("n_b", self.ban_slots, integer=True, minimum=0)
        _check_number("n_relays", self.max_relays, integer=True, minimum=0)
        if not (self.ban_sites or self.sbs_sites or self.ma_sites):
            raise ScenarioFormatError("ban_sites/sbs_sites/ma_sites", "at least one candidate site is required")
        groups = (("ban_sites", self.ban_sites), ("sbs_sites", self.sbs_sites), ("ma_sites", self.ma_sites))
        points = [(key, n, s.x, s.y, s.cost) for key, group in groups for n, s in enumerate(group)]
        points += [("machines", n, m.x, m.y, m.rate_bps) for n, m in enumerate(self.machines)]
        for key, n, x, y, amount in points:
            where = f"{key}[{n}]"
            _check_number(f"{where}.x", x, minimum=0)
            _check_number(f"{where}.y", y, minimum=0)
            _check_number(f"{where}.{'rate' if key == 'machines' else 'cost'}", amount, above=0)
            if x > self.width or y > self.height:
                raise ScenarioFormatError(where, f"position ({x}, {y}) outside area")

    @cached_property
    def grid_shape(self) -> tuple[int, int]:
        return (math.ceil(self.width / self.subarea_side), math.ceil(self.height / self.subarea_side))

    @cached_property
    def n_subareas(self) -> int:
        nx, ny = self.grid_shape
        return nx * ny

    @cached_property
    def subarea_centers(self) -> tuple[tuple[float, float], ...]:
        nx, ny = self.grid_shape
        side = self.subarea_side
        return tuple(
            ((ix + 0.5) * side, (iy + 0.5) * side) for iy in range(ny) for ix in range(nx)
        )

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    @property
    def subarea_area_m2(self) -> float:
        return self.subarea_side * self.subarea_side

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def total_cost(self) -> float:
        return (
            sum(s.cost for s in self.ban_sites)
            + sum(s.cost for s in self.sbs_sites)
            + sum(s.cost for s in self.ma_sites)
        )


# ---------------------------------------------------------------------------
# radio model
# ---------------------------------------------------------------------------


def free_space_offset_db(radio: RadioConfig) -> float:
    return 20.0 * math.log10(4.0 * math.pi * radio.reference_m / radio.wavelength_m)


def pathloss_db(radio: RadioConfig, distance_m: float, link: LinkSpec, los: bool) -> float:
    """Mean pathloss in dB at a given distance; shadowing is handled
    analytically by the outage math, never sampled here."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    exponent = link.los_exponent if los else link.nlos_exponent
    return free_space_offset_db(radio) + 10.0 * exponent * math.log10(distance_m / radio.reference_m)


def los_probability(radio: RadioConfig, distance_m: float) -> float:
    if distance_m < 0:
        raise ValueError("distance must be nonnegative")
    return math.exp(-radio.blockage_per_m * distance_m)


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _tail_below(threshold_db: float, mean_db: float, sigma_db: float) -> float:
    """P(shadowed SNR <= threshold) for one LOS state."""
    if sigma_db <= 0:
        if mean_db > threshold_db:
            return 0.0
        if mean_db < threshold_db:
            return 1.0
        return 0.5
    return _normal_cdf((threshold_db - mean_db) / sigma_db)


def snr_below_probability(radio: RadioConfig, distance_m: float, link: LinkSpec, threshold_db: float) -> float:
    """P(SNR <= threshold), blending LOS and NLOS states analytically."""
    p_los = los_probability(radio, distance_m)
    mean_los = link.tx_dbm - pathloss_db(radio, distance_m, link, los=True) - radio.noise_dbm
    mean_nlos = link.tx_dbm - pathloss_db(radio, distance_m, link, los=False) - radio.noise_dbm
    return p_los * _tail_below(threshold_db, mean_los, link.los_shadowing_db) + (1.0 - p_los) * _tail_below(
        threshold_db, mean_nlos, link.nlos_shadowing_db
    )


def outage_probability(radio: RadioConfig, distance_m: float, link: LinkSpec) -> float:
    """Probability that the received SNR falls below the service threshold."""
    return snr_below_probability(radio, distance_m, link, radio.snr_threshold_db)


def coverage_radius(radio: RadioConfig, link: LinkSpec, max_outage: float, cap_m: float) -> float:
    """Largest distance at which the outage stays within ``max_outage``.

    Bisection to 1 cm; returns 0.0 when even point-blank range is in outage
    and ``cap_m`` when the cap itself still meets the target.
    """
    lo = 1e-3
    if outage_probability(radio, cap_m, link) <= max_outage:
        return cap_m
    if outage_probability(radio, lo, link) > max_outage:
        return 0.0
    hi = cap_m
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if outage_probability(radio, mid, link) <= max_outage:
            lo = mid
        else:
            hi = mid
    return lo


def effective_snr_db(radio: RadioConfig, distance_m: float, link: LinkSpec, reliability_outage: float) -> float:
    """SNR exceeded with probability 1 - reliability_outage (the quantile of
    the LOS/NLOS shadowed SNR mixture)."""
    lo, hi = -300.0, 300.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if snr_below_probability(radio, distance_m, link, mid) < reliability_outage:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def backhaul_capacity_bps(radio: RadioConfig, distance_m: float, link: LinkSpec) -> float:
    """Shannon capacity at the reliability-adjusted SNR; 0 for dead links."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    snr_db = effective_snr_db(radio, distance_m, link, radio.backhaul_outage)
    if snr_db < MIN_USABLE_SNR_DB:
        return 0.0
    return link.bandwidth_hz * math.log2(1.0 + 10.0 ** (snr_db / 10.0))


def poisson_demand_exceeds(mean_users: float, capacity_bps: float, per_user_rate_bps: float) -> float:
    """P(total user demand > capacity) with a Poisson user count and a
    constant per-user rate; exact tail summation."""
    if mean_users < 0:
        raise ValueError("mean_users must be nonnegative")
    if mean_users == 0:
        return 0.0
    max_users = math.floor(capacity_bps / per_user_rate_bps + 1e-9)
    if max_users < 0:
        return 1.0
    term = math.exp(-mean_users)
    cdf = term
    for k in range(1, max_users + 1):
        term *= mean_users / k
        cdf += term
    return max(0.0, 1.0 - cdf)


def subarea_capacity_limit(radio: RadioConfig, capacity_bps: float, subarea_area_m2: float, max_subareas: int) -> int:
    """Largest number of subareas a link can serve so that the random user
    demand exceeds the link capacity with probability at most the backhaul
    outage target."""
    if capacity_bps < 0:
        raise ValueError("capacity must be nonnegative")
    per_subarea = radio.user_density_per_m2 * subarea_area_m2

    def ok(n: int) -> bool:
        return (
            poisson_demand_exceeds(n * per_subarea, capacity_bps, radio.per_user_rate_bps)
            <= radio.backhaul_outage
        )

    lo, hi = 0, max_subareas
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


# ---------------------------------------------------------------------------
# derived tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivedTables:
    """Precomputed geometry/capacity tables consumed by every solver."""

    ban_radius_m: float
    sbs_radius_m: float
    ma_range_m: float
    # reachable subareas per station, sorted nearest first
    ban_reach: tuple[tuple[int, ...], ...]
    sbs_reach: tuple[tuple[int, ...], ...]
    # reachable machines per MA, sorted nearest first
    ma_reach: tuple[tuple[int, ...], ...]
    ban_sbs_capacity: tuple[tuple[float, ...], ...]
    sbs_sbs_capacity: tuple[tuple[float, ...], ...]
    ban_ma_capacity: tuple[tuple[float, ...], ...]
    ban_sbs_limit: tuple[tuple[int, ...], ...]
    sbs_sbs_limit: tuple[tuple[int, ...], ...]
    machine_limit: int
    ban_subarea_m: tuple[tuple[float, ...], ...]
    sbs_subarea_m: tuple[tuple[float, ...], ...]

    def sbs_limit(self, parent: tuple[str, int], sbs: int) -> int:
        kind, idx = parent
        if kind == "ban":
            return self.ban_sbs_limit[idx][sbs]
        return self.sbs_sbs_limit[idx][sbs]


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def derive_tables(scenario: Scenario, radio: Optional[RadioConfig] = None) -> DerivedTables:
    radio = radio or scenario.radio
    centers = scenario.subarea_centers
    cap = scenario.diagonal
    s_count = scenario.n_subareas

    ban_radius = coverage_radius(radio, access_link(radio, "ban"), radio.access_outage, cap)
    sbs_radius = coverage_radius(radio, access_link(radio, "sbs"), radio.access_outage, cap)

    def reach_sorted(pos: tuple[float, float], radius: float) -> tuple[int, ...]:
        hits = [(d, s) for s, c in enumerate(centers) if (d := _distance(pos, c)) <= radius]
        hits.sort()
        return tuple(s for _, s in hits)

    ban_pos = [(s.x, s.y) for s in scenario.ban_sites]
    sbs_pos = [(s.x, s.y) for s in scenario.sbs_sites]
    ma_pos = [(s.x, s.y) for s in scenario.ma_sites]

    ban_reach = tuple(reach_sorted(p, ban_radius) for p in ban_pos)
    sbs_reach = tuple(reach_sorted(p, sbs_radius) for p in sbs_pos)

    def machine_reach(pos: tuple[float, float]) -> tuple[int, ...]:
        hits = [
            (d, m)
            for m, mach in enumerate(scenario.machines)
            if (d := _distance(pos, (mach.x, mach.y))) <= radio.ma_range_m
        ]
        hits.sort()
        return tuple(m for _, m in hits)

    ma_reach = tuple(machine_reach(p) for p in ma_pos)

    ban_bh = backhaul_link(radio, "ban")
    sbs_bh = backhaul_link(radio, "sbs")

    def cap_row(src: tuple[float, float], dsts: Sequence[tuple[float, float]], link: LinkSpec, skip=None):
        row = []
        for n, d in enumerate(dsts):
            if skip is not None and n == skip:
                row.append(0.0)
                continue
            dist = _distance(src, d)
            row.append(backhaul_capacity_bps(radio, max(dist, 1e-6), link))
        return tuple(row)

    ban_sbs_capacity = tuple(cap_row(p, sbs_pos, ban_bh) for p in ban_pos)
    sbs_sbs_capacity = tuple(cap_row(p, sbs_pos, sbs_bh, skip=n) for n, p in enumerate(sbs_pos))
    ban_ma_capacity = tuple(cap_row(p, ma_pos, ban_bh) for p in ban_pos)

    area = scenario.subarea_area_m2

    def limit_row(caps: tuple[float, ...]) -> tuple[int, ...]:
        return tuple(subarea_capacity_limit(radio, c, area, s_count) for c in caps)

    ban_sbs_limit = tuple(limit_row(r) for r in ban_sbs_capacity)
    sbs_sbs_limit = tuple(
        tuple(0 if p == i else v for i, v in enumerate(limit_row(row)))
        for p, row in enumerate(sbs_sbs_capacity)
    )

    ban_subarea_m = tuple(tuple(_distance(p, c) for c in centers) for p in ban_pos)
    sbs_subarea_m = tuple(tuple(_distance(p, c) for c in centers) for p in sbs_pos)

    return DerivedTables(
        ban_radius_m=ban_radius,
        sbs_radius_m=sbs_radius,
        ma_range_m=radio.ma_range_m,
        ban_reach=ban_reach,
        sbs_reach=sbs_reach,
        ma_reach=ma_reach,
        ban_sbs_capacity=ban_sbs_capacity,
        sbs_sbs_capacity=sbs_sbs_capacity,
        ban_ma_capacity=ban_ma_capacity,
        ban_sbs_limit=ban_sbs_limit,
        sbs_sbs_limit=sbs_sbs_limit,
        machine_limit=radio.machine_limit,
        ban_subarea_m=ban_subarea_m,
        sbs_subarea_m=sbs_subarea_m,
    )


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenParams:
    """Inputs to the seeded scenario generator."""

    width: float = 400.0
    height: float = 400.0
    subarea_side: float = 10.0
    n_ban: int = 5
    n_sbs: int = 40
    n_ma: int = 20
    n_machines: int = 2000
    ban_cost: float = 10.0
    sbs_cost: float = 1.0
    ma_cost: float = 1.0
    machine_rate_bps: float = 50e3
    ban_slots: int = 5
    max_relays: int = 2
    radio: RadioConfig = RadioConfig()
    # explicit-site mode: when given, positions are used verbatim
    ban_positions: Optional[tuple[tuple[float, float], ...]] = None
    sbs_positions: Optional[tuple[tuple[float, float], ...]] = None
    ma_positions: Optional[tuple[tuple[float, float], ...]] = None


def generate_scenario(params: GenParams, seed: int) -> Scenario:
    """Draw a scenario; identical (params, seed) gives an identical instance."""
    if params.width <= 0 or params.height <= 0:
        raise ValueError("area must have positive size")
    if min(params.n_ban, params.n_sbs, params.n_ma, params.n_machines) < 0:
        raise ValueError("counts must be nonnegative")
    rng = random.Random(seed)

    def draw_sites(n: int, cost: float, explicit) -> tuple[Site, ...]:
        if explicit is not None:
            return tuple(Site(x, y, cost) for x, y in explicit)
        return tuple(
            Site(rng.uniform(0, params.width), rng.uniform(0, params.height), cost) for _ in range(n)
        )

    ban_sites = draw_sites(params.n_ban, params.ban_cost, params.ban_positions)
    sbs_sites = draw_sites(params.n_sbs, params.sbs_cost, params.sbs_positions)
    ma_sites = draw_sites(params.n_ma, params.ma_cost, params.ma_positions)
    machines = tuple(
        Machine(rng.uniform(0, params.width), rng.uniform(0, params.height), params.machine_rate_bps)
        for _ in range(params.n_machines)
    )
    return Scenario(
        width=params.width,
        height=params.height,
        radio=params.radio,
        ban_sites=ban_sites,
        sbs_sites=sbs_sites,
        ma_sites=ma_sites,
        machines=machines,
        subarea_side=params.subarea_side,
        ban_slots=params.ban_slots,
        max_relays=params.max_relays,
    )


PRESETS = {
    # 400 m x 400 m planning area, 5/40/20 candidate sites, 2000 machines,
    # normalized costs 10/1/1, 73 GHz defaults.
    "paper-fig2": GenParams(),
}


def preset_gen_params(name: str) -> GenParams:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset '{name}' (available: {sorted(PRESETS)})") from None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    radio = asdict(scenario.radio)
    return {
        "version": SCENARIO_FORMAT_VERSION,
        "area": {"w": scenario.width, "h": scenario.height},
        "radio": radio,
        "ban_sites": [{"x": s.x, "y": s.y, "cost": s.cost} for s in scenario.ban_sites],
        "sbs_sites": [{"x": s.x, "y": s.y, "cost": s.cost} for s in scenario.sbs_sites],
        "ma_sites": [{"x": s.x, "y": s.y, "cost": s.cost} for s in scenario.ma_sites],
        "machines": [{"x": m.x, "y": m.y, "rate": m.rate_bps} for m in scenario.machines],
        "subarea_side": scenario.subarea_side,
        "n_b": scenario.ban_slots,
        "n_relays": scenario.max_relays,
    }


def scenario_from_dict(data: dict) -> Scenario:
    def need(d: dict, key: str, where: str):
        if key not in d:
            raise ScenarioFormatError(f"{where}.{key}" if where else key, "missing")
        return d[key]

    def typed(fieldname: str, value, kind: type):
        if not isinstance(value, kind):
            expected = "an object" if kind is dict else "a list"
            raise ScenarioFormatError(fieldname, f"expected {expected}, got {value!r}")
        return value

    if not isinstance(data, dict):
        raise ScenarioFormatError("", "top level must be an object")
    version = need(data, "version", "")
    if isinstance(version, bool) or version != SCENARIO_FORMAT_VERSION:
        raise ScenarioFormatError("version", f"unsupported version {version!r}")
    area = typed("area", need(data, "area", ""), dict)
    radio_raw = dict(typed("radio", need(data, "radio", ""), dict))
    for key in ("access", "backhaul"):
        try:
            radio_raw[key] = LinkClassParams(**typed(f"radio.{key}", need(radio_raw, key, "radio"), dict))
        except TypeError as exc:
            raise ScenarioFormatError(f"radio.{key}", str(exc)) from exc
    try:
        radio = RadioConfig(**radio_raw)
    except TypeError as exc:  # an unknown key
        raise ScenarioFormatError("radio", str(exc)) from exc

    def entries(key: str, fields: tuple[str, ...], cls) -> tuple:
        out = []
        for n, raw in enumerate(typed(key, need(data, key, ""), list)):
            try:
                out.append(cls(*(raw[f] for f in fields)))
            except (TypeError, KeyError) as exc:
                raise ScenarioFormatError(f"{key}[{n}]", f"expected {{{', '.join(fields)}}}") from exc
        return tuple(out)

    return Scenario(
        width=need(area, "w", "area"),
        height=need(area, "h", "area"),
        radio=radio,
        ban_sites=entries("ban_sites", ("x", "y", "cost"), Site),
        sbs_sites=entries("sbs_sites", ("x", "y", "cost"), Site),
        ma_sites=entries("ma_sites", ("x", "y", "cost"), Site),
        machines=entries("machines", ("x", "y", "rate"), Machine),
        subarea_side=need(data, "subarea_side", ""),
        ban_slots=need(data, "n_b", ""),
        max_relays=need(data, "n_relays", ""),
    )


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def scenario_hash(scenario: Scenario) -> str:
    return hashlib.sha256(canonical_json(scenario_to_dict(scenario)).encode()).hexdigest()


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def tables_to_dict(scenario: Scenario, tables: DerivedTables) -> dict:
    d = asdict(tables)
    d["scenario_hash"] = scenario_hash(scenario)
    d["version"] = SCENARIO_FORMAT_VERSION
    return d


def tables_from_dict(data: dict, scenario: Scenario) -> DerivedTables:
    if data.get("scenario_hash") != scenario_hash(scenario):
        raise ValueError("cached tables do not match the scenario content hash")
    kwargs = {k: v for k, v in data.items() if k not in ("scenario_hash", "version")}

    def deep(v):
        return tuple(deep(x) for x in v) if isinstance(v, list) else v

    return DerivedTables(**{k: deep(v) for k, v in kwargs.items()})


def save_tables(scenario: Scenario, tables: DerivedTables, path) -> None:
    with open(path, "w") as fh:
        json.dump(tables_to_dict(scenario, tables), fh, sort_keys=True)
        fh.write("\n")


def load_tables(path, scenario: Scenario) -> DerivedTables:
    with open(path) as fh:
        return tables_from_dict(json.load(fh), scenario)

"""Network model for radial distribution feeders.

Buses and branches are plain frozen dataclasses; a switch configuration is
the set of closed branch ids.  Quantities follow the usual conventions:
loads and generation in MW/MVAr, impedances and shunts in per-unit on the
case base, voltages in per-unit.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property


class BusKind(Enum):
    FEEDER = "feeder"
    GENERATOR = "generator"
    LOAD = "load"
    SYNCHRONOUS_CONDENSER = "synchronous_condenser"


class SwitchState(Enum):
    OPEN = "open"
    CLOSED = "closed"


class ConfigurationError(ValueError):
    """Switch configuration inconsistent with the case it belongs to."""


class NotRadialError(ValueError):
    """Operation requires a radial configuration."""


@dataclass(frozen=True, slots=True)
class Bus:
    """Single node of the network.

    p_load/q_load and p_gen/q_gen are MW/MVAr; q_min/q_max bound the
    reactive output of the local machine (None = unlimited); g_shunt and
    b_shunt are per-unit shunt admittance terms on the system base.
    """

    id: int
    kind: BusKind = BusKind.LOAD
    p_load: float = 0.0
    q_load: float = 0.0
    p_gen: float = 0.0
    q_gen: float = 0.0
    v_setpoint: float | None = None
    v_min: float = 0.9
    v_max: float = 1.1
    q_min: float | None = None
    q_max: float | None = None
    g_shunt: float = 0.0
    b_shunt: float = 0.0

    @property
    def q_limits(self) -> tuple[float, float] | None:
        # equal limits (the 0.0/0.0 idiom of interchange files) mean "none"
        if self.q_min is None or self.q_max is None or self.q_min == self.q_max:
            return None
        return self.q_min, self.q_max


@dataclass(frozen=True, slots=True)
class Branch:
    """Series element between two buses, optionally switchable.

    r, x and b_shunt (total line charging) are per-unit; tap_ratio models a
    fixed-ratio transformer on the from side (1.0 = plain line); mva_limit
    is the thermal rating (None = unrated).
    """

    id: int
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_shunt: float = 0.0
    tap_ratio: float = 1.0
    mva_limit: float | None = None
    switchable: bool = True
    default_state: SwitchState = SwitchState.CLOSED


@dataclass(frozen=True)
class NetworkCase:
    """Complete case: buses, branches, feeder roots and study settings."""

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    roots: tuple[int, ...]
    delta_t_hours: float = 1.0

    @cached_property
    def bus_by_id(self) -> dict[int, Bus]:
        return {bus.id: bus for bus in self.buses}

    @cached_property
    def branch_by_id(self) -> dict[int, Branch]:
        return {branch.id: branch for branch in self.branches}

    @cached_property
    def branch_ids(self) -> frozenset[int]:
        """Every branch id; the configurations of this case share this one set."""
        return frozenset(self.branch_by_id)

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Bus id -> ((branch id, neighbour bus id), ...) over all branches."""
        adj: dict[int, list[tuple[int, int]]] = {bus.id: [] for bus in self.buses}
        for branch in self.branches:
            adj[branch.from_bus].append((branch.id, branch.to_bus))
            adj[branch.to_bus].append((branch.id, branch.from_bus))
        return {bus: tuple(sorted(entries)) for bus, entries in adj.items()}


@dataclass(frozen=True)
class Configuration:
    """Open/closed state for every branch of a case."""

    branch_ids: frozenset[int]
    closed: frozenset[int]

    def state(self, branch_id: int) -> SwitchState:
        if branch_id not in self.branch_ids:
            raise ConfigurationError(f"unknown branch id {branch_id}")
        return SwitchState.CLOSED if branch_id in self.closed else SwitchState.OPEN

    @property
    def open_ids(self) -> frozenset[int]:
        return self.branch_ids - self.closed

    def states(self) -> dict[int, SwitchState]:
        return {bid: self.state(bid) for bid in sorted(self.branch_ids)}

    def with_exchange(self, close_branch: int, open_branch: int) -> Configuration:
        """New configuration with one switch closed and one opened."""
        if close_branch in self.closed:
            raise ConfigurationError(f"branch {close_branch} is already closed")
        if open_branch not in self.closed:
            raise ConfigurationError(f"branch {open_branch} is already open")
        closed = (self.closed - {open_branch}) | {close_branch}
        return Configuration(self.branch_ids, frozenset(closed))


@dataclass(frozen=True)
class Island:
    """One tree of a radial configuration: root, member buses, closed branches."""

    root: int
    buses: frozenset[int]
    branches: frozenset[int]


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    bus_id: int | None = None
    branch_id: int | None = None


def make_config(case: NetworkCase, closed: set[int] | frozenset[int]) -> Configuration:
    """Build a configuration from the set of closed branch ids, enforcing pinning."""
    ids = case.branch_ids
    closed = frozenset(closed)
    unknown = closed - ids
    if unknown:
        raise ConfigurationError(f"unknown branch ids {sorted(unknown)}")
    for branch in case.branches:
        if branch.switchable:
            continue
        pinned_closed = branch.default_state is SwitchState.CLOSED
        if pinned_closed != (branch.id in closed):
            raise ConfigurationError(
                f"non-switchable branch {branch.id} must stay {branch.default_state.value}"
            )
    return Configuration(ids, closed)


def config_from_states(
    case: NetworkCase, states: dict[int, SwitchState | int]
) -> Configuration:
    """Configuration from a full branch-id -> state map; 1/0 mean closed/open."""
    ids = set(case.branch_by_id)
    if set(states) != ids:
        raise ConfigurationError("switch states must cover exactly the case's branch ids")
    closed = {
        bid
        for bid, st in states.items()
        if (st is SwitchState.CLOSED) or (not isinstance(st, SwitchState) and st == 1)
    }
    return make_config(case, closed)


def default_config(case: NetworkCase) -> Configuration:
    return make_config(
        case,
        {b.id for b in case.branches if b.default_state is SwitchState.CLOSED},
    )


def all_closed_config(case: NetworkCase) -> Configuration:
    """Every branch closed except those pinned open by a non-switchable state."""
    closed = {
        b.id
        for b in case.branches
        if b.switchable or b.default_state is SwitchState.CLOSED
    }
    return make_config(case, closed)


def validate_case(case: NetworkCase) -> list[Violation]:
    """Structural checks; an empty list means the case is usable."""
    violations: list[Violation] = []

    seen_buses: set[int] = set()
    for bus in case.buses:
        if bus.id in seen_buses:
            violations.append(Violation("duplicate_bus", f"bus id {bus.id} appears twice", bus_id=bus.id))
        seen_buses.add(bus.id)
        if not (0.0 < bus.v_min < bus.v_max):
            violations.append(
                Violation(
                    "voltage_bounds",
                    f"bus {bus.id} voltage bounds [{bus.v_min}, {bus.v_max}] are not ordered and positive",
                    bus_id=bus.id,
                )
            )
        if bus.kind is BusKind.LOAD and bus.v_setpoint is not None:
            violations.append(
                Violation("load_setpoint", f"load bus {bus.id} carries a voltage setpoint", bus_id=bus.id)
            )

    seen_branches: set[int] = set()
    for branch in case.branches:
        if branch.id in seen_branches:
            violations.append(
                Violation("duplicate_branch", f"branch id {branch.id} appears twice", branch_id=branch.id)
            )
        seen_branches.add(branch.id)
        for end in (branch.from_bus, branch.to_bus):
            if end not in seen_buses:
                violations.append(
                    Violation(
                        "missing_bus",
                        f"branch {branch.id} references nonexistent bus {end}",
                        branch_id=branch.id,
                        bus_id=end,
                    )
                )
        if branch.from_bus == branch.to_bus:
            violations.append(
                Violation("self_loop", f"branch {branch.id} connects bus {branch.from_bus} to itself", branch_id=branch.id)
            )
        if branch.r < 0.0:
            violations.append(
                Violation("negative_resistance", f"branch {branch.id} has r < 0", branch_id=branch.id)
            )
        if branch.r == 0.0 and branch.x == 0.0:
            violations.append(
                Violation("zero_impedance", f"branch {branch.id} has r = x = 0", branch_id=branch.id)
            )
        if branch.mva_limit is not None and branch.mva_limit <= 0.0:
            violations.append(
                Violation("bad_rating", f"branch {branch.id} has a non-positive MVA rating", branch_id=branch.id)
            )

    if not case.roots:
        violations.append(Violation("no_roots", "case declares no feeder roots"))
    for root in case.roots:
        bus = case.bus_by_id.get(root)
        if bus is None:
            violations.append(Violation("missing_root", f"root bus {root} does not exist", bus_id=root))
        elif bus.kind is not BusKind.FEEDER:
            violations.append(
                Violation("root_kind", f"root bus {root} is {bus.kind.value}, not a feeder", bus_id=root)
            )

    # connectivity with every branch closed; report the smaller side of a split
    if case.buses and not any(v.code in ("missing_bus", "missing_root") for v in violations):
        reached = _reachable(case, set(case.bus_by_id), start=case.buses[0].id)
        if len(reached) != len(case.buses):
            others = sorted(set(case.bus_by_id) - reached)
            smaller = others if len(others) <= len(reached) else sorted(reached)
            violations.append(
                Violation(
                    "disconnected",
                    f"buses {smaller} are isolated from the rest with all branches closed",
                    bus_id=smaller[0],
                )
            )
    return violations


def _reachable(case: NetworkCase, allowed: set[int], start: int, closed: frozenset[int] | None = None) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        bus = queue.popleft()
        for branch_id, other in case.adjacency[bus]:
            if closed is not None and branch_id not in closed:
                continue
            if other in allowed and other not in seen:
                seen.add(other)
                queue.append(other)
    return seen


def is_radial(case: NetworkCase, config: Configuration) -> bool:
    """True when the closed branches form a spanning forest with one root per tree."""
    if config.branch_ids != case.branch_ids:
        raise ConfigurationError("configuration does not cover this case's branches")
    n_buses = len(case.buses)
    if len(config.closed) != n_buses - len(case.roots):
        return False
    reached: set[int] = set()
    for root in case.roots:
        component = _reachable(case, set(case.bus_by_id), root, config.closed)
        if reached & component:
            return False  # closed path between two roots
        reached |= component
    return len(reached) == n_buses


def islands(case: NetworkCase, config: Configuration) -> tuple[Island, ...]:
    """Split a radial configuration into its per-root trees."""
    if not is_radial(case, config):
        raise NotRadialError("configuration is not radial for this case")
    result = []
    for root in case.roots:
        buses = _reachable(case, set(case.bus_by_id), root, config.closed)
        branches = {
            b.id
            for b in case.branches
            if b.id in config.closed and b.from_bus in buses and b.to_bus in buses
        }
        result.append(Island(root, frozenset(buses), frozenset(branches)))
    return tuple(result)

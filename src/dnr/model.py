"""Network model for radial distribution feeders.

Buses and branches are plain frozen dataclasses; a switch configuration is
the set of closed branch ids.  Quantities follow the usual conventions:
loads and generation in MW/MVAr, impedances and shunts in per-unit on the
case base, voltages in per-unit.
"""
from __future__ import annotations

import copy
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra


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


class SingularBranchError(ValueError):
    """A closed branch has zero series impedance."""


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


@dataclass(frozen=True)
class Configuration:
    """Open/closed state for every branch of a case.

    `made_by` is `(closed, close_branch, open_branch)` when `with_exchange`
    made the configuration from the one with that closed set, else None.
    Only `with_exchange` sets it; equality, hashing and `replace` ignore it.
    """

    branch_ids: frozenset[int]
    closed: frozenset[int]
    made_by: tuple[frozenset[int], int, int] | None = field(default=None, init=False, compare=False, repr=False)

    def state(self, branch_id: int) -> SwitchState:
        if branch_id not in self.branch_ids:
            raise ConfigurationError(f"unknown branch id {branch_id}")
        return SwitchState.CLOSED if branch_id in self.closed else SwitchState.OPEN

    @cached_property
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
        made = Configuration(self.branch_ids, (self.closed - {open_branch}) | {close_branch})
        object.__setattr__(made, "made_by", (self.closed, close_branch, open_branch))
        return made


@dataclass(frozen=True)
class Island:
    """One tree of a radial configuration: root, member buses, closed branches.

    An island also carries its buses and branches as ascending positions in
    the compiled form of its case, so a solve reads them instead of looking
    the ids up.
    """

    root: int
    buses: frozenset[int]
    branches: frozenset[int]
    bus_positions: np.ndarray = field(compare=False, repr=False)
    branch_positions: np.ndarray = field(compare=False, repr=False)


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


# ids are compiled into int64 arrays; `_pi_stamp` divides by the tap's square and by
# r^2 + x^2, and `_compile` divides loads by the base: each must be a normal float.
# The objective multiplies a per-unit loss by the base and the interval, so the
# interval is held to the tap's range, where a product of two such numbers is normal
_ID_LIMIT = 2**63
_NORMAL_MIN = sys.float_info.min
_TAP_MIN, _TAP_MAX = math.sqrt(_NORMAL_MIN), math.sqrt(sys.float_info.max)


def validate_case(case: NetworkCase) -> list[Violation]:
    """Structural checks; an empty list means the case is usable."""
    violations: list[Violation] = []
    if not case.base_mva >= _NORMAL_MIN:
        violations.append(Violation("bad_base", f"system base {case.base_mva} MVA is not a positive normal float"))
    if not _TAP_MIN <= case.delta_t_hours <= _TAP_MAX:
        # a non-positive interval flips the objective's sign: the search would maximize losses
        message = f"study interval {case.delta_t_hours} h is outside [{_TAP_MIN:.2g}, {_TAP_MAX:.2g}]"
        violations.append(Violation("bad_interval", message))

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
        elif bus.v_setpoint is not None and not bus.v_setpoint > 0.0:
            message = f"bus {bus.id} voltage setpoint {bus.v_setpoint} is not positive"
            violations.append(Violation("bad_setpoint", message, bus_id=bus.id))
        if bus.q_min is not None and bus.q_max is not None and bus.q_min > bus.q_max:
            message = f"bus {bus.id} reactive limits [{bus.q_min}, {bus.q_max}] MVAr are inverted"
            violations.append(Violation("bad_q_limits", message, bus_id=bus.id))

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
        if not branch.r * branch.r + branch.x * branch.x >= _NORMAL_MIN:
            message = f"branch {branch.id} has r = {branch.r}, x = {branch.x}: r^2 + x^2 is not a normal float"
            violations.append(Violation("zero_impedance", message, branch_id=branch.id))
        if branch.mva_limit is not None and branch.mva_limit <= 0.0:
            violations.append(
                Violation("bad_rating", f"branch {branch.id} has a non-positive MVA rating", branch_id=branch.id)
            )
        if not _TAP_MIN <= branch.tap_ratio <= _TAP_MAX:
            message = f"branch {branch.id} tap ratio {branch.tap_ratio} is outside [{_TAP_MIN:.2g}, {_TAP_MAX:.2g}]"
            violations.append(Violation("bad_tap", message, branch_id=branch.id))
    for kind, ids in (("bus", seen_buses), ("branch", seen_branches)):
        if ids and not (-_ID_LIMIT <= min(ids) and max(ids) < _ID_LIMIT):
            message = f"{kind} ids span [{min(ids)}, {max(ids)}], wider than a 64-bit integer holds"
            violations.append(Violation("bad_id", message))

    if not case.roots:
        violations.append(Violation("no_roots", "case declares no feeder roots"))
    seen_roots: set[int] = set()
    for root in case.roots:
        if root in seen_roots:
            violations.append(Violation("duplicate_root", f"root bus {root} is listed twice", bus_id=root))
            continue
        seen_roots.add(root)
        bus = case.bus_by_id.get(root)
        if bus is None:
            violations.append(Violation("missing_root", f"root bus {root} does not exist", bus_id=root))
        elif bus.kind is not BusKind.FEEDER:
            violations.append(
                Violation("root_kind", f"root bus {root} is {bus.kind.value}, not a feeder", bus_id=root)
            )

    # connectivity with every branch closed; report the smaller side of a split
    if case.buses and not any(v.code in ("missing_bus", "missing_root") for v in violations):
        reached = _reachable(_adjacency(case), start=case.buses[0].id)
        if len(reached) != len(case.bus_by_id):  # a duplicate id is its own violation
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


def _reachable(
    adjacency: dict[int, tuple[tuple[int, int], ...]], start: int, closed: frozenset[int] | None = None
) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        bus = queue.popleft()
        for branch_id, other in adjacency[bus]:
            if closed is not None and branch_id not in closed:
                continue
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return seen


@dataclass(frozen=True, eq=False)
class ForestIndex:
    """Tree data of a radial configuration, as arrays over compiled positions.

    Buses and branches are numbered by their positions in the case's
    compiled form (ids ascending).  Per bus: `root`, the index in
    `case.roots` (and `islands`) of its island's root; `parent`, the bus it
    hangs from, and `parent_branch`, the branch joining them (both -1 at a
    root); `path_r`, the resistance of its path to the root, summed from
    the root down.  `closed` lists the closed branches ascending, and
    `islands` holds one tree per root, in root order.  `as_lists`, made on
    the first `exchange_forest` from this forest, holds its tree as lists.
    """

    root: np.ndarray
    parent: np.ndarray
    parent_branch: np.ndarray
    path_r: np.ndarray
    closed: np.ndarray
    islands: tuple[Island, ...]

    @cached_property
    def as_lists(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """`(parent, parent_branch, starts, hanging)`: bus b's children are `hanging[starts[b]:starts[b + 1]]`."""
        hanging = np.argsort(self.parent, kind="stable")[len(self.islands) :]  # the roots' -1 sort first
        starts = np.searchsorted(self.parent[hanging], np.arange(self.parent.size + 1))
        return self.parent.tolist(), self.parent_branch.tolist(), starts.tolist(), hanging.tolist()


class CaseMemo:
    """The last `size` results of a function of a case, least recently used out.

    Keys are `(id(case), key)`.  Each entry holds its case, so the id cannot
    be reused while the entry lives.  Nothing is cached on the case, which
    callers may keep many of.
    """

    def __init__(self, size: int):
        self._size = size
        self._entries: dict[tuple, tuple[NetworkCase, object]] = {}

    def lookup(self, case: NetworkCase, key, build):
        """The value for `key` in `case`, from `build()` on its first lookup."""
        memo_key = (id(case), key)
        entry = self._entries.pop(memo_key, None)
        if entry is None:
            entry = (case, build())  # which may look up other keys
            if len(self._entries) >= self._size:
                del self._entries[next(iter(self._entries))]  # least recently used
        self._entries[memo_key] = entry
        return entry[1]


def _adjacency(case: NetworkCase) -> dict[int, tuple[tuple[int, int], ...]]:
    """Bus id -> ((branch id, neighbour bus id), ...) over all branches."""
    adj: dict[int, list[tuple[int, int]]] = {bus.id: [] for bus in case.buses}
    for branch in case.branches:
        adj[branch.from_bus].append((branch.id, branch.to_bus))
        adj[branch.to_bus].append((branch.id, branch.from_bus))
    return {bus: tuple(sorted(entries)) for bus, entries in adj.items()}


def _pi_stamp(branch: Branch) -> tuple[complex, complex, complex, complex]:
    """(y_ff, y_ft, y_tf, y_tt) of a branch's pi model, tap on the from side."""
    if branch.r == 0.0 and branch.x == 0.0:
        raise SingularBranchError(f"closed branch {branch.id} has zero impedance")
    ys = 1.0 / complex(branch.r, branch.x)
    bc = 1j * branch.b_shunt / 2.0
    t = branch.tap_ratio if branch.tap_ratio else 1.0
    return (ys + bc) / t**2, -ys / t, -ys / t, ys + bc


@dataclass(frozen=True, eq=False)
class _CompiledCase:
    """A case as index arrays: what the forest walk, an island solve and the objective read of it.

    Buses and branches are sorted by id; `ends` holds each branch's from/to
    bus positions and `stamp` its (y_ff, y_ft, y_tf, y_tt) from `_pi_stamp`,
    zero where `singular` marks a branch without series impedance.  Per bus:
    shunt admittance, per-unit injection, whether the bus regulates its
    voltage as a PV bus, and its setpoint (1.0 where none); its machine's
    reactive range `q_min`, `q_max` (NaN where `Bus.q_limits` is None) and
    its reactive load `q_load` in MVAr, which a PV bus's limit check reads.
    The objective reads the voltage band per bus, and per branch the
    resistance and the MVA rating (NaN where none).

    The walk reads `graph`, a CSR matrix over bus positions with one entry
    per branch end, and gives a shallow copy of it its own weights;
    `entry_row` and `entry_branch` give each entry's bus and branch.  Roots
    are `root_positions` in `case.roots` order, and `root_rank` maps a root
    position back to its index there.  `all_buses` and `bus_positions` are
    every bus, as ids and as positions.  `case_order` lists the bus
    positions in `case.buses` order, with the per-unit loads `load_p` and
    `load_q` in that order too.
    """

    bus_ids: np.ndarray
    branch_ids: np.ndarray
    ends: np.ndarray
    stamp: np.ndarray
    singular: np.ndarray
    shunt: np.ndarray
    has_shunt: np.ndarray
    injection: np.ndarray
    regulated: np.ndarray
    setpoint: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    q_load: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray
    resistance: np.ndarray
    mva_limit: np.ndarray
    graph: sparse.csr_matrix
    entry_row: np.ndarray
    entry_branch: np.ndarray
    root_positions: np.ndarray
    root_rank: np.ndarray
    all_buses: frozenset[int]
    bus_positions: np.ndarray
    case_order: np.ndarray
    load_p: np.ndarray
    load_q: np.ndarray


def _find(sorted_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The position of each key in `sorted_ids`; KeyError names the first missing one."""
    at = sorted_ids.searchsorted(keys)
    if sorted_ids.size:  # clipped, a key past the last id meets that id, which is smaller
        missing = sorted_ids.take(at, mode="clip") != keys
    else:
        missing = np.ones(keys.shape, dtype=bool)
    if missing.any():
        raise KeyError(keys[missing][0].item())
    return at


def _positions(ids: np.ndarray, wanted) -> np.ndarray:
    """Ascending positions in the sorted `ids` of the ids in `wanted`."""
    return _find(ids, np.sort(np.fromiter(wanted, dtype=np.int64, count=len(wanted))))


def _compile(case: NetworkCase) -> _CompiledCase:
    bus_ids = sorted(case.bus_by_id)
    branch_ids = sorted(case.branch_by_id)
    pos = {bus: i for i, bus in enumerate(bus_ids)}
    buses = [case.bus_by_id[bus] for bus in bus_ids]
    branches = [case.branch_by_id[branch] for branch in branch_ids]
    singular = [b.r == 0.0 and b.x == 0.0 for b in branches]
    base = case.base_mva
    n, m = len(bus_ids), len(branch_ids)
    ends = np.array([(pos[b.from_bus], pos[b.to_bus]) for b in branches], dtype=np.intp).reshape(-1, 2)
    # one graph entry per branch end, by bus, then neighbour, then branch
    rows, cols = ends.T.ravel(), ends[:, ::-1].T.ravel()
    entry_branch = np.tile(np.arange(m), 2)
    by_row = np.lexsort((entry_branch, cols, rows))
    rows, cols, entry_branch = rows[by_row], cols[by_row], entry_branch[by_row]
    indptr = np.searchsorted(rows, np.arange(n + 1))
    graph = sparse.csr_matrix(
        (np.zeros(rows.size), cols.astype(np.int32), indptr.astype(np.int32)), shape=(n, n)
    )
    root_positions = np.array([pos[root] for root in case.roots], dtype=np.intp)
    root_rank = np.full(n, -1)
    root_rank[root_positions] = np.arange(len(case.roots))
    return _CompiledCase(
        bus_ids=np.array(bus_ids, dtype=np.int64),
        branch_ids=np.array(branch_ids, dtype=np.int64),
        ends=ends,
        stamp=np.array(
            [(0j,) * 4 if bad else _pi_stamp(b) for b, bad in zip(branches, singular)],
            dtype=complex,
        ).reshape(-1, 4),
        singular=np.array(singular, dtype=bool),
        shunt=np.array([complex(b.g_shunt, b.b_shunt) for b in buses], dtype=complex),
        has_shunt=np.array([bool(b.g_shunt or b.b_shunt) for b in buses], dtype=bool),
        injection=np.array(
            [complex(b.p_gen - b.p_load, b.q_gen - b.q_load) / base for b in buses], dtype=complex
        ),
        regulated=np.array(
            [b.v_setpoint is not None and b.kind is not BusKind.LOAD for b in buses], dtype=bool
        ),
        setpoint=np.array([1.0 if b.v_setpoint is None else b.v_setpoint for b in buses]),
        q_min=np.array([math.nan if b.q_limits is None else b.q_limits[0] for b in buses]),
        q_max=np.array([math.nan if b.q_limits is None else b.q_limits[1] for b in buses]),
        q_load=np.array([b.q_load for b in buses], dtype=float),
        v_min=np.array([b.v_min for b in buses], dtype=float),
        v_max=np.array([b.v_max for b in buses], dtype=float),
        resistance=np.array([b.r for b in branches], dtype=float),
        mva_limit=np.array([math.nan if b.mva_limit is None else b.mva_limit for b in branches]),
        graph=graph,
        entry_row=rows,
        entry_branch=entry_branch,
        root_positions=root_positions,
        root_rank=root_rank,
        all_buses=frozenset(bus_ids),
        bus_positions=np.arange(n),
        case_order=np.array([pos[b.id] for b in case.buses], dtype=np.intp),
        load_p=np.array([b.p_load for b in case.buses], dtype=float) / base,
        load_q=np.array([b.q_load for b in case.buses], dtype=float) / base,
    )


_compiled = CaseMemo(2)


def _compiled_case(case: NetworkCase) -> _CompiledCase:
    """The case's compiled form, built on first use and memoised."""
    return _compiled.lookup(case, None, lambda: _compile(case))


# an entry holds about 70 KB at 1000 buses, with its key's closed set, which
# a single root's island shares.  Each miss builds one forest: a search's
# first walks its start, and each later one derives a new candidate.
# Sixteen entries hold the incumbent and up to 15 first moves of a pass, one
# per open switch, while the surrogate ranks them.  A reconfiguration of
# bench/feeders.py's generate(1, 1, 1000, 12) misses 80 of 365 lookups at
# sixteen or eight entries and 86 of 371 at four; of IEEE-14 fed from buses 1
# and 3, 43 of 216 at sixteen and 44 of 217 at eight
_forests = CaseMemo(16)


def forest(case: NetworkCase, config: Configuration) -> ForestIndex | None:
    """The configuration's forest, or None when it is not radial.

    Radial means the closed branches form a spanning forest with exactly one
    root per tree.  Every topology question (`is_radial`, `forest_index`,
    `islands`) is a view on this one forest, and the last few results are
    memoised by closed set, so a configuration scored by several layers is
    built once, on first use.  A configuration that `with_exchange` made
    from a radial one is derived from that one's forest (`exchange_forest`),
    which is walked if it is not memoised; any other is walked.  So a search
    that makes each candidate from its incumbent walks only its start.
    The result is shared between callers, which only read it.
    """
    if config.branch_ids is not case.branch_ids and config.branch_ids != case.branch_ids:
        raise ConfigurationError("configuration does not cover this case's branches")
    return _forests.lookup(case, config.closed, lambda: _build(case, config))


def _build(case: NetworkCase, config: Configuration) -> ForestIndex | None:
    """`config`'s forest, derived from the forest `made_by` names when that is radial, else walked."""
    if config.made_by is not None:
        closed, close_branch, open_branch = config.made_by
        made_from = _forests.lookup(case, closed, lambda: _walk(case, closed))
        if made_from is not None:
            return exchange_forest(case, made_from, close_branch, open_branch, config.closed)
    return _walk(case, config.closed)


def _walk(case: NetworkCase, closed: frozenset[int]) -> ForestIndex | None:
    """One shortest-path search from every root over the closed branches.

    With exactly n - k closed branches for n buses and k roots, the closed
    set is radial exactly when every bus is reached from some root: then
    each of the at most k components holds a root, so there are k of them,
    and a graph with as many edges as buses less components is a forest.  A
    cycle, a parallel branch or a path between two roots leaves some bus
    unreached.  Closed branches weigh their resistance and open ones
    infinity, which no path crosses.  Each bus's distance is its parent's
    plus one resistance, added from the root down.  (A negative resistance,
    which validate_case refuses, draws scipy's warning about negative
    weights; on a tree the sums are still exact.)
    """
    compiled = _compiled_case(case)
    n = compiled.bus_ids.size
    if len(closed) != n - len(case.roots):
        return None
    is_closed = np.zeros(compiled.branch_ids.size, dtype=bool)
    is_closed[_find(compiled.branch_ids, np.fromiter(closed, np.int64, len(closed)))] = True
    on = is_closed[compiled.entry_branch]
    graph = copy.copy(compiled.graph)  # the case's structure, this walk's own weights
    graph.data = np.where(on, compiled.resistance[compiled.entry_branch], math.inf)
    path_r, parent, source = dijkstra(
        graph, indices=compiled.root_positions, return_predecessors=True, min_only=True
    )
    if (source < 0).any():
        return None  # some bus is left unreached
    parent = parent.astype(np.intp)
    parent[compiled.root_positions] = -1
    parent_branch = np.full(n, -1)
    up = on & (graph.indices == parent[compiled.entry_row])
    parent_branch[compiled.entry_row[up]] = compiled.entry_branch[up]
    root = compiled.root_rank[source]
    positions = is_closed.nonzero()[0]
    if len(case.roots) == 1:
        parts = (Island(case.roots[0], compiled.all_buses, closed, compiled.bus_positions, positions),)
    else:
        branch_root = root[compiled.ends[positions, 0]]
        parts = tuple(_island(case, compiled, rank, root, positions, branch_root) for rank in range(len(case.roots)))
    return ForestIndex(root, parent, parent_branch, path_r, positions, parts)


def _island(
    case: NetworkCase,
    compiled: _CompiledCase,
    rank: int,
    root: np.ndarray,
    positions: np.ndarray,
    branch_root: np.ndarray,
) -> Island:
    """The island of `case.roots[rank]`: the buses of that root, and the closed `positions` whose from end is."""
    buses = np.flatnonzero(root == rank)
    branches = positions[branch_root == rank]
    return Island(
        case.roots[rank],
        frozenset(compiled.bus_ids[buses].tolist()),
        frozenset(compiled.branch_ids[branches].tolist()),
        buses,
        branches,
    )


def _swapped(positions: np.ndarray, out: int, into: int) -> np.ndarray:
    """Ascending `positions`, which hold `out` and not `into`, with `out` replaced by `into`."""
    swapped = positions.copy()
    swapped[positions.searchsorted(out)] = into
    swapped.sort(kind="stable")
    return swapped


def exchange_forest(
    case: NetworkCase, index: ForestIndex, close_branch: int, open_branch: int, closed_ids: frozenset[int]
) -> ForestIndex | None:
    """The forest after closing `close_branch` and opening `open_branch` in the radial forest `index`.

    Opening the branch cuts off D, the subtree below it, and the exchange is
    radial exactly when D holds one end of `close_branch` (None otherwise,
    as `_walk` gives): D then hangs from the other end, and the path inside
    D from its end up to the opened branch turns over (Civanlar et al.,
    IEEE TPWRD 1988).  Only D's buses change.  Their `path_r` is summed
    again from the root down, each bus's from its new parent's, so that
    every sum adds the terms `_walk`'s does in the same order and has its
    bits.  The islands of the other roots are reused as they are.
    `closed_ids`, those of the exchange's result, are the one island's
    branches when the case has a single root, shared as `_walk` shares them.
    """
    compiled = _compiled_case(case)
    cut = int(compiled.branch_ids.searchsorted(open_branch))
    tie = int(compiled.branch_ids.searchsorted(close_branch))
    parent_of, branch_of, starts, hanging = index.as_lists
    child = next((bus for bus in compiled.ends[cut].tolist() if branch_of[bus] == cut), None)
    ends = compiled.ends[tie].tolist()
    if child is None or tie in (branch_of[ends[0]], branch_of[ends[1]]):
        raise ConfigurationError(f"branch {close_branch} must be open and branch {open_branch} closed")
    below = [child]
    for bus in below:  # breadth first, reading the list as it grows
        below.extend(hanging[starts[bus] : starts[bus + 1]])
    inside = set(below)
    if (ends[0] in inside) == (ends[1] in inside):
        return None  # a cycle in D, or D cut off and a cycle or root-to-root path outside it
    end, feeder = ends if ends[0] in inside else ends[::-1]
    # the path from D's end of the tie up to the opened branch: each of its
    # buses now hangs from the one before it, and D's other buses from the
    # same parent as before; so the path, then the others breadth first, is
    # root-down in the new tree
    path = [end]
    while path[-1] != child:
        path.append(parent_of[path[-1]])
    on_path = set(path)
    rest = [bus for bus in below if bus not in on_path]
    new_parent = [feeder, *path[:-1], *(parent_of[bus] for bus in rest)]
    new_branch = [tie, *(branch_of[bus] for bus in path[:-1]), *(branch_of[bus] for bus in rest)]
    order = path + rest
    sums = {feeder: index.path_r[feeder].item()}
    for bus, above, r in zip(order, new_parent, compiled.resistance[new_branch].tolist()):
        sums[bus] = sums[above] + r
    parent, parent_branch, path_r = index.parent.copy(), index.parent_branch.copy(), index.path_r.copy()
    parent[path] = new_parent[: len(path)]
    parent_branch[path] = new_branch[: len(path)]
    path_r[order] = [sums[bus] for bus in order]
    closed = _swapped(index.closed, cut, tie)
    root, islands = index.root, list(index.islands)
    was, now = int(root[child]), int(root[feeder])
    if was == now:  # D stays in its island, whose buses do not change
        island = islands[now]
        # the one island of a single root holds every closed branch, as in `_walk`
        single = len(islands) == 1
        positions = closed if single else _swapped(island.branch_positions, cut, tie)
        branches = closed_ids if single else (island.branches - {open_branch}) | {close_branch}
        islands[now] = Island(island.root, island.buses, branches, island.bus_positions, positions)
    else:
        root = root.copy()
        root[below] = now
        branch_root = root[compiled.ends[closed, 0]]
        for rank in (was, now):
            islands[rank] = _island(case, compiled, rank, root, closed, branch_root)
    return ForestIndex(root, parent, parent_branch, path_r, closed, tuple(islands))


def is_radial(case: NetworkCase, config: Configuration) -> bool:
    """True when the closed branches form a spanning forest with one root per tree."""
    return forest(case, config) is not None


def forest_index(case: NetworkCase, config: Configuration) -> ForestIndex:
    """The forest of a radial configuration; NotRadialError when it is not radial."""
    index = forest(case, config)
    if index is None:
        raise NotRadialError("configuration is not radial for this case")
    return index


def islands(case: NetworkCase, config: Configuration) -> tuple[Island, ...]:
    """Split a radial configuration into its per-root trees."""
    return forest_index(case, config).islands

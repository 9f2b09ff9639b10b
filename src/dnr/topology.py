"""Forest construction and loop analysis on switch configurations."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

# callers also look ForestIndex, forest_index and islands up on this module
from .model import (  # noqa: F401
    Configuration,
    ForestIndex,
    NetworkCase,
    SwitchState,
    _adjacency,
    _compiled_case,
    forest_index,
    islands,
    make_config,
)


class UnreachableError(ValueError):
    """Some buses cannot be reached from any root."""

    def __init__(self, bus_ids: list[int]):
        super().__init__(f"buses unreachable from every root: {bus_ids}")
        self.bus_ids = bus_ids


@dataclass(frozen=True)
class ForestBuildResult:
    config: Configuration


@dataclass(frozen=True)
class FundamentalLoop:
    """Closed branches completing a cycle (or root-to-root path) with an open branch.

    The open branch runs from u to v.  The first `u_side_count` ids are u's
    side of the loop, the rest v's side.  For a cycle, u's side runs from u
    up to the two ends' nearest common ancestor and v's side from there down
    to v, so both list ends touch the open branch; the path shared above
    the ancestor is no part of the loop.  For an inter-feeder path, u's side
    runs from u's root down to u and v's side from v up to its root, so the
    open branch sits between the two sides, and a side is empty when its
    end is a root.
    """

    branch_ids: tuple[int, ...]
    inter_feeder: bool
    u_side_count: int


def path_to_root(index: ForestIndex, bus: int) -> list[int]:
    """Branch positions walked from the bus at position `bus` up to its island root."""
    path = []
    parent, parent_branch = index.parent, index.parent_branch
    while (branch := int(parent_branch[bus])) >= 0:
        path.append(branch)
        bus = parent[bus]
    return path


def build_spanning_forest(case: NetworkCase, weights: dict[int, float]) -> ForestBuildResult:
    """Grow one tree per root, always closing the heaviest frontier branch.

    Non-switchable branches pinned closed take absolute priority; pinned-open
    branches are never candidates.  Ties fall to the lower branch id.
    """
    missing = [b.id for b in case.branches if b.id not in weights]
    if missing:
        raise KeyError(f"weights missing for branches {missing}")

    candidates = {
        b.id: b for b in case.branches if b.switchable or b.default_state is SwitchState.CLOSED
    }
    assigned: set[int] = set()
    closed: set[int] = set()
    frontier: list[tuple[float, int]] = []  # (-weight, id) heap, stale entries dropped on pop

    adjacency = _adjacency(case)

    def assign(bus: int) -> None:
        assigned.add(bus)
        for branch_id, other in adjacency[bus]:
            branch = candidates.get(branch_id)
            if branch is not None and other not in assigned:
                weight = math.inf if not branch.switchable else weights[branch_id]
                heapq.heappush(frontier, (-weight, branch_id))

    for root in case.roots:
        assign(root)
    while len(assigned) < len(case.buses):
        if not frontier:
            raise UnreachableError(sorted(set(case.bus_by_id) - assigned))
        _, branch_id = heapq.heappop(frontier)
        best = candidates[branch_id]
        if best.from_bus in assigned and best.to_bus in assigned:
            continue  # both ends were assigned after it was pushed
        closed.add(branch_id)
        assign(best.to_bus if best.from_bus in assigned else best.from_bus)

    return ForestBuildResult(make_config(case, closed))


def weights_from_flow(case: NetworkCase, solution) -> dict[int, float]:
    """Branch weights for forest growth: sending-end apparent power in MVA."""
    from .powerflow import NotConvergedError

    if not solution.converged:
        raise NotConvergedError("flow weights need a converged solution")
    weights = {b.id: 0.0 for b in case.branches}
    flows = solution.flows
    for branch_id, (p_send, q_send) in zip(flows.ids.tolist(), flows.power[:, :2].tolist()):
        weights[branch_id] = math.hypot(p_send, q_send)
    return weights


def fundamental_loop(case: NetworkCase, config: Configuration, open_branch: int) -> FundamentalLoop:
    """Closed branches that form a cycle with `open_branch`, ordered along the walk.

    When the open branch ties two different islands there is no cycle; the
    result is the path from one root to the other through the branch ends,
    flagged inter_feeder.  Opening any branch on it restores radiality.
    """
    if open_branch in config.closed:
        raise ValueError(f"branch {open_branch} is not open")
    if open_branch not in case.branch_by_id:
        raise KeyError(open_branch)
    index = forest_index(case, config)
    compiled = _compiled_case(case)
    u, v = compiled.ends[compiled.branch_ids.searchsorted(open_branch)].tolist()
    up, vp = path_to_root(index, u), path_to_root(index, v)
    if index.root[u] != index.root[v]:
        # root(u) -> ... -> u, then v -> ... -> root(v)
        path = compiled.branch_ids[up[::-1] + vp].tolist()
        return FundamentalLoop(tuple(path), inter_feeder=True, u_side_count=len(up))
    shared = 0
    while shared < min(len(up), len(vp)) and up[-1 - shared] == vp[-1 - shared]:
        shared += 1
    cycle = compiled.branch_ids[up[: len(up) - shared] + vp[: len(vp) - shared][::-1]].tolist()
    return FundamentalLoop(tuple(cycle), inter_feeder=False, u_side_count=len(up) - shared)


@dataclass(frozen=True, eq=False)
class FlatCurrents:
    """A radial configuration's branch currents with every bus at 1 pu, over compiled bus positions.

    Each bus draws I = -conj(S) for its net per-unit injection S, and a root
    draws nothing.  `through[b]` sums I over bus b's subtree: the current in
    b's parent branch, flowing away from the root (at a root, its island's
    total).  `drop[b]` sums r * through over the branches from b's root
    down to b, 0 at a root.  The configuration's loss in pu is then about
    the sum of r * |through|^2 over its closed branches.
    """

    index: ForestIndex
    through: np.ndarray
    drop: np.ndarray


def _levels(parent: np.ndarray) -> list[np.ndarray]:
    """Bus positions by depth below their root, roots first: depths by pointer jumping."""
    depth = (parent >= 0).astype(np.intp)
    up = parent.copy()
    while (below := np.flatnonzero(up >= 0)).size:
        depth[below] += depth[up[below]]
        up[below] = up[up[below]]
    order = np.argsort(depth, kind="stable")
    return np.split(order, np.searchsorted(depth[order], np.arange(1, depth.max(initial=0) + 1)))


def flat_currents(case: NetworkCase, config: Configuration) -> FlatCurrents:
    """The flat-voltage currents of a radial configuration: one pass leaves-first, one root-down."""
    compiled = _compiled_case(case)
    index = forest_index(case, config)
    parent, r = index.parent, compiled.resistance[index.parent_branch]
    through = -np.conj(compiled.injection)
    through[compiled.root_positions] = 0.0
    levels = _levels(parent)
    for level in reversed(levels[1:]):
        np.add.at(through, parent[level], through[level])
    drop = np.zeros_like(through)
    for level in levels[1:]:
        drop[level] = drop[parent[level]] + r[level] * through[level]
    return FlatCurrents(index, through, drop)


def loss_changes(
    case: NetworkCase, currents: FlatCurrents, open_branch: int, loop: FundamentalLoop
) -> np.ndarray:
    """The change in flat-current loss (pu) of closing `open_branch` and opening each loop branch, in loop order.

    Civanlar's branch-exchange formula: opening loop branch o cuts off the
    part D below it, with current I_D = `through` at o's child end, and the
    open branch then feeds D from its other end.  The loss changes by
    2 Re{I_D conj(E_feed - E_in)} + R_loop |I_D|^2, where E is `drop` at the
    end that will feed D and at the end inside it, and R_loop sums the r of
    the open branch and of every loop branch.  Only the loop's currents
    change, each by I_D, so this is exactly the difference of the two
    configurations' flat-current losses.
    """
    compiled = _compiled_case(case)
    positions = compiled.branch_ids.searchsorted(np.array(loop.branch_ids, dtype=np.int64))
    ends = compiled.ends[positions]
    child = np.where(currents.index.parent_branch[ends[:, 0]] == positions, ends[:, 0], ends[:, 1])
    moved = currents.through[child]
    tie = compiled.branch_ids.searchsorted(open_branch)
    u, v = compiled.ends[tie]
    # on u's side D holds u and is fed from v; on v's side the reverse
    to_v = currents.drop[v] - currents.drop[u]
    bracket = np.where(np.arange(positions.size) < loop.u_side_count, to_v, -to_v)
    r_loop = compiled.resistance[tie] + compiled.resistance[positions].sum()
    return 2.0 * (moved * bracket.conj()).real + r_loop * (moved.real**2 + moved.imag**2)

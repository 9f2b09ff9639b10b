"""Forest construction and loop analysis on switch configurations."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

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

    For a cycle the ids run from the open branch's from-side around to its
    to-side, so both list ends touch the open branch.  For an inter-feeder
    path they run root-to-root and the open branch sits between positions
    u_side_count-1 and u_side_count.
    """

    branch_ids: tuple[int, ...]
    inter_feeder: bool
    u_side_count: int

    def sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The branch ids walked from the open branch's from-end and from its to-end, nearest first.

        Either walk goes all the way round a cycle.  An inter-feeder path
        splits at the open branch, and a side is empty when its end of the
        open branch is a root.
        """
        ids = self.branch_ids
        if not self.inter_feeder:
            return ids, ids[::-1]
        k = self.u_side_count
        return ids[:k][::-1], ids[k:]


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
    return FundamentalLoop(tuple(cycle), inter_feeder=False, u_side_count=len(cycle))

"""Seeded synthetic distribution feeders in the native JSON case format.

`generate(seed, roots, buses, ties)` grows one random radial tree per root,
adds normally-open ties, and scales each feeder's impedances so that its
radial base case loses a fixed share of a fixed load, unless that would take
a bus below V_FLOOR.  Only the seed changes between calls with the same
sizes, and the properties that set the amount of search work are held fixed,
so a workload keeps its regime across seeds:

- every tie closes a loop of exactly LOOP_LEN branches, so one exhaustive
  sweep costs the same number of evaluations on every seed;
- the loops are edge-disjoint, so moving the open point of one loop leaves
  the flows on the others unchanged to first order, and the search work is
  a sum over loops rather than a product of their interactions;
- with several roots, a third of the ties join two different feeders, and
  together they join every feeder into one network;
- sections are cables or overhead lines at random, so the meshed flow that
  seeds the search differs from the loss-minimising one and the first pass
  of the search finds moves on every seed.

The module depends on the standard library alone; it does not import `dnr`,
so the cases it writes are inputs to the program, not products of it.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

BASE_MVA = 10.0
LOAD_MW_PER_ROOT = 8.0
LOSS_SHARE = 0.02  # radial base-case loss as a share of the load
LOOP_LEN = 6
TRUNKS = 4  # laterals leaving each root
# chance that a new bus extends the newest bus of its lateral rather than
# branching off an earlier one: distribution feeders are long and thin
CHAIN_PROB = 0.6
V_BAND = (0.9, 1.1)
V_FLOOR = 0.92  # lowest base-case voltage, clear of the band's lower edge


@dataclass(frozen=True)
class FeederInfo:
    """What a generated case holds, so drift between seeds shows."""

    seed: int
    buses: int
    lines: int
    ties: int
    inter_feeder_ties: int
    base_min_v: float
    base_loss_mw: float


def generate(seed: int, roots: int, buses: int, ties: int) -> tuple[str, FeederInfo]:
    """Native JSON text of a seeded feeder and a summary of what it holds."""
    if roots < 1 or ties < 1 or buses < roots * (TRUNKS + LOOP_LEN):
        raise ValueError(f"cannot build {roots} roots, {buses} buses, {ties} ties")
    rng = random.Random(seed)
    root_ids = list(range(1, roots + 1))
    parent: dict[int, int | None] = {r: None for r in root_ids}
    # each feeder is TRUNKS laterals off its root, grown in turn
    laterals = [[r] for r in root_ids for _ in range(TRUNKS)]
    lines: list[tuple[int, int, float, float]] = []  # (from, to, r, x), parents first
    for bus in range(roots + 1, buses + 1):
        grown = laterals[(bus - roots - 1) % len(laterals)]
        if len(grown) == 1 or rng.random() < CHAIN_PROB:
            up = grown[-1]
        else:
            up = rng.choice(grown[1:])
        parent[bus] = up
        grown.append(bus)
        lines.append((up, bus, *_impedance(rng)))

    root_of = {b: _path_up(parent, b)[-1] for b in parent}
    tie_pairs = _pick_ties(rng, parent, root_of, ties)
    tie_lines = [(u, v, *_impedance(rng)) for u, v in tie_pairs]

    p_shape = {b: 0.0 if parent[b] is None else rng.uniform(0.5, 1.5) for b in parent}
    fed = {r: sum(p for b, p in p_shape.items() if root_of[b] == r) for r in root_ids}
    p_load = {b: LOAD_MW_PER_ROOT * p / fed[root_of[b]] for b, p in p_shape.items()}
    q_load = {b: p * rng.uniform(0.3, 0.6) for b, p in p_load.items()}

    # loss and voltage drop grow with impedance, so rescaling each feeder puts
    # its base case on the loss target, or on the voltage floor if that binds
    target = LOSS_SHARE * LOAD_MW_PER_ROOT
    z_scale = {r: 1e-4 for r in root_ids}  # light enough for the sweep to converge
    for _ in range(50):
        scaled = [(f, t, r * z_scale[root_of[t]], x * z_scale[root_of[t]]) for f, t, r, x in lines]
        base = _radial_solve(parent, root_of, scaled, p_load, q_load)
        steps = {r: min(target / loss, (1.0 - V_FLOOR) / (1.0 - v)) for r, (v, loss) in base.items()}
        if all(abs(step - 1.0) < 1e-9 for step in steps.values()):
            break
        z_scale = {r: z_scale[r] * steps[r] for r in root_ids}
    else:
        raise ValueError(f"seed {seed}: base case did not settle on its loss target")
    for u, v, r, x in tie_lines:
        z = (z_scale[root_of[u]] + z_scale[root_of[v]]) / 2.0
        scaled.append((u, v, r * z, x * z))

    payload = {
        "base_mva": BASE_MVA,
        "delta_t_hours": 1.0,
        "roots": root_ids,
        "buses": [
            {
                "id": b,
                "kind": "load" if parent[b] is not None else "feeder",
                "p_load": p_load[b],
                "q_load": q_load[b],
                # each substation supplies its own feeder when all ties close
                "p_gen": 0.0 if parent[b] is not None else LOAD_MW_PER_ROOT,
                "v_setpoint": None if parent[b] is not None else 1.0,
                "v_min": V_BAND[0],
                "v_max": V_BAND[1],
            }
            for b in sorted(parent)
        ],
        "branches": [
            {
                "id": i,
                "from_bus": f,
                "to_bus": t,
                "r": r,
                "x": x,
                "default_state": "closed" if i <= len(lines) else "open",
            }
            for i, (f, t, r, x) in enumerate(scaled, start=1)
        ],
    }
    info = FeederInfo(
        seed=seed,
        buses=buses,
        lines=len(lines),
        ties=len(tie_pairs),
        inter_feeder_ties=sum(root_of[u] != root_of[v] for u, v in tie_pairs),
        base_min_v=min(v for v, _ in base.values()),
        base_loss_mw=sum(loss for _, loss in base.values()),
    )
    return json.dumps(payload, indent=2, sort_keys=True) + "\n", info


def _impedance(rng: random.Random) -> tuple[float, float]:
    """Unscaled (r, x) of a cable or an overhead section, equally likely.

    Mixed x/r ratios make the meshed flow split differently from the
    loss-minimising one, so the search has open points to move.
    """
    r = rng.uniform(0.5, 1.5)
    ratio = rng.uniform(0.25, 0.5) if rng.random() < 0.5 else rng.uniform(1.5, 3.0)
    return r, r * ratio


def _path_up(parent: dict[int, int | None], bus: int) -> list[int]:
    path = [bus]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def _loop_edges(parent: dict[int, int | None], u: int, v: int) -> set[int]:
    """Tree branches (named by their child bus) on the loop a u-v tie closes.

    When u and v hang off different roots the loop is the root-to-root path.
    """
    up, vp = _path_up(parent, u), _path_up(parent, v)
    if up[-1] == vp[-1]:
        while len(up) > 1 and len(vp) > 1 and up[-2] == vp[-2]:
            up.pop()
            vp.pop()
    return set(up[:-1]) | set(vp[:-1])


def _pick_ties(
    rng: random.Random, parent: dict[int, int | None], root_of: dict[int, int], count: int
) -> list[tuple[int, int]]:
    """Tie endpoints with edge-disjoint loops of LOOP_LEN branches each.

    Inter-feeder ties come first, since each needs a free trunk at both
    roots.  A greedy pick that paints itself into a corner, or whose
    inter-feeder ties leave a feeder on its own, starts over.
    """
    non_root = [b for b in parent if parent[b] is not None]
    depth = {b: len(_path_up(parent, b)) - 1 for b in parent}
    tree: dict[int, list[int]] = {b: [] for b in parent}
    for b in non_root:
        tree[b].append(parent[b])
        tree[parent[b]].append(b)
    inter_count = count // 3 if len(set(root_of.values())) > 1 else 0
    for _ in range(100):
        used: set[int] = set()
        ties: list[tuple[int, int]] = []
        for u in rng.sample(non_root, len(non_root)):
            if len(ties) == count:
                break
            if len(ties) < inter_count:
                others = [v for v in non_root
                          if root_of[v] != root_of[u] and depth[u] + depth[v] == LOOP_LEN]
            else:
                others = [v for v in _at_distance(tree, u, LOOP_LEN) if parent[v] is not None]
            for v in rng.sample(others, len(others)):
                edges = _loop_edges(parent, u, v)
                if not edges & used:
                    used |= edges
                    ties.append((min(u, v), max(u, v)))
                    break
        if len(ties) == count and _joins_feeders(ties, root_of):
            return ties
    raise ValueError(f"no room for {count} edge-disjoint loops joining every feeder")


def _joins_feeders(ties: list[tuple[int, int]], root_of: dict[int, int]) -> bool:
    """True when the ties join every feeder into one network, as a valid case needs."""
    group = {r: {r} for r in root_of.values()}
    for u, v in ties:
        a, b = group[root_of[u]], group[root_of[v]]
        if a is not b:
            a |= b
            for r in b:
                group[r] = a
    return len({id(g) for g in group.values()}) == 1


def _at_distance(tree: dict[int, list[int]], start: int, hops: int) -> list[int]:
    """Buses exactly `hops` tree branches away from `start`."""
    frontier, seen = [start], {start}
    for _ in range(hops):
        frontier = [n for b in frontier for n in tree[b] if n not in seen]
        seen.update(frontier)
    return frontier


def _radial_solve(
    parent: dict[int, int | None],
    root_of: dict[int, int],
    lines: list[tuple[int, int, float, float]],
    p_load: dict[int, float],
    q_load: dict[int, float],
) -> dict[int, tuple[float, float]]:
    """Per root: minimum voltage (pu) and loss (MW) of its radial feeder, by backward/forward sweep."""
    v = {b: complex(1.0) for b in parent}
    s = {b: complex(p_load[b], q_load[b]) / BASE_MVA for b in parent}
    for _ in range(100):
        current = {b: (s[b] / v[b]).conjugate() for b in parent}
        for _, child, _, _ in reversed(lines):
            current[parent[child]] += current[child]
        new_v = dict(v)
        for up, child, r, x in lines:
            new_v[child] = new_v[up] - complex(r, x) * current[child]
        change = max(abs(new_v[b] - v[b]) for b in parent)
        v = new_v
        if change < 1e-12:
            break
    else:
        raise ValueError("radial base case did not converge")
    result = {root: (1.0, 0.0) for root in set(root_of.values())}
    for _, child, r, _ in lines:
        low, loss = result[root_of[child]]
        result[root_of[child]] = min(low, abs(v[child])), loss + r * abs(current[child]) ** 2 * BASE_MVA
    return result


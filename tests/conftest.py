"""Shared fixtures and independent oracles.

The oracles deliberately avoid the package's own machinery wherever an
independent route exists: radiality via networkx, two-bus flows via
bisection on the receiving-voltage quadratic, Jacobians via central
finite differences, island solves via Gauss-Seidel sweeps.  Slow artifacts
(IEEE-14 parse, meshed solve, the full search) are session-scoped so every
module can reuse them.
"""
from __future__ import annotations

import itertools
import math
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from scipy import sparse

from dnr.caseio import parse_case
from dnr.exchange import improve
from dnr.model import (
    Branch,
    Bus,
    BusKind,
    Configuration,
    Island,
    NetworkCase,
    SwitchState,
    all_closed_config,
    make_config,
)
from dnr.powerflow import (
    BranchFlow,
    JacobianPattern,
    PowerFlowSolution,
    SingularBranchError,
    SolverOptions,
    _apply_q_limits,
    _classify,
    _finish,
    power_mismatch,
    solve_network,
)
from dnr.topology import (
    ForestBuildResult,
    UnreachableError,
    build_spanning_forest,
    weights_from_flow,
)

DATA_DIR = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# acceptance-criteria reporting: one visible pass/fail line per criterion

_CRITERIA: dict[str, tuple[str, str]] = {}
_OUTCOMES: dict[str, bool] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(number, title): tag a test as one acceptance criterion"
    )


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker:
            _CRITERIA[item.nodeid] = (str(marker.args[0]), marker.args[1])


def pytest_runtest_logreport(report):
    if report.when == "call" and report.nodeid in _CRITERIA:
        _OUTCOMES[report.nodeid] = report.passed


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    ordered = sorted(_CRITERIA.items(), key=lambda kv: kv[1][0])
    for nodeid, (number, title) in ordered:
        passed = _OUTCOMES.get(nodeid)
        status = "PASS" if passed else ("FAIL" if passed is not None else "NOT RUN")
        terminalreporter.write_line(f"criterion {number} {status}: {title}")


# ---------------------------------------------------------------------------
# small hand-built cases


def _triangle() -> NetworkCase:
    """Toy feeder: root 1, bus 2 unloaded, bus 3 drawing 2 pu through 0.01 pu legs."""
    buses = (
        Bus(1, BusKind.FEEDER, v_setpoint=1.0),
        Bus(2),
        Bus(3, p_load=200.0),
    )
    branches = (
        Branch(1, 1, 2, r=0.01, x=0.0),
        Branch(2, 1, 3, r=0.01, x=0.0),
        Branch(3, 2, 3, r=0.01, x=0.0, default_state=SwitchState.OPEN),
    )
    return NetworkCase(100.0, buses, branches, roots=(1,))


def _six_bus() -> NetworkCase:
    """Two feeders, four load buses, one tie per layer: 11 radial configs."""
    buses = (
        Bus(1, BusKind.FEEDER, v_setpoint=1.03),
        Bus(2, BusKind.FEEDER, v_setpoint=1.03),
        Bus(3, p_load=30.0, q_load=10.0),
        Bus(4, p_load=30.0, q_load=10.0),
        Bus(5, p_load=20.0, q_load=5.0),
        Bus(6, p_load=80.0, q_load=30.0),
    )
    branches = (
        Branch(1, 1, 3, r=0.02, x=0.04),
        Branch(2, 2, 4, r=0.02, x=0.04),
        Branch(3, 3, 5, r=0.03, x=0.06),
        Branch(4, 4, 6, r=0.03, x=0.06),
        Branch(5, 5, 6, r=0.04, x=0.08),
        Branch(6, 3, 4, r=0.025, x=0.05),
    )
    return NetworkCase(100.0, buses, branches, roots=(1, 2))


def _ring6() -> NetworkCase:
    """Single feeder on a 6-bus ring; distinct resistances break all ties."""
    buses = tuple(
        [Bus(1, BusKind.FEEDER, v_setpoint=1.0)]
        + [Bus(i, p_load=10.0, q_load=3.0) for i in range(2, 7)]
    )
    branches = tuple(
        Branch(i, i, i % 6 + 1, r=0.01 + 0.005 * (i - 1), x=0.02 + 0.01 * (i - 1))
        for i in range(1, 7)
    )
    return NetworkCase(100.0, buses, branches, roots=(1,))


def _path5() -> NetworkCase:
    """Two roots joined by a path; radial operation must cut it once."""
    buses = (
        Bus(1, BusKind.FEEDER, v_setpoint=1.0),
        Bus(2, p_load=15.0, q_load=5.0),
        Bus(3, p_load=15.0, q_load=5.0),
        Bus(4, p_load=15.0, q_load=5.0),
        Bus(5, BusKind.FEEDER, v_setpoint=1.0),
    )
    branches = tuple(
        Branch(i, i, i + 1, r=0.02, x=0.04) for i in range(1, 5)
    )
    return NetworkCase(100.0, buses, branches, roots=(1, 5))


def _five_bus_tworoot() -> NetworkCase:
    """Two feeders whose territories meet at bus 5; branch 4 is the tie."""
    buses = (
        Bus(1, BusKind.FEEDER, v_setpoint=1.0),
        Bus(2, BusKind.FEEDER, v_setpoint=1.0),
        Bus(3, p_load=20.0, q_load=8.0),
        Bus(4, p_load=20.0, q_load=8.0),
        Bus(5, p_load=25.0, q_load=10.0),
    )
    branches = (
        Branch(1, 1, 3, r=0.02, x=0.04),
        Branch(2, 3, 5, r=0.02, x=0.04),
        Branch(3, 2, 4, r=0.02, x=0.04),
        Branch(4, 4, 5, r=0.02, x=0.04, default_state=SwitchState.OPEN),
    )
    return NetworkCase(100.0, buses, branches, roots=(1, 2))


def _parallel_pair() -> NetworkCase:
    """Single feeder on a 4-bus ring with two parallel branches from bus 1 to bus 2."""
    buses = (
        Bus(1, BusKind.FEEDER, v_setpoint=1.0),
        Bus(2, p_load=10.0, q_load=3.0),
        Bus(3, p_load=10.0, q_load=3.0),
        Bus(4, p_load=10.0, q_load=3.0),
    )
    branches = (
        Branch(1, 1, 2, r=0.01, x=0.02),
        Branch(2, 2, 1, r=0.02, x=0.04),
        Branch(3, 2, 3, r=0.01, x=0.02),
        Branch(4, 3, 4, r=0.01, x=0.02),
        Branch(5, 4, 1, r=0.01, x=0.02, default_state=SwitchState.OPEN),
    )
    return NetworkCase(100.0, buses, branches, roots=(1,))


def _twin_pairs() -> NetworkCase:
    """Two electrically identical, disconnected feeder-load pairs."""
    buses = (
        Bus(1, BusKind.FEEDER, v_setpoint=1.0),
        Bus(2, p_load=50.0, q_load=20.0),
        Bus(3, BusKind.FEEDER, v_setpoint=1.0),
        Bus(4, p_load=50.0, q_load=20.0),
    )
    branches = (
        Branch(1, 1, 2, r=0.01, x=0.05),
        Branch(2, 3, 4, r=0.01, x=0.05),
    )
    return NetworkCase(100.0, buses, branches, roots=(1, 3))


def two_bus_case(
    p_mw: float,
    q_mvar: float,
    r: float = 0.01,
    x: float = 0.05,
    v1: float = 1.0,
    mva_limit: float | None = None,
    q_min: float | None = None,
    q_max: float | None = None,
    v_min: float = 0.9,
    v_max: float = 1.1,
) -> NetworkCase:
    """Single slack feeding a single load over one line."""
    buses = (
        Bus(1, BusKind.FEEDER, v_setpoint=v1, q_min=q_min, q_max=q_max),
        Bus(2, p_load=p_mw, q_load=q_mvar, v_min=v_min, v_max=v_max),
    )
    branches = (Branch(1, 1, 2, r=r, x=x, mva_limit=mva_limit),)
    return NetworkCase(100.0, buses, branches, roots=(1,))


def deep_chain(tie: tuple[int, int], n: int = 1500) -> NetworkCase:
    """Feeder chain 1..n, deeper than the recursion limit, buses listed leaf first.

    Branch i joins bus i to bus i+1; branch n is one open tie between the
    two buses of `tie`.
    """
    buses = [Bus(1, BusKind.FEEDER, v_setpoint=1.0)]
    buses += [Bus(i, p_load=0.01, q_load=0.005) for i in range(2, n + 1)]
    branches = [Branch(i, i, i + 1, r=1e-4, x=2e-4) for i in range(1, n)]
    branches.append(Branch(n, *tie, r=1e-4, x=2e-4, default_state=SwitchState.OPEN))
    return NetworkCase(100.0, tuple(reversed(buses)), tuple(branches), roots=(1,))


def ieee14_with_field(row: int, lo: int, hi: int, text: str) -> str:
    """IEEE-14 case text whose line row+1 holds `text` in columns lo+1..hi, right-aligned and cut to fit."""
    lines = (DATA_DIR / "ieee14.cdf").read_text().splitlines()
    line = lines[row].ljust(hi)
    lines[row] = line[:lo] + text.rjust(hi - lo)[: hi - lo] + line[hi:]
    return "\n".join(lines) + "\n"


def random_four_bus(seed: int) -> NetworkCase:
    """Randomized 4-bus system: path 1-2-3-4 plus up to two extra ties."""
    rng = np.random.default_rng(seed)
    buses = [Bus(1, BusKind.FEEDER, v_setpoint=float(rng.uniform(1.0, 1.05)))]
    for i in range(2, 5):
        buses.append(
            Bus(
                i,
                p_load=float(rng.uniform(0.0, 40.0)),
                q_load=float(rng.uniform(0.0, 15.0)),
                b_shunt=float(rng.uniform(0.0, 0.05)) if rng.random() < 0.3 else 0.0,
            )
        )
    edges = [(1, 2), (2, 3), (3, 4)]
    extras = [(1, 3), (2, 4), (1, 4)]
    count = int(rng.integers(0, 3))
    order = rng.permutation(len(extras))[:count]
    edges += [extras[i] for i in order]
    branches = []
    for bid, (f, t) in enumerate(edges, start=1):
        branches.append(
            Branch(
                bid,
                f,
                t,
                r=float(rng.uniform(0.01, 0.08)),
                x=float(rng.uniform(0.02, 0.15)),
                b_shunt=float(rng.uniform(0.0, 0.04)) if rng.random() < 0.4 else 0.0,
                tap_ratio=float(rng.uniform(0.95, 1.05)) if rng.random() < 0.25 else 1.0,
            )
        )
    return NetworkCase(100.0, tuple(buses), tuple(branches), roots=(1,))


def random_radial_feeder(seed: int, buses: int, roots: int = 1) -> NetworkCase:
    """A seeded radial feeder with taps, line charging and bus shunts.

    Buses 1..roots are feeders; every later bus hangs off a random earlier
    one, so the default configuration is radial.  About half the branches
    are stored against the flow, their from_bus being the downstream end.
    """
    rng = np.random.default_rng(seed)
    bus_list = [
        Bus(i, BusKind.FEEDER, v_setpoint=float(rng.uniform(1.0, 1.05))) for i in range(1, roots + 1)
    ]
    branches = []
    for i in range(roots + 1, buses + 1):
        shunted = rng.random() < 0.3
        bus_list.append(
            Bus(
                i,
                p_load=float(rng.uniform(0.0, 5.0)),
                q_load=float(rng.uniform(0.0, 2.0)),
                g_shunt=float(rng.uniform(0.0, 0.01)) if shunted else 0.0,
                b_shunt=float(rng.uniform(-0.02, 0.02)) if shunted else 0.0,
            )
        )
        parent = int(rng.integers(1, i))
        ends = (i, parent) if rng.random() < 0.5 else (parent, i)
        branches.append(
            Branch(
                i - roots,
                *ends,
                r=float(rng.uniform(0.005, 0.05)),
                x=float(rng.uniform(0.0, 0.1)),
                b_shunt=float(rng.uniform(0.0, 0.05)) if rng.random() < 0.4 else 0.0,
                tap_ratio=float(rng.uniform(0.95, 1.05)) if rng.random() < 0.3 else 1.0,
            )
        )
    return NetworkCase(100.0, tuple(bus_list), tuple(branches), roots=tuple(range(1, roots + 1)))


# ---------------------------------------------------------------------------
# oracles


def oracle_is_radial(case: NetworkCase, closed_ids) -> bool:
    """Radiality by networkx: acyclic and exactly one root per component."""
    graph = nx.MultiGraph()
    graph.add_nodes_from(case.bus_by_id)
    for branch_id in closed_ids:
        branch = case.branch_by_id[branch_id]
        graph.add_edge(branch.from_bus, branch.to_bus)
    if not nx.is_forest(graph):
        return False
    roots = set(case.roots)
    return all(len(set(comp) & roots) == 1 for comp in nx.connected_components(graph))


def oracle_spanning_forest(case: NetworkCase, weights: dict[int, float]) -> ForestBuildResult:
    """Flow-weighted forest by rescanning every candidate branch per added bus."""
    assigned: set[int] = set(case.roots)
    closed: set[int] = set()
    order: list[tuple[int, float]] = []
    candidates = [
        b
        for b in case.branches
        if b.switchable or b.default_state is SwitchState.CLOSED
    ]
    while len(assigned) < len(case.buses):
        best = None
        best_key = None
        for branch in candidates:
            if branch.id in closed:
                continue
            in_from = branch.from_bus in assigned
            in_to = branch.to_bus in assigned
            if in_from == in_to:
                continue  # interior (cycle/merge) or fully outside
            weight = math.inf if not branch.switchable else weights[branch.id]
            key = (-weight, branch.id)
            if best_key is None or key < best_key:
                best, best_key = branch, key
        if best is None:
            raise UnreachableError(sorted(set(case.bus_by_id) - assigned))
        closed.add(best.id)
        assigned.add(best.from_bus if best.from_bus not in assigned else best.to_bus)
        order.append((best.id, weights[best.id]))
    config = make_config(case, closed)
    return ForestBuildResult(config, tuple(sorted(config.open_ids)), tuple(order))


def _oracle_pi_stamp(branch: Branch) -> tuple[complex, complex, complex, complex]:
    if branch.r == 0.0 and branch.x == 0.0:
        raise SingularBranchError(f"closed branch {branch.id} has zero impedance")
    ys = 1.0 / complex(branch.r, branch.x)
    bc = 1j * branch.b_shunt / 2.0
    t = branch.tap_ratio if branch.tap_ratio else 1.0
    return (ys + bc) / t**2, -ys / t, -ys / t, ys + bc


def oracle_admittance(case: NetworkCase, island) -> tuple[np.ndarray, list[int]]:
    """Dense Ybus over the island's sorted buses, one branch and one shunt at a time."""
    order = sorted(island.buses)
    pos = {bus: i for i, bus in enumerate(order)}
    ybus = np.zeros((len(order), len(order)), dtype=complex)
    for branch_id in sorted(island.branches):
        branch = case.branch_by_id[branch_id]
        f, t = pos[branch.from_bus], pos[branch.to_bus]
        y_ff, y_ft, y_tf, y_tt = _oracle_pi_stamp(branch)
        ybus[f, f] += y_ff
        ybus[f, t] += y_ft
        ybus[t, f] += y_tf
        ybus[t, t] += y_tt
    for bus_id in order:
        bus = case.bus_by_id[bus_id]
        ybus[pos[bus_id], pos[bus_id]] += complex(bus.g_shunt, bus.b_shunt)
    return ybus, order


def oracle_branch_flows(case: NetworkCase, branch_ids, voltages, sending=None):
    """Branch flows and summed loss by a scalar loop over the branches in id order."""
    base = case.base_mva
    flows = {}
    loss_pu = 0.0
    for branch_id in sorted(branch_ids):
        branch = case.branch_by_id[branch_id]
        y_ff, y_ft, y_tf, y_tt = _oracle_pi_stamp(branch)
        vf = voltages[branch.from_bus]
        vt = voltages[branch.to_bus]
        i_from = y_ff * vf + y_ft * vt
        i_to = y_tf * vf + y_tt * vt
        s_from = vf * i_from.conjugate()
        s_to = vt * i_to.conjugate()
        send_bus = sending.get(branch_id, branch.from_bus) if sending else branch.from_bus
        if send_bus == branch.from_bus:
            s_send, s_recv, i_send, recv_bus = s_from, s_to, i_from, branch.to_bus
        else:
            s_send, s_recv, i_send, recv_bus = s_to, s_from, i_to, branch.from_bus
        flows[branch_id] = BranchFlow(
            branch_id,
            send_bus,
            recv_bus,
            s_send.real * base,
            s_send.imag * base,
            s_recv.real * base,
            s_recv.imag * base,
            abs(i_send),
        )
        loss_pu += (s_from + s_to).real
    return flows, loss_pu * base


def enumerate_radial(case: NetworkCase) -> list[frozenset[int]]:
    """All radial closed-branch sets, honoring non-switchable pinning."""
    need = len(case.buses) - len(case.roots)
    pinned_closed = {
        b.id
        for b in case.branches
        if not b.switchable and b.default_state is SwitchState.CLOSED
    }
    free = [b.id for b in case.branches if b.switchable]
    out = []
    for extra in itertools.combinations(free, need - len(pinned_closed)):
        closed = pinned_closed | set(extra)
        if oracle_is_radial(case, closed):
            out.append(frozenset(closed))
    return out


def two_bus_oracle(v1: float, p_pu: float, q_pu: float, r: float, x: float) -> dict[str, float]:
    """Exact single-line solution by bisection on the voltage-squared quadratic.

    z = |V2|^2 solves z^2 + (2(Pr+Qx) - V1^2) z + (P^2+Q^2)(r^2+x^2) = 0;
    the operating point is the upper root.  Loads must be nonnegative.
    """
    b = 2.0 * (p_pu * r + q_pu * x) - v1 * v1
    c = (p_pu * p_pu + q_pu * q_pu) * (r * r + x * x)

    def g(z: float) -> float:
        return z * z + b * z + c

    lo, hi = -b / 2.0, v1 * v1  # vertex up to the no-drop bound brackets the root
    assert g(lo) <= 0.0 <= g(hi), "load beyond the line's deliverable limit"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    z = 0.5 * (lo + hi)
    s2 = (p_pu * p_pu + q_pu * q_pu) / z
    return {
        "v2": math.sqrt(z),
        "loss_p": s2 * r,
        "loss_q": s2 * x,
        "p_send": p_pu + s2 * r,
        "q_send": q_pu + s2 * x,
        "current": math.sqrt(s2),
    }


GAUSS_SEIDEL_MAX_SWEEPS = 5000


def solve_gauss_seidel(
    case: NetworkCase,
    island: Island,
    config: Configuration | None = None,
    options: SolverOptions = SolverOptions(),
    sending: dict[int, int] | None = None,
) -> PowerFlowSolution:
    """Gauss-Seidel sweeps; slow but independent of the Newton machinery.

    Shares the package's bus classification, reactive-limit handling and
    result assembly, and uses only `options.tolerance`: the sweep cap is
    GAUSS_SEIDEL_MAX_SWEEPS, since the method converges linearly.
    """
    if config is not None and not island.branches <= config.closed:
        raise ValueError("island branches are not closed in the given configuration")
    setup = _classify(case, island)
    ydense = setup.ybus.toarray()
    cap = GAUSS_SEIDEL_MAX_SWEEPS
    tol = options.tolerance
    converged = False
    iterations = 0
    max_mismatch = math.inf
    sweep_order = [i for i in range(len(setup.order)) if i != setup.slack]
    while iterations < cap:
        iterations += 1
        ibus = ydense @ setup.v
        if iterations > 1:
            _apply_q_limits(case, setup, ibus, setup.v * np.conj(ibus))
        pvpq = np.array(sorted(setup.pv + setup.pq), dtype=int)
        pq = np.array(setup.pq, dtype=int)
        f = power_mismatch(setup.ybus, setup.v, setup.sbus, pvpq, pq)
        max_mismatch = float(np.max(np.abs(f))) if f.size else 0.0
        if max_mismatch <= tol:
            converged = True
            break
        pv_set = set(setup.pv)
        for i in sweep_order:
            row = ydense[i]
            if ydense[i, i] == 0.0:
                continue
            if i in pv_set:
                s_i = setup.v[i] * np.conj(row @ setup.v)
                target = complex(setup.sbus[i].real, s_i.imag)
                rest = row @ setup.v - row[i] * setup.v[i]
                v_new = (np.conj(target / setup.v[i]) - rest) / ydense[i, i]
                if abs(v_new) > 0.0:
                    setup.v[i] = setup.vset[i] * v_new / abs(v_new)
            else:
                rest = row @ setup.v - row[i] * setup.v[i]
                setup.v[i] = (np.conj(setup.sbus[i] / setup.v[i]) - rest) / ydense[i, i]
    return _finish(case, island, setup, converged, iterations, max_mismatch, sending)


def fd_jacobian(ybus, v, sbus, pvpq, pq, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the mismatch over [angles; magnitudes]."""
    va, vm = np.angle(v), np.abs(v)

    def f(va_, vm_):
        return power_mismatch(ybus, vm_ * np.exp(1j * va_), sbus, pvpq, pq)

    cols = []
    for idx in pvpq:
        up, dn = va.copy(), va.copy()
        up[idx] += h
        dn[idx] -= h
        cols.append((f(up, vm) - f(dn, vm)) / (2.0 * h))
    for idx in pq:
        up, dn = vm.copy(), vm.copy()
        up[idx] += h
        dn[idx] -= h
        cols.append((f(va, up) - f(va, dn)) / (2.0 * h))
    return np.column_stack(cols)


def dense_jacobian(ybus, v, pvpq, pq) -> np.ndarray:
    """MATPOWER's dSbus_dV as whole dense matrices, sliced to [angles; magnitudes].

    The same formulas mismatch_jacobian evaluates entry-wise on Ybus's
    pattern, so the two agree up to summation order.
    """
    y = ybus.toarray()
    ibus = y @ v
    vnorm = v / np.abs(v)
    ds_dvm = np.diag(v) @ np.conj(y @ np.diag(vnorm)) + np.diag(np.conj(ibus) * vnorm)
    ds_dva = 1j * np.diag(v) @ np.conj(np.diag(ibus) - y @ np.diag(v))
    return np.block(
        [
            [ds_dva[np.ix_(pvpq, pvpq)].real, ds_dvm[np.ix_(pvpq, pq)].real],
            [ds_dva[np.ix_(pq, pvpq)].imag, ds_dvm[np.ix_(pq, pq)].imag],
        ]
    )


def oracle_jacobian_pattern(ybus, pvpq, pq, buses=None) -> JacobianPattern:
    """jacobian_pattern as it was built with a stable argsort of the term keys.

    The matrix comes from scipy's COO-to-CSC conversion of the distinct cells.
    """
    y = ybus.tocsc()
    n = y.shape[0]
    size = pvpq.size + pq.size
    var = np.full((2, n), -1)
    var[0, pvpq] = np.arange(pvpq.size)
    var[1, pq] = np.arange(pvpq.size, size)
    if buses is None:
        order = np.arange(size)
    else:
        order = var[:, buses].T.ravel()
        order = order[order >= 0]
        rank = np.empty(size, dtype=var.dtype)
        rank[order] = np.arange(size)
        var = np.where(var >= 0, rank[var], -1)
    positions = np.arange(n)
    columns = np.repeat(positions, np.diff(y.indptr))
    rows = np.concatenate([y.indices, positions])
    cols = np.concatenate([columns, positions])
    at_i = var[[0, 0, 1, 1]][:, rows].ravel()
    at_j = var[[0, 1, 0, 1]][:, cols].ravel()
    take = np.flatnonzero((at_i >= 0) & (at_j >= 0))
    keys = at_j[take] * size + at_i[take]
    by_key = np.argsort(keys, kind="stable")
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[by_key[1:]] != keys[by_key[:-1]]
    cells = keys[by_key[first]]
    slots = np.empty(keys.size, dtype=np.intp)
    slots[by_key] = np.cumsum(first) - 1
    matrix = sparse.csc_matrix(
        (np.zeros(cells.size), (cells % size, cells // size)), shape=(size, size)
    )
    return JacobianPattern(columns, take, slots, matrix, order)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def triangle_case() -> NetworkCase:
    return _triangle()


@pytest.fixture(scope="session")
def six_bus_case() -> NetworkCase:
    return _six_bus()


@pytest.fixture(scope="session")
def ring6_case() -> NetworkCase:
    return _ring6()


@pytest.fixture(scope="session")
def path5_case() -> NetworkCase:
    return _path5()


@pytest.fixture(scope="session")
def five_bus_tworoot() -> NetworkCase:
    return _five_bus_tworoot()


@pytest.fixture(scope="session")
def parallel_case() -> NetworkCase:
    return _parallel_pair()


@pytest.fixture(scope="session")
def twin_case() -> NetworkCase:
    return _twin_pairs()


@pytest.fixture(scope="session")
def ieee14_text() -> str:
    return (DATA_DIR / "ieee14.cdf").read_text()


@pytest.fixture(scope="session")
def ieee14_case(ieee14_text) -> NetworkCase:
    return parse_case(ieee14_text, fmt="cdf", roots=(1, 2))


@pytest.fixture(scope="session")
def ieee14_meshed(ieee14_case):
    return solve_network(ieee14_case, all_closed_config(ieee14_case))


@pytest.fixture(scope="session")
def ieee14_forest(ieee14_case, ieee14_meshed):
    return build_spanning_forest(ieee14_case, weights_from_flow(ieee14_case, ieee14_meshed))


@pytest.fixture(scope="session")
def ieee14_search(ieee14_case, ieee14_forest):
    """Default-options search result, shared by the slower behavioral tests."""
    return improve(ieee14_case, ieee14_forest.config)

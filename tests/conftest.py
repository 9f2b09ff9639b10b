"""Shared fixtures and independent oracles.

The oracles deliberately avoid the package's own machinery wherever an
independent route exists: radiality via networkx, two-bus flows via
bisection on the receiving-voltage quadratic, Jacobians via central
finite differences.  Slow artifacts (IEEE-14 parse, meshed solve, the
full search) are session-scoped so every module can reuse them.
"""
from __future__ import annotations

import itertools
import math
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from dnr.caseio import parse_case
from dnr.exchange import improve
from dnr.model import (
    Branch,
    Bus,
    BusKind,
    NetworkCase,
    SwitchState,
    all_closed_config,
)
from dnr.powerflow import power_mismatch, solve_network
from dnr.topology import build_spanning_forest, weights_from_flow

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

"""AC power flow on configured networks.

Newton-Raphson in polar form is the workhorse; a Gauss-Seidel sweep solver
is kept as an independent cross-check.  Everything internal runs per-unit
on the case base; solutions expose MW/MVAr at the branch level.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .model import Branch, BusKind, Configuration, Island, NetworkCase
from .topology import forest_index


class SingularBranchError(ValueError):
    """A closed branch has zero series impedance."""


class NotConvergedError(RuntimeError):
    """A converged solution was required but not available."""


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-8
    max_iterations: int | None = None  # None: 30 for NR, 5000 for GS

    def iteration_cap(self, method: str) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 30 if method == "nr" else 5000


@dataclass(frozen=True, slots=True)
class BranchFlow:
    """Power entering a closed branch at each end; loss = p_send + p_recv."""

    branch_id: int
    sending_bus: int
    receiving_bus: int
    p_send: float
    q_send: float
    p_recv: float
    q_recv: float
    current_mag: float  # pu, sending end


@dataclass(frozen=True, slots=True)
class IslandResult:
    root: int
    buses: tuple[int, ...]
    converged: bool
    iterations: int
    max_mismatch: float
    loss_mw: float
    slack_p_mw: float  # generator output at the root
    slack_q_mvar: float


@dataclass(frozen=True)
class PowerFlowSolution:
    v_mag: dict[int, float]
    v_angle: dict[int, float]  # radians
    flows: dict[int, BranchFlow]
    total_loss_mw: float
    converged: bool
    iterations: int
    max_mismatch: float
    islands: tuple[IslandResult, ...] = ()

    def voltage(self, bus_id: int) -> complex:
        return self.v_mag[bus_id] * cmath.exp(1j * self.v_angle[bus_id])


def _pi_stamp(branch: Branch) -> tuple[complex, complex, complex, complex]:
    """(y_ff, y_ft, y_tf, y_tt) of a branch's pi model, tap on the from side."""
    if branch.r == 0.0 and branch.x == 0.0:
        raise SingularBranchError(f"closed branch {branch.id} has zero impedance")
    ys = 1.0 / complex(branch.r, branch.x)
    bc = 1j * branch.b_shunt / 2.0
    t = branch.tap_ratio if branch.tap_ratio else 1.0
    return (ys + bc) / t**2, -ys / t, -ys / t, ys + bc


def build_admittance(case: NetworkCase, island: Island) -> tuple[sparse.csc_matrix, list[int]]:
    """Nodal admittance matrix over the island's buses, and the bus ordering."""
    order = sorted(island.buses)
    pos = {bus: i for i, bus in enumerate(order)}
    n = len(order)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    for branch_id in sorted(island.branches):
        branch = case.branch_by_id[branch_id]
        f, to = pos[branch.from_bus], pos[branch.to_bus]
        rows += [f, f, to, to]
        cols += [f, to, f, to]
        vals += _pi_stamp(branch)
    for bus_id in order:
        bus = case.bus_by_id[bus_id]
        if bus.g_shunt or bus.b_shunt:
            rows.append(pos[bus_id])
            cols.append(pos[bus_id])
            vals.append(complex(bus.g_shunt, bus.b_shunt))
    ybus = sparse.csc_matrix(
        (np.array(vals, dtype=complex), (rows, cols)), shape=(n, n)
    )
    return ybus, order


def power_mismatch(
    ybus: sparse.spmatrix,
    v: np.ndarray,
    sbus: np.ndarray,
    pvpq: np.ndarray,
    pq: np.ndarray,
) -> np.ndarray:
    """[dP at PV+PQ buses; dQ at PQ buses] for the current voltage vector."""
    return _mismatch(v * np.conj(ybus @ v), sbus, pvpq, pq)


def _mismatch(scalc: np.ndarray, sbus: np.ndarray, pvpq: np.ndarray, pq: np.ndarray) -> np.ndarray:
    mis = scalc - sbus
    return np.concatenate([mis[pvpq].real, mis[pq].imag])


def mismatch_jacobian(
    ybus: sparse.spmatrix,
    v: np.ndarray,
    pvpq: np.ndarray,
    pq: np.ndarray,
) -> sparse.csc_matrix:
    """Jacobian of power_mismatch w.r.t. [angles at PV+PQ; magnitudes at PQ].

    Filled entry-wise on the stored pattern of Ybus, after MATPOWER's
    dSbus_dV: each stored y_rc gives dS_r/dVa_c = -j*v_r*conj(y_rc*v_c) and
    dS_r/dVm_c = v_r*conj(y_rc*v_c/|v_c|); the diagonal adds j*v*conj(I) and
    conj(I)*v/|v|.  Real parts land in the P rows, imaginary parts in the Q
    rows, and duplicate positions sum when the one matrix is built.
    """
    y = ybus.tocsr()
    n = y.shape[0]
    size = pvpq.size + pq.size
    # bus position -> Jacobian row/column of its angle and of its magnitude, -1: none
    ang = np.full(n, -1)
    ang[pvpq] = np.arange(pvpq.size)
    mag = np.full(n, -1)
    mag[pq] = np.arange(pvpq.size, size)
    buses = np.arange(n)
    rows = np.concatenate([np.repeat(buses, np.diff(y.indptr)), buses])
    cols = np.concatenate([y.indices, buses])
    ibus = y @ v
    vnorm = v / np.abs(v)
    vr = v[rows[: y.nnz]]
    ds_dva = np.concatenate([-1j * vr * np.conj(y.data * v[y.indices]), 1j * v * np.conj(ibus)])
    ds_dvm = np.concatenate([vr * np.conj(y.data * vnorm[y.indices]), np.conj(ibus) * vnorm])
    at_i, at_j, vals = [], [], []
    for row_map, col_map, part in (
        (ang, ang, ds_dva.real),
        (ang, mag, ds_dvm.real),
        (mag, ang, ds_dva.imag),
        (mag, mag, ds_dvm.imag),
    ):
        i, j = row_map[rows], col_map[cols]
        keep = (i >= 0) & (j >= 0)
        at_i.append(i[keep])
        at_j.append(j[keep])
        vals.append(part[keep])
    return sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(at_i), np.concatenate(at_j))), shape=(size, size)
    )


@dataclass
class _IslandSetup:
    order: list[int]
    ybus: sparse.csc_matrix
    slack: int  # position
    pv: list[int]  # positions, shrinks as limits bind
    pq: list[int]
    sbus: np.ndarray  # pu injections; Q entries of PV buses updated on switch
    v: np.ndarray  # complex start vector
    vset: np.ndarray  # setpoints where regulated
    clamped: dict[int, int] = field(default_factory=dict)  # position -> limit side


def _classify(case: NetworkCase, island: Island) -> _IslandSetup:
    ybus, order = build_admittance(case, island)
    pos = {bus: i for i, bus in enumerate(order)}
    n = len(order)
    slack = pos[island.root]
    base = case.base_mva
    pv: list[int] = []
    pq: list[int] = []
    sbus = np.zeros(n, dtype=complex)
    v = np.ones(n, dtype=complex)
    vset = np.ones(n)
    for bus_id in order:
        bus = case.bus_by_id[bus_id]
        i = pos[bus_id]
        sbus[i] = complex(bus.p_gen - bus.p_load, bus.q_gen - bus.q_load) / base
        if i == slack:
            vset[i] = bus.v_setpoint if bus.v_setpoint is not None else 1.0
            v[i] = vset[i]
            continue
        if bus.v_setpoint is not None and bus.kind is not BusKind.LOAD:
            pv.append(i)
            vset[i] = bus.v_setpoint
            v[i] = vset[i]
        else:
            pq.append(i)
    return _IslandSetup(order, ybus, slack, pv, pq, sbus, v, vset)


def _apply_q_limits(
    case: NetworkCase, setup: _IslandSetup, scalc: np.ndarray
) -> tuple[bool, np.ndarray]:
    """Clamp regulated buses whose machine Q runs past a limit; they become PQ.

    A clamped bus returns to voltage control once its voltage crosses the
    setpoint in the direction that relieves the binding limit, so transient
    excursions during slow sweeps cannot freeze the bus at the wrong limit.
    Returns whether the PV/PQ sets changed, and the injections at the current
    `v` (recomputed when a released bus moved it).
    """
    base = case.base_mva
    reverted = clamped_any = False
    for i, side in list(setup.clamped.items()):
        vm = abs(setup.v[i])
        if (side > 0 and vm > setup.vset[i]) or (side < 0 and vm < setup.vset[i]):
            del setup.clamped[i]
            setup.pq.remove(i)
            setup.pv.append(i)
            setup.pv.sort()
            setup.v[i] = setup.vset[i] * setup.v[i] / vm
            reverted = True
    if reverted:
        # stale injections would re-clamp the bus we just released
        scalc = setup.v * np.conj(setup.ybus @ setup.v)
    for i in list(setup.pv):
        bus = case.bus_by_id[setup.order[i]]
        limits = bus.q_limits
        if limits is None:
            continue
        q_machine = scalc[i].imag * base + bus.q_load
        clamped = None
        if q_machine > limits[1]:
            clamped = limits[1]
            setup.clamped[i] = 1
        elif q_machine < limits[0]:
            clamped = limits[0]
            setup.clamped[i] = -1
        if clamped is not None:
            setup.pv.remove(i)
            setup.pq.append(i)
            setup.pq.sort()
            setup.sbus[i] = complex(setup.sbus[i].real, (clamped - bus.q_load) / base)
            clamped_any = True
    return reverted or clamped_any, scalc


def _finish(
    case: NetworkCase,
    island: Island,
    setup: _IslandSetup,
    converged: bool,
    iterations: int,
    max_mismatch: float,
    sending: dict[int, int] | None,
) -> PowerFlowSolution:
    base = case.base_mva
    # the same bits as numpy's per-element scalars: Python abs calls their
    # hypot (array np.abs does not) and array np.angle their atan2 (cmath does not)
    volts = setup.v.tolist()
    v_mag = {bus: abs(volt) for bus, volt in zip(setup.order, volts)}
    v_angle = dict(zip(setup.order, np.angle(setup.v).tolist()))
    vmap = dict(zip(setup.order, volts))
    flows, loss_mw = branch_flows(case, island.branches, vmap, sending)
    scalc = setup.v * np.conj(setup.ybus @ setup.v)
    root_bus = case.bus_by_id[island.root]
    slack_p = scalc[setup.slack].real * base + root_bus.p_load
    slack_q = scalc[setup.slack].imag * base + root_bus.q_load
    result = IslandResult(
        island.root,
        tuple(setup.order),
        converged,
        iterations,
        max_mismatch,
        loss_mw,
        float(slack_p),
        float(slack_q),
    )
    return PowerFlowSolution(
        v_mag, v_angle, flows, loss_mw, converged, iterations, max_mismatch, (result,)
    )


def solve_newton_raphson(
    case: NetworkCase,
    island: Island,
    config: Configuration | None = None,
    options: SolverOptions = SolverOptions(),
    sending: dict[int, int] | None = None,
) -> PowerFlowSolution:
    """Full Newton power flow on one island; the root is the slack bus.

    Regulated buses hold their setpoint until a reactive limit binds, then
    drop to constant-Q.  Non-convergence is reported on the solution, not
    raised; the best iterate is returned.
    """
    if config is not None and not island.branches <= config.closed:
        raise ValueError("island branches are not closed in the given configuration")
    setup = _classify(case, island)
    ybus = setup.ybus.tocsr()
    cap = options.iteration_cap("nr")
    tol = options.tolerance
    converged = False
    iterations = 0
    max_mismatch = math.inf
    pvpq = pq = None
    while iterations < cap:
        iterations += 1
        scalc = setup.v * np.conj(ybus @ setup.v)
        if iterations > 1:
            changed, scalc = _apply_q_limits(case, setup, scalc)
            if changed:
                pvpq = None
        if pvpq is None:
            pvpq = np.array(sorted(setup.pv + setup.pq), dtype=int)
            pq = np.array(setup.pq, dtype=int)
        f = _mismatch(scalc, setup.sbus, pvpq, pq)
        max_mismatch = float(np.max(np.abs(f))) if f.size else 0.0
        if max_mismatch <= tol:
            converged = True
            break
        jac = mismatch_jacobian(ybus, setup.v, pvpq, pq)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dx = np.atleast_1d(spsolve(jac, -f))
        if not np.all(np.isfinite(dx)):
            break  # singular Jacobian: keep best iterate, converged stays False
        va = np.angle(setup.v)
        vm = np.abs(setup.v)
        va[pvpq] += dx[: pvpq.size]
        vm[pq] += dx[pvpq.size :]
        setup.v = vm * np.exp(1j * va)
    return _finish(case, island, setup, converged, iterations, max_mismatch, sending)


def solve_gauss_seidel(
    case: NetworkCase,
    island: Island,
    config: Configuration | None = None,
    options: SolverOptions = SolverOptions(),
    sending: dict[int, int] | None = None,
) -> PowerFlowSolution:
    """Gauss-Seidel sweeps; slow but independent of the Newton machinery."""
    if config is not None and not island.branches <= config.closed:
        raise ValueError("island branches are not closed in the given configuration")
    setup = _classify(case, island)
    ydense = setup.ybus.toarray()
    cap = options.iteration_cap("gs")
    tol = options.tolerance
    converged = False
    iterations = 0
    max_mismatch = math.inf
    sweep_order = [i for i in range(len(setup.order)) if i != setup.slack]
    while iterations < cap:
        iterations += 1
        scalc = setup.v * np.conj(ydense @ setup.v)
        if iterations > 1:
            _apply_q_limits(case, setup, scalc)
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


_SOLVERS = {"nr": solve_newton_raphson, "gs": solve_gauss_seidel}


def branch_flows(
    case: NetworkCase,
    branch_ids: frozenset[int] | set[int],
    voltages: dict[int, complex],
    sending: dict[int, int] | None = None,
) -> tuple[dict[int, BranchFlow], float]:
    """Per-branch power entering each end, in MW/MVAr, plus the summed loss.

    `sending` names the sending-end bus per branch id (defaults to from_bus,
    which is only meaningful on meshed snapshots).
    """
    base = case.base_mva
    flows: dict[int, BranchFlow] = {}
    loss_pu = 0.0
    for branch_id in sorted(branch_ids):
        branch = case.branch_by_id[branch_id]
        y_ff, y_ft, y_tf, y_tt = _pi_stamp(branch)
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


def solve_all_islands(
    case: NetworkCase,
    config: Configuration,
    options: SolverOptions = SolverOptions(),
    method: str = "nr",
) -> PowerFlowSolution:
    """Solve every island of a radial configuration and merge the results.

    Branch sending ends follow the trees: the end nearer the island root
    sends, so downstream flow is positive.
    """
    solver = _SOLVERS[method]
    index = forest_index(case, config)
    sending = {
        branch: index.parent_bus[bus]
        for bus, branch in index.parent_branch.items()
        if branch is not None
    }
    v_mag: dict[int, float] = {}
    v_angle: dict[int, float] = {}
    flows: dict[int, BranchFlow] = {}
    results: list[IslandResult] = []
    total_loss = 0.0
    for island in index.islands:
        part = solver(case, island, config, options, sending=sending)
        v_mag.update(part.v_mag)
        v_angle.update(part.v_angle)
        flows.update(part.flows)
        total_loss += part.total_loss_mw
        results.extend(part.islands)
    return PowerFlowSolution(
        v_mag,
        v_angle,
        flows,
        total_loss,
        all(r.converged for r in results),
        max((r.iterations for r in results), default=0),
        max((r.max_mismatch for r in results), default=0.0),
        tuple(results),
    )


def solve_network(
    case: NetworkCase,
    config: Configuration,
    slack: int | None = None,
    options: SolverOptions = SolverOptions(),
    method: str = "nr",
) -> PowerFlowSolution:
    """Solve the whole closed-branch graph as one network (meshes allowed).

    The slack defaults to the first declared root; other feeder buses hold
    their setpoint like any regulated machine.  Every bus must be connected
    to the slack through closed branches.
    """
    from .model import _reachable

    slack = case.roots[0] if slack is None else slack
    reached = _reachable(case, slack, config.closed)
    if len(reached) != len(case.buses):
        stranded = sorted(set(case.bus_by_id) - reached)
        raise ValueError(f"buses {stranded} not connected to slack {slack}")
    island = Island(slack, frozenset(case.bus_by_id), frozenset(config.closed))
    return _SOLVERS[method](case, island, config, options)

"""AC power flow on configured networks.

Newton-Raphson in polar form solves every island.  Everything internal runs
per-unit on the case base; solutions expose MW/MVAr at the branch level.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .model import (
    Configuration,
    ForestIndex,
    Island,
    NetworkCase,
    SingularBranchError,
    _CompiledCase,
    _adjacency,
    _compiled_case,
    _find,
    _positions,
    _reachable,
)
from .topology import forest_index


class NotConvergedError(RuntimeError):
    """A converged solution was required but not available."""


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-8
    max_iterations: int = 30


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


@dataclass(frozen=True, slots=True)
class IslandPart:
    """One island's solve in compiled positions: `v` per bus position, the rest per branch position.

    `power` holds p_send, q_send, p_recv and q_recv in MW/MVAr, `ends` the sending
    and receiving bus positions, and `islands` the IslandResult, with the loss, alone.
    """

    v: np.ndarray
    power: np.ndarray
    ends: np.ndarray
    islands: tuple[IslandResult]


class _Columns(Mapping):
    """A read-only mapping over parallel arrays, one row per id.

    It iterates in the order of `ids`, as the dict it stands for would, and
    finds an id by binary search in a sorted copy made at the first lookup.
    """

    __slots__ = ("ids", "_sorted", "_sorter")

    def __init__(self, ids: np.ndarray):
        self.ids = ids
        self._sorted = self._sorter = None

    def __len__(self) -> int:
        return self.ids.size

    def __iter__(self):
        return iter(self.ids.tolist())

    def __getitem__(self, key):
        if not isinstance(key, (int, np.integer)):
            raise KeyError(key)
        return self._row(int(self.rows(np.array([key]))[0]))

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """The row of each id in `keys`; KeyError names the first that is missing."""
        if self._sorter is None:
            self._sorter = np.argsort(self.ids)  # ids are unique: any sort will do
            self._sorted = self.ids[self._sorter]
        return self._sorter[_find(self._sorted, keys)]


class BusValues(_Columns):
    """Bus id -> a float per bus, held as two arrays."""

    __slots__ = ("values",)

    def __init__(self, ids: np.ndarray, values: np.ndarray):
        super().__init__(ids)
        self.values = values

    def _row(self, i: int):
        return self.values[i].item()


class BranchFlows(_Columns):
    """Branch id -> BranchFlow, held as columns; a BranchFlow is built when a flow is indexed.

    `ends` holds each branch's sending and receiving bus, `power` its
    p_send, q_send, p_recv and q_recv.
    """

    __slots__ = ("ends", "power")

    def __init__(self, ids: np.ndarray, ends: np.ndarray, power: np.ndarray):
        super().__init__(ids)
        self.ends = ends
        self.power = power

    def _row(self, i: int) -> BranchFlow:
        send, recv = self.ends[i].tolist()
        return BranchFlow(self.ids[i].item(), send, recv, *self.power[i].tolist())


@dataclass(frozen=True)
class PowerFlowSolution:
    """Voltages, flows and totals by id, as solve_all_islands and solve_network merge them from the islands' parts."""

    v_mag: BusValues
    v_angle: BusValues  # radians
    flows: BranchFlows
    total_loss_mw: float
    converged: bool
    iterations: int
    max_mismatch: float
    islands: tuple[IslandResult, ...] = ()


def sequential_sum(values: np.ndarray) -> float:
    """The values added one at a time from 0.0, as a scalar loop adds them.

    np.sum adds pairwise and rounds differently; a cumulative sum does not.
    """
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def _check_singular(compiled: _CompiledCase, branches: np.ndarray) -> None:
    """SingularBranchError for the first of the branch positions without series impedance."""
    bad = compiled.singular[branches]
    if bad.any():
        first = int(compiled.branch_ids[branches[bad.argmax()]])
        raise SingularBranchError(f"closed branch {first} has zero impedance")


def _stable_order(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """`keys` sorted, and np.argsort(keys, kind="stable"), for int64 keys in [0, bound).

    One plain np.sort of each key shifted past the bits of its position, with
    the position in those bits, does both, several times faster than numpy's
    stable argsort of int64 keys.  The packed values must fit an int64,
    which bounds `bound` times the number of keys.
    """
    shift = max(keys.size - 1, 0).bit_length()
    if bound << shift > 1 << 63:
        raise OverflowError(f"{keys.size} keys below {bound} do not pack into an int64")
    packed = np.sort((keys << shift) | np.arange(keys.size))
    return packed >> shift, packed & ((1 << shift) - 1)


def build_admittance(case: NetworkCase, island: Island) -> tuple[sparse.csc_matrix, list[int]]:
    """Nodal admittance matrix over the island's buses, and the bus ordering.

    The entries are ff, ft, tf, tt per branch in id order, then the bus
    shunts.  A stable sort puts them in CSC order, and entries that land on
    one cell sum in that input order, as scipy's COO-to-CSC conversion sums
    them.  The cells are keyed column * n + row below n * n, so the sort
    packs into an int64 up to about a million buses in one island.
    """
    compiled = _compiled_case(case)
    buses, branches = island.bus_positions, island.branch_positions
    _check_singular(compiled, branches)
    n = buses.size
    local = np.empty(compiled.bus_ids.size, dtype=np.intp)
    local[buses] = np.arange(n)
    ends = local[compiled.ends[branches]]
    shunted = buses[compiled.has_shunt[buses]]
    rows = np.concatenate([ends[:, [0, 0, 1, 1]].ravel(), local[shunted]])
    cols = np.concatenate([ends[:, [0, 1, 0, 1]].ravel(), local[shunted]])
    vals = np.concatenate([compiled.stamp[branches].ravel(), compiled.shunt[shunted]])
    cells, order = _stable_order(cols * n + rows, n * n)
    vals = vals[order]
    first = np.ones(cells.size, dtype=bool)
    first[1:] = cells[1:] != cells[:-1]
    data = vals[first]
    np.add.at(data, np.cumsum(first)[~first] - 1, vals[~first])  # one entry at a time
    return _csc(cells[first], data, n), compiled.bus_ids[buses].tolist()


def _mismatch(scalc: np.ndarray, sbus: np.ndarray, pvpq: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """[dP at PV+PQ buses; dQ at PQ buses] for the injections `scalc`, v * conj(Ybus v)."""
    mis = scalc - sbus
    return np.concatenate([mis[pvpq].real, mis[pq].imag])


# the most unknowns a Newton system is filled and solved dense.  SuperLU costs
# 30 to 50 us a factor and solve below 120 unknowns; LAPACK's dense LU
# (partial pivoting) grows as n^3 from about 12 us at 30.  Timed per step on
# generated radial feeders (2-vCPU Xeon, one BLAS thread): dense is faster up
# to about 64 unknowns, SuperLU from about 78 on
_DENSE_MAX = 64


@dataclass(frozen=True, slots=True)
class JacobianPattern:
    """Where the Jacobian's terms land, for one Ybus pattern and one PV/PQ split.

    `columns` is the bus column of each stored Ybus entry in CSC order.
    `take` picks the kept terms out of [dS/dVa real, dS/dVm real, dS/dVa
    imag, dS/dVm imag], each listing the stored entries and then the
    diagonal terms; `slots` puts each kept term at its place in the
    Jacobian's data, where the two terms of a diagonal entry sum in that
    order.  Over _DENSE_MAX unknowns `jacobian` is the CSC matrix every
    fill with this pattern writes its values into and returns, and a slot
    indexes its data; up to _DENSE_MAX it is None, each fill returns a new
    dense array, and a slot is a cell of that array in row-major order.

    `order` gives, for each row of the Jacobian (and each column), its
    variable in the mismatch's numbering [angles at PV+PQ; magnitudes at
    PQ].  The rows run bus by bus in the bus order the pattern was built
    for, leaves first, each bus's angle before its magnitude.
    """

    columns: np.ndarray
    take: np.ndarray
    slots: np.ndarray
    jacobian: sparse.csc_matrix | None
    order: np.ndarray


def _csc(cells: np.ndarray, data: np.ndarray, n: int) -> sparse.csc_matrix:
    """The n x n CSC matrix with `data` at `cells`, sorted keys column * n + row."""
    cols, rows = np.divmod(cells, n)
    indptr = np.searchsorted(cols, np.arange(n + 1)).astype(np.int32)
    return sparse.csc_matrix((data, rows.astype(np.int32), indptr), shape=(n, n))


def leaves_first(ybus: sparse.spmatrix) -> np.ndarray:
    """The island's bus positions leaves first, for jacobian_pattern.

    Reverse Cuthill-McKee is a breadth-first walk from a peripheral bus,
    reversed, so on a radial island every bus comes before its parent and
    elimination in this order creates no fill (Tinney & Walker, Proc. IEEE
    1967); on a meshed network it keeps the profile small.
    """
    return reverse_cuthill_mckee(ybus.tocsc(), symmetric_mode=True)


def jacobian_pattern(
    ybus: sparse.spmatrix,
    pvpq: np.ndarray,
    pq: np.ndarray,
    buses: np.ndarray,
) -> JacobianPattern:
    """The structure of mismatch_jacobian for this Ybus pattern and PV/PQ split.

    `buses` orders the Jacobian's rows and columns bus by bus, as
    leaves_first gives them.  Up to _DENSE_MAX unknowns each term's slot
    is its row-major cell, row * size + column.  Larger systems key the
    terms column * size + row, which _stable_order packs into an int64 up
    to about half a million buses in one island, and store the distinct
    cells as a CSC matrix.
    """
    y = ybus.tocsc()
    n = y.shape[0]
    size = pvpq.size + pq.size
    # per bus position: the mismatch's index of its angle, then of its magnitude, -1: none
    var = np.full((2, n), -1)
    var[0, pvpq] = np.arange(pvpq.size)
    var[1, pq] = np.arange(pvpq.size, size)
    order = var[:, buses].T.ravel()
    order = order[order >= 0]
    rank = np.full(size + 1, -1)  # the last entry keeps -1 at -1
    rank[order] = np.arange(size)
    var = rank[var]  # now each one's Jacobian row/column
    positions = np.arange(n)
    columns = np.repeat(positions, np.diff(y.indptr))
    rows = np.concatenate([y.indices, positions])
    cols = np.concatenate([columns, positions])
    # the four blocks: angle and magnitude rows against angle and magnitude columns
    at_i = var[[0, 0, 1, 1]][:, rows].ravel()
    at_j = var[[0, 1, 0, 1]][:, cols].ravel()
    take = np.flatnonzero((at_i >= 0) & (at_j >= 0))
    if size <= _DENSE_MAX:
        return JacobianPattern(columns, take, at_i[take] * size + at_j[take], None, order)
    # np.unique(keys, return_inverse=True), without its overhead; a term's
    # slot depends on its key only, so the sort need not be stable
    keys, by_key = _stable_order(at_j[take] * size + at_i[take], size * size)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    cells = keys[first]
    slots = np.empty(keys.size, dtype=np.intp)
    slots[by_key] = np.cumsum(first) - 1
    return JacobianPattern(columns, take, slots, _csc(cells, np.zeros(cells.size), size), order)


def mismatch_jacobian(
    ybus: sparse.spmatrix,
    v: np.ndarray,
    pvpq: np.ndarray,
    pq: np.ndarray,
    pattern: JacobianPattern,
    ibus: np.ndarray,
) -> np.ndarray | sparse.csc_matrix:
    """Jacobian of the power mismatch (_mismatch) w.r.t. [angles at PV+PQ; magnitudes at PQ].

    Filled entry-wise on the stored pattern of Ybus, after MATPOWER's
    dSbus_dV: each stored y_rc gives dS_r/dVa_c = -j*v_r*conj(y_rc*v_c) and
    dS_r/dVm_c = v_r*conj(y_rc*v_c/|v_c|); the diagonal adds j*v*conj(I) and
    conj(I)*v/|v|.  Real parts land in the P rows, imaginary parts in the Q
    rows.  `pattern` is jacobian_pattern for this Ybus pattern and PV/PQ
    split, so each call only computes the values.  The matrix returned is
    numbered leaves first as `pattern.order` says: a new dense array up to
    _DENSE_MAX unknowns, otherwise the pattern's own CSC matrix,
    overwritten by its next fill.  `ibus` is ybus @ v, the product the
    Newton loop's mismatch used.
    """
    y = ybus.tocsc()
    vnorm = v / np.abs(v)
    vr = v[y.indices]
    cols = pattern.columns
    ds_dva = np.concatenate([-1j * vr * np.conj(y.data * v[cols]), 1j * v * np.conj(ibus)])
    ds_dvm = np.concatenate([vr * np.conj(y.data * vnorm[cols]), np.conj(ibus) * vnorm])
    terms = np.concatenate([ds_dva.real, ds_dvm.real, ds_dva.imag, ds_dvm.imag])[pattern.take]
    jacobian = pattern.jacobian
    if jacobian is None:
        size = pattern.order.size
        return np.bincount(pattern.slots, weights=terms, minlength=size * size).reshape(size, size)
    jacobian.data = np.bincount(pattern.slots, weights=terms, minlength=jacobian.data.size)
    return jacobian


def _factor(matrix: sparse.csc_matrix):
    """SuperLU factors of a Jacobian numbered leaves first, in the order given.

    A diagonal pivot is kept unless it is under a thousandth of its column's
    largest entry.  A row swap takes a pivot from the parent bus's rows and
    creates fill; at a tenth, resistive lines (small dP/dVa) forced one in
    about a fifth of the Newton factorizations on the tests' generated
    feeders, at a thousandth none.

    SuperLU factors a panel of columns at a time (Demmel et al., SIAM J.
    Matrix Anal. Appl. 1999) to update them together from supernodes that
    fill creates.  Without fill there is nothing to share, and the panel's
    dense work arrays are overhead: one column per panel factors a 1000-bus
    feeder's 1998-variable Jacobian in about half the time of the default
    panel, with the same L and U nonzeros and steps equal to about 1e-14.
    """
    return splu(matrix, permc_spec="NATURAL", diag_pivot_thresh=1e-3, panel_size=1)


def _newton_step(
    jacobian: np.ndarray | sparse.csc_matrix, mismatch: np.ndarray, pattern: JacobianPattern
) -> np.ndarray:
    """-J^-1 f for a fill with `pattern`, f and the step in the mismatch's numbering; NaN when J is singular.

    A dense J (up to _DENSE_MAX unknowns) goes to LAPACK as it is, a CSC J
    through its leaves-first SuperLU factor.
    """
    rhs = -mismatch[pattern.order]
    try:
        if pattern.jacobian is None:
            solved = np.linalg.solve(jacobian, rhs)
        else:
            solved = _factor(jacobian).solve(rhs)
    # LAPACK meets an exactly zero pivot, or SuperLU finds the factor exactly singular
    except (np.linalg.LinAlgError, RuntimeError):
        return np.full(mismatch.size, math.nan)
    step = np.empty_like(mismatch)
    step[pattern.order] = solved
    return step


@dataclass
class _IslandSetup:
    order: list[int]  # bus ids
    ybus: sparse.csc_matrix
    slack: int  # position
    pv: list[int]  # positions, shrinks as limits bind
    pq: list[int]
    sbus: np.ndarray  # pu injections; Q entries of PV buses updated on switch
    v: np.ndarray  # complex start vector
    vset: np.ndarray  # setpoints where regulated
    q_min: np.ndarray  # machine reactive range (MVAr), NaN where the bus has none
    q_max: np.ndarray
    q_load: np.ndarray  # MVAr
    clamped: dict[int, int] = field(default_factory=dict)  # position -> limit side


def _classify(case: NetworkCase, island: Island) -> _IslandSetup:
    ybus, order = build_admittance(case, island)
    compiled = _compiled_case(case)
    buses = island.bus_positions
    slack = order.index(island.root)
    regulated = compiled.regulated[buses]
    regulated[slack] = False
    load = ~regulated
    load[slack] = False
    vset = np.where(regulated, compiled.setpoint[buses], 1.0)
    vset[slack] = compiled.setpoint[buses[slack]]
    return _IslandSetup(
        order,
        ybus,
        slack,
        np.flatnonzero(regulated).tolist(),
        np.flatnonzero(load).tolist(),
        compiled.injection[buses],
        vset.astype(complex),
        vset,
        compiled.q_min[buses],
        compiled.q_max[buses],
        compiled.q_load[buses],
    )


def _apply_q_limits(
    case: NetworkCase, setup: _IslandSetup, ibus: np.ndarray, scalc: np.ndarray
) -> tuple[bool, np.ndarray, np.ndarray]:
    """Clamp regulated buses whose machine Q runs past a limit; they become PQ.

    A clamped bus returns to voltage control once its voltage crosses the
    setpoint in the direction that relieves the binding limit, so transient
    excursions during slow sweeps cannot freeze the bus at the wrong limit.
    `ibus` is ybus @ v and `scalc` the injections v * conj(ibus).  Returns
    whether the PV/PQ sets changed, and both at the current `v` (recomputed
    when a released bus moved it).
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
        ibus = setup.ybus @ setup.v
        scalc = setup.v * np.conj(ibus)
    for i in list(setup.pv):
        low, high, q_load = setup.q_min[i], setup.q_max[i], setup.q_load[i]
        if math.isnan(low):
            continue
        q_machine = scalc[i].imag * base + q_load
        clamped = None
        if q_machine > high:
            clamped = high
            setup.clamped[i] = 1
        elif q_machine < low:
            clamped = low
            setup.clamped[i] = -1
        if clamped is not None:
            setup.pv.remove(i)
            setup.pq.append(i)
            setup.pq.sort()
            setup.sbus[i] = complex(setup.sbus[i].real, (clamped - q_load) / base)
            clamped_any = True
    return reverted or clamped_any, ibus, scalc


def _finish(
    case: NetworkCase,
    island: Island,
    setup: _IslandSetup,
    converged: bool,
    iterations: int,
    max_mismatch: float,
    sending: np.ndarray | None,
    scalc: np.ndarray | None = None,
) -> IslandPart:
    """The island's part at `setup.v`; `scalc`, the injections there, is computed when not given."""
    base = case.base_mva
    v = setup.v
    if scalc is None:
        scalc = v * np.conj(setup.ybus @ v)
    root_bus = case.bus_by_id[island.root]
    slack_p = float(scalc[setup.slack].real * base + root_bus.p_load)
    slack_q = float(scalc[setup.slack].imag * base + root_bus.q_load)
    voltages = np.empty(_compiled_case(case).bus_ids.size, dtype=complex)  # read at the island's buses only
    voltages[island.bus_positions] = v
    ends, power, loss_mw = branch_flows(case, island.branch_positions, voltages, sending)
    result = IslandResult(island.root, tuple(setup.order), converged, iterations, max_mismatch, loss_mw, slack_p, slack_q)
    return IslandPart(v, power, ends, (result,))


def _usable(dx: np.ndarray, vm: np.ndarray) -> bool:
    """Whether a Newton step may be taken: `dx` is finite and `vm`, the magnitudes it gives, are above zero.

    A step that is not finite comes from a singular Jacobian.  No operating
    point has a magnitude at or below zero, and a solve that steps there
    has, on every case tested, either run on to its cap or reached a
    low-voltage root that is not the operating point.
    """
    return bool(np.isfinite(dx).all() and (vm > 0.0).all())


def solve_newton_raphson(
    case: NetworkCase,
    island: Island,
    options: SolverOptions = SolverOptions(),
    sending: np.ndarray | None = None,
) -> IslandPart:
    """Full Newton power flow on one island; the root is the slack bus.

    Regulated buses hold their setpoint until a reactive limit binds, then
    drop to constant-Q.  Non-convergence is reported on the solution, not
    raised; the last iterate is returned, where the iteration cap stopped the
    loop or before a step it could not take: a non-finite one (a singular
    Jacobian) or one that would leave a bus voltage magnitude at zero or
    below.  `sending` orients the branch flows, as branch_flows takes it.
    """
    setup = _classify(case, island)
    ybus = setup.ybus
    cap = options.max_iterations
    tol = options.tolerance
    converged = False
    iterations = 0
    max_mismatch = math.inf
    pvpq = np.delete(np.arange(len(setup.order)), setup.slack)  # PV/PQ switches keep this set
    buses = leaves_first(ybus)
    # one pattern per PV/PQ split, kept for the rest of the solve: a bus that
    # clamps and is later released returns to a split already seen.  The key
    # is the PQ positions' bytes, whose hash Python computes once per object
    patterns: dict[bytes, JacobianPattern] = {}
    pq = None
    while iterations < cap:
        iterations += 1
        ibus = ybus @ setup.v
        scalc = setup.v * np.conj(ibus)
        if iterations > 1:
            changed, ibus, scalc = _apply_q_limits(case, setup, ibus, scalc)
            if changed:
                pq = None
        if pq is None:
            pq = np.array(setup.pq, dtype=int)
            split = pq.tobytes()
        f = _mismatch(scalc, setup.sbus, pvpq, pq)
        max_mismatch = float(np.abs(f).max()) if f.size else 0.0
        if max_mismatch <= tol:
            converged = True
            break
        if split not in patterns:
            patterns[split] = jacobian_pattern(ybus, pvpq, pq, buses)
        pattern = patterns[split]
        jac = mismatch_jacobian(ybus, setup.v, pvpq, pq, pattern, ibus)
        dx = _newton_step(jac, f, pattern)
        va = np.angle(setup.v)
        vm = np.abs(setup.v)
        va[pvpq] += dx[: pvpq.size]
        vm[pq] += dx[pvpq.size :]
        if not _usable(dx, vm):
            break  # keep the last iterate, converged stays False
        setup.v = vm * np.exp(1j * va)
    # a converged loop stopped right after computing the injections at the final v
    return _finish(
        case, island, setup, converged, iterations, max_mismatch, sending, scalc if converged else None
    )


# one entry, looked up by name on each call: the benchmark traces island solves
# by replacing _SOLVERS["nr"], and callers pass method="nr"
_SOLVERS = {"nr": solve_newton_raphson}


# branch_flows writes the complex products of i = y*v and s = v*conj(i) out
# in real arithmetic, so each value has the bits of the same expression on
# Python complex scalars (numpy's complex multiply may fuse a multiply-add and
# round differently).  Per branch, `v` below is [vf.r, vf.i, vt.r, vt.i] and
# their negatives, the stamp [y_ff.r, y_ff.i, y_ft.r, ..., y_tt.i]; row k of
# these index pairs lists the four products that sum to i_from.r, i_from.i,
# i_to.r and i_to.i.
_CURRENT_Y = np.array([[0, 1, 2, 3], [0, 1, 2, 3], [4, 5, 6, 7], [4, 5, 6, 7]])
_CURRENT_V = np.array([[0, 5, 2, 7], [1, 0, 3, 2], [0, 5, 2, 7], [1, 0, 3, 2]])
# the product pairs that sum to s_from.r, s_from.i, s_to.r and s_to.i
_POWER_V = np.array([0, 1, 1, 4, 2, 3, 3, 6])
_POWER_I = np.array([0, 1, 0, 1, 2, 3, 2, 3])
# a row of [from-end p, q, to-end p, q] with the ends swapped
_SWAP_ENDS = np.array([2, 3, 0, 1])


def branch_flows(
    case: NetworkCase,
    branches: np.ndarray,
    voltages: np.ndarray,
    sending: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-branch ends and power entering each end in MW/MVAr, plus the summed loss.

    `branches` are ascending branch positions in the case's compiled form
    (branch ids sorted), `voltages` holds a complex voltage per bus
    position.  `sending` holds, per branch position, the bus position of
    its sending end, as solve_all_islands takes it from the forest's
    parents; without it the from end sends, which is only meaningful on
    meshed snapshots.  The ends returned are bus positions too.
    """
    compiled = _compiled_case(case)
    _check_singular(compiled, branches)
    ends = compiled.ends[branches]
    v = voltages[ends].astype(complex, copy=False).view(float)
    v = np.concatenate([v, -v], axis=1)
    prod = compiled.stamp[branches].view(float)[:, _CURRENT_Y] * v[:, _CURRENT_V]
    current = (prod[:, :, 0] + prod[:, :, 1]) + (prod[:, :, 2] + prod[:, :, 3])
    prod = v[:, _POWER_V] * current[:, _POWER_I]
    power = prod[:, 0::2] + prod[:, 1::2]
    loss_pu = sequential_sum(power[:, 0] + power[:, 2])  # in branch id order
    if sending is not None:
        reverse = sending[branches] != ends[:, 0]
        if reverse.any():
            power[reverse] = power[reverse][:, _SWAP_ENDS]
            ends = np.where(reverse[:, None], ends[:, ::-1], ends)
    base = case.base_mva
    return ends, power * base, loss_pu * base


def sending_ends(case: NetworkCase, index: ForestIndex) -> np.ndarray:
    """Per branch position, the bus position of its sending end: the end nearer the island root.

    Open branches hold -1.
    """
    sending = np.full(_compiled_case(case).branch_ids.size, -1)
    below = index.parent_branch >= 0
    sending[index.parent_branch[below]] = index.parent[below]
    return sending


def _merge(case: NetworkCase, islands: tuple[Island, ...], parts: list[IslandPart]) -> PowerFlowSolution:
    """The islands' parts keyed by id in one solution, in order, as dict.update would merge them."""
    compiled = _compiled_case(case)
    results = tuple(part.islands[0] for part in parts)
    bus_ids = compiled.bus_ids[np.concatenate([island.bus_positions for island in islands])]
    v = np.concatenate([part.v for part in parts])
    # np.hypot is the C hypot that Python abs calls on a complex, so each
    # magnitude has the scalar's bits (array np.abs rounds differently)
    return PowerFlowSolution(
        BusValues(bus_ids, np.hypot(v.real, v.imag)),
        BusValues(bus_ids, np.angle(v)),
        BranchFlows(
            compiled.branch_ids[np.concatenate([island.branch_positions for island in islands])],
            compiled.bus_ids[np.concatenate([part.ends for part in parts])],
            np.concatenate([part.power for part in parts]),
        ),
        sequential_sum(np.array([r.loss_mw for r in results])),
        all(r.converged for r in results),
        max(r.iterations for r in results),
        max(r.max_mismatch for r in results),
        results,
    )


def solve_all_islands(
    case: NetworkCase,
    config: Configuration,
    options: SolverOptions = SolverOptions(),
    method: str = "nr",
) -> PowerFlowSolution:
    """Solve every island of a radial configuration and merge the results.

    Branch sending ends follow the trees (sending_ends), so downstream flow
    is positive.
    """
    solver = _SOLVERS[method]
    index = forest_index(case, config)
    sending = sending_ends(case, index)
    parts = [solver(case, island, options, sending) for island in index.islands]
    return _merge(case, index.islands, parts)


def solve_network(
    case: NetworkCase,
    config: Configuration,
    options: SolverOptions = SolverOptions(),
    method: str = "nr",
) -> PowerFlowSolution:
    """Solve the whole closed-branch graph as one network (meshes allowed).

    The slack is the first declared root; other feeder buses hold their
    setpoint like any regulated machine.  Every bus must be connected to
    the slack through closed branches.
    """
    slack = case.roots[0]
    reached = _reachable(_adjacency(case), slack, config.closed)
    if len(reached) != len(case.buses):
        stranded = sorted(set(case.bus_by_id) - reached)
        raise ValueError(f"buses {stranded} not connected to slack {slack}")
    compiled = _compiled_case(case)
    closed = _positions(compiled.branch_ids, config.closed)
    island = Island(slack, compiled.all_buses, config.closed, compiled.bus_positions, closed)
    return _merge(case, (island,), [_SOLVERS[method](case, island, options)])

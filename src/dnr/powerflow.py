"""AC power flow on configured networks.

Newton-Raphson in polar form solves every island.  Everything internal runs
per-unit on the case base; solutions expose MW/MVAr at the branch level.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .model import Branch, BusKind, CaseMemo, Configuration, Island, NetworkCase
from .topology import forest_index


class SingularBranchError(ValueError):
    """A closed branch has zero series impedance."""


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


def _find(sorted_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The position of each key in `sorted_ids`; KeyError names the first missing one."""
    at = sorted_ids.searchsorted(keys)
    found = at < sorted_ids.size
    found[found] = sorted_ids[at[found]] == keys[found]
    if not found.all():
        raise KeyError(keys[~found][0].item())
    return at


class _Columns(Mapping):
    """A read-only mapping over parallel arrays, one row per id.

    It iterates in the order of `ids`, as the dict it stands for would, and
    finds an id by binary search: in `ids` itself when they ascend, as one
    island's do, else in a sorted copy made at the first lookup.
    """

    __slots__ = ("ids", "_sorted", "_sorter")
    _fields: tuple[str, ...] = ()  # the per-row arrays besides `ids`

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
        if self._sorted is None:
            if (self.ids[1:] > self.ids[:-1]).all():
                self._sorted = self.ids
            else:
                self._sorter = np.argsort(self.ids)  # ids are unique: any sort will do
                self._sorted = self.ids[self._sorter]
        at = _find(self._sorted, keys)
        return at if self._sorter is None else self._sorter[at]

    @classmethod
    def concat(cls, parts: list):
        """The rows of every part, in order, as dict.update would merge them."""
        parts = [cls.of(part) for part in parts]
        if len(parts) == 1:
            return parts[0]
        return cls(*(np.concatenate([getattr(p, f) for p in parts]) for f in ("ids", *cls._fields)))


class BusValues(_Columns):
    """Bus id -> a float (or complex) per bus, held as two arrays."""

    __slots__ = ("values",)
    _fields = ("values",)

    def __init__(self, ids: np.ndarray, values: np.ndarray):
        super().__init__(ids)
        self.values = values

    def _row(self, i: int):
        return self.values[i].item()

    def take(self, keys: np.ndarray) -> np.ndarray:
        """The values of the ids in `keys`, in that order."""
        return self.values[self.rows(keys)]

    @classmethod
    def of(cls, values: Mapping[int, float]) -> BusValues:
        """`values` itself when it is a BusValues, else its items as arrays."""
        if isinstance(values, cls):
            return values
        n = len(values)
        return cls(np.fromiter(values.keys(), np.int64, n), np.array(list(values.values())))


class BranchFlows(_Columns):
    """Branch id -> BranchFlow, held as columns; a BranchFlow is built when a flow is indexed.

    `ends` holds each branch's sending and receiving bus, `power` its
    p_send, q_send, p_recv and q_recv.
    """

    __slots__ = ("ends", "power", "current_mag")
    _fields = ("ends", "power", "current_mag")

    def __init__(self, ids: np.ndarray, ends: np.ndarray, power: np.ndarray, current_mag: np.ndarray):
        super().__init__(ids)
        self.ends = ends
        self.power = power
        self.current_mag = current_mag

    def _row(self, i: int) -> BranchFlow:
        send, recv = self.ends[i].tolist()
        return BranchFlow(self.ids[i].item(), send, recv, *self.power[i].tolist(), self.current_mag[i].item())

    @classmethod
    def of(cls, flows: Mapping[int, BranchFlow]) -> BranchFlows:
        """`flows` itself when it is a BranchFlows, else its flows as columns."""
        if isinstance(flows, cls):
            return flows
        rows = list(flows.values())
        return cls(
            np.fromiter(flows.keys(), np.int64, len(rows)),
            np.array([(f.sending_bus, f.receiving_bus) for f in rows], dtype=np.int64).reshape(-1, 2),
            np.array([(f.p_send, f.q_send, f.p_recv, f.q_recv) for f in rows], dtype=float).reshape(-1, 4),
            np.array([f.current_mag for f in rows], dtype=float),
        )


@dataclass(frozen=True)
class PowerFlowSolution:
    """Voltages, flows and totals; a solve returns BusValues and BranchFlows views."""

    v_mag: Mapping[int, float]
    v_angle: Mapping[int, float]  # radians
    flows: Mapping[int, BranchFlow]
    total_loss_mw: float
    converged: bool
    iterations: int
    max_mismatch: float
    islands: tuple[IslandResult, ...] = ()

    def voltage(self, bus_id: int) -> complex:
        return self.v_mag[bus_id] * cmath.exp(1j * self.v_angle[bus_id])


def sequential_sum(values: np.ndarray) -> float:
    """The values added one at a time from 0.0, as a scalar loop adds them.

    np.sum adds pairwise and rounds differently; a cumulative sum does not.
    """
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


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
    """A case as index arrays: everything an island solve reads of it.

    Buses and branches are sorted by id; `ends` holds each branch's from/to
    bus positions and `stamp` its (y_ff, y_ft, y_tf, y_tt) from `_pi_stamp`,
    zero where `singular` marks a branch without series impedance.  Per bus:
    shunt admittance, per-unit injection, whether the bus regulates its
    voltage as a PV bus, and its setpoint (1.0 where none).  The objective
    reads the voltage band per bus, and per branch the resistance and the
    MVA rating (NaN where none).
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
    v_min: np.ndarray
    v_max: np.ndarray
    resistance: np.ndarray
    mva_limit: np.ndarray


def _compile(case: NetworkCase) -> _CompiledCase:
    bus_ids = sorted(case.bus_by_id)
    branch_ids = sorted(case.branch_by_id)
    pos = {bus: i for i, bus in enumerate(bus_ids)}
    buses = [case.bus_by_id[bus] for bus in bus_ids]
    branches = [case.branch_by_id[branch] for branch in branch_ids]
    singular = [b.r == 0.0 and b.x == 0.0 for b in branches]
    base = case.base_mva
    return _CompiledCase(
        bus_ids=np.array(bus_ids, dtype=np.int64),
        branch_ids=np.array(branch_ids, dtype=np.int64),
        ends=np.array(
            [(pos[b.from_bus], pos[b.to_bus]) for b in branches], dtype=np.intp
        ).reshape(-1, 2),
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
        v_min=np.array([b.v_min for b in buses], dtype=float),
        v_max=np.array([b.v_max for b in buses], dtype=float),
        resistance=np.array([b.r for b in branches], dtype=float),
        mva_limit=np.array([math.nan if b.mva_limit is None else b.mva_limit for b in branches]),
    )


_compiled = CaseMemo(2)


def _compiled_case(case: NetworkCase) -> _CompiledCase:
    """The case's compiled form, built on first use and memoised."""
    return _compiled.lookup(_compile, case)


def _positions(ids: np.ndarray, wanted) -> np.ndarray:
    """Ascending positions in the sorted `ids` of the ids in `wanted`."""
    return _find(ids, np.sort(np.fromiter(wanted, dtype=np.int64, count=len(wanted))))


def _closed_branches(compiled: _CompiledCase, branch_ids) -> np.ndarray:
    """Positions of the branches, in id order; a singular one is an error."""
    pos = _positions(compiled.branch_ids, branch_ids)
    bad = compiled.singular[pos]
    if bad.any():
        first = int(compiled.branch_ids[pos[bad.argmax()]])
        raise SingularBranchError(f"closed branch {first} has zero impedance")
    return pos


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
    buses = _positions(compiled.bus_ids, island.buses)
    n = buses.size
    local = np.empty(compiled.bus_ids.size, dtype=np.intp)
    local[buses] = np.arange(n)
    branches = _closed_branches(compiled, island.branches)
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


@dataclass(frozen=True, slots=True)
class JacobianPattern:
    """Where the Jacobian's terms land, for one Ybus pattern and one PV/PQ split.

    `columns` is the bus column of each stored Ybus entry in CSC order.
    `take` picks the kept terms out of [dS/dVa real, dS/dVm real, dS/dVa
    imag, dS/dVm imag], each listing the stored entries and then the
    diagonal terms; `slots` puts each kept term at its place in the data of
    `jacobian`, where the two terms of a diagonal entry sum in that order.
    `jacobian` is the matrix every fill with this pattern writes its values
    into and returns.

    `order` gives, for each row of `jacobian` (and each column), its
    variable in the mismatch's numbering [angles at PV+PQ; magnitudes at
    PQ].  With a bus order the rows run bus by bus in that order, each
    bus's angle before its magnitude; without one, `order` is the identity.
    """

    columns: np.ndarray
    take: np.ndarray
    slots: np.ndarray
    jacobian: sparse.csc_matrix
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
    buses: np.ndarray | None = None,
) -> JacobianPattern:
    """The structure of mismatch_jacobian for this Ybus pattern and PV/PQ split.

    `buses` orders the Jacobian's rows and columns bus by bus, as
    leaves_first does; without it they stay in the mismatch's numbering.
    The terms are keyed column * size + row, which _stable_order packs into
    an int64 up to about half a million buses in one island.
    """
    y = ybus.tocsc()
    n = y.shape[0]
    size = pvpq.size + pq.size
    # per bus position: the mismatch's index of its angle, then of its magnitude, -1: none
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
        var = np.where(var >= 0, rank[var], -1)  # now each one's Jacobian row/column
    positions = np.arange(n)
    columns = np.repeat(positions, np.diff(y.indptr))
    rows = np.concatenate([y.indices, positions])
    cols = np.concatenate([columns, positions])
    # the four blocks: angle and magnitude rows against angle and magnitude columns
    at_i = var[[0, 0, 1, 1]][:, rows].ravel()
    at_j = var[[0, 1, 0, 1]][:, cols].ravel()
    take = np.flatnonzero((at_i >= 0) & (at_j >= 0))
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
    pattern: JacobianPattern | None = None,
    ibus: np.ndarray | None = None,
) -> sparse.csc_matrix:
    """Jacobian of power_mismatch w.r.t. [angles at PV+PQ; magnitudes at PQ].

    Filled entry-wise on the stored pattern of Ybus, after MATPOWER's
    dSbus_dV: each stored y_rc gives dS_r/dVa_c = -j*v_r*conj(y_rc*v_c) and
    dS_r/dVm_c = v_r*conj(y_rc*v_c/|v_c|); the diagonal adds j*v*conj(I) and
    conj(I)*v/|v|.  Real parts land in the P rows, imaginary parts in the Q
    rows.  `pattern` is jacobian_pattern(ybus, pvpq, pq), built here when not
    given; a caller that fills many Jacobians for one Ybus pattern and PV/PQ
    split passes it in, so each call only computes the values.  The matrix
    returned is then the pattern's own, numbered as `pattern.order` says and
    overwritten by its next fill.  `ibus` is ybus @ v, computed here when
    not given; the Newton loop passes the product its mismatch used.
    """
    y = ybus.tocsc()
    if pattern is None:
        pattern = jacobian_pattern(y, pvpq, pq)
    if ibus is None:
        ibus = y @ v
    vnorm = v / np.abs(v)
    vr = v[y.indices]
    cols = pattern.columns
    ds_dva = np.concatenate([-1j * vr * np.conj(y.data * v[cols]), 1j * v * np.conj(ibus)])
    ds_dvm = np.concatenate([vr * np.conj(y.data * vnorm[cols]), np.conj(ibus) * vnorm])
    terms = np.concatenate([ds_dva.real, ds_dvm.real, ds_dva.imag, ds_dvm.imag])[pattern.take]
    jacobian = pattern.jacobian
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


def _newton_step(jacobian: sparse.csc_matrix, mismatch: np.ndarray, pattern: JacobianPattern) -> np.ndarray:
    """-J^-1 f for a fill with `pattern`, f and the step in the mismatch's numbering; NaN when J is singular."""
    try:
        factors = _factor(jacobian)
    except RuntimeError:  # SuperLU finds the factor exactly singular
        return np.full(mismatch.size, math.nan)
    step = np.empty_like(mismatch)
    step[pattern.order] = factors.solve(-mismatch[pattern.order])
    return step


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
    compiled = _compiled_case(case)
    buses = np.searchsorted(compiled.bus_ids, order)
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
    return reverted or clamped_any, ibus, scalc


def _finish(
    case: NetworkCase,
    island: Island,
    setup: _IslandSetup,
    converged: bool,
    iterations: int,
    max_mismatch: float,
    sending: dict[int, int] | None,
    scalc: np.ndarray | None = None,
) -> PowerFlowSolution:
    """The solution at `setup.v`; `scalc`, the injections there, is computed when not given."""
    base = case.base_mva
    ids = np.array(setup.order, dtype=np.int64)
    v = setup.v
    # np.hypot is the C hypot that Python abs calls on a complex, so each
    # magnitude has the scalar's bits (array np.abs rounds differently)
    v_mag = BusValues(ids, np.hypot(v.real, v.imag))
    v_angle = BusValues(ids, np.angle(v))
    flows, loss_mw = branch_flows(case, island.branches, BusValues(ids, v), sending)
    if scalc is None:
        scalc = v * np.conj(setup.ybus @ v)
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
    ybus = setup.ybus
    cap = options.max_iterations
    tol = options.tolerance
    converged = False
    iterations = 0
    max_mismatch = math.inf
    pvpq = np.delete(np.arange(len(setup.order)), setup.slack)  # PV/PQ switches keep this set
    buses = leaves_first(ybus)
    pq = pattern = None
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
            pattern = None
        f = _mismatch(scalc, setup.sbus, pvpq, pq)
        max_mismatch = float(np.abs(f).max()) if f.size else 0.0
        if max_mismatch <= tol:
            converged = True
            break
        if pattern is None:
            pattern = jacobian_pattern(ybus, pvpq, pq, buses)
        jac = mismatch_jacobian(ybus, setup.v, pvpq, pq, pattern, ibus)
        dx = _newton_step(jac, f, pattern)
        if not np.isfinite(dx).all():
            break  # singular Jacobian: keep best iterate, converged stays False
        va = np.angle(setup.v)
        vm = np.abs(setup.v)
        va[pvpq] += dx[: pvpq.size]
        vm[pq] += dx[pvpq.size :]
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
# a row of [from-end pair, to-end pair] (power: p, q; current: real, imag) with the ends swapped
_SWAP_ENDS = np.array([2, 3, 0, 1])


def branch_flows(
    case: NetworkCase,
    branch_ids: frozenset[int] | set[int],
    voltages: Mapping[int, complex],
    sending: dict[int, int] | None = None,
) -> tuple[BranchFlows, float]:
    """Per-branch power entering each end, in MW/MVAr, plus the summed loss.

    `sending` names the sending-end bus per branch id (defaults to from_bus,
    which is only meaningful on meshed snapshots).
    """
    compiled = _compiled_case(case)
    branches = _closed_branches(compiled, branch_ids)
    ids = compiled.branch_ids[branches]
    ends = compiled.bus_ids[compiled.ends[branches]]
    v = BusValues.of(voltages).take(ends.ravel()).astype(complex, copy=False)
    v = v.reshape(-1, 2).view(float)
    v = np.concatenate([v, -v], axis=1)
    prod = compiled.stamp[branches].view(float)[:, _CURRENT_Y] * v[:, _CURRENT_V]
    current = (prod[:, :, 0] + prod[:, :, 1]) + (prod[:, :, 2] + prod[:, :, 3])
    prod = v[:, _POWER_V] * current[:, _POWER_I]
    power = prod[:, 0::2] + prod[:, 1::2]
    loss_pu = sequential_sum(power[:, 0] + power[:, 2])  # in branch id order
    if sending:
        send = np.fromiter(map(sending.get, ids.tolist(), ends[:, 0].tolist()), np.int64, ids.size)
        reverse = send != ends[:, 0]
        if reverse.any():
            power[reverse] = power[reverse][:, _SWAP_ENDS]
            current[reverse] = current[reverse][:, _SWAP_ENDS]
            ends = np.stack([send, np.where(reverse, ends[:, 0], ends[:, 1])], axis=1)
    base = case.base_mva
    # the sending end's current; np.hypot has the bits of Python abs on a complex
    current_mag = np.hypot(current[:, 0], current[:, 1])
    return BranchFlows(ids, ends, power * base, current_mag), loss_pu * base


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
    parts = [solver(case, island, config, options, sending=sending) for island in index.islands]
    results = tuple(result for part in parts for result in part.islands)
    total_loss = 0.0
    for part in parts:
        total_loss += part.total_loss_mw
    return PowerFlowSolution(
        BusValues.concat([part.v_mag for part in parts]),
        BusValues.concat([part.v_angle for part in parts]),
        BranchFlows.concat([part.flows for part in parts]),
        total_loss,
        all(r.converged for r in results),
        max((r.iterations for r in results), default=0),
        max((r.max_mismatch for r in results), default=0.0),
        results,
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
    reached = _reachable(case.adjacency, slack, config.closed)
    if len(reached) != len(case.buses):
        stranded = sorted(set(case.bus_by_id) - reached)
        raise ValueError(f"buses {stranded} not connected to slack {slack}")
    island = Island(slack, frozenset(case.bus_by_id), frozenset(config.closed))
    return _SOLVERS[method](case, island, config, options)

"""Independent check of one reconfiguration's output.

It reads the report the pipeline wrote and the solution voltages, and checks
them against the case data with its own code: radiality by union-find, and
power balance through a dense pi-model admittance matrix built here.  No
`dnr` algorithm is called, so a defect in the program cannot hide itself.
"""
from __future__ import annotations

import json

import numpy as np

MISMATCH_PU = 1e-6
LOSS_REL = 1e-6


def radiality_problem(bus_ids: list[int], roots: list[int], edges: list[tuple[int, int]]) -> str | None:
    """None when the edges form a spanning forest with exactly one root per tree."""
    if len(edges) != len(bus_ids) - len(roots):
        return f"{len(edges)} closed branches for {len(bus_ids)} buses and {len(roots)} roots"
    parent = {bus: bus for bus in bus_ids}

    def find(bus: int) -> int:
        while parent[bus] != bus:
            parent[bus] = parent[parent[bus]]
            bus = parent[bus]
        return bus

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"closed branch {u}-{v} closes a loop"
        parent[ru] = rv
    trees = {find(root) for root in roots}
    if len(trees) != len(roots):
        return "two roots share a tree"
    stranded = [bus for bus in bus_ids if find(bus) not in trees]
    if stranded:
        return f"buses {stranded[:5]} reach no root"
    return None


def admittance(case, closed: set[int]) -> tuple[np.ndarray, list[int]]:
    """Dense nodal admittance over all buses: pi-model branches, tap on the from side."""
    order = sorted(bus.id for bus in case.buses)
    pos = {bus: i for i, bus in enumerate(order)}
    ybus = np.zeros((len(order), len(order)), dtype=complex)
    for branch in case.branches:
        if branch.id not in closed:
            continue
        series = 1.0 / complex(branch.r, branch.x)
        charging = 0.5j * branch.b_shunt
        tap = branch.tap_ratio or 1.0
        f, t = pos[branch.from_bus], pos[branch.to_bus]
        ybus[f, f] += (series + charging) / tap**2
        ybus[f, t] -= series / tap
        ybus[t, f] -= series / tap
        ybus[t, t] += series + charging
    for bus in case.buses:
        ybus[pos[bus.id], pos[bus.id]] += complex(bus.g_shunt, bus.b_shunt)
    return ybus, order


def branch_loss_mw(case, closed: set[int], voltage: dict[int, complex]) -> float:
    """Series and charging loss summed over closed branches, from both end injections."""
    total = 0.0
    for branch in case.branches:
        if branch.id not in closed:
            continue
        series = 1.0 / complex(branch.r, branch.x)
        charging = 0.5j * branch.b_shunt
        tap = branch.tap_ratio or 1.0
        vf, vt = voltage[branch.from_bus], voltage[branch.to_bus]
        i_from = (series + charging) / tap**2 * vf - series / tap * vt
        i_to = -series / tap * vf + (series + charging) * vt
        total += (vf * i_from.conjugate() + vt * i_to.conjugate()).real
    return total * case.base_mva


def verify(case, solution, report_text: str) -> list[str]:
    """Problems with a reconfiguration's report and solution; empty when all hold."""
    report = json.loads(report_text)
    problems = []
    closed = {int(b) for b, state in report["switch_states"].items() if state == "closed"}
    if set(map(int, report["switch_states"])) != {b.id for b in case.branches}:
        problems.append("report switch states do not cover the case's branches")
    ends = {b.id: (b.from_bus, b.to_bus) for b in case.branches}
    problem = radiality_problem(
        [bus.id for bus in case.buses], list(case.roots), [ends[b] for b in closed if b in ends]
    )
    if problem:
        problems.append(f"final configuration is not radial: {problem}")
        return problems
    if not report["power_flow"]["converged"]:
        problems.append("final power flow did not converge")
    if report["objective"] is None or not report["objective"]["feasible"]:
        problems.append("final configuration is not feasible")
    if sorted(set(ends) - closed) != report["open_switches"]:
        problems.append("open_switches disagrees with switch_states")

    voltage = {
        bus: solution.v_mag[bus] * complex(np.cos(solution.v_angle[bus]), np.sin(solution.v_angle[bus]))
        for bus in solution.v_mag
    }
    if set(voltage) != {bus.id for bus in case.buses}:
        problems.append("solution does not give a voltage at every bus")
        return problems
    ybus, order = admittance(case, closed)
    v = np.array([voltage[bus] for bus in order])
    injected = v * np.conj(ybus @ v)
    by_id = {bus.id: bus for bus in case.buses}
    scheduled = np.array([
        complex(by_id[b].p_gen - by_id[b].p_load, by_id[b].q_gen - by_id[b].q_load) / case.base_mva
        for b in order
    ])
    mismatch = injected - scheduled
    roots = set(case.roots)
    worst_p = max((abs(mismatch[i].real), b) for i, b in enumerate(order) if b not in roots)
    if worst_p[0] > MISMATCH_PU:
        problems.append(f"active mismatch {worst_p[0]:.3g} pu at bus {worst_p[1]}")
    load_rows = [(abs(mismatch[i].imag), b) for i, b in enumerate(order) if by_id[b].kind.value == "load"]
    worst_q = max(load_rows, default=(0.0, None))
    if worst_q[0] > MISMATCH_PU:
        problems.append(f"reactive mismatch {worst_q[0]:.3g} pu at load bus {worst_q[1]}")
    loss = branch_loss_mw(case, closed, voltage)
    reported = report["total_loss_mw"]
    if abs(loss - reported) > LOSS_REL * abs(loss):
        problems.append(f"total_loss_mw {reported!r} but the voltages give {loss!r}")
    return problems

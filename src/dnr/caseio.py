"""Case readers and writers.

Two input formats: the classic fixed-column interchange text format for
transmission test cases (bus and branch sections terminated by -999), and a
native JSON schema mirroring the model dataclasses.  Reports and search
traces serialize to deterministic JSON.
"""
from __future__ import annotations

import json
import math
from dataclasses import replace

from .exchange import SearchTrace
from .model import (
    Branch,
    Bus,
    BusKind,
    Configuration,
    NetworkCase,
    SwitchState,
    Violation,
    validate_case,
)
from .objective import ObjectiveReport
from .powerflow import PowerFlowSolution

# buses parsed from column data carry no explicit voltage band; use a wide
# distribution band that admits the usual 0.93..1.09 setpoint spread
CDF_V_MIN = 0.90
CDF_V_MAX = 1.10


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{message}{where}")
        self.line_no = line_no


class ValidationError(ValueError):
    def __init__(self, violations: list[Violation]):
        lines = "; ".join(v.message for v in violations)
        super().__init__(f"case failed validation: {lines}")
        self.violations = violations


def parse_case(
    text: str,
    fmt: str = "auto",
    roots: tuple[int, ...] | None = None,
    delta_t_hours: float | None = None,
    validate: bool = True,
) -> NetworkCase:
    """Read a case from text; `roots` overrides (and re-kinds) the feeder set."""
    if fmt == "auto":
        fmt = "json" if text.lstrip()[:1] in ("{", "[") else "cdf"
    if fmt == "json":
        case = _parse_native(text)
    elif fmt == "cdf":
        case = _parse_cdf(text)
    else:
        raise ParseError(f"unknown case format {fmt!r}")
    if roots:
        case = replace(case, roots=tuple(roots))
    if delta_t_hours is not None:
        case = replace(case, delta_t_hours=delta_t_hours)
    case = _promote_roots(case)
    if validate:
        violations = validate_case(case)
        if violations:
            raise ValidationError(violations)
    return case


def _promote_roots(case: NetworkCase) -> NetworkCase:
    """Roots act as feeders regardless of how the source data typed them."""
    buses = []
    for bus in case.buses:
        if bus.id in case.roots and bus.kind is not BusKind.FEEDER:
            setpoint = bus.v_setpoint if bus.v_setpoint is not None else 1.0
            bus = replace(bus, kind=BusKind.FEEDER, v_setpoint=setpoint)
        buses.append(bus)
    return replace(case, buses=tuple(buses))


# ---------------------------------------------------------------- fixed column


def _num(line: str, lo: int, hi: int, line_no: int, default: float = 0.0) -> float:
    """The finite number in columns lo+1..hi, `default` when they are blank."""
    raw = line[lo:hi]
    try:
        value = float(raw)  # float() ignores space padding itself
    except ValueError:
        # str.strip() also drops characters float() does not, such as \x1f
        raw = raw.strip()
        if not raw:
            return default
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"bad numeric field {raw.strip()!r} in columns {lo + 1}-{hi}", line_no)
    return value


def _int(line: str, lo: int, hi: int, line_no: int) -> int:
    """The whole number in columns lo+1..hi, 0 when they are blank."""
    value = _num(line, lo, hi, line_no)
    if not value.is_integer():
        raise ParseError(f"non-integer field {line[lo:hi].strip()!r} in columns {lo + 1}-{hi}", line_no)
    return int(value)


def _section(lines: list[str], header: str) -> tuple[list[tuple[int, str]], bool]:
    rows: list[tuple[int, str]] = []
    inside = False
    for no, line in enumerate(lines, start=1):
        upper = line.upper()
        if not inside and header in upper:
            inside = True
            continue
        if inside:
            if line.strip().startswith("-9") or upper.startswith("END OF DATA"):
                return rows, True
            if line.strip():
                rows.append((no, line))
    return rows, inside


def _parse_cdf(text: str) -> NetworkCase:
    lines = text.splitlines()
    if not text.strip():
        raise ParseError("empty case text", line_no=1)
    base_mva = _num(lines[0], 31, 37, 1, default=0.0)
    if base_mva <= 0.0:
        raise ParseError("title card carries no positive MVA base", 1)

    bus_rows, found = _section(lines, "BUS DATA FOLLOWS")
    if not found:
        raise ParseError("no bus data section")
    branch_rows, found = _section(lines, "BRANCH DATA FOLLOWS")
    if not found:
        raise ParseError("no branch data section")

    buses: list[Bus] = []
    slacks: list[int] = []
    for no, line in bus_rows:
        bus_id = _int(line, 0, 4, no)
        kind_code = _int(line, 24, 26, no)
        voltage = _num(line, 27, 33, no, default=1.0)
        p_load = _num(line, 40, 49, no)
        q_load = _num(line, 49, 59, no)
        p_gen = _num(line, 59, 67, no)
        q_gen = _num(line, 67, 75, no)
        q_max = _num(line, 90, 98, no)
        q_min = _num(line, 98, 106, no)
        g_shunt = _num(line, 106, 114, no)
        b_shunt = _num(line, 114, 122, no)
        if kind_code == 3:
            kind = BusKind.FEEDER
            slacks.append(bus_id)
        elif kind_code == 2:
            kind = BusKind.GENERATOR if p_gen != 0.0 else BusKind.SYNCHRONOUS_CONDENSER
        else:
            kind = BusKind.LOAD
        regulated = kind_code in (2, 3)
        buses.append(
            Bus(
                id=bus_id,
                kind=kind,
                p_load=p_load,
                q_load=q_load,
                p_gen=p_gen if kind_code != 3 else 0.0,
                q_gen=q_gen if kind_code != 3 else 0.0,
                v_setpoint=voltage if regulated else None,
                v_min=CDF_V_MIN,
                v_max=CDF_V_MAX,
                q_min=q_min if regulated else None,
                q_max=q_max if regulated else None,
                g_shunt=g_shunt,
                b_shunt=b_shunt,
            )
        )

    branches: list[Branch] = []
    for seq, (no, line) in enumerate(branch_rows, start=1):
        rating = _num(line, 50, 55, no)
        ratio = _num(line, 76, 82, no)
        branches.append(
            Branch(
                id=seq,
                from_bus=_int(line, 0, 4, no),
                to_bus=_int(line, 5, 9, no),
                r=_num(line, 19, 29, no),
                x=_num(line, 29, 40, no),
                b_shunt=_num(line, 40, 50, no),
                tap_ratio=ratio if ratio > 0.0 else 1.0,
                mva_limit=rating if rating > 0.0 else None,
            )
        )

    if not slacks:
        raise ParseError("no swing bus (type 3) in bus data")
    return NetworkCase(
        base_mva=base_mva,
        buses=tuple(buses),
        branches=tuple(branches),
        roots=tuple(slacks),
    )


# -------------------------------------------------------------------- native


_BUS_FIELDS = (
    "p_load", "q_load", "p_gen", "q_gen", "v_setpoint",
    "v_min", "v_max", "q_min", "q_max", "g_shunt", "b_shunt",
)
_BRANCH_NUMBERS = ("r", "x", "b_shunt", "tap_ratio", "mva_limit")
_BRANCH_FIELDS = (*_BRANCH_NUMBERS, "switchable")
_NULLABLE = frozenset({"v_setpoint", "q_min", "q_max", "mva_limit"})


def _numbers(entry: dict, fields: tuple[str, ...], kind: str) -> dict[str, float | None]:
    """The entry's numeric fields as finite floats; null stays None where the model allows it."""
    # one plain loop: this runs for every field of every bus and branch
    numbers: dict[str, float | None] = {}
    for name in fields:
        if name not in entry:
            continue
        value = entry[name]
        if value is None and name in _NULLABLE:
            numbers[name] = None
            continue
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if not math.isfinite(number):
            owner = f"{kind} {entry['id']}" if "id" in entry else kind
            raise ValueError(f"{owner} {name} {value!r} is not a finite number")
        numbers[name] = number
    return numbers


def _switchable(entry: dict) -> bool:
    value = entry.get("switchable", True)
    if not isinstance(value, bool):
        # a string such as "no" would otherwise read as true
        raise ValueError(f"branch {entry['id']} switchable {value!r} is not true or false")
    return value


def _parse_native(text: str) -> NetworkCase:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the second from nesting past the recursion limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        buses = tuple(
            Bus(
                id=int(entry["id"]),
                kind=BusKind(entry.get("kind", "load")),
                **_numbers(entry, _BUS_FIELDS, "bus"),
            )
            for entry in payload["buses"]
        )
        branches = tuple(
            Branch(
                id=int(entry["id"]),
                from_bus=int(entry["from_bus"]),
                to_bus=int(entry["to_bus"]),
                default_state=SwitchState(entry.get("default_state", "closed")),
                **_numbers(entry, _BRANCH_NUMBERS, "branch"),
                switchable=_switchable(entry),
            )
            for entry in payload["branches"]
        )
        settings = _numbers(payload, ("base_mva", "delta_t_hours"), "case")
        return NetworkCase(
            base_mva=settings["base_mva"],
            buses=buses,
            branches=branches,
            roots=tuple(int(r) for r in payload["roots"]),
            delta_t_hours=settings.get("delta_t_hours", 1.0),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed native case: {exc}") from exc


def write_native_case(case: NetworkCase) -> str:
    payload = {
        "base_mva": case.base_mva,
        "delta_t_hours": case.delta_t_hours,
        "roots": list(case.roots),
        "buses": [
            {
                "id": bus.id,
                "kind": bus.kind.value,
                **{f: getattr(bus, f) for f in _BUS_FIELDS},
            }
            for bus in case.buses
        ],
        "branches": [
            {
                "id": br.id,
                "from_bus": br.from_bus,
                "to_bus": br.to_bus,
                "default_state": br.default_state.value,
                **{f: getattr(br, f) for f in _BRANCH_FIELDS},
            }
            for br in case.branches
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -------------------------------------------------------------------- reports


def write_report(
    case: NetworkCase,
    config: Configuration,
    solution: PowerFlowSolution,
    objective: ObjectiveReport | None = None,
    trace: SearchTrace | None = None,
    timestamp: str | None = None,
) -> str:
    """Deterministic JSON run report; identical inputs give identical bytes."""
    report: dict = {
        "base_mva": case.base_mva,
        "delta_t_hours": case.delta_t_hours,
        "roots": list(case.roots),
        "switch_states": {
            str(bid): state.value for bid, state in config.states().items()
        },
        "open_switches": sorted(config.open_ids),
        "total_loss_mw": solution.total_loss_mw,
        "power_flow": {
            "converged": solution.converged,
            "iterations": solution.iterations,
            "max_mismatch": solution.max_mismatch,
        },
        "islands": [
            {
                "root": isl.root,
                "buses": list(isl.buses),
                "converged": isl.converged,
                "iterations": isl.iterations,
                "loss_mw": isl.loss_mw,
                "slack_p_mw": isl.slack_p_mw,
                "slack_q_mvar": isl.slack_q_mvar,
            }
            for isl in solution.islands
        ],
        "objective": None,
        "search": None,
    }
    if objective is not None:
        report["objective"] = {
            "fo_value_mwh": objective.fo_value,
            "feasible": objective.feasible,
            "constraints": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in objective.constraints
            ],
            "per_branch_terms": {str(bid): term for bid, term in objective.per_branch_terms},
        }
    if trace is not None:
        report["search"] = {
            "moves_attempted": len(trace.moves),
            "moves_accepted": len(trace.accepted_moves),
            "evaluations": trace.evaluations,
            "surrogate_hits": trace.surrogate_hits,
        }
    if timestamp is not None:
        report["meta"] = {"generated_at": timestamp}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def trace_to_json(trace: SearchTrace) -> str:
    payload = {
        "evaluations": trace.evaluations,
        "config_hits": trace.config_hits,
        "surrogate_hits": trace.surrogate_hits,
        "island_solves": trace.island_solves,
        "island_hits": trace.island_hits,
        "moves": [
            {
                "close_branch": m.close_branch,
                "open_branch": m.open_branch,
                "fo_before": m.fo_before,
                "fo_after": m.fo_after,
                "accepted": m.accepted,
                "rejected_reason": m.rejected_reason.value if m.rejected_reason else None,
            }
            for m in trace.moves
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

"""Command line front end: powerflow, reconfigure and validate subcommands."""
from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from .caseio import (
    ParseError,
    ValidationError,
    parse_case,
    trace_to_json,
    write_report,
)
from .exchange import InitialInfeasibleError, SearchOptions, improve
from .model import all_closed_config, default_config, is_radial, validate_case
from .objective import evaluate_fo
from .powerflow import SolverOptions, solve_all_islands, solve_network
from .topology import build_spanning_forest, weights_from_flow


def _add_case_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("case", help="path to a case file")
    parser.add_argument(
        "--format",
        choices=("auto", "cdf", "json"),
        default="auto",
        help="input format (default: by file extension, content sniff fallback)",
    )
    parser.add_argument(
        "--roots",
        type=_root_list,
        default=None,
        metavar="IDS",
        help="comma-separated feeder bus ids, overriding the file",
    )


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta-t", type=_finite_above(0.0), default=None, metavar="HOURS",
                        help="study interval length in hours, positive and finite (default 1.0)")
    parser.add_argument("--tolerance", type=_finite_above(0.0), default=1e-8,
                        help="power-flow mismatch tolerance in pu")
    parser.add_argument("--max-iter", type=_integer_from(1), default=30,
                        help="Newton iteration cap (default 30)")


def _finite_above(low: float):
    """An argparse type for finite numbers above `low`."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > low):
            raise argparse.ArgumentTypeError(f"expected a finite number > {low:g}, got {text!r}")
        return value
    return parse


def _integer_from(low: int):
    """An argparse type for integers no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """Usage errors print one `error:` line, like every other exit-2 failure."""

    def error(self, message: str):
        self.exit(2, f"error: {message}; see '{self.prog} --help'\n")


def _root_list(text: str) -> tuple[int, ...]:
    try:
        roots = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad root list {text!r}")
    if not roots:
        raise argparse.ArgumentTypeError(f"empty root list {text!r}")
    return roots


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dnr",
        description="Radial distribution network reconfiguration for loss reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("powerflow", help="solve the case as stored and print losses")
    _add_case_arguments(p_flow)
    _add_solver_arguments(p_flow)

    p_rec = sub.add_parser("reconfigure", help="search switch settings that cut losses")
    _add_case_arguments(p_rec)
    _add_solver_arguments(p_rec)
    p_rec.add_argument("--no-surrogate", action="store_true",
                       help="disable the linear ranking model")
    p_rec.add_argument("--max-passes", type=_integer_from(0), default=20,
                       help="cap on improvement passes")
    p_rec.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")
    p_rec.add_argument("--trace", type=Path, default=None, help="write the move-by-move trace here")
    p_rec.add_argument("--stable", action="store_true",
                       help="omit timestamps so identical runs emit identical bytes")

    p_val = sub.add_parser("validate", help="check case structure and report violations")
    _add_case_arguments(p_val)
    return parser


def _load_case(args: argparse.Namespace, validate: bool = True):
    path = Path(args.case)
    fmt = args.format
    if fmt == "auto":
        suffix = path.suffix.lower()
        if suffix == ".json":
            fmt = "json"
        elif suffix in (".cdf", ".txt"):
            fmt = "cdf"
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"case file {path} is not text: {exc.reason}") from None
    except OSError as exc:
        raise ParseError(f"cannot read case file {path}: {exc.strerror}") from None
    return parse_case(
        text,
        fmt=fmt,
        roots=args.roots,
        delta_t_hours=getattr(args, "delta_t", None),
        validate=validate,
    )


def _cmd_powerflow(args: argparse.Namespace) -> int:
    case = _load_case(args)
    options = SolverOptions(tolerance=args.tolerance, max_iterations=args.max_iter)
    config = default_config(case)
    if is_radial(case, config):
        solution = solve_all_islands(case, config, options)
    else:
        solution = solve_network(case, config, options=options)
    for island in solution.islands:
        status = "converged" if island.converged else "DID NOT CONVERGE"
        print(
            f"island {island.root}: {len(island.buses)} buses, {status} "
            f"in {island.iterations} iterations, loss {island.loss_mw:.4f} MW"
        )
    print("bus voltages (pu, deg):")
    for bus_id in sorted(solution.v_mag):
        print(
            f"  {bus_id:4d}  {solution.v_mag[bus_id]:.4f}  "
            f"{math.degrees(solution.v_angle[bus_id]):8.3f}"
        )
    print("branch losses (MW):")
    for branch_id in sorted(solution.flows):
        flow = solution.flows[branch_id]
        # a lossless branch sums to about -1e-14 MW; rounding first and
        # adding 0.0 turns that -0.0 into 0.0, so it does not print as -0.000000
        loss = round(flow.p_send + flow.p_recv, 6) + 0.0
        print(f"  {branch_id:4d}  {loss:10.6f}")
    print(f"total loss: {solution.total_loss_mw:.4f} MW")
    return 0 if solution.converged else 1


def _cmd_reconfigure(args: argparse.Namespace) -> int:
    case = _load_case(args)
    solver_options = SolverOptions(tolerance=args.tolerance, max_iterations=args.max_iter)
    search_options = SearchOptions(
        max_passes=args.max_passes,
        use_surrogate=not args.no_surrogate,
        solver_options=solver_options,
    )

    meshed = solve_network(case, all_closed_config(case), options=solver_options)
    if not meshed.converged:
        print("all-closed power flow did not converge", file=sys.stderr)
        return 1
    forest = build_spanning_forest(case, weights_from_flow(case, meshed))

    config, trace = improve(case, forest.config, search_options)

    solution = solve_all_islands(case, config, solver_options)
    objective = evaluate_fo(case, config, solution)
    timestamp = None if args.stable else datetime.now(timezone.utc).isoformat()
    report = write_report(case, config, solution, objective, trace, timestamp)
    if args.out is not None:
        args.out.write_text(report)
    else:
        print(report, end="")
    if args.trace is not None:
        args.trace.write_text(trace_to_json(trace))
    return 0 if objective.feasible and solution.converged else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    case = _load_case(args, validate=False)
    violations = validate_case(case)
    if not violations:
        print(f"ok: {len(case.buses)} buses, {len(case.branches)} branches, roots {list(case.roots)}")
        return 0
    for violation in violations:
        print(f"{violation.code}: {violation.message}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "powerflow": _cmd_powerflow,
        "reconfigure": _cmd_reconfigure,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"{violation.code}: {violation.message}", file=sys.stderr)
        return 1
    except InitialInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

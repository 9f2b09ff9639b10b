"""Benchmark of `dnr reconfigure`: end-to-end time, answer quality and per-layer cost.

    python3 bench/run.py --workload ieee14 --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: one reconfiguration at a
time, each started when the last has been checked, with BLAS pinned to one
thread.  A reconfiguration is the pipeline `dnr.cli._cmd_reconfigure` runs
with its default options and `--stable`: parse, all-closed power flow,
flow-weighted spanning forest, branch-exchange search, final per-island
solve, objective and report.

Every repetition is checked by `check.verify`, and its report bytes must
equal the first repetition's.  Before the repetitions, `dnr.cli.main` runs
once on the same case file and must write the same bytes, which also warms
the process up.

Times are CPU seconds of the process's one thread, median over the run's
repetitions, so this is the work's own time without the spells the process
waits for a processor.  Each timed step is scaled to a reference
processor speed, sampled while it runs (`speed.Probe`), so that other
tenants of a shared host do not show as a change of the program.  The
unscaled CPU and wall-clock medians are printed beside them.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run (see
`layer_metrics`), and the span tree of its last traced repetition is
written to `.bench-out/` in the checkout.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import feeders  # noqa: E402
import speed  # noqa: E402
from dnr import caseio, cli, exchange, model, objective, powerflow, surrogate, topology  # noqa: E402
from spans import Site, Tracer  # noqa: E402

IEEE14 = ROOT / "tests" / "data" / "ieee14.cdf"
MIN_REPS = 3
SETUP_SHARE = 0.1  # of each reconfiguration's time, spent on extra parses for setup_s
SOLVER = powerflow.SolverOptions()
SEARCH = exchange.SearchOptions(solver_options=SOLVER)  # the CLI's defaults


# name -> (roots, buses, ties) of a seeded feeder, or None for IEEE-14 from
# the repository fed from buses 1 and 2; BENCHMARK.json says why each is here
WORKLOADS: dict[str, tuple[int, int, int] | None] = {
    "ieee14": None,
    "feeder-3x200": (3, 200, 12),
    "feeder-1x1000": (1, 1000, 12),
}


@dataclass(frozen=True)
class CaseInput:
    text: str
    fmt: str
    roots: tuple[int, ...] | None
    cli_flags: tuple[str, ...]
    summary: str

    def parse(self) -> model.NetworkCase:
        return caseio.parse_case(self.text, fmt=self.fmt, roots=self.roots, validate=True)


def make_input(name: str, seed: int) -> CaseInput:
    """The workload's case; the same seed gives the same text."""
    spec = WORKLOADS[name]
    if spec is None:
        text = IEEE14.read_text()
        return CaseInput(text, "cdf", (1, 2), ("--roots", "1,2"), "IEEE-14, roots 1 and 2 (seed unused)")
    text, info = feeders.generate(seed, *spec)
    summary = (
        f"{info.buses} buses, {info.lines} lines, {info.ties} ties "
        f"({info.inter_feeder_ties} inter-feeder), base case min voltage "
        f"{info.base_min_v:.4f} pu, loss {info.base_loss_mw:.4f} MW, {len(text)} bytes of JSON"
    )
    return CaseInput(text, "json", None, (), summary)


@dataclass(frozen=True)
class Outcome:
    report: str
    solution: powerflow.PowerFlowSolution
    start: model.Configuration  # where the search began
    trace: exchange.SearchTrace


def reconfigure(case: model.NetworkCase) -> Outcome:
    """Validated case to `--stable` report, as `dnr.cli._cmd_reconfigure` does it.

    Every call goes through its module attribute, where a Tracer can wrap it.
    """
    meshed = powerflow.solve_network(case, model.all_closed_config(case), options=SOLVER, method="nr")
    if not meshed.converged:
        raise RuntimeError("all-closed power flow did not converge")
    forest = topology.build_spanning_forest(case, topology.weights_from_flow(case, meshed))
    config, trace = exchange.improve(case, forest.config, SEARCH, None)
    solution = powerflow.solve_all_islands(case, config, SOLVER, "nr")
    result = objective.evaluate_fo(case, config, solution)
    report = caseio.write_report(case, config, solution, result, trace, None)
    return Outcome(report, solution, forest.config, trace)


def cli_report(case_input: CaseInput) -> str:
    """Report bytes `dnr reconfigure --stable` writes for the same case file."""
    suffix = ".json" if case_input.fmt == "json" else ".cdf"
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        case_path = Path(tmp) / f"case{suffix}"
        out_path = Path(tmp) / "report.json"
        case_path.write_text(case_input.text)
        argv = ["reconfigure", str(case_path), *case_input.cli_flags, "--stable", "--out", str(out_path)]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"dnr reconfigure exited with {code}")
        return out_path.read_text()


# ------------------------------------------------------------------ tracing


def _island_facts(args: tuple, kwargs: dict, result: powerflow.PowerFlowSolution) -> dict:
    island, = result.islands
    return {
        "key": (args[1].root, args[1].branches),
        "converged": island.converged,
        "iterations": island.iterations,
    }


def _candidate_facts(args: tuple, kwargs: dict, result) -> dict:
    return {"closed": args[1].closed}


def sites() -> list[Site]:
    """Every place the pipeline looks up a public function of a layer."""
    named = [
        (caseio, "parse_case", "caseio.parse"),
        (caseio, "write_report", "caseio.report"),
        (model, "is_radial", "model.is_radial"),
        (exchange, "is_radial", "model.is_radial"),
        (objective, "is_radial", "model.is_radial"),
        (model, "islands", "model.islands"),
        (topology, "islands", "model.islands"),
        (topology, "forest_index", "topology.forest_index"),
        (powerflow, "forest_index", "topology.forest_index"),
        (surrogate, "forest_index", "topology.forest_index"),
        (topology, "fundamental_loop", "topology.fundamental_loop"),
        (exchange, "fundamental_loop", "topology.fundamental_loop"),
        (topology, "build_spanning_forest", "topology.spanning_forest"),
        (powerflow, "solve_network", "powerflow.meshed_solve"),
        (powerflow, "solve_all_islands", "powerflow.solve_all_islands"),
        (exchange, "solve_all_islands", "powerflow.solve_all_islands"),
        (powerflow, "build_admittance", "powerflow.admittance"),
        (powerflow, "mismatch_jacobian", "powerflow.jacobian"),
        (powerflow, "branch_flows", "powerflow.branch_flows"),
        (objective, "evaluate_fo", "objective.evaluate_fo"),
        (exchange, "evaluate_fo", "objective.evaluate_fo"),
        (exchange, "improve", "exchange.search"),
        (surrogate, "featurize", "surrogate.featurize"),
        (exchange, "featurize", "surrogate.featurize"),
        (exchange, "fit", "surrogate.fit"),
        (exchange, "rank_candidates", "surrogate.rank"),
    ]
    return [Site(module, attr, span) for module, attr, span in named] + [
        Site(powerflow._SOLVERS, "nr", "powerflow.island_solve", _island_facts),
        Site(exchange, "evaluate_candidate", "exchange.evaluate", _candidate_facts),
    ]


# name -> unit of every per-layer metric, in BENCHMARK.json order
LAYER_UNITS = {
    "caseio.parse_s": "s",
    "caseio.report_s": "s",
    "model.is_radial.calls": "count",
    "model.is_radial_s": "s",
    "model.islands_s": "s",
    "topology.forest_index.calls": "count",
    "topology.forest_index_s": "s",
    "topology.fundamental_loop_s": "s",
    "topology.spanning_forest_s": "s",
    "powerflow.jacobian.calls": "count",
    "powerflow.jacobian_s": "s",
    "powerflow.admittance_s": "s",
    "powerflow.branch_flows_s": "s",
    "powerflow.island_solve_s": "s",
    "powerflow.island_solve_ms": "ms",
    "powerflow.meshed_solve_s": "s",
    "powerflow.island_solves": "count",
    "powerflow.distinct_islands": "count",
    "powerflow.island_repeat_frac": "ratio",
    "powerflow.newton_iters.converged": "count",
    "powerflow.newton_iters.diverged": "count",
    "powerflow.diverged_solves": "count",
    "objective.evaluate_fo_s": "s",
    "exchange.search_s": "s",
    "exchange.evaluate_s": "s",
    "exchange.evaluations": "count",
    "exchange.candidates": "count",
    "exchange.accepted": "count",
    "exchange.rejected.worse_objective": "count",
    "exchange.rejected.infeasible": "count",
    "exchange.rejected.power_flow_diverged": "count",
    "exchange.distinct_configs": "count",
    "exchange.config_repeat_frac": "ratio",
    "surrogate.featurize.calls": "count",
    "surrogate.featurize_s": "s",
    "surrogate.fit_s": "s",
    "surrogate.rank_s": "s",
    "surrogate.hits": "count",
    "surrogate.evals_saved": "count",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer: Tracer, trace: exchange.SearchTrace) -> dict[str, float]:
    """Per-layer figures of one traced reconfiguration (parse included).

    `_s` figures are the summed wall time of every call of that layer in the
    reconfiguration, children included, except `island_solve_s` and
    `evaluate_s`, which are self times.  Solve, iteration and candidate
    counts cover the search (`improve`) alone, like the baseline they are
    reconciled with; call counts cover the whole reconfiguration.
    """
    spans = tracer.spans
    own = tracer.self_times()
    in_search = tracer.within("exchange.search")
    total: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    self_time: Counter[str] = Counter()
    for span, mine in zip(spans, own):
        total[span.name] += span.duration
        calls[span.name] += 1
        self_time[span.name] += mine
    solves = [s for s, inside in zip(spans, in_search) if inside and s.name == "powerflow.island_solve"]
    candidates = [s for s in spans if s.name == "exchange.evaluate"]
    distinct_islands = len({s.info["key"] for s in solves})
    distinct_configs = len({s.info["closed"] for s in candidates})
    rejected = Counter(m.rejected_reason for m in trace.moves if m.rejected_reason is not None)
    return {
        "caseio.parse_s": total["caseio.parse"],
        "caseio.report_s": total["caseio.report"],
        "model.is_radial.calls": calls["model.is_radial"],
        "model.is_radial_s": total["model.is_radial"],
        "model.islands_s": total["model.islands"],
        "topology.forest_index.calls": calls["topology.forest_index"],
        "topology.forest_index_s": total["topology.forest_index"],
        "topology.fundamental_loop_s": total["topology.fundamental_loop"],
        "topology.spanning_forest_s": total["topology.spanning_forest"],
        "powerflow.jacobian.calls": calls["powerflow.jacobian"],
        "powerflow.jacobian_s": total["powerflow.jacobian"],
        "powerflow.admittance_s": total["powerflow.admittance"],
        "powerflow.branch_flows_s": total["powerflow.branch_flows"],
        "powerflow.island_solve_s": self_time["powerflow.island_solve"],
        "powerflow.island_solve_ms": 1e3 * statistics.median(s.duration for s in solves),
        "powerflow.meshed_solve_s": total["powerflow.meshed_solve"],
        "powerflow.island_solves": len(solves),
        "powerflow.distinct_islands": distinct_islands,
        "powerflow.island_repeat_frac": 1.0 - distinct_islands / len(solves),
        "powerflow.newton_iters.converged": sum(s.info["iterations"] for s in solves if s.info["converged"]),
        "powerflow.newton_iters.diverged": sum(s.info["iterations"] for s in solves if not s.info["converged"]),
        "powerflow.diverged_solves": sum(not s.info["converged"] for s in solves),
        "objective.evaluate_fo_s": total["objective.evaluate_fo"],
        "exchange.search_s": total["exchange.search"],
        "exchange.evaluate_s": self_time["exchange.evaluate"],
        "exchange.evaluations": trace.evaluations,
        "exchange.candidates": len(candidates),
        "exchange.accepted": len(trace.accepted_moves),
        "exchange.rejected.worse_objective": rejected[exchange.RejectReason.WORSE_OBJECTIVE],
        "exchange.rejected.infeasible": rejected[exchange.RejectReason.INFEASIBLE],
        "exchange.rejected.power_flow_diverged": rejected[exchange.RejectReason.POWER_FLOW_DIVERGED],
        "exchange.distinct_configs": distinct_configs,
        "exchange.config_repeat_frac": 1.0 - distinct_configs / len(candidates),
        "surrogate.featurize.calls": calls["surrogate.featurize"],
        "surrogate.featurize_s": total["surrogate.featurize"],
        "surrogate.fit_s": total["surrogate.fit"],
        "surrogate.rank_s": total["surrogate.rank"],
        "surrogate.hits": trace.surrogate_hits,
    }


def evals_saved(case: model.NetworkCase, outcome: Outcome) -> int:
    """Evaluations the surrogate saves: the same search from the same start without it."""
    _, plain = exchange.improve(case, outcome.start, replace(SEARCH, use_surrogate=False), None)
    return plain.evaluations - outcome.trace.evaluations


# -------------------------------------------------------------- measurement


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


@dataclass(frozen=True)
class Rep:
    """One checked repetition: CPU seconds, the same spans by the clock, and the speed scale."""

    setup_cpu_s: float  # parse
    reconfigure_cpu_s: float  # the rest of the pipeline
    setup_wall_s: float
    reconfigure_wall_s: float
    scale: float  # speed.Probe.scale while it ran
    case: model.NetworkCase
    outcome: Outcome

    @property
    def setup_s(self) -> float:
        return self.setup_cpu_s * self.scale

    @property
    def reconfigure_s(self) -> float:
        return self.reconfigure_cpu_s * self.scale


def one_rep(case_input: CaseInput, reference: str | None, tally: Tally, tracer: Tracer | None = None) -> Rep | None:
    """Parse and reconfigure once and check the output; None when that failed."""
    tally.attempted += 1
    probe = speed.Probe(periodic=tracer is None)
    try:
        with probe, tracer.installed(sites()) if tracer else contextlib.nullcontext():
            c0, w0 = probe.clock(), time.perf_counter()
            case = case_input.parse()
            c1, w1 = probe.clock(), time.perf_counter()
            outcome = reconfigure(case)
            c2, w2 = probe.clock(), time.perf_counter()
        problems = check.verify(case, outcome.solution, outcome.report)
        if reference is not None and outcome.report != reference:
            problems.append("report bytes differ from the first repetition's")
    except Exception as exc:  # a failed repetition is counted, not fatal
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        tally.failed += 1
        print(f"repetition {tally.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        return None
    return Rep(c1 - c0, c2 - c1, w1 - w0, w2 - w1, probe.scale(), case, outcome)


def percentile_note(samples: list[float]) -> str:
    """Highest whole percentile with at least ten samples beyond it, when there is one."""
    n = len(samples)
    p = int(100 * (1 - 10 / n)) if n > 10 else 0
    if p < 50:
        return ""
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f", p{p} {value:.6g}"


def timed_note(name: str, scaled: list[float], cpu: list[float], wall: list[float]) -> str:
    return (
        f"{name}: median {statistics.median(scaled):.6g} s CPU at reference speed over {len(scaled)} samples"
        f"{percentile_note(scaled)} (unscaled CPU median {statistics.median(cpu):.6g} s,"
        f" wall median {statistics.median(wall):.6g} s)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()  # --seconds covers every step from here on
    case_input = make_input(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {case_input.summary}")
    try:
        cli_bytes = cli_report(case_input)  # also warms the process up
    except Exception as exc:
        print(f"dnr reconfigure failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        cli_bytes = None
    tally = Tally()
    first_start = time.perf_counter()
    first = one_rep(case_input, None, tally)
    first_s = time.perf_counter() - first_start
    reference = first.outcome.report if first else cli_bytes
    cli_same = first is not None and cli_bytes == reference
    print(f"cli equivalence: {'same bytes' if cli_same else 'FAILED'}")
    if first:
        moves = first.outcome.trace.moves
        print(
            f"search: {first.outcome.trace.evaluations} evaluations, "
            f"{sum(m.accepted for m in moves)} moves accepted, "
            f"{sum(m.rejected_reason is exchange.RejectReason.POWER_FLOW_DIVERGED for m in moves)} diverged"
        )

    plain: list[Rep] = [first] if first else []
    setup_scaled: list[float] = [first.setup_s] if first else []
    setup_cpu: list[float] = [first.setup_cpu_s] if first else []
    setup_wall: list[float] = [first.setup_wall_s] if first else []
    traced: list[Rep] = []
    layers: list[dict[str, float]] = []
    last_tracer: Tracer | None = None
    rounds: list[float] = []  # wall seconds of each round below
    while True:
        rep_s = statistics.median(r.reconfigure_wall_s for r in plain) if plain else 0.0
        # a round is extra parses, a plain repetition and, traced, a traced one;
        # a traced run ends with one more search, for surrogate.evals_saved
        round_s = max(rounds) if rounds else first_s * (1 + SETUP_SHARE + args.trace)
        closing_s = first_s * args.trace
        enough = bool(traced) if args.trace else len(plain) >= MIN_REPS
        if time.perf_counter() - start + round_s + closing_s > args.seconds and (enough or tally.failed):
            break
        round_start = time.perf_counter()
        # setup samples spread over the run, like the reconfigurations
        batch_cpu: list[float] = []
        until = time.perf_counter() + SETUP_SHARE * rep_s
        with speed.Probe() as probe:
            while time.perf_counter() < until:
                c0, w0 = probe.clock(), time.perf_counter()
                case_input.parse()
                batch_cpu.append(probe.clock() - c0)
                setup_wall.append(time.perf_counter() - w0)
        setup_scaled.extend(c * probe.scale() for c in batch_cpu)
        setup_cpu.extend(batch_cpu)
        done = one_rep(case_input, reference, tally)
        if done:
            plain.append(done)
            setup_scaled.append(done.setup_s)
            setup_cpu.append(done.setup_cpu_s)
            setup_wall.append(done.setup_wall_s)
        if args.trace:
            tracer = Tracer()
            done = one_rep(case_input, reference, tally, tracer)
            if done:
                traced.append(done)
                layers.append(layer_metrics(tracer, done.outcome.trace))
                last_tracer = tracer
        rounds.append(time.perf_counter() - round_start)

    correct = cli_same and tally.failed == 0
    if args.trace:
        metrics: dict[str, float] = {}
        if traced and plain:
            metrics = {name: statistics.median(rep[name] for rep in layers) for name in layers[0]}
            metrics["surrogate.evals_saved"] = evals_saved(traced[-1].case, traced[-1].outcome)
            metrics["trace.overhead_frac"] = (
                statistics.median(r.reconfigure_s for r in traced) / statistics.median(r.reconfigure_s for r in plain) - 1.0
            )
            out_dir = ROOT / ".bench-out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(last_tracer.to_json()) + "\n")
            print(f"spans of the last traced repetition: {spans_path.relative_to(ROOT)}")
        for name, unit in LAYER_UNITS.items():
            if name in metrics:
                print(f"{name}: {metrics[name]:.6g} {unit}")
        payload = {name: {"value": metrics[name], "unit": unit} for name, unit in LAYER_UNITS.items() if name in metrics}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        payload = {}
        if plain:
            reconfigure_scaled = [r.reconfigure_s for r in plain]
            print(timed_note("setup_s", setup_scaled, setup_cpu, setup_wall))
            print(timed_note(
                "reconfigure_s",
                reconfigure_scaled,
                [r.reconfigure_cpu_s for r in plain],
                [r.reconfigure_wall_s for r in plain],
            ))
            fo = json.loads(reference)["objective"]["fo_value_mwh"]
            print(f"fo_mwh: {fo:.9g} MWh")
            payload = {
                "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
                "reconfigure_s": {"value": statistics.median(reconfigure_scaled), "unit": "s"},
                "fo_mwh": {"value": fo, "unit": "MWh"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
        print(f"failed_frac: {tally.failed / tally.attempted:.6g} ratio ({tally.failed} of {tally.attempted})")
        print(f"peak_rss_mb: {rss_mb:.6g} MB")
    print(f"run time: {time.perf_counter() - start:.3g} s wall for --seconds {args.seconds:g}")
    print(json.dumps({
        "correct": correct and bool(payload),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": payload,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

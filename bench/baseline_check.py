"""Checks of the benchmark itself: baseline counts, output check, speed probe, feeder regime.

    python3 -m pytest bench/baseline_check.py

The file name keeps it out of the repository's default test run on purpose:
the counts below are the program's work as measured at the re-anchor, and a
change that cuts work (an island cache, an early divergence exit) is meant
to move them.  Such a change updates this baseline with its own numbers.
"""
from __future__ import annotations

import json
import signal
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import feeders  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from dnr import powerflow  # noqa: E402
from spans import Tracer  # noqa: E402

IEEE14_BASELINE = {
    "exchange.evaluations": 52,
    "exchange.rejected.power_flow_diverged": 18,
    "powerflow.newton_iters.converged": 415,
    "powerflow.newton_iters.diverged": 540,
    "powerflow.island_solves": 104,
    "powerflow.distinct_islands": 41,
    "surrogate.evals_saved": 0,
}


@pytest.fixture(scope="module")
def ieee14():
    case_input = run.make_input("ieee14", seed=0)
    tracer = Tracer()
    with tracer.installed(run.sites()):
        case = case_input.parse()
        outcome = run.reconfigure(case)
    return case, outcome, tracer


def test_traced_counts_match_the_baseline(ieee14):
    case, outcome, tracer = ieee14
    metrics = run.layer_metrics(tracer, outcome.trace)
    metrics["surrogate.evals_saved"] = run.evals_saved(case, outcome)
    assert {name: metrics[name] for name in IEEE14_BASELINE} == IEEE14_BASELINE
    newton = metrics["powerflow.newton_iters.converged"] + metrics["powerflow.newton_iters.diverged"]
    assert newton == 955


def test_tracing_puts_every_function_back(ieee14):
    assert powerflow._SOLVERS["nr"] is powerflow.solve_newton_raphson
    assert powerflow.mismatch_jacobian.__module__ == "dnr.powerflow"
    assert not hasattr(powerflow.mismatch_jacobian, "__wrapped__")


def test_self_times_add_up_to_the_outer_span(ieee14):
    _, _, tracer = ieee14
    own = tracer.self_times()
    tops = [s for s in tracer.spans if s.parent is None]
    assert sum(own) == pytest.approx(sum(s.duration for s in tops), rel=1e-9)
    assert min(own) > -1e-6


def test_the_real_answer_passes_the_output_check(ieee14):
    case, outcome, _ = ieee14
    assert check.verify(case, outcome.solution, outcome.report) == []


def test_a_planted_wrong_voltage_fails_the_output_check(ieee14):
    case, outcome, _ = ieee14
    v_mag = dict(outcome.solution.v_mag)
    v_mag[9] += 1e-4  # a load bus
    planted = replace(outcome.solution, v_mag=v_mag)
    problems = check.verify(case, planted, outcome.report)
    assert any("mismatch" in p for p in problems), problems


def test_a_planted_loop_fails_the_output_check(ieee14):
    case, outcome, _ = ieee14
    report = json.loads(outcome.report)
    report["switch_states"][str(report["open_switches"][0])] = "closed"
    problems = check.verify(case, outcome.solution, json.dumps(report))
    assert any("not radial" in p for p in problems), problems


def test_a_planted_loss_figure_fails_the_output_check(ieee14):
    case, outcome, _ = ieee14
    report = json.loads(outcome.report)
    report["total_loss_mw"] *= 1.0 + 1e-5
    problems = check.verify(case, outcome.solution, json.dumps(report))
    assert any("total_loss_mw" in p for p in problems), problems


def test_the_probe_samples_through_a_step_and_puts_the_signal_back():
    before = signal.getsignal(signal.SIGPROF)
    with speed.Probe() as probe:
        start = probe.clock()
        while probe.clock() - start < 1.0:
            pass
    assert len(probe.samples) >= 2 + 3  # entry, exit, and one every INTERVAL_S of CPU time
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_the_generator_repeats_itself():
    assert feeders.generate(7, 3, 200, 12) == feeders.generate(7, 3, 200, 12)
    assert feeders.generate(7, 3, 200, 12)[0] != feeders.generate(8, 3, 200, 12)[0]


@pytest.mark.parametrize("seed", [56709708, 2014587796])
def test_the_ties_join_every_feeder(seed):
    """Seeds on which the first pick of inter-feeder ties left a feeder on its own."""
    run.make_input("feeder-3x200", seed).parse()  # validation refuses a split network


@pytest.mark.parametrize("workload", ["feeder-3x200", "feeder-1x1000"])
def test_another_seed_keeps_the_feeder_regime(workload):
    """Same order of search work, no divergence, base case in band, on two seeds."""
    roots, buses, ties = run.WORKLOADS[workload]
    evaluations = []
    for seed in (11, 12):
        _, info = feeders.generate(seed, roots, buses, ties)
        assert (info.buses, info.ties) == (buses, ties)
        assert 0.9 < info.base_min_v < 1.0
        case = run.make_input(workload, seed).parse()
        outcome = run.reconfigure(case)
        assert check.verify(case, outcome.solution, outcome.report) == []
        rejected = [m.rejected_reason for m in outcome.trace.moves if m.rejected_reason]
        assert run.exchange.RejectReason.POWER_FLOW_DIVERGED not in rejected
        evaluations.append(outcome.trace.evaluations)
    assert max(evaluations) < 1.5 * min(evaluations), evaluations

"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest perfbench
"""

import json
import signal

import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def pkg():
    return workloads.import_package(run.ROOT)


@pytest.fixture(scope="module")
def oracles():
    return workloads.load_oracles(run.ROOT)


def tiny(pkg, name, seed):
    if name == "closed_loop":
        return workloads.ClosedLoop(pkg, seed, run.ROOT, episodes=workloads.EPISODES[-1:])
    if name == "belief_stream":
        return workloads.BeliefStream(pkg, seed, run.ROOT, checkpoint=2)
    return workloads.DecideFresh(pkg, seed, run.ROOT, prefetch=20)


def bindings():
    """Every attribute of every loaded module of the package."""
    return {(module.__name__, attr): value
            for module in tracer.package_modules() for attr, value in vars(module).items()}


@pytest.mark.parametrize("name, seed", [
    ("closed_loop", workloads.REFERENCE_SEED),
    ("decide_fresh", workloads.REFERENCE_SEED),
    ("decide_fresh", 7),
    ("belief_stream", workloads.REFERENCE_SEED),
    ("belief_stream", 7),
])
def test_each_workload_runs_at_tiny_size_and_passes_its_checks(pkg, oracles, name, seed):
    bench = tiny(pkg, name, seed)
    result = bench.run(0.05)
    bench.check(result, oracles)
    assert result.items >= 1 and result.ops >= 1 and result.busy_s > 0
    assert not result.failed, result.notes
    if name == "closed_loop":
        assert result.notes == [f"digest_match {workloads.EPISODES[-1].id}: true"]


def test_printed_metric_names_equal_benchmark_json(pkg):
    bench = tiny(pkg, "decide_fresh", 1)
    untraced = bench.run(0.05)
    spy = tracer.Tracer()
    with spy.installed():
        traced = bench.prepared(untraced.items).run(0.05, tracer=spy, limit=untraced.items)
    end_to_end = run.end_to_end_metrics(untraced, [0.1])
    layers = run.layer_metrics(spy, traced, untraced)
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert all(value > 0 for value in end_to_end.values())
    assert all(not name.startswith("request.") for name in layers)
    assert layers["planner.bilevel_plan.calls"] == 0
    assert layers["explore.select_action.calls"] == untraced.items


def test_wrong_code_makes_the_run_incorrect(pkg, oracles, monkeypatch):
    bench = tiny(pkg, "decide_fresh", workloads.REFERENCE_SEED)
    original = pkg.explore.select_action

    def off_by_one(game, belief, strategy):
        evaluations, best = original(game, belief, strategy)
        return evaluations, (best + 1) % len(evaluations)

    monkeypatch.setattr(pkg.explore, "select_action", off_by_one)
    result = bench.run(0.05)
    bench.check(result, oracles)
    assert result.failed


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("an untraced run installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    status = run.main(["--workload", "decide_fresh", "--seed", "3", "--seconds", "0.05"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 0 and last["correct"]
    assert {name for name in last["metrics"]} == {m["name"] for m in SPEC["end_to_end"]}
    assert not [key for key, value in bindings().items()
                if getattr(value, "__module__", None) == tracer.__name__]


def test_traced_run_restores_every_binding(pkg):
    before = bindings()
    spy = tracer.Tracer()
    with spy.installed():
        wrapped = [key for key, value in bindings().items() if value is not before[key]]
        assert ("altmerge.sim", "step") in wrapped and ("altmerge.planner", "step") in wrapped
        bench = tiny(pkg, "belief_stream", 2)
        bench.run(0.05, tracer=spy)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert spy.calls("explore.select_action") > 0
    assert spy.calls("belief.bayes_update.write") > 0


def test_paced_run_times_the_kernel_and_disarms_its_timer(pkg):
    handler = signal.getsignal(signal.SIGALRM)
    untraced = tiny(pkg, "belief_stream", 1).run(0.05)
    assert len(untraced.reference) >= untraced.busy_s // workloads.REFERENCE_EVERY_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    spy = tracer.Tracer()
    with spy.installed():
        traced = tiny(pkg, "belief_stream", 1).run(0.05, tracer=spy)
    assert not traced.reference

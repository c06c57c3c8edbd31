"""The benchmark's own checks: tracer arithmetic, wrapper lifetime, failure counts.

Run from the repository root with ``python3 -m pytest covbench/tests``.
"""

import importlib
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

import layers
import run
import tracer as tracer_mod
import workloads
from tracer import Target, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _current(target):
    return getattr(importlib.import_module(target.module), target.attr)


def test_self_time_on_synthetic_nest():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 0.5

    def inner():
        clock.now += 1.0
        for _ in range(3):
            wrapped_leaf()
        clock.now += 1.0

    wrapped_leaf = tr.wrap(leaf, "leaf", aggregate=True)
    wrapped_inner = tr.wrap(inner, "inner")
    with tr.span("outer", case="x"):
        clock.now += 2.0
        wrapped_inner()
        clock.now += 4.0
        wrapped_leaf()

    spans = {s.name: s for s in tr.spans}
    assert spans["inner"].duration == pytest.approx(3.5)
    assert spans["inner"].self_time == pytest.approx(2.0)
    assert spans["inner"].parent == spans["outer"].id
    assert spans["outer"].duration == pytest.approx(10.0)
    assert spans["outer"].self_time == pytest.approx(6.0)
    assert spans["outer"].attrs == {"case": "x"}
    # leaf calls aggregate per parent span instead of keeping records
    by_parent = {parent: c for (parent, name), c in tr.counters.items() if name == "leaf"}
    assert by_parent[spans["inner"].id].calls == 3
    assert by_parent[spans["inner"].id].total == pytest.approx(1.5)
    assert by_parent[spans["outer"].id].calls == 1
    # self times of everything add up to the root's wall time
    total_self = sum(s.self_time for s in tr.spans) + sum(c.self_time for c in tr.counters.values())
    assert total_self == pytest.approx(spans["outer"].duration)


def test_traced_run_restores_patched_names():
    originals = {(t.module, t.attr): _current(t) for t in layers.TARGETS}
    tr = Tracer()
    with tr.installed(layers.TARGETS):
        assert all(_current(t) is not originals[(t.module, t.attr)] for t in layers.TARGETS)
        prob, guess = workloads.design_problem()
        from covtraj import scp

        scp.run(scp.deterministic_problem(prob), guess, workloads.DESIGN_PARAMS)
    assert all(_current(t) is originals[(t.module, t.attr)] for t in layers.TARGETS)
    names = {s.name for s in tr.spans} | {name for _, name in tr.counters}
    assert {"scp.run", "subproblem.build", "conic.solve", "conic.factor", "conic.tri_solve"} <= names
    metrics = layers.per_layer_metrics(tr, 1, sum(s.duration for s in tr.spans if s.parent is None), 0.0)
    assert metrics["conic.solve.calls"]["value"] == 3
    assert metrics["trace.coverage"]["value"] == pytest.approx(1.0, abs=1e-3)


def test_missing_target_warns_and_drops_its_metrics():
    gone = Target("covtraj.montecarlo", "_no_such_function", "montecarlo.simulate", aggregate=True)
    tr = Tracer()
    with pytest.warns(UserWarning, match="_no_such_function"):
        with tr.installed((gone,)):
            pass
    metrics = layers.per_layer_metrics(tr, 1, 1.0, 0.0)
    assert "montecarlo.simulate.s" not in metrics
    assert "montecarlo.sample_ms.ekf" not in metrics
    assert "conic.solve.s" in metrics


def test_untraced_run_installs_no_wrapper(monkeypatch):
    installs = []
    monkeypatch.setattr(tracer_mod.Tracer, "install", lambda self, targets: installs.append(targets))
    originals = {(t.module, t.attr): _current(t) for t in layers.TARGETS}
    seen = []
    real_round = workloads.DesignN6.round

    def spy_round(self, state, tr, gauge):
        seen.append(all(_current(t) is originals[(t.module, t.attr)] for t in layers.TARGETS))
        return real_round(self, state, tr, gauge)

    monkeypatch.setattr(workloads.DesignN6, "round", spy_round)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "design_n6", "--seconds", "0", "--trace", "0"])
    assert code == 0
    assert installs == [] and seen == [True]
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "round_s", "peak_rss_mb"}


def test_gauge_scales_by_the_median_reading_near_the_work(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(workloads, "clock", clock)
    readings = iter([0.1, 0.3, 0.2, 0.4])

    def task():
        clock.now += 1.0
        return next(readings)

    gauge = workloads.Gauge(task, reference_s=0.1)  # reading 0.1 over [0, 1]
    clock.now = 10.0
    result, sample = gauge.timed(lambda x: x + 1, 1)  # reading 0.3 over [10, 11]
    assert result == 2 and sample == (0.0, 10.0, 10.0)
    clock.now = 20.0
    gauge.read()  # 0.2 over [20, 21]
    clock.now = 30.0
    gauge.read()  # 0.4 over [30, 31]
    assert gauge.times() == [0.1, 0.3, 0.2, 0.4]
    # readings within GAUGE_WINDOW_S = 5 s of [12, 14] start or end in [7, 19]
    assert gauge.scale(2.0, 12.0, 14.0) == pytest.approx(2.0 * 0.1 / 0.3)
    # [6, 16] widens to [1, 21]: readings 0.1, 0.3 and 0.2
    assert gauge.scale(2.0, 6.0, 16.0) == pytest.approx(2.0 * 0.1 / 0.2)


def test_failed_frac_counts_forced_failure():
    from covtraj import scp

    prob, guess = workloads.design_problem()
    res = scp.run(scp.deterministic_problem(prob), guess, workloads.DESIGN_PARAMS, solver_iters=1)
    attempted, failed = workloads.count_scp_failures(res)
    assert not res.converged
    assert attempted == res.iterations + 1
    assert failed == attempted


@pytest.mark.parametrize(
    "kind, alpha, slack, violation",
    [
        ("zero", None, [0.1], 0.1),
        ("nonneg", None, [-0.2], 0.2),
        ("soc", None, [1.0, 1.0, 1.0], np.sqrt(2.0) - 1.0),
        ("rsoc", None, [0.5, 1.0, 1.2], 0.2),
        ("pow3", 0.5, [4.0, 1.0, 2.5], 0.5),
    ],
)
def test_cone_violation_per_cone_kind(kind, alpha, slack, violation):
    from covtraj.conic import ProgramBuilder

    dim = len(slack)
    pb = ProgramBuilder()
    x = pb.var_block("x", dim)
    # s = 0 - (-I) x = x, so the slack is the point itself
    pb.cone(kind, np.zeros(dim), np.arange(dim), x, -np.ones(dim), alpha=alpha)
    prog = pb.build()
    assert workloads.cone_violation(prog, np.array(slack)) == pytest.approx(violation)
    inside = np.array([0.0] if kind in ("zero", "nonneg") else [3.0, 2.0, 1.0])
    assert workloads.cone_violation(prog, inside) <= 0.0

"""Monte Carlo playback: sampling contracts, statistics, and reports."""

import dataclasses
import json

import numpy as np
import pytest

import covtraj.montecarlo as mc_mod
from covtraj.dynamics import TimeGrid, propagate
from covtraj.errors import ConfigError, NumericalError
from covtraj.gravity_assist import ga_map, periapsis_radius
from covtraj.montecarlo import (
    McConfig,
    compare_bound,
    estimate_quantile,
    run_campaign,
    run_sample,
    write_report,
)
from covtraj.scp import (
    GaEvent,
    ScpParams,
    ScpProblem,
    TrajectoryGuess,
    UncertaintyModel,
    deterministic_problem,
    evaluate_point,
    run,
)
from covtraj.uncertainty import GatesParams, ObservationModel, process_noise_sqrt
from test_scp import _stochastic_scp_problem


@pytest.fixture(scope="module")
def solved():
    """Converged stochastic rendezvous used as the playback reference."""
    prob, x0, _ = _stochastic_scp_problem()
    guess = TrajectoryGuess(x0=x0, controls=np.zeros((prob.grid.n_segments, 3)))
    res = run(prob, guess, ScpParams(tr_init=1.0, tr_max=1.0))
    assert res.converged
    return prob, res.point


@pytest.fixture(scope="module")
def zero_noise():
    """The same trajectory flown with every noise source set to zero."""
    prob, x0, _ = _stochastic_scp_problem()
    guess = TrajectoryGuess(x0=x0, controls=np.zeros((prob.grid.n_segments, 3)))
    det = run(deterministic_problem(prob), guess, ScpParams(tr_init=1.0, tr_max=1.0))
    assert det.converged
    n = prob.grid.n_segments
    obs = ObservationModel(
        has_measurement=tuple(False for _ in range(n + 1)),
        sqrt_noise=tuple(None for _ in range(n + 1)),
    )
    unc = UncertaintyModel(
        obs=obs,
        p_hat0=np.zeros((6, 6)),
        p_tilde0=np.zeros((6, 6)),
        eps_u=1e-2,
        p_f=np.eye(6),
    )
    prob0 = dataclasses.replace(prob, uncertainty=unc)
    point0 = evaluate_point(prob0, det.point.x0, det.point.controls)
    return prob0, point0


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_samples=0)
    with pytest.raises(ValueError):
        McConfig(n_samples=10, mode="euler")
    with pytest.raises(ValueError):
        McConfig(n_samples=10, dt_wn=0.0)
    with pytest.raises(ValueError):
        McConfig(n_samples=10, quantile=1.0)
    with pytest.raises(ValueError):
        McConfig(n_samples=10, bootstrap=0)
    with pytest.raises(ValueError):
        McConfig(n_samples=10, bootstrap_conf=0.0)
    with pytest.raises(ValueError):
        McConfig(n_samples=10, max_failure_rate=1.5)


def test_quantile_order_statistic():
    # constant samples give the constant at every level
    for p in (0.01, 0.5, 0.99):
        assert estimate_quantile([2.5] * 17, p) == 2.5
    # 1..100: the 99% point is the 99th order statistic
    values = np.arange(1, 101, dtype=float)
    assert estimate_quantile(values, 0.99) == 99.0
    assert estimate_quantile(values, 0.5) == 50.0
    assert estimate_quantile(values, 0.995) == 100.0
    # monotone in p by construction
    rng = np.random.Generator(np.random.Philox(3))
    data = rng.normal(size=257)
    levels = np.linspace(0.05, 0.95, 19)
    qs = [estimate_quantile(data, p) for p in levels]
    assert np.all(np.diff(qs) >= 0.0)
    with pytest.raises(ValueError):
        estimate_quantile([], 0.5)
    with pytest.raises(ValueError):
        estimate_quantile([1.0], 0.0)
    with pytest.raises(ValueError):
        estimate_quantile([1.0], 1.0)


def test_quantile_on_uniform_sample():
    rng = np.random.Generator(np.random.Philox(1))
    u = rng.uniform(size=100_000)
    assert abs(estimate_quantile(u, 0.99) - 0.99) <= 0.005


def test_campaign_requires_stochastic_problem(solved):
    prob, point = solved
    det_prob = deterministic_problem(prob)
    det_point = evaluate_point(det_prob, point.x0, point.controls)
    with pytest.raises(ConfigError):
        run_campaign(det_prob, det_point, McConfig(n_samples=4))
    with pytest.raises(ConfigError):
        run_campaign(prob, det_point, McConfig(n_samples=4))


def test_zero_noise_reproduces_reference(zero_noise):
    prob0, point0 = zero_noise
    for mode, tol in (("linear", 0.0), ("ekf", 1e-9)):
        cfg = McConfig(n_samples=16, master_seed=3, mode=mode, keep_samples=True)
        rep = run_campaign(prob0, point0, cfg)
        assert rep.n_failed == 0
        for s in rep.samples:
            assert np.max(np.abs(s.truth - point0.states)) <= tol
            assert np.max(np.abs(s.commanded - point0.controls)) <= tol
        # no feedback, no noise: every sample costs exactly the nominal
        # delta-v and the bound is met with equality
        assert abs(rep.dv_q - rep.dv_nominal) <= 1e-12
        assert abs(rep.j_ub - rep.dv_nominal) <= 1e-12
        assert rep.od_containment == 1.0
        assert rep.violation_rate == 0.0
        check = compare_bound(rep)
        assert check.holds
        assert abs(check.slack) <= 1e-12


def test_linear_mode_matches_analytic_covariance(solved):
    prob, point = solved
    cfg = McConfig(n_samples=20_000, master_seed=7, mode="linear")
    rep = run_campaign(prob, point, cfg)
    assert rep.n_failed == 0

    # terminal dispersion: sample covariance within 5% Frobenius of the
    # closed-form value, sample mean within three standard errors of zero
    ana = rep.terminal_cov_analytic
    fro = np.linalg.norm(rep.terminal_cov - ana) / np.linalg.norm(ana)
    assert fro <= 0.05
    mean_3se = 3.0 * np.sqrt(np.trace(ana) / cfg.n_samples)
    assert np.linalg.norm(rep.terminal_mean) <= mean_3se

    # navigation errors stay inside the filter's three-sigma band
    assert rep.od_containment >= 0.95

    # chance-constrained thrust: violations no more frequent than the
    # design level plus binomial slack at this sample size
    eps_u = prob.uncertainty.eps_u
    n_draws = cfg.n_samples * len(prob.thrust_segments)
    slack = 3.0 * np.sqrt(eps_u * (1.0 - eps_u) / n_draws)
    assert rep.violation_rate <= eps_u + slack

    # the realized delta-v quantile respects the optimized bound
    check = compare_bound(rep)
    assert check.holds
    assert rep.dv_q <= rep.j_ub + rep.dv_ci_half
    assert rep.dv_nominal <= rep.dv_mean <= rep.dv_max


def test_ekf_mode_campaign(solved):
    prob, point = solved
    cfg = McConfig(n_samples=150, master_seed=7, mode="ekf", dt_wn=0.2)
    rep = run_campaign(prob, point, cfg)
    assert rep.n_failed == 0
    assert rep.od_containment >= 0.95
    assert int(rep.violation_counts.sum()) == 0
    assert compare_bound(rep).holds
    # nonlinear playback stays statistically consistent with the design
    # covariance (loose gate: 150 samples carry ~12% Frobenius noise)
    ana = rep.terminal_cov_analytic
    fro = np.linalg.norm(rep.terminal_cov - ana) / np.linalg.norm(ana)
    assert fro <= 0.6


def test_reports_reproducible_and_seed_sensitive(solved):
    prob, point = solved
    cfg = McConfig(n_samples=400, master_seed=11, mode="linear")
    r1 = run_campaign(prob, point, cfg)
    r2 = run_campaign(prob, point, cfg)
    assert np.array_equal(r1.dv_values, r2.dv_values)
    assert r1.as_dict() == r2.as_dict()
    r3 = run_campaign(prob, point, McConfig(n_samples=400, master_seed=12, mode="linear"))
    assert not np.array_equal(r1.dv_values, r3.dv_values)


def test_run_sample_matches_campaign_stream(solved):
    prob, point = solved
    cfg = McConfig(n_samples=8, master_seed=21, mode="linear", keep_samples=True)
    rep = run_campaign(prob, point, cfg)
    for i in (0, 3, 7):
        single = run_sample(prob, point, cfg, i)
        batch = rep.samples[i]
        assert single.dv == batch.dv
        assert np.array_equal(single.truth, batch.truth)
        assert np.array_equal(single.commanded, batch.commanded)


def test_failed_samples_warned_excluded_and_capped(solved, monkeypatch):
    prob, point = solved
    real = mc_mod._simulate

    def flaky(problem, point_, cfg, khat, sq_hat0, sq_til0, lin_sigma, index):
        if index == 2:
            raise NumericalError("synthetic blow-up")
        return real(problem, point_, cfg, khat, sq_hat0, sq_til0, lin_sigma, index)

    monkeypatch.setattr(mc_mod, "_simulate", flaky)
    cfg = McConfig(
        n_samples=20, master_seed=5, mode="linear", bootstrap=50, max_failure_rate=0.1
    )
    with pytest.warns(UserWarning, match="sample 2 failed"):
        rep = run_campaign(prob, point, cfg)
    assert rep.n_failed == 1
    assert rep.failed == (2,)
    assert rep.dv_values.size == 19

    strict = dataclasses.replace(cfg, max_failure_rate=0.01)
    with pytest.warns(UserWarning, match="sample 2 failed"):
        with pytest.raises(NumericalError, match="1 of 20"):
            run_campaign(prob, point, strict)


def test_bound_check_detects_exceedance(solved):
    prob, point = solved
    rep = run_campaign(
        prob, point, McConfig(n_samples=300, master_seed=2, mode="linear")
    )
    assert compare_bound(rep).holds
    tight = compare_bound(rep, j_ub=rep.dv_q - rep.dv_ci_half - 1e-9)
    assert not tight.holds
    assert tight.slack < 0.0
    loose = compare_bound(rep, j_ub=rep.dv_q + 1.0)
    assert loose.holds
    assert loose.slack == pytest.approx(1.0, abs=1e-12)


def _flyby_mc_problem():
    """Small flyby instance flown open loop under dispersion."""
    grid = TimeGrid(
        epochs=(0.0, 1.0, 1.0, 2.0), kinds=("thrust", "ga", "thrust", "coast")
    )
    v_planet = np.array([0.0, 1.0, 0.0])
    theta = 0.9
    event = GaEvent(
        segment=1, mu_p=0.05, r_p_min=0.01, v_planet=v_planet, eps=1e-3,
        theta_min=0.1, theta_max=2.0,
    )
    x0 = np.array([1.0, 0.0, 0.0, 0.35, 1.0, 0.35])
    controls = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, np.tan(0.5 * theta), 0.0],
            [0.05, -0.02, 0.01],
        ]
    )
    x1 = propagate(x0, controls[0], 0.0, 1.0, 0.0)
    x2 = ga_map(x1, controls[1], v_planet)
    x_target = propagate(x2, controls[2], 1.0, 2.0, 0.0)
    obs = ObservationModel(
        has_measurement=(True, False, True, False),
        sqrt_noise=(0.03 * np.eye(6), None, 0.03 * np.eye(6), None),
    )
    unc = UncertaintyModel(
        obs=obs,
        p_hat0=4e-4 * np.eye(6),
        p_tilde0=4e-4 * np.eye(6),
        eps_u=1e-2,
        p_f=np.eye(6),
        gates=GatesParams(
            sigma_fixed_mag=1e-3, sigma_prop_mag=2e-3,
            sigma_fixed_point=1e-3, sigma_prop_point=2e-3,
        ),
        proc_noise_sqrt=process_noise_sqrt(1e-3, 1.0),
    )
    prob = ScpProblem(
        grid=grid, u_max=0.6, x_target=x_target, mu=0.0, x0_fixed=x0,
        ga_events=(event,), uncertainty=unc,
    )
    point = evaluate_point(prob, x0, controls, thetas=(theta,))
    return prob, point, theta, v_planet


def test_flyby_campaign_periapsis_statistics():
    prob, point, theta, v_planet = _flyby_mc_problem()
    event = prob.ga_events[0]
    r_p_ref = periapsis_radius(
        float(np.linalg.norm(point.states[1, 3:] - v_planet)), theta, event.mu_p
    )
    for mode in ("linear", "ekf"):
        cfg = McConfig(n_samples=100, master_seed=13, mode=mode, keep_samples=True)
        rep = run_campaign(prob, point, cfg)
        assert rep.n_failed == 0
        assert len(rep.periapses) == 1
        assert rep.periapses[0].shape == (100,)
        assert rep.periapsis_nominal[0] == pytest.approx(r_p_ref, abs=1e-12)
        assert rep.periapsis_min[0] == rep.periapses[0].min()
        # incoming dispersion scatters the realized radius around nominal
        assert rep.periapses[0].min() < r_p_ref < rep.periapses[0].max()
        assert rep.od_containment >= 0.95

        for s in rep.samples[:10]:
            # flybys replay the reference turn: no gain corrections, no
            # execution error on the zero-length segment
            assert np.allclose(s.commanded[1], point.controls[1], atol=1e-15)
            assert np.array_equal(s.executed[1], s.commanded[1])
            # the recorded radius is the exact map of the sampled approach
            v_inf = float(np.linalg.norm(s.truth[1, 3:] - v_planet))
            assert s.periapses[0] == pytest.approx(
                periapsis_radius(v_inf, theta, event.mu_p), abs=1e-12
            )
            # zero-length flyby contributes nothing to the propellant sum
            dv_hand = float(
                np.linalg.norm(s.executed[0]) * 1.0 + np.linalg.norm(s.executed[2]) * 1.0
            )
            assert s.dv == pytest.approx(dv_hand, abs=1e-12)
            if mode == "ekf":
                assert np.allclose(
                    s.truth[2], ga_map(s.truth[1], s.executed[1], v_planet), atol=1e-13
                )


def test_write_report_artifacts(tmp_path, solved):
    prob, point = solved
    cfg = McConfig(
        n_samples=12, master_seed=9, mode="linear", bootstrap=50, keep_samples=True
    )
    rep = run_campaign(prob, point, cfg)
    paths = write_report(rep, tmp_path / "a")
    assert set(paths) == {"report", "dv_samples", "sample_states", "sample_controls"}
    summary = json.loads(paths["report"].read_text())
    assert summary["n_samples"] == 12
    assert summary["dv_q"] == rep.dv_q
    assert summary["od_containment"] == rep.od_containment

    lines = paths["dv_samples"].read_text().strip().splitlines()
    assert lines[0] == "dv"
    values = np.array([float(v) for v in lines[1:]])
    assert np.array_equal(values, rep.dv_values)

    # artifacts are byte-stable for a fixed report
    again = write_report(rep, tmp_path / "b")
    for key in paths:
        assert paths[key].read_bytes() == again[key].read_bytes()


def test_flyby_report_includes_periapsis_file(tmp_path):
    prob, point, _, _ = _flyby_mc_problem()
    cfg = McConfig(n_samples=10, master_seed=1, mode="linear", bootstrap=50)
    rep = run_campaign(prob, point, cfg)
    paths = write_report(rep, tmp_path)
    lines = paths["periapsis_samples"].read_text().strip().splitlines()
    assert lines[0] == "event_0"
    assert len(lines) == 11
    assert float(lines[1]) == rep.periapses[0][0]

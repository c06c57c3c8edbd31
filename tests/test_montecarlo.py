"""Monte Carlo playback: sampling contracts, statistics, and reports."""

import dataclasses
import json

import numpy as np
import pytest

import covtraj.montecarlo as mc_mod
from covtraj.errors import ConfigError, NumericalError
from covtraj.gravity_assist import ga_map, periapsis_radius
from covtraj.montecarlo import (
    McConfig,
    compare_bound,
    estimate_quantile,
    run_campaign,
    write_report,
)
from covtraj.scp import (
    ScpParams,
    TrajectoryGuess,
    UncertaintyModel,
    deterministic_problem,
    evaluate_point,
    run,
)
from covtraj.uncertainty import GatesParams, ObservationModel
from oracles import bootstrap_ci_half_gather, estimate_deviation_gains, random_policy
from test_scp import _flyby_problem, _stochastic_scp_problem


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
    for dt_wn in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt_wn"):
            McConfig(n_samples=10, dt_wn=dt_wn)
    with pytest.raises(ValueError):
        McConfig(n_samples=10, bootstrap=0)
    with pytest.raises(ValueError):
        McConfig(n_samples=10, master_seed=-1)
    with pytest.raises(TypeError):
        McConfig(n_samples=10, master_seed=2.5)
    assert McConfig(n_samples=10, master_seed=np.int64(7)).master_seed == 7


@pytest.mark.parametrize("field", ["n_samples", "bootstrap"])
@pytest.mark.parametrize("bad", [10.5, 2.5, np.inf])
def test_config_counts_must_be_integers(field, bad):
    with pytest.raises(TypeError):
        McConfig(**{"n_samples": 10, field: bad})


@pytest.mark.parametrize("field", ["n_samples", "bootstrap"])
def test_config_counts_accept_numpy_integers(field):
    cfg = McConfig(**{"n_samples": 10, field: np.int64(7)})
    assert type(getattr(cfg, field)) is int


def test_stream_keys_match_numpy_seed_sequence():
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 12345, np.int64(7)):
        keys = mc_mod._stream_keys(seed, 300)
        expected = [
            np.random.SeedSequence([seed, i]).generate_state(2, np.uint64) for i in range(300)
        ]
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, expected)
        z = mc_mod._draw_noise(seed, 300, 17)
        for i in range(300):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, i])))
            assert np.array_equal(z[i], rng.standard_normal(17))


def test_bootstrap_matches_gather_oracle():
    # ties, unsorted input, and 1000 resamples of 25,000 in blocks of 200
    values = np.round(np.random.Generator(np.random.Philox(4)).normal(size=25_000), 2)
    seed = np.random.SeedSequence([5, values.size])
    half = mc_mod._quantile_ci_half(values, 0.99, 1000, 0.99, seed)
    assert half > 0.0
    assert half == bootstrap_ci_half_gather(values, 0.99, 1000, 0.99, seed)
    # one value: every resample repeats it
    seed = np.random.SeedSequence([5, 1])
    assert mc_mod._quantile_ci_half(values[:1], 0.99, 50, 0.99, seed) == 0.0
    assert bootstrap_ci_half_gather(values[:1], 0.99, 50, 0.99, seed) == 0.0


@pytest.mark.parametrize("n", [80, 401])
def test_bootstrap_block_size_leaves_the_half_width_bit_identical(monkeypatch, n):
    # the index draws continue one stream across blocks: one row at a time,
    # seven (the last block short) and all 50 rows at once give equal bits
    values = np.random.Generator(np.random.Philox(n)).normal(size=n)
    seed = np.random.SeedSequence([7, n])
    halves = []
    for rows in (1, 7, 50):
        monkeypatch.setattr(mc_mod, "BOOTSTRAP_BLOCK", rows * n)
        halves.append(mc_mod._quantile_ci_half(values, 0.99, 50, 0.99, seed).hex())
    assert halves[0] == halves[1] == halves[2]


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
        cfg = McConfig(n_samples=16, master_seed=3, mode=mode)
        rep = run_campaign(prob0, point0, cfg)
        assert rep.n_failed == 0
        assert np.max(np.abs(rep.samples.truth - point0.states)) <= tol
        assert np.max(np.abs(rep.samples.commanded - point0.controls)) <= tol
        # no feedback, no noise: every sample costs exactly the nominal
        # delta-v and the bound is met with equality
        assert abs(rep.dv_q - rep.dv_nominal) <= 1e-12
        assert abs(rep.j_ub - rep.dv_nominal) <= 1e-12
        assert rep.od_containment == 1.0
        assert rep.violation_rate == 0.0
        check = compare_bound(rep)
        assert check.holds
        assert abs(check.slack) <= 1e-12


def test_dv_counts_the_commanded_control_in_both_modes(zero_noise):
    # open loop under Gates execution errors alone: the actuator misses the
    # command, but dv is the commanded flight-path-control effort that j_ub
    # bounds, so every sample costs the nominal delta-v in both truth models
    prob0, point0 = zero_noise
    gates = GatesParams(sigma_prop_mag=0.01, sigma_prop_point=0.01)
    prob = dataclasses.replace(
        prob0, uncertainty=dataclasses.replace(prob0.uncertainty, gates=gates)
    )
    point = evaluate_point(prob, point0.x0, point0.controls)
    assert point.dv_linear > 0.0
    for mode in ("linear", "ekf"):
        cfg = McConfig(n_samples=32, master_seed=4, mode=mode, bootstrap=10)
        rep = run_campaign(prob, point, cfg)
        s = rep.samples
        assert rep.n_failed == 0
        # the execution errors act on every sample's flight
        assert np.all(np.abs(s.truth[:, -1] - point.states[-1]).max(axis=1) > 0.0)
        if mode == "ekf":
            assert np.all(np.any(s.executed != s.commanded, axis=(1, 2)))
        np.testing.assert_allclose(s.dv, point.dv_linear, rtol=1e-12, atol=0.0)
        assert compare_bound(rep).holds


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
    n_draws = cfg.n_samples * len(prob.grid.thrust_segments)
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


def test_playback_flies_the_estimate_deviation_policy(solved):
    # K on the uncontrolled estimate deviations commands what the reference
    # form Khat = K (I + BB K)^-1 commands on the posterior deviations
    prob, point = solved
    khat = estimate_deviation_gains(point.blocks, point.policy).blocks
    for mode in ("linear", "ekf"):
        cfg = McConfig(n_samples=50, master_seed=5, mode=mode, dt_wn=0.5, bootstrap=10)
        s = run_campaign(prob, point, cfg).samples
        feedback = s.commanded - point.controls
        expected = np.einsum("kimn,sin->skm", khat, s.estimates - point.states)
        scale = np.max(np.abs(feedback))
        assert scale > 0.0
        np.testing.assert_allclose(feedback, expected, rtol=0.0, atol=1e-12 * scale)


def test_reports_reproducible_and_seed_sensitive(solved):
    prob, point = solved
    cfg = McConfig(n_samples=400, master_seed=11, mode="linear")
    r1 = run_campaign(prob, point, cfg)
    r2 = run_campaign(prob, point, cfg)
    assert np.array_equal(r1.dv_values, r2.dv_values)
    assert r1.as_dict() == r2.as_dict()
    r3 = run_campaign(prob, point, McConfig(n_samples=400, master_seed=12, mode="linear"))
    assert not np.array_equal(r1.dv_values, r3.dv_values)


def _case(solved, case):
    """Problem, point and config of the linear, EKF or flyby EKF campaign."""
    if case == "flyby":
        prob, point, _, _ = _flyby_mc_problem()
        return prob, point, McConfig(n_samples=20, master_seed=21, mode="ekf", bootstrap=50)
    prob, point = solved
    return prob, point, McConfig(
        n_samples=20, master_seed=21, mode=case, dt_wn=0.2 if case == "ekf" else None,
        bootstrap=50,
    )


def _same_samples(a, b):
    """Every field of two stacked sample records holds the same bits."""
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def test_campaign_prefix_is_batch_invariant(solved):
    # the linear and EKF campaigns fly once more under random gains, whose
    # generic entries round a one-row product apart from a many-row one
    prob, point = solved
    generic = evaluate_point(
        prob, point.x0, point.controls,
        policy=random_policy(np.random.default_rng(4), prob.grid.n_segments),
    )
    cases = [_case(solved, case) for case in ("linear", "ekf", "flyby")]
    cases += [(prob, generic, cfg) for _, _, cfg in cases[:2]]
    for prob, point, cfg in cases:
        rep = run_campaign(prob, point, cfg)
        full = rep.samples
        # with no failure the report reads the playback's arrays, uncopied
        assert rep.dv_values is full.dv
        assert all(np.shares_memory(p, full.periapses) for p in rep.periapses)
        for m in (1, 7):
            part = run_campaign(prob, point, dataclasses.replace(cfg, n_samples=m)).samples
            assert part.index.size == m
            _same_samples(part, full.take(np.arange(m)))

        # sample i's first draws come from the stream keyed (master_seed, i)
        unc = prob.uncertainty
        for r in range(3):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence([cfg.master_seed, full.index[r]]))
            )
            w = rng.standard_normal(12)
            xhat0 = point.states[0] + np.linalg.cholesky(
                unc.p_hat0 + 1e-14 * np.trace(unc.p_hat0) / 6 * np.eye(6)
            ) @ w[:6]
            x0 = xhat0 + np.linalg.cholesky(
                unc.p_tilde0 + 1e-14 * np.trace(unc.p_tilde0) / 6 * np.eye(6)
            ) @ w[6:]
            np.testing.assert_allclose(full.truth[r, 0], x0, rtol=0.0, atol=1e-14)


def test_failed_samples_warned_excluded_and_capped(solved, monkeypatch):
    real = mc_mod._draw_noise

    def poisoned(master_seed, n, size):
        z = real(master_seed, n, size)
        z[2, 3] = np.nan
        return z

    for case in ("linear", "ekf"):
        prob, point, cfg = _case(solved, case)
        monkeypatch.setattr(mc_mod, "_draw_noise", real)
        clean = run_campaign(prob, point, cfg)
        monkeypatch.setattr(mc_mod, "_draw_noise", poisoned)
        monkeypatch.setattr(mc_mod, "MAX_FAILURE_RATE", 0.1)
        with pytest.warns(UserWarning, match="sample 2 failed"):
            rep = run_campaign(prob, point, cfg)
        assert rep.n_failed == 1
        assert rep.failed == (2,)
        assert rep.dv_values.size == 19
        assert rep.samples.index.tolist() == [i for i in range(20) if i != 2]
        _same_samples(rep.samples, clean.samples.take(clean.samples.index != 2))

        monkeypatch.setattr(mc_mod, "MAX_FAILURE_RATE", 0.01)
        with pytest.warns(UserWarning, match="sample 2 failed"):
            with pytest.raises(NumericalError, match="1 of 20"):
                run_campaign(prob, point, cfg)


def test_campaign_with_no_surviving_sample_raises(solved, monkeypatch):
    prob, point = solved
    monkeypatch.setattr(
        mc_mod, "_draw_noise", lambda master_seed, n, size: np.full((n, size), np.nan)
    )
    monkeypatch.setattr(mc_mod, "MAX_FAILURE_RATE", 1.0)
    cfg = McConfig(n_samples=4, mode="linear", bootstrap=10)
    with pytest.warns(UserWarning, match="failed"):
        with pytest.raises(NumericalError, match="all 4 Monte Carlo samples failed"):
            run_campaign(prob, point, cfg)


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
    prob, guess = _flyby_problem()
    point = evaluate_point(prob, guess.x0, guess.controls, thetas=guess.thetas)
    return prob, point, guess.thetas[0], prob.ga_events[0].v_planet


def test_flyby_campaign_periapsis_statistics():
    prob, point, theta, v_planet = _flyby_mc_problem()
    event = prob.ga_events[0]
    r_p_ref = periapsis_radius(
        float(np.linalg.norm(point.states[1, 3:] - v_planet)), theta, event.mu_p
    )
    for mode in ("linear", "ekf"):
        cfg = McConfig(n_samples=100, master_seed=13, mode=mode)
        rep = run_campaign(prob, point, cfg)
        assert rep.n_failed == 0
        assert len(rep.periapses) == 1
        assert rep.periapses[0].shape == (100,)
        assert rep.periapsis_nominal[0] == pytest.approx(r_p_ref, abs=1e-12)
        assert rep.periapsis_min[0] == rep.periapses[0].min()
        # incoming dispersion scatters the realized radius around nominal
        assert rep.periapses[0].min() < r_p_ref < rep.periapses[0].max()
        assert rep.od_containment >= 0.95

        s = rep.samples
        for r in range(10):
            # flybys replay the reference turn: no gain corrections, no
            # execution error on the zero-length segment
            assert np.allclose(s.commanded[r, 1], point.controls[1], atol=1e-15)
            assert np.array_equal(s.executed[r, 1], s.commanded[r, 1])
            # the recorded radius is the exact map of the sampled approach
            v_inf = float(np.linalg.norm(s.truth[r, 1, 3:] - v_planet))
            assert s.periapses[r, 0] == pytest.approx(
                periapsis_radius(v_inf, theta, event.mu_p), abs=1e-12
            )
            # zero-length flyby contributes nothing to the commanded delta-v
            dv_hand = float(
                np.linalg.norm(s.commanded[r, 0]) * 1.0 + np.linalg.norm(s.commanded[r, 2]) * 1.0
            )
            assert s.dv[r] == pytest.approx(dv_hand, abs=1e-12)
            if mode == "ekf":
                assert np.allclose(
                    s.truth[r, 2], ga_map(s.truth[r, 1], s.executed[r, 1], v_planet), atol=1e-13
                )


def test_write_report_artifacts(tmp_path, solved):
    prob, point = solved
    cfg = McConfig(n_samples=12, master_seed=9, mode="linear", bootstrap=50)
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

    # the trajectory files hold the stacked arrays exactly, one row per
    # sample and node or segment
    states = np.loadtxt(paths["sample_states"], delimiter=",", skiprows=1)
    n_nodes = rep.samples.truth.shape[1]
    assert np.array_equal(states[:, 0], np.repeat(rep.samples.index, n_nodes))
    assert np.array_equal(states[:, 2:8], rep.samples.truth.reshape(-1, 6))
    assert np.array_equal(states[:, 8:14], rep.samples.estimates.reshape(-1, 6))
    controls = np.loadtxt(paths["sample_controls"], delimiter=",", skiprows=1)
    assert np.array_equal(controls[:, 5:8], rep.samples.executed.reshape(-1, 3))

    # artifacts are byte-stable for a fixed report
    again = write_report(rep, tmp_path / "b")
    for key in paths:
        assert paths[key].read_bytes() == again[key].read_bytes()


def test_numpy_integer_seed_report_writes(tmp_path, solved):
    prob, point = solved
    cfg = McConfig(n_samples=5, master_seed=np.int64(7), mode="linear", bootstrap=10)
    paths = write_report(run_campaign(prob, point, cfg), tmp_path)
    assert json.loads(paths["report"].read_text())["master_seed"] == 7


def test_flyby_report_includes_periapsis_file(tmp_path):
    prob, point, _, _ = _flyby_mc_problem()
    cfg = McConfig(n_samples=10, master_seed=1, mode="linear", bootstrap=50)
    rep = run_campaign(prob, point, cfg)
    paths = write_report(rep, tmp_path)
    lines = paths["periapsis_samples"].read_text().strip().splitlines()
    assert lines[0] == "event_0"
    assert len(lines) == 11
    assert float(lines[1]) == rep.periapses[0][0]

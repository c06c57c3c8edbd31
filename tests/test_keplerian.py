"""Gravity-on end to end: a Keplerian orbit raise designed by stochastic SCP
with a binding terminal dispersion bound, then flown by Monte Carlo in both
truth models, and redesigned with a finite feedback memory."""

import dataclasses
import math

import numpy as np
import pytest

from covtraj.dynamics import TimeGrid
from covtraj.montecarlo import McConfig, compare_bound, run_campaign
from covtraj.scp import (
    BoundFloor,
    ScpProblem,
    TrajectoryGuess,
    UncertaintyModel,
    deterministic_problem,
    run,
)
from covtraj.uncertainty import GatesParams, ObservationModel, process_noise_sqrt

N = 12


def _orbit_raise(n):
    """1.0 -> 1.1 orbit raise over half a transfer period, mu = 1, N segments.

    Every other node is measured. The terminal bound P_f = 1e-4 I binds, so
    the designed gains carry part of the delta-v bound.
    """
    tof = math.pi * 1.05**1.5
    flags = tuple(k % 2 == 0 for k in range(n + 1))
    obs = ObservationModel(
        has_measurement=flags,
        sqrt_noise=tuple(1e-3 * np.eye(6) if f else None for f in flags),
    )
    unc = UncertaintyModel(
        obs=obs,
        p_hat0=1e-6 * np.eye(6),
        p_tilde0=1e-6 * np.eye(6),
        eps_u=1e-2,
        p_f=1e-4 * np.eye(6),
        gates=GatesParams(sigma_prop_mag=0.01, sigma_prop_point=0.01),
        proc_noise_sqrt=process_noise_sqrt(1e-4, 0.01),
    )
    r_f = 1.1
    x0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    prob = ScpProblem(
        grid=TimeGrid(
            epochs=tuple(tof * k / n for k in range(n + 1)),
            kinds=("thrust",) * n + ("coast",),
        ),
        u_max=0.1,
        x_target=np.array([-r_f, 0.0, 0.0, 0.0, -math.sqrt(1.0 / r_f), 0.0]),
        mu=1.0,
        x0_fixed=x0,
        uncertainty=unc,
    )
    return prob, TrajectoryGuess(x0=x0, controls=np.zeros((n, 3)))


@pytest.fixture(scope="module")
def designed():
    """Deterministic seed, then the full-history stochastic design."""
    prob, guess = _orbit_raise(N)
    det = run(deterministic_problem(prob), guess)
    assert det.converged
    sto = run(prob, det.point)
    assert sto.converged
    return prob, det, sto


def test_stochastic_design_spends_feedback_on_the_binding_bound(designed):
    prob, det, sto = designed
    point = sto.point
    assert point.max_violation <= 1e-6
    assert point.dv_feedback > 0.0
    # dispersion control costs delta-v over the mean-only design
    assert point.j_ub > det.point.j_ub


@pytest.mark.parametrize("mode", ["linear", "ekf"])
def test_monte_carlo_meets_the_design_claims(designed, mode):
    prob, _, sto = designed
    cfg = McConfig(n_samples=1000, master_seed=0, mode=mode, dt_wn=0.05)
    rep = run_campaign(prob, sto.point, cfg)
    assert rep.n_failed == 0
    # the realized delta-v 99% quantile stays under the analytic bound
    assert compare_bound(rep).holds
    # the analytic terminal covariance sits on its bound, tr(P_f^-1 S) = 1;
    # the sample trace of 1,000 samples stays within sampling error of it
    # (it reads 0.95 in linear mode and 0.98 in EKF mode)
    p_f_inv = np.linalg.inv(prob.uncertainty.p_f)
    analytic = np.trace(p_f_inv @ rep.terminal_cov_analytic)
    assert 1.0 - 1e-3 <= analytic <= 1.0 + 1e-6
    assert 0.85 <= np.trace(p_f_inv @ rep.terminal_cov) <= 1.15
    assert rep.od_containment >= 0.95


def test_bound_holds_at_the_99_percent_level_under_a_large_thrust_risk(designed):
    # eps_u = 0.6 loosens only the thrust chance constraint; j_ub still
    # bounds the 99% delta-v quantile, with no bootstrap slack
    prob, det, _ = designed
    unc = dataclasses.replace(prob.uncertainty, eps_u=0.6)
    sto = run(dataclasses.replace(prob, uncertainty=unc), det.point)
    assert sto.converged
    rep = run_campaign(
        prob, sto.point, McConfig(n_samples=4000, master_seed=0, mode="linear")
    )
    assert rep.n_failed == 0
    assert rep.dv_q <= rep.j_ub
    assert rep.violation_rate <= unc.eps_u


def test_finite_feedback_memory_stays_near_full_history(designed):
    prob, det, full = designed
    unc = dataclasses.replace(prob.uncertainty, feedback_depth=2)
    depth2 = run(dataclasses.replace(prob, uncertainty=unc), det.point)
    assert depth2.converged
    assert depth2.point.max_violation <= 1e-6
    # a subset of the full-history gains: no cheaper, and within 0.5%
    assert full.point.j_ub <= depth2.point.j_ub <= 1.005 * full.point.j_ub


def test_unreachable_terminal_bound_ends_the_run_before_a_solve(designed, monkeypatch):
    # at P_f = 1e-6 I the navigation alone leaves tr(P_f^-1 P_tilde_N) =
    # 1.23 > 1 at the mean-only design, so no gain meets the terminal bound:
    # the run names the bound and its floor, and builds and solves nothing
    prob, det, _ = designed
    unc = dataclasses.replace(prob.uncertainty, p_f=1e-6 * np.eye(6))
    monkeypatch.setattr("covtraj.scp.build_subproblem", None)
    res = run(dataclasses.replace(prob, uncertainty=unc), det.point)
    assert res.status == "infeasible" and res.records == ()
    assert res.unmet == BoundFloor("terminal_dispersion", res.unmet.floor)
    assert res.unmet.floor == pytest.approx(1.2319, abs=1e-3)
    assert res.point.j_ub == det.point.j_ub

"""Gravity-on end to end: a Keplerian orbit raise designed by stochastic SCP
with a binding terminal dispersion bound, then flown by Monte Carlo in both
truth models, and redesigned with a finite feedback memory."""

import dataclasses
import math

import numpy as np
import pytest

from covtraj.conic import solver
from covtraj.dynamics import TimeGrid
from covtraj.montecarlo import McConfig, compare_bound, run_campaign
from covtraj.scp import (
    BoundFloor,
    ScpProblem,
    TrajectoryGuess,
    UncertaintyModel,
    deterministic_problem,
    evaluate_point,
    run,
)
from covtraj.subproblem import (
    PenaltyWeights,
    StochasticSpec,
    TerminalSpec,
    build_subproblem,
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


def _first_subproblem(n, depth=None):
    """The stochastic subproblem of _orbit_raise(n) at its zero-control
    guess, weight 100 and trust radius 0.1, with feedback ``depth``."""
    prob, guess = _orbit_raise(n)
    unc = prob.uncertainty
    ref = evaluate_point(prob, guess.x0, guess.controls)
    return build_subproblem(
        prob.grid, list(ref.segments), ref.states, ref.controls, prob.u_max,
        TerminalSpec(x_target=prob.x_target),
        PenaltyWeights(weight=100.0, lam_terminal=np.zeros(6)), 0.1,
        x0_fixed=prob.x0_fixed,
        stochastic=StochasticSpec(
            blocks=ref.blocks, schedule=ref.schedule, eps_u=unc.eps_u, p_f=unc.p_f,
            feedback_depth=depth,
        ),
    ).program


@pytest.mark.parametrize(
    "n, depth, sparse",
    [(6, None, False), (12, None, True), (24, 2, False)],
    ids=["full_n6", "full_n12", "depth2_n24"],
)
def test_factorization_rule_routes_each_subproblem_to_its_faster_path(n, depth, sparse):
    # pattern analysis only, no solve. Timed on one BLAS thread, the sparse
    # KKT solves the full-history N=12 subproblem in 0.5-0.7 of the dense
    # path's time, and takes 1.3x as long at N=6 and 1.3-1.8x at depth 2,
    # N=24
    assert solver._Pattern(_first_subproblem(n, depth)).sparse is sparse


def test_both_paths_solve_the_full_history_n12_subproblem_alike(monkeypatch):
    # the subproblem whose path the cost model moved: forced onto each path
    prog = _first_subproblem(12)
    results = {}
    for path, ratio in (("dense", np.inf), ("sparse", 0.0)):
        monkeypatch.setattr(solver, "SPARSE_KKT_RATIO", ratio)
        results[path] = solver.solve(prog)
    dense, sparse = results["dense"], results["sparse"]
    assert dense.status == sparse.status == "optimal"
    assert abs(dense.iterations - sparse.iterations) <= 2
    assert abs(dense.obj - sparse.obj) <= 1e-7

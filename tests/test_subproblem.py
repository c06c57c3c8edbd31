"""Subproblem builder: quantile oracle, penalty calculus, and solved
instances cross-checked against exact propagation, the recursive covariance
oracle, and an independent convex-modeling reference (cvxpy)."""

import dataclasses

import numpy as np
import pytest
from scipy.special import gammaincc

from covtraj.conic import SolveResult
from covtraj.conic.program import is_canonical
from covtraj.scp import UncertaintyModel, evaluate_point
from covtraj.covsteer import build_block_system, kalman_precompute
from covtraj.dynamics import TimeGrid, linearize_segment, psd_sqrt
from covtraj.gravity_assist import (
    GaEvent,
    cayley_from_turn,
    ga_linearize,
    ga_map,
    max_v_inf_for_safe_flyby,
)
from covtraj.subproblem import (
    DV99_MULTIPLIER,
    PENALTY_TAU,
    LaunchSpec,
    PenaltyWeights,
    StochasticSpec,
    TerminalSpec,
    _vec_product_triplets,
    augmented_cost,
    build_subproblem,
    chi2_quantile_sqrt,
    extract_solution,
    feedback_nodes,
    penalty_grad,
    penalty_value,
    solve_subproblem,
)
from covtraj.uncertainty import ObservationModel
from oracles import dense_chain, layout_audit, random_policy, recursive_covariances
from test_scp import _flyby_problem, _stochastic_scp_problem


# ----------------------------------------------------------------------
# chi-square quantile square root


def test_chi2_sqrt_frozen_table():
    table = {
        (1e-2, 3): 3.368214,
        (1e-3, 3): 4.033142,
        (1e-2, 4): 3.643721,
        (1e-3, 4): 4.297305,
    }
    for (eps, dim), want in table.items():
        assert chi2_quantile_sqrt(eps, dim) == pytest.approx(want, abs=5e-4)


def test_chi2_sqrt_matches_scipy():
    # round trip through scipy's upper incomplete gamma: the tail mass
    # beyond m**2 is eps itself, so small tails keep their relative
    # accuracy (no 1 - eps cancellation)
    for eps in (0.2, 1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9):
        for dim in (1, 2, 3, 4, 6, 10, 25):
            m = chi2_quantile_sqrt(eps, dim)
            assert gammaincc(0.5 * dim, 0.5 * m**2) == pytest.approx(eps, rel=1e-12)


def test_chi2_sqrt_below_crude_gaussian_bound():
    # the crude union-style multiplier sqrt(2 ln(1/eps)) + sqrt(dim) is
    # strictly looser at every table point
    for eps in (1e-2, 1e-3):
        for dim in (3, 4):
            crude = np.sqrt(2.0 * np.log(1.0 / eps)) + np.sqrt(dim)
            assert chi2_quantile_sqrt(eps, dim) < crude


def test_chi2_sqrt_validation():
    with pytest.raises(ValueError):
        chi2_quantile_sqrt(0.0, 3)
    with pytest.raises(ValueError):
        chi2_quantile_sqrt(1.0, 3)
    with pytest.raises(ValueError):
        chi2_quantile_sqrt(1e-2, 0)


# ----------------------------------------------------------------------
# penalty calculus


def test_penalty_grad_matches_finite_differences():
    for w in (1.0, 10.0, 1e3):
        for z in (-0.7, -0.05, 0.02, 0.4, 1.3):
            h = 1e-6 * max(1.0, abs(z))
            fd = (penalty_value(z + h, w) - penalty_value(z - h, w)) / (2 * h)
            assert penalty_grad(z, w) == pytest.approx(fd, rel=1e-5)


def test_penalty_basics():
    assert penalty_value(0.0, 50.0) == 0.0
    assert penalty_grad(0.0, 50.0) == 0.0
    # even in z, strictly increasing for z > 0
    assert penalty_value(-0.3, 7.0) == pytest.approx(penalty_value(0.3, 7.0))
    vals = [penalty_value(z, 7.0) for z in (0.1, 0.2, 0.4)]
    assert vals[0] < vals[1] < vals[2]


def test_feedback_nodes_selection():
    measured = (0, 2, 5)
    assert feedback_nodes(0, measured) == (0,)
    assert feedback_nodes(1, measured) == (0,)
    assert feedback_nodes(4, measured) == (0, 2)
    assert feedback_nodes(5, measured) == (0, 2, 5)
    assert feedback_nodes(5, measured, depth=1) == (5,)
    assert feedback_nodes(5, measured, depth=2) == (2, 5)
    # node 0 unmeasured still anchors the initial-dispersion feedback
    assert feedback_nodes(3, (2,)) == (0, 2)
    with pytest.raises(ValueError):
        feedback_nodes(3, measured, depth=0)


# ----------------------------------------------------------------------
# shared instance builders


def _drift_chain(n, dt=1.0, x_start=None, noisy=False):
    """Field-free segments chained from a start state with zero control."""
    segs = []
    states = [np.zeros(6) if x_start is None else np.asarray(x_start, float)]
    exe = 0.02 * np.eye(3) if noisy else None
    proc = (
        np.vstack([np.zeros((3, 3)), 5e-3 * np.eye(3)]) if noisy else None
    )
    for k in range(n):
        seg = linearize_segment(
            k, states[-1], np.zeros(3), k * dt, (k + 1) * dt, mu=0.0,
            exe_error_sqrt=exe, proc_noise_sqrt=proc,
        )
        segs.append(seg)
        states.append(seg.A @ states[-1] + seg.c)
    return segs, np.array(states)


def _thrust_grid(n, dt=1.0):
    return TimeGrid(
        epochs=tuple(k * dt for k in range(n + 1)),
        kinds=("thrust",) * n + ("coast",),
    )


def _propagate(segs, x0, controls):
    x = np.asarray(x0, float).copy()
    for k, seg in enumerate(segs):
        x = seg.A @ x + seg.B @ controls[k] + seg.c
    return x


# ----------------------------------------------------------------------
# deterministic instances


def test_deterministic_instance_matches_cvxpy():
    cp = pytest.importorskip("cvxpy")
    n = 8
    grid = _thrust_grid(n)
    segs, ref_states = _drift_chain(n)
    x0f = np.array([1.0, -0.5, 0.3, 0.05, -0.02, 0.01])
    target = np.zeros(6)
    u_max, radius, w = 0.5, 100.0, 1e3
    lam = np.array([0.2, -0.1, 0.0, 0.05, 0.0, -0.3])
    weights = PenaltyWeights(weight=w, lam_terminal=lam)

    layout = build_subproblem(
        grid, segs, ref_states, np.zeros((n, 3)), u_max,
        TerminalSpec(x_target=target), weights, radius, x0_fixed=x0f,
    )
    audit = layout_audit(layout)
    assert audit["total"] == layout.program.n_vars
    sol = solve_subproblem(layout)
    assert sol.status == "optimal"

    # exact propagation of the returned controls matches the relaxation slack
    x_end = _propagate(segs, x0f, sol.controls)
    np.testing.assert_allclose(x_end - target, sol.xi, atol=1e-6)
    # thrust epigraphs are tight and the bound is respected
    norms = np.linalg.norm(sol.controls, axis=1)
    np.testing.assert_allclose(sol.dv_linear, norms, atol=1e-6)
    assert norms.max() <= u_max + 1e-7

    # independent model of the same instance
    A = [s.A for s in segs]
    B = [s.B for s in segs]
    cvec = [s.c for s in segs]
    u = cp.Variable((n, 3))
    xi = cp.Variable(6)
    x = x0f
    for k in range(n):
        x = A[k] @ x + B[k] @ u[k] + cvec[k]
    cons = [x - target == xi]
    cons += [cp.norm(u[k]) <= u_max for k in range(n)]
    cons.append(cp.norm(cp.vec(u, order="C")) <= radius)
    tau = PENALTY_TAU
    obj = cp.sum(cp.hstack([cp.norm(u[k]) for k in range(n)]))
    obj = obj + lam @ xi
    obj = obj + (w ** (tau - 1.0) / tau) * cp.sum(cp.power(cp.abs(xi), tau))
    obj = obj + 0.5 * w * cp.sum_squares(xi)
    prob = cp.Problem(cp.Minimize(obj), cons)
    prob.solve(solver=cp.CLARABEL)

    assert sol.objective == pytest.approx(prob.value, rel=1e-6, abs=1e-7)
    np.testing.assert_allclose(sol.controls, u.value, atol=2e-4)
    np.testing.assert_allclose(sol.xi, xi.value, atol=2e-5)
    # the reported objective equals the analytic augmented cost of the point
    dts = grid.dts
    dv = float(np.sum(norms * dts))
    assert augmented_cost(dv, sol.xi, (), weights) == pytest.approx(
        sol.objective, rel=1e-5
    )


def test_relaxation_absorbs_unreachable_target():
    # thrust bound too small to reach the target: the terminal slack carries
    # the residual and the solve still succeeds
    n = 4
    grid = _thrust_grid(n)
    segs, ref_states = _drift_chain(n)
    x0f = np.zeros(6)
    target = np.array([50.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    weights = PenaltyWeights(weight=10.0, lam_terminal=np.zeros(6))
    layout = build_subproblem(
        grid, segs, ref_states, np.zeros((n, 3)), 0.1,
        TerminalSpec(x_target=target), weights, 1e3, x0_fixed=x0f,
    )
    sol = solve_subproblem(layout)
    assert sol.status == "optimal"
    x_end = _propagate(segs, x0f, sol.controls)
    np.testing.assert_allclose(x_end - target, sol.xi, atol=1e-5)
    assert np.linalg.norm(sol.xi) > 10.0


def test_launch_constraints_pin_position_and_cap_vinf():
    n = 6
    grid = _thrust_grid(n)
    r_body = np.array([1.0, 2.0, -0.5])
    v_body = np.array([0.1, -0.2, 0.05])
    x_start = np.concatenate([r_body, v_body])
    segs, ref_states = _drift_chain(n, x_start=x_start)
    # far target makes the departure v-infinity bound active
    target = ref_states[-1] + np.array([30.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    launch = LaunchSpec(r_body=r_body, v_body=v_body, v_inf_max=0.8)
    weights = PenaltyWeights(weight=5.0, lam_terminal=np.zeros(6))
    layout = build_subproblem(
        grid, segs, ref_states, np.zeros((n, 3)), 0.3,
        TerminalSpec(x_target=target), weights, 1e3, launch=launch,
    )
    sol = solve_subproblem(layout)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x0[:3], r_body, atol=1e-7)
    v_inf = np.linalg.norm(sol.x0[3:] - v_body)
    assert v_inf <= launch.v_inf_max + 1e-7
    assert v_inf >= launch.v_inf_max - 1e-4  # active at the optimum
    x_end = _propagate(segs, sol.x0, sol.controls)
    np.testing.assert_allclose(x_end - target, sol.xi, atol=1e-5)


# ----------------------------------------------------------------------
# stochastic instances


def _stochastic_instance(n=6, measured=(0, 2, 4), pf_scale=3.0, eps_u=1e-2):
    segs, ref_states = _drift_chain(n, noisy=True)
    flags = tuple(k in measured for k in range(n + 1))
    noises = tuple(0.05 * np.eye(6) if f else None for f in flags)
    obs = ObservationModel(has_measurement=flags, sqrt_noise=noises)
    P_til0 = 0.03 * np.eye(6)
    P_hat0 = 0.02 * np.eye(6)
    sched = kalman_precompute(segs, obs, P_til0)
    blocks = build_block_system(segs, sched, P_hat0)

    # tighter than the uncontrolled dispersion so the gains must act
    policy0 = __import__("covtraj.covsteer", fromlist=["FeedbackPolicy"]).FeedbackPolicy.zeros(n)
    P_unc, _ = recursive_covariances(segs, obs, P_hat0, P_til0, policy0)
    p_f = pf_scale * (P_unc[n] + sched.P_post[n])
    stoch = StochasticSpec(blocks=blocks, schedule=sched, eps_u=eps_u, p_f=p_f)
    return segs, ref_states, obs, sched, blocks, stoch, P_hat0, P_til0


def test_stochastic_solution_verified_by_recursive_oracle():
    n = 6
    grid = _thrust_grid(n)
    (segs, ref_states, obs, sched, blocks, stoch, P_hat0, P_til0) = (
        _stochastic_instance(n)
    )
    x0f = np.array([0.4, -0.2, 0.1, 0.02, 0.01, -0.03])
    target = np.zeros(6)
    u_max = 0.6
    weights = PenaltyWeights(weight=1e3, lam_terminal=np.zeros(6))
    layout = build_subproblem(
        grid, segs, ref_states, np.zeros((n, 3)), u_max,
        TerminalSpec(x_target=target), weights, 100.0,
        x0_fixed=x0f, stochastic=stoch,
    )
    audit = layout_audit(layout)
    assert audit["total"] == layout.program.n_vars
    assert audit["gain_blocks"] == 18 * sum(
        len(feedback_nodes(k, sorted(blocks.meas_col))) for k in range(n)
    )
    sol = solve_subproblem(layout)
    assert sol.status == "optimal"

    # closed-loop covariances from the one-step recursion (independent route)
    P_hat, P_u = recursive_covariances(segs, obs, P_hat0, P_til0, sol.policy)
    m_u = chi2_quantile_sqrt(stoch.eps_u, 3)
    for k in range(n):
        fro = np.sqrt(max(np.trace(P_u[k]), 0.0))
        # epigraph is pressed onto the true feedback magnitude
        assert sol.dv_feedback[k] == pytest.approx(fro, abs=2e-5)
        # the chance-constraint row holds with the oracle covariance
        total = np.linalg.norm(sol.controls[k]) + m_u * fro
        assert total <= u_max + 1e-5

    # terminal dispersion: trace form of the bound with oracle covariances
    pf_inv = np.linalg.inv(stoch.p_f)
    total_cov = P_hat[n] + sched.P_post[n]
    assert float(np.trace(pf_inv @ total_cov)) <= 1.0 + 1e-6
    # trace form dominates the spectral form
    assert np.linalg.eigvalsh(stoch.p_f - total_cov).min() >= -1e-8

    # mean chain still consistent in the stochastic build
    x_end = _propagate(segs, x0f, sol.controls)
    np.testing.assert_allclose(x_end - target, sol.xi, atol=1e-5)

    # objective equals dv bound plus penalties at the extracted values
    dts = grid.dts
    dv = float(np.sum((sol.dv_linear + DV99_MULTIPLIER * sol.dv_feedback) * dts))
    assert augmented_cost(dv, sol.xi, (), weights) == pytest.approx(
        sol.objective, rel=1e-5
    )


def test_thrust_risk_moves_only_the_thrust_chance_rows():
    # eps_u is the risk of the thrust chance constraint alone: the delta-v
    # bound's cost and the evaluated j_ub stay at the DV99_TAIL level
    prob, x0, _ = _stochastic_scp_problem()
    n = prob.grid.n_segments
    controls = 0.05 * np.random.default_rng(2).standard_normal((n, 3))
    policy = random_policy(np.random.default_rng(3), n)
    weights = PenaltyWeights(weight=1e3, lam_terminal=np.zeros(6))
    programs, j_ub = [], []
    for eps_u in (1e-2, 0.6):
        unc = dataclasses.replace(prob.uncertainty, eps_u=eps_u)
        point = evaluate_point(
            dataclasses.replace(prob, uncertainty=unc), x0, controls, policy=policy
        )
        assert point.dv_feedback > 0.0
        j_ub.append(point.j_ub)
        programs.append(build_subproblem(
            prob.grid, list(point.segments), point.states, point.controls,
            prob.u_max, TerminalSpec(x_target=prob.x_target), weights, 1.0,
            x0_fixed=x0,
            stochastic=StochasticSpec(
                blocks=point.blocks, schedule=point.schedule, eps_u=eps_u,
                p_f=unc.p_f,
            ),
        ).program)
    assert j_ub[0] == j_ub[1]

    lo, hi = programs
    assert lo.c.tobytes() == hi.c.tobytes()
    assert lo.b.tobytes() == hi.b.tobytes()
    assert lo.cones == hi.cones
    assert (lo.A != 0).nnz == (hi.A != 0).nnz == ((lo.A != 0) + (hi.A != 0)).nnz
    # the one entry that moves per thrust segment is b_k's coefficient in
    # its row u_max - a_k - m b_k >= 0, with m = chi2_quantile_sqrt(eps_u, 3)
    rows, cols = (lo.A != hi.A).nonzero()
    order = np.argsort(cols)
    rows, cols = rows[order], cols[order]
    columns = np.arange(lo.n_vars)
    np.testing.assert_array_equal(cols, columns[lo.var_blocks["b"]])
    np.testing.assert_array_equal(lo.b[rows], prob.u_max)
    a_cols = columns[lo.var_blocks["a"]]
    np.testing.assert_array_equal(np.asarray(lo.A.tocsr()[rows, a_cols]).ravel(), 1.0)
    for prog, eps_u in zip(programs, (1e-2, 0.6)):
        coef = np.asarray(prog.A.tocsr()[rows, cols]).ravel()
        np.testing.assert_array_equal(coef, chi2_quantile_sqrt(eps_u, 3))


def test_depth_one_feedback_keeps_only_the_latest_node():
    # banded feedback (depth 1) designs one gain block per thrust segment,
    # on its latest feedback node; it restricts the full-history design
    n = 6
    grid = _thrust_grid(n)
    segs, ref_states, _, _, blocks, stoch, _, _ = _stochastic_instance(n)
    measured = sorted(blocks.meas_col)
    weights = PenaltyWeights(weight=1e3, lam_terminal=np.zeros(6))
    x0f = np.array([0.4, -0.2, 0.1, 0.02, 0.01, -0.03])
    objective = {}
    for depth in (None, 1):
        layout = build_subproblem(
            grid, segs, ref_states, np.zeros((n, 3)), 0.6,
            TerminalSpec(x_target=np.zeros(6)), weights, 100.0, x0_fixed=x0f,
            stochastic=dataclasses.replace(stoch, feedback_depth=depth),
        )
        layout_audit(layout)
        sol = solve_subproblem(layout)
        assert sol.status == "optimal"
        objective[depth] = sol.objective
    latest = [(k, feedback_nodes(k, measured)[-1]) for k in grid.thrust_segments]
    assert layout.gain_pairs.tolist() == [list(p) for p in latest]
    designed = np.zeros((n, n + 1), dtype=bool)
    designed[tuple(np.array(latest).T)] = True
    assert not sol.policy.blocks[~designed].any()
    assert objective[1] >= objective[None] - 1e-7 * (1.0 + abs(objective[None]))


@pytest.mark.parametrize("depth", [0, -1, 1.5, "2"])
def test_records_reject_a_feedback_depth_below_one_or_not_an_integer(depth):
    _, _, obs, _, _, stoch, P_hat0, P_til0 = _stochastic_instance(3)
    with pytest.raises(ValueError, match="feedback depth"):
        dataclasses.replace(stoch, feedback_depth=depth)
    with pytest.raises(ValueError, match="feedback depth"):
        UncertaintyModel(
            obs=obs, p_hat0=P_hat0, p_tilde0=P_til0, eps_u=1e-2, p_f=stoch.p_f,
            feedback_depth=depth,
        )
    for ok in (None, 1, np.int64(2)):
        assert dataclasses.replace(stoch, feedback_depth=ok).feedback_depth == ok


def test_stochastic_instance_matches_cvxpy():
    cp = pytest.importorskip("cvxpy")
    n = 4
    grid = _thrust_grid(n)
    (segs, ref_states, obs, sched, blocks, stoch, P_hat0, P_til0) = (
        _stochastic_instance(n, measured=(0, 2), pf_scale=4.0)
    )
    x0f = np.array([0.3, -0.1, 0.2, 0.01, -0.02, 0.015])
    target = np.zeros(6)
    u_max = 0.7
    weights = PenaltyWeights(weight=100.0, lam_terminal=np.zeros(6))
    layout = build_subproblem(
        grid, segs, ref_states, np.zeros((n, 3)), u_max,
        TerminalSpec(x_target=target), weights, 50.0,
        x0_fixed=x0f, stochastic=stoch,
    )
    sol = solve_subproblem(layout)
    assert sol.status == "optimal"

    # independent model: same gain parameterization, same cone structure
    measured = sorted(blocks.meas_col)
    fb = {k: feedback_nodes(k, measured) for k in range(n)}
    m_u = chi2_quantile_sqrt(stoch.eps_u, 3)
    q = blocks.width
    dts = grid.dts

    u = cp.Variable((n, 3))
    xi = cp.Variable(6)
    K = {
        (k, i): cp.Variable((3, 6))
        for k in range(n)
        for i in fb[k]
    }
    pu_sqrt = {
        k: sum(K[(k, i)] @ blocks.s_row(i) for i in fb[k]) for k in range(n)
    }
    cons = []
    for k in range(n):
        cons.append(
            cp.norm(u[k]) + m_u * cp.norm(pu_sqrt[k], "fro") <= u_max
        )
    # mean chain
    x = x0f
    for k in range(n):
        x = segs[k].A @ x + segs[k].B @ u[k] + segs[k].c
    cons.append(x - target == xi)
    # terminal dispersion bound, trace form
    Bblk = dense_chain(segs)[1]
    dhat = blocks.s_row(n) + sum(Bblk[n, k] @ pu_sqrt[k] for k in range(n))
    L = np.linalg.cholesky(stoch.p_f)
    pf_inv_sqrt = np.linalg.solve(L, np.eye(6))
    ptil_sqrt = psd_sqrt(sched.P_post[n])
    cons.append(
        cp.norm(
            cp.hstack([pf_inv_sqrt @ dhat, pf_inv_sqrt @ ptil_sqrt]), "fro"
        )
        <= 1.0
    )
    # trust region (inactive at this radius, included for exactness)
    cons.append(cp.norm(cp.vec(u, order="C")) <= 50.0)

    w, tau = weights.weight, PENALTY_TAU
    obj = cp.sum(
        cp.hstack(
            [
                dts[k] * (cp.norm(u[k]) + DV99_MULTIPLIER * cp.norm(pu_sqrt[k], "fro"))
                for k in range(n)
            ]
        )
    )
    obj = obj + (w ** (tau - 1.0) / tau) * cp.sum(cp.power(cp.abs(xi), tau))
    obj = obj + 0.5 * w * cp.sum_squares(xi)
    prob = cp.Problem(cp.Minimize(obj), cons)
    prob.solve(solver=cp.CLARABEL)

    assert sol.objective == pytest.approx(prob.value, rel=2e-5, abs=1e-6)
    np.testing.assert_allclose(sol.controls, u.value, atol=5e-4)

    # both solutions clear the same oracle feasibility checks
    P_hat, P_u = recursive_covariances(segs, obs, P_hat0, P_til0, sol.policy)
    pf_inv = np.linalg.inv(stoch.p_f)
    assert float(np.trace(pf_inv @ (P_hat[n] + sched.P_post[n]))) <= 1.0 + 1e-6
    for k in range(n):
        total = np.linalg.norm(sol.controls[k]) + m_u * np.sqrt(
            np.trace(P_u[k])
        )
        assert total <= u_max + 1e-5


# ----------------------------------------------------------------------
# gravity-assist rows


def test_assist_chain_holds_reference_turn():
    # thrust -> zero-length flyby -> thrust, field-free; the target equals
    # the free-drift endpoint so the optimum stays at the reference
    vp = np.array([0.0, 1.0, 0.0])
    theta_ref = np.deg2rad(60.0)
    x0 = np.array([1.0, 0.0, 0.0, 0.35, 1.0, 0.35])

    seg0 = linearize_segment(0, x0, np.zeros(3), 0.0, 1.0, mu=0.0)
    x1 = seg0.A @ x0 + seg0.c
    vi_pre = x1[3:] - vp
    speed = np.linalg.norm(vi_pre)
    # rotate the excess velocity by theta_ref about a perpendicular axis
    axis = np.cross(vi_pre, [0.0, 0.0, 1.0])
    axis /= np.linalg.norm(axis)
    ct, st = np.cos(theta_ref), np.sin(theta_ref)
    vi_post = (
        ct * vi_pre
        + st * np.cross(axis, vi_pre)
        + (1 - ct) * axis * (axis @ vi_pre)
    )
    u_ga = cayley_from_turn(vi_pre, vi_post)
    seg1 = ga_linearize(x1, u_ga, vp)
    x2 = ga_map(x1, u_ga, vp)
    seg2 = linearize_segment(2, x2, np.zeros(3), 1.0, 2.0, mu=0.0)
    x3 = seg2.A @ x2 + seg2.c

    grid = TimeGrid(
        epochs=(0.0, 1.0, 1.0, 2.0),
        kinds=("thrust", "ga", "thrust", "coast"),
    )
    ref_states = np.array([x0, x1, x2, x3])
    ref_controls = np.array([np.zeros(3), u_ga, np.zeros(3)])
    mu_p, r_p_min = 1.0, 1.0
    assert max_v_inf_for_safe_flyby(theta_ref, mu_p, r_p_min) > speed

    assist = GaEvent(segment=1, mu_p=mu_p, r_p_min=r_p_min, v_planet=vp, eps=1e-3)
    weights = PenaltyWeights(
        weight=1e3, lam_terminal=np.zeros(6), lam_assists=(0.0,)
    )
    args = (
        grid, [seg0, seg1, seg2], ref_states, ref_controls, 0.5,
        TerminalSpec(x_target=x3), weights, 10.0,
    )
    with pytest.raises(ValueError):
        # theta = pi lies outside the default turn-angle window
        build_subproblem(*args, x0_fixed=x0, assists=[assist], theta_refs=[np.pi])
    layout = build_subproblem(*args, x0_fixed=x0, assists=[assist], theta_refs=[theta_ref])
    audit = layout_audit(layout)
    assert audit["total"] == layout.program.n_vars
    assert audit["assist_controls"] == 3
    assert audit["turn_angles"] == 1
    sol = solve_subproblem(layout)
    assert sol.status == "optimal"

    # reachable target: essentially no thrust, no relaxation
    assert np.linalg.norm(sol.xi) < 1e-5
    assert sol.zetas[0] < 1e-6
    assert sol.thetas[0] == pytest.approx(theta_ref, abs=1e-5)

    # mean chain through the flyby matches the slack bookkeeping
    x_end = _propagate([seg0, seg1, seg2], x0, sol.controls)
    np.testing.assert_allclose(x_end - x3, sol.xi, atol=1e-5)

    # the solved point satisfies the nonlinear turn-angle consistency
    xs = [x0]
    for k, seg in enumerate([seg0, seg1, seg2]):
        xs.append(seg.A @ xs[-1] + seg.B @ sol.controls[k] + seg.c)
    vi_pre_s = xs[1][3:] - vp
    vi_post_s = xs[2][3:] - vp
    g = np.dot(vi_pre_s, vi_pre_s) * np.cos(sol.thetas[0]) - np.dot(
        vi_post_s, vi_pre_s
    )
    assert abs(g) < 1e-6
    # and the flyby-safety envelope
    assert (
        np.linalg.norm(vi_pre_s)
        <= max_v_inf_for_safe_flyby(sol.thetas[0], mu_p, r_p_min) + 1e-6
    )


def test_gain_block_triplets_hold_every_nonzero_and_no_zero():
    """Rows vec(left @ G @ s_block) from the triplets, with zero rows and columns."""
    rng = np.random.default_rng(3)
    left = rng.standard_normal((4, 3))
    left[1] = 0.0
    s_blk = rng.standard_normal((6, 5))
    s_blk[4] = 0.0
    s_blk[:, 2] = 0.0
    idx = np.arange(18).reshape(3, 6)
    rows, cols, vals = _vec_product_triplets(1, left, s_blk, idx)
    assert np.all(vals != 0.0)
    assert vals.size == np.count_nonzero(left[:, None, :, None] * s_blk.T[None, :, None, :])
    A = np.zeros((1 + 4 * 5, 18))
    np.add.at(A, (rows, cols), vals)
    G = rng.standard_normal((3, 6))
    assert not A[0].any()
    np.testing.assert_allclose(
        A[1:] @ G.ravel(), -(left @ G @ s_blk).ravel(), rtol=1e-12, atol=1e-14
    )


def test_extract_solution_gathers_each_gain_pair_from_its_columns():
    n = 6
    segs, ref_states, _, _, blocks, stoch, _, _ = _stochastic_instance(n)
    layout = build_subproblem(
        _thrust_grid(n), segs, ref_states, np.zeros((n, 3)), 0.6,
        TerminalSpec(x_target=np.zeros(6)),
        PenaltyWeights(weight=1e3, lam_terminal=np.zeros(6)), 100.0, stochastic=stoch,
    )
    pairs = layout.gain_pairs
    assert pairs.tolist() == [
        [k, i] for k in range(n) for i in feedback_nodes(k, sorted(blocks.meas_col))
    ]
    x = np.arange(layout.program.n_vars, dtype=float)
    result = SolveResult(
        status="optimal", x=x, obj=0.0, iterations=0, pres=0.0, dres=0.0, gap=0.0
    )
    gains = extract_solution(layout, result).policy.blocks
    # pair j reads the 18 consecutive columns from 18 j on in block K
    first = layout.program.var_blocks["K"].start
    k, i = pairs.T
    np.testing.assert_array_equal(
        gains[k, i].reshape(-1, 18), first + np.arange(18 * len(pairs)).reshape(-1, 18)
    )
    unpaired = np.ones(gains.shape[:2], dtype=bool)
    unpaired[k, i] = False
    assert not np.any(gains[unpaired])


def test_extract_solution_reads_every_kind_from_its_own_columns():
    """With x = arange(n_vars) every read-back value names its own column."""
    prob, guess = _flyby_problem()
    unc = prob.uncertainty
    point = evaluate_point(prob, guess.x0, guess.controls, thetas=guess.thetas)
    layout = build_subproblem(
        prob.grid, list(point.segments), point.states, point.controls, prob.u_max,
        TerminalSpec(x_target=prob.x_target),
        PenaltyWeights(weight=1e3, lam_terminal=np.zeros(6), lam_assists=(0.0,)), 1.0,
        x0_fixed=prob.x0_fixed, assists=prob.ga_events, theta_refs=guess.thetas,
        stochastic=StochasticSpec(
            blocks=point.blocks, schedule=point.schedule, eps_u=unc.eps_u, p_f=unc.p_f
        ),
    )
    layout_audit(layout)
    blocks = layout.program.var_blocks
    x = np.arange(layout.program.n_vars, dtype=float)
    sol = extract_solution(layout, SolveResult(
        status="optimal", x=x, obj=0.0, iterations=0, pres=0.0, dres=0.0, gap=0.0
    ))

    def cols(name):
        return x[blocks[name]]

    thrust, ga = [0, 2], [1]  # segments: thrust, flyby, thrust
    np.testing.assert_array_equal(sol.x0, cols("x0"))
    np.testing.assert_array_equal(sol.controls.ravel(), cols("u"))
    assert sol.thetas == tuple(cols("theta"))
    np.testing.assert_array_equal(sol.dv_linear[thrust], cols("a"))
    np.testing.assert_array_equal(sol.dv_feedback[thrust], cols("b"))
    assert not sol.dv_linear[ga].any() and not sol.dv_feedback[ga].any()
    np.testing.assert_array_equal(sol.xi, cols("xi"))
    # the assist row is (zeta, c1, c2)
    assert sol.zetas == (cols("assist")[0],)
    k, i = layout.gain_pairs.T
    np.testing.assert_array_equal(sol.policy.blocks[k, i].ravel(), cols("K"))
    read = np.concatenate([
        sol.x0, sol.controls.ravel(), sol.thetas, sol.policy.blocks[k, i].ravel(),
        sol.dv_linear[thrust], sol.dv_feedback[thrust], sol.xi, sol.zetas,
    ])
    assert np.unique(read).size == read.size


# ----------------------------------------------------------------------
# determinism and validation


def test_build_and_solve_are_deterministic():
    n = 5
    grid = _thrust_grid(n)
    segs, ref_states = _drift_chain(n)
    weights = PenaltyWeights(weight=200.0, lam_terminal=np.full(6, 0.1))
    kwargs = dict(
        u_max=0.4,
        terminal=TerminalSpec(x_target=np.zeros(6)),
        weights=weights,
        trust_radius=30.0,
        x0_fixed=np.array([0.5, 0.2, -0.1, 0.0, 0.03, -0.01]),
    )
    la = build_subproblem(grid, segs, ref_states, np.zeros((n, 3)), **kwargs)
    lb = build_subproblem(grid, segs, ref_states, np.zeros((n, 3)), **kwargs)
    assert la.program.dump() == lb.program.dump()
    ra = solve_subproblem(la)
    rb = solve_subproblem(lb)
    assert ra.status == rb.status == "optimal"
    assert ra.result.x.tobytes() == rb.result.x.tobytes()


def test_build_validation_errors():
    n = 3
    grid = _thrust_grid(n)
    segs, ref_states = _drift_chain(n)
    weights = PenaltyWeights(weight=10.0, lam_terminal=np.zeros(6))
    term = TerminalSpec(x_target=np.zeros(6))
    ok = dict(
        u_max=0.5, terminal=term, weights=weights, trust_radius=10.0,
    )
    with pytest.raises(ValueError):
        build_subproblem(grid, segs[:-1], ref_states, np.zeros((n, 3)), **ok)
    with pytest.raises(ValueError):
        build_subproblem(
            grid, segs, ref_states[:-1], np.zeros((n, 3)), **ok
        )
    with pytest.raises(ValueError):
        build_subproblem(grid, segs, ref_states, np.zeros((n, 2)), **ok)
    with pytest.raises(ValueError):
        build_subproblem(
            grid, segs, ref_states, np.zeros((n, 3)),
            u_max=-1.0, terminal=term, weights=weights, trust_radius=10.0,
        )
    with pytest.raises(ValueError):
        build_subproblem(
            grid, segs, ref_states, np.zeros((n, 3)),
            u_max=0.5, terminal=term, weights=weights, trust_radius=0.0,
        )
    with pytest.raises(ValueError):
        # launch spec and a pinned x0 are mutually exclusive
        build_subproblem(
            grid, segs, ref_states, np.zeros((n, 3)), **ok,
            launch=LaunchSpec(np.zeros(3), np.zeros(3), 1.0),
            x0_fixed=np.zeros(6),
        )
    with pytest.raises(ValueError):
        # an assist on a non-GA grid cannot be valid
        build_subproblem(
            grid, segs, ref_states, np.zeros((n, 3)), **ok,
            assists=[
                GaEvent(segment=1, mu_p=1.0, r_p_min=1.0, v_planet=np.zeros(3), eps=1e-3)
            ],
            theta_refs=[1.0],
        )
    with pytest.raises(ValueError):
        # multiplier count must match the assist count
        PenaltyWeights(
            weight=10.0, lam_terminal=np.zeros(6), lam_assists=(0.0,)
        )
        build_subproblem(
            grid, segs, ref_states, np.zeros((n, 3)),
            u_max=0.5, terminal=term, trust_radius=10.0,
            weights=PenaltyWeights(
                weight=10.0, lam_terminal=np.zeros(6), lam_assists=(0.1,)
            ),
        )


def _variant_programs():
    """The program of each build_subproblem variant, by name."""
    n = 4
    grid = _thrust_grid(n)
    segs, ref_states = _drift_chain(n)
    weights = PenaltyWeights(weight=10.0, lam_terminal=np.zeros(6))
    term = TerminalSpec(x_target=np.ones(6))
    common = (grid, segs, ref_states, np.zeros((n, 3)), 0.5, term, weights, 10.0)
    noisy, noisy_states, *_, stoch, _, _ = _stochastic_instance(n, measured=(0, 2))
    fly_prob, fly_guess = _flyby_problem()
    point = evaluate_point(fly_prob, fly_guess.x0, fly_guess.controls, thetas=fly_guess.thetas)
    unc = fly_prob.uncertainty
    layouts = {
        "mean-only": build_subproblem(*common),
        "x0_fixed": build_subproblem(*common, x0_fixed=np.zeros(6)),
        "launch": build_subproblem(
            *common, launch=LaunchSpec(np.zeros(3), np.zeros(3), 0.5)
        ),
        "stochastic": build_subproblem(
            grid, noisy, noisy_states, np.zeros((n, 3)), 0.6, term, weights, 100.0,
            stochastic=stoch,
        ),
        "flyby": build_subproblem(
            fly_prob.grid, list(point.segments), point.states, point.controls,
            fly_prob.u_max, TerminalSpec(x_target=fly_prob.x_target), PenaltyWeights(
                weight=10.0, lam_terminal=np.zeros(6), lam_assists=(0.0,)
            ), 0.5, x0_fixed=fly_prob.x0_fixed, assists=fly_prob.ga_events,
            theta_refs=point.thetas, stochastic=StochasticSpec(
                blocks=point.blocks, schedule=point.schedule, eps_u=unc.eps_u, p_f=unc.p_f,
            ),
        ),
    }
    return {name: (layout.program, len(layout.assists)) for name, layout in layouts.items()}


def test_every_variant_is_built_in_class_order():
    # zero, then nonneg, then soc: the solver's form as built. Each relaxed
    # row's |w z|^1.1 epigraph is a power cone's tower of 5 soc cones on 4
    # columns after every block, next to its quadratic epigraph's soc
    for name, (prog, n_assist) in _variant_programs().items():
        kinds = [c.kind for c in prog.cones]
        classes = [{"zero": 0, "nonneg": 1}.get(k, 2) for k in kinds]
        assert classes == sorted(classes), name
        assert is_canonical(prog.cones), name
        assert classes.count(0) and classes.count(2), name
        n_relaxed = 6 + n_assist
        assert prog.var_blocks["penalty"].stop == prog.n_vars - 4 * n_relaxed, name
        # per relaxed row: (t, s2), three cells, the closing cell, then pq's soc
        dims = [c.dim for c in prog.cones]
        penalty = dims[len(dims) - 1 - 6 * n_relaxed : -1]
        assert penalty == [2, 3, 3, 3, 3, 3] * n_relaxed, name


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["u_max", "trust_radius"])
def test_build_rejects_nan_and_inf_bounds(field, bad):
    n = 3
    segs, ref_states = _drift_chain(n)
    ok = dict(
        u_max=0.5, terminal=TerminalSpec(x_target=np.zeros(6)),
        weights=PenaltyWeights(weight=10.0, lam_terminal=np.zeros(6)), trust_radius=10.0,
    )
    build_subproblem(_thrust_grid(n), segs, ref_states, np.zeros((n, 3)), **ok)
    with pytest.raises(ValueError, match="finite"):
        build_subproblem(
            _thrust_grid(n), segs, ref_states, np.zeros((n, 3)), **{**ok, field: bad}
        )


@pytest.mark.parametrize("p_f", [
    np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]),
    np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0]),
    np.diag([1.0, 1.0, 1.0, 1.0, 1.0, np.nan]),
])
def test_terminal_bound_must_be_positive_definite(p_f):
    _, _, obs, sched, blocks, _, P_hat0, P_til0 = _stochastic_instance(3)
    with pytest.raises(ValueError, match="p_f"):
        StochasticSpec(blocks=blocks, schedule=sched, eps_u=1e-2, p_f=p_f)
    with pytest.raises(ValueError, match="p_f"):
        UncertaintyModel(obs=obs, p_hat0=P_hat0, p_tilde0=P_til0, eps_u=1e-2, p_f=p_f)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        TerminalSpec(x_target=np.zeros(5))
    with pytest.raises(ValueError):
        LaunchSpec(r_body=np.zeros(2), v_body=np.zeros(3), v_inf_max=1.0)
    with pytest.raises(ValueError):
        LaunchSpec(r_body=np.zeros(3), v_body=np.zeros(3), v_inf_max=0.0)
    with pytest.raises(ValueError):
        PenaltyWeights(weight=0.0, lam_terminal=np.zeros(6))


_VALID_SPECS = {
    "LaunchSpec": (LaunchSpec, dict(r_body=np.ones(3), v_body=np.ones(3), v_inf_max=1.0)),
    "TerminalSpec": (TerminalSpec, dict(x_target=np.ones(6))),
    "PenaltyWeights": (
        PenaltyWeights,
        dict(weight=1.0, lam_terminal=np.ones(6), lam_assists=(1.0, 1.0)),
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "spec, field",
    [
        ("LaunchSpec", "r_body"),
        ("LaunchSpec", "v_body"),
        ("LaunchSpec", "v_inf_max"),
        ("TerminalSpec", "x_target"),
        ("PenaltyWeights", "weight"),
        ("PenaltyWeights", "lam_terminal"),
        ("PenaltyWeights", "lam_assists"),
    ],
)
def test_spec_records_reject_nan_and_inf(spec, field, bad):
    cls, kwargs = _VALID_SPECS[spec]
    cls(**kwargs)
    value = kwargs[field]
    if np.ndim(value):
        value = np.array(value, dtype=float)
        value[-1] = bad
    else:
        value = bad
    with pytest.raises(ValueError, match="finite"):
        cls(**{**kwargs, field: value})

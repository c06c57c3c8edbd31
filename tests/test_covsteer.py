"""Block-system covariance algebra vs one-step recursive oracles."""

import numpy as np
import pytest

from covtraj.covsteer import (
    FeedbackPolicy,
    build_block_system,
    control_cov_sqrt,
    dispersion_sqrt,
    kalman_precompute,
    measurement_update,
    pull_back,
)
from covtraj.dynamics import linearize_segment
from covtraj.errors import NumericalError
from covtraj.gravity_assist import ga_linearize
from covtraj.uncertainty import ObservationModel
from oracles import (
    dense_chain,
    estimate_deviation_gains,
    random_observations,
    random_policy,
    random_segments,
    recursive_covariances,
    recursive_filter,
    simulate_closed_loop_paths,
    state_mean,
)


def test_kalman_matches_textbook_recursion():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = 8
        segs = random_segments(rng, n)
        obs = random_observations(rng, n + 1)
        P0 = 0.5 * np.eye(6)
        sched = kalman_precompute(segs, obs, P0)
        Pm, Pp, gains, innov = recursive_filter(segs, obs, P0)
        np.testing.assert_allclose(sched.P_prior, Pm, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sched.P_post, Pp, rtol=0, atol=1e-12)
        for k in range(n + 1):
            if gains[k] is None:
                assert sched.gains[k] is None
            else:
                np.testing.assert_allclose(sched.gains[k], gains[k], atol=1e-12)
                S = sched.innov_sqrt[k] @ sched.innov_sqrt[k].T
                np.testing.assert_allclose(S, innov[k], atol=1e-12)


def test_kalman_posterior_never_exceeds_prior():
    rng = np.random.default_rng(1)
    n = 10
    segs = random_segments(rng, n)
    obs = random_observations(rng, n + 1)
    sched = kalman_precompute(segs, obs, np.eye(6))
    for k in range(n + 1):
        gap = sched.P_prior[k] - sched.P_post[k]
        eigs = np.linalg.eigvalsh(0.5 * (gap + gap.T))
        assert eigs.min() > -1e-10
        # posterior itself stays PSD
        assert np.linalg.eigvalsh(sched.P_post[k]).min() > -1e-10


def test_kalman_singular_innovation_covariance_raises():
    # an exact prior observed through rank-one noise leaves S = D D' singular
    rng = np.random.default_rng(5)
    segs = random_segments(rng, 2)
    D = np.diag([0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
    obs = ObservationModel(has_measurement=(True, False, False), sqrt_noise=(D, None, None))
    with pytest.raises(NumericalError, match="node 0"):
        kalman_precompute(segs, obs, np.zeros((6, 6)))


def test_measurement_update_fails_only_the_singular_row():
    rng = np.random.default_rng(6)
    G = rng.standard_normal((6, 6))
    P = np.stack([G @ G.T, np.zeros((6, 6)), np.eye(6)])
    D = np.diag([0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
    P_post, L, S, failures = measurement_update(P, D)
    assert list(failures) == [1]
    assert np.isnan(P_post[1]).all() and np.isnan(L[1]).all()
    for i in (0, 2):
        P_alone, L_alone, S_alone, alone_failures = measurement_update(P[i : i + 1], D)
        assert not alone_failures
        np.testing.assert_array_equal(P_post[i], P_alone[0])
        np.testing.assert_array_equal(L[i], L_alone[0])
        np.testing.assert_array_equal(S[i], S_alone[0])


def test_state_mean_matches_recursion():
    rng = np.random.default_rng(2)
    n = 7
    segs = random_segments(rng, n)
    obs = random_observations(rng, n + 1)
    sched = kalman_precompute(segs, obs, np.eye(6))
    blocks = build_block_system(segs, sched, 0.1 * np.eye(6))
    x0 = rng.standard_normal(6)
    U = rng.standard_normal((n, 3))
    mean = state_mean(blocks, x0, U)
    x = x0.copy()
    np.testing.assert_allclose(mean[0], x, atol=1e-13)
    for k, s in enumerate(segs):
        x = s.A @ x + s.B @ U[k] + s.c
        np.testing.assert_allclose(mean[k + 1], x, atol=1e-11)


def test_uncontrolled_rows_match_innovation_state_covariance():
    # Gram of S_sqrt block row k must equal the oracle Cov(z_k, z_k)
    rng = np.random.default_rng(3)
    n = 6
    segs = random_segments(rng, n)
    obs = random_observations(rng, n + 1)
    P_hat0 = 0.3 * np.eye(6)
    P_til0 = 0.8 * np.eye(6)
    sched = kalman_precompute(segs, obs, P_til0)
    blocks = build_block_system(segs, sched, P_hat0)
    P_hat_oracle, _ = recursive_covariances(
        segs, obs, P_hat0, P_til0, FeedbackPolicy.zeros(n)
    )
    for k in range(n + 1):
        row = blocks.s_row(k)
        np.testing.assert_allclose(row @ row.T, P_hat_oracle[k], atol=1e-11)


def test_block_covariances_match_recursive_oracle():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(3, 9))
        segs = random_segments(rng, n)
        obs = random_observations(rng, n + 1)
        A0 = rng.standard_normal((6, 6))
        P_hat0 = 0.2 * (A0 @ A0.T)
        A1 = rng.standard_normal((6, 6))
        P_til0 = 0.5 * (A1 @ A1.T)
        policy = random_policy(rng, n)

        sched = kalman_precompute(segs, obs, P_til0)
        blocks = build_block_system(segs, sched, P_hat0)
        u_sq = control_cov_sqrt(blocks, policy)
        x_sq = dispersion_sqrt(blocks, policy, u_sq)

        P_hat_o, P_u_o = recursive_covariances(segs, obs, P_hat0, P_til0, policy)
        scale_x = max(np.max(np.abs(P_hat_o)), 1e-12)
        scale_u = max(np.max(np.abs(P_u_o)), 1e-12)
        for k in range(n + 1):
            np.testing.assert_allclose(
                x_sq[k] @ x_sq[k].T, P_hat_o[k], atol=1e-10 * scale_x
            )
        for k in range(n):
            np.testing.assert_allclose(
                u_sq[k] @ u_sq[k].T, P_u_o[k], atol=1e-10 * scale_u
            )


def test_policy_validation():
    with pytest.raises(ValueError):
        FeedbackPolicy(np.zeros((3, 3, 3, 6)))  # wrong second axis
    bad = np.zeros((3, 4, 3, 6))
    bad[0, 2] = 1.0  # anti-causal block
    with pytest.raises(ValueError):
        FeedbackPolicy(bad)
    p = FeedbackPolicy.zeros(4)
    assert not np.any(p.blocks) and p.n_segments == 4


def test_policy_forms_produce_identical_sample_paths():
    # innovation-state gains and converted estimate-deviation gains command
    # the same control on every sample path
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = int(rng.integers(3, 7))
        segs = random_segments(rng, n)
        obs = random_observations(rng, n + 1)
        A0 = rng.standard_normal((6, 6))
        P_hat0 = 0.2 * (A0 @ A0.T) + 0.01 * np.eye(6)
        A1 = rng.standard_normal((6, 6))
        P_til0 = 0.5 * (A1 @ A1.T) + 0.01 * np.eye(6)
        policy = random_policy(rng, n)
        sched = kalman_precompute(segs, obs, P_til0)
        blocks = build_block_system(segs, sched, P_hat0)
        policy_hat = estimate_deviation_gains(blocks, policy)
        x0 = rng.standard_normal(6)
        U = rng.standard_normal((n, 3))
        Xi, Ui, Xh, Uh = simulate_closed_loop_paths(
            segs, obs, x0, U, policy, policy_hat, P_hat0, P_til0, seed=100 + trial
        )
        np.testing.assert_allclose(Uh, Ui, atol=1e-9 * max(1.0, np.max(np.abs(Ui))))
        np.testing.assert_allclose(Xh, Xi, atol=1e-9 * max(1.0, np.max(np.abs(Xi))))


def test_ga_segment_breaks_no_machinery():
    # zero-duration noiseless segments (flyby slots) flow through the stack
    rng = np.random.default_rng(8)
    segs = random_segments(rng, 5)
    ga = segs[2]
    object.__setattr__(ga, "G_exe", np.zeros((6, 3)))
    object.__setattr__(ga, "G_proc", np.zeros((6, 0)))
    flags = [True, True, False, True, True, True]
    noises = [np.eye(6) * 0.3 if f else None for f in flags]
    from covtraj.uncertainty import ObservationModel

    obs = ObservationModel(has_measurement=tuple(flags), sqrt_noise=tuple(noises))
    sched = kalman_precompute(segs, obs, np.eye(6))
    # GA node: posterior equals prior
    np.testing.assert_array_equal(sched.P_prior[2], sched.P_post[2])
    blocks = build_block_system(segs, sched, np.eye(6))
    policy = random_policy(rng, 5)
    P_hat_o, P_u_o = recursive_covariances(segs, obs, np.eye(6), np.eye(6), policy)
    x_sq = dispersion_sqrt(blocks, policy)
    for k in range(6):
        np.testing.assert_allclose(
            x_sq[k] @ x_sq[k].T, P_hat_o[k], atol=1e-9 * np.max(np.abs(P_hat_o))
        )


def _rel_close(got, want, rtol=1e-12):
    """Norm-relative closeness of two arrays."""
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def _segments_with_assist(rng, n, at):
    """Random segments with the one at index ``at`` replaced by a flyby map."""
    segs = random_segments(rng, n)
    x_pre = np.array([1.0, 0.2, -0.1, 0.3, 1.1, 0.2])
    segs[at] = ga_linearize(x_pre, np.array([0.1, 0.4, -0.2]), np.array([0.0, 1.0, 0.0]))
    return segs


def _keplerian_segments(n):
    """Thrust segments chained along a near-circular orbit, mu = 1."""
    segs, x = [], np.array([1.0, 0.0, 0.0, 0.0, 1.05, 0.02])
    for k in range(n):
        u = 0.01 * np.array([np.cos(k), np.sin(k), 0.5])
        segs.append(linearize_segment(k, x, u, 0.4 * k, 0.4 * (k + 1), mu=1.0))
        x = segs[-1].A @ x + segs[-1].B @ u + segs[-1].c
    return segs


@pytest.mark.parametrize("case", ["random_with_assist", "keplerian"])
def test_pull_back_matches_dense_chain_at_every_node(case):
    rng = np.random.default_rng(9)
    n = 8
    if case == "keplerian":
        segs = _keplerian_segments(n)
    else:
        segs = _segments_with_assist(rng, n, 3)
    Phi, Bblk, Cvec = dense_chain(segs)
    left = rng.standard_normal((3, 6))
    for node in range(n + 1):
        to_x0, to_u, drift = pull_back(segs, left, node)
        assert to_u.shape == (node, 3, 3)
        _rel_close(to_x0, left @ Phi[node])
        _rel_close(drift, left @ Cvec[node])
        for k in range(node):
            _rel_close(to_u[k], left @ Bblk[node, k])


def test_dispersion_sqrt_matches_dense_sum():
    # S_row(k) + sum_{i<k} Bblk[k, i] U_i, the condensed form of the sweep
    rng = np.random.default_rng(10)
    for trial in range(4):
        n = int(rng.integers(3, 9))
        segs = random_segments(rng, n)
        if trial % 2:
            segs = _segments_with_assist(rng, n, n // 2)
        obs = random_observations(rng, n + 1)
        sched = kalman_precompute(segs, obs, 0.5 * np.eye(6))
        blocks = build_block_system(segs, sched, 0.2 * np.eye(6))
        policy = random_policy(rng, n)
        u_sq = control_cov_sqrt(blocks, policy)
        Bblk = dense_chain(segs)[1]
        d_sq = dispersion_sqrt(blocks, policy)
        assert d_sq.shape == (n + 1, 6, blocks.width)
        for k in range(n + 1):
            want = blocks.s_row(k) + sum(Bblk[k, i] @ u_sq[i] for i in range(k))
            _rel_close(d_sq[k], want)

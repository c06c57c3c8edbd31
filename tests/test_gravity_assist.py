"""Flyby map, Cayley rotation, and safety-envelope checks."""

import numpy as np
import pytest

from covtraj.gravity_assist import (
    GaEvent,
    cayley_from_turn,
    cayley_rotation,
    ga_linearize,
    ga_map,
    max_v_inf_derivative,
    max_v_inf_for_safe_flyby,
    periapsis_radius,
    skew,
    turn_angle,
    turn_angle_constraint_lin,
)


def test_skew_matches_cross():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-15)


def test_cayley_rotation_orthogonal():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = 3.0 * rng.standard_normal(3)
        R = cayley_rotation(u)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_cayley_turn_angle_identity():
    # the rotation angle satisfies tan(theta/2) = |u|
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = 2.0 * rng.standard_normal(3)
        R = cayley_rotation(u)
        theta = np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
        assert np.tan(theta / 2.0) == pytest.approx(np.linalg.norm(u), rel=1e-9)


def test_cayley_axis_is_fixed():
    u = np.array([0.3, -0.5, 0.7])
    R = cayley_rotation(u)
    np.testing.assert_allclose(R @ u, u, atol=1e-13)


def test_ga_map_preserves_excess_speed():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(6)
        u = rng.standard_normal(3)
        vp = rng.standard_normal(3)
        x_post = ga_map(x, u, vp)
        np.testing.assert_array_equal(x_post[:3], x[:3])
        assert np.linalg.norm(x_post[3:] - vp) == pytest.approx(
            np.linalg.norm(x[3:] - vp), rel=1e-12
        )


def test_ga_map_zero_parameter_is_identity():
    x = np.array([1.0, 2.0, 3.0, -0.5, 0.2, 0.9])
    np.testing.assert_allclose(ga_map(x, np.zeros(3), np.ones(3)), x, atol=1e-15)


def test_ga_linearize_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal(6)
        u = 0.5 * rng.standard_normal(3)
        vp = rng.standard_normal(3)
        seg = ga_linearize(x, u, vp)
        # affine exactness at the reference
        np.testing.assert_allclose(
            seg.A @ x + seg.B @ u + seg.c, ga_map(x, u, vp), atol=1e-12
        )
        h = 1e-7
        A_fd = np.zeros((6, 6))
        for j in range(6):
            d = np.zeros(6)
            d[j] = h
            A_fd[:, j] = (ga_map(x + d, u, vp) - ga_map(x - d, u, vp)) / (2 * h)
        B_fd = np.zeros((6, 3))
        for j in range(3):
            d = np.zeros(3)
            d[j] = h
            B_fd[:, j] = (ga_map(x, u + d, vp) - ga_map(x, u - d, vp)) / (2 * h)
        np.testing.assert_allclose(seg.A, A_fd, atol=2e-6)
        np.testing.assert_allclose(seg.B, B_fd, atol=2e-6)
        assert not np.any(seg.G_exe)


def test_cayley_from_turn_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.standard_normal(3)
        u_true = 1.5 * rng.standard_normal(3)
        b = cayley_rotation(u_true) @ a
        u = cayley_from_turn(a, b)
        np.testing.assert_allclose(cayley_rotation(u) @ a, b, atol=1e-9)
        # recovered turn angle matches the geometric angle
        assert 2.0 * np.arctan(np.linalg.norm(u)) == pytest.approx(
            turn_angle(a, b), abs=1e-9
        )


def test_turn_angle_bounds():
    a = np.array([1.0, 0.0, 0.0])
    assert turn_angle(a, a) == 0.0
    assert turn_angle(a, -a) == pytest.approx(np.pi)
    assert turn_angle(a, np.array([0.0, 1.0, 0.0])) == pytest.approx(np.pi / 2)


def test_periapsis_radius_limits():
    # theta = pi grazes the center
    assert periapsis_radius(1.0, np.pi, mu_p=1.0) == 0.0
    # small turns push periapsis out
    assert periapsis_radius(1.0, 0.1, 1.0) > periapsis_radius(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        periapsis_radius(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        periapsis_radius(1.0, 0.0, 1.0)


def test_safe_envelope_consistency():
    # at the envelope speed, the periapsis equals r_p_min exactly
    mu_p, rp = 0.7, 0.02
    for theta in (0.3, 1.0, 2.5):
        v = max_v_inf_for_safe_flyby(theta, mu_p, rp)
        assert periapsis_radius(v, theta, mu_p) == pytest.approx(rp, rel=1e-12)


def test_safe_envelope_derivative_matches_fd():
    mu_p, rp = 0.7, 0.02
    h = 1e-7
    for theta in (0.3, 1.0, 2.5):
        d = max_v_inf_derivative(theta, mu_p, rp)
        fd = (
            max_v_inf_for_safe_flyby(theta + h, mu_p, rp)
            - max_v_inf_for_safe_flyby(theta - h, mu_p, rp)
        ) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-6)
    with pytest.raises(ValueError):
        max_v_inf_derivative(np.pi, mu_p, rp)


def test_turn_angle_constraint_linearization():
    rng = np.random.default_rng(6)
    vp = np.array([0.1, -0.9, 0.05])

    def g(x_pre, x_post, theta):
        vi = x_pre[3:] - vp
        vo = x_post[3:] - vp
        return np.dot(vi, vi) * np.cos(theta) - np.dot(vo, vi)

    for _ in range(20):
        x_pre = rng.standard_normal(6)
        x_post = rng.standard_normal(6)
        theta = rng.uniform(0.2, 2.8)
        g0, dpre, dpost, dth = turn_angle_constraint_lin(x_pre, x_post, theta, vp)
        assert g0 == pytest.approx(g(x_pre, x_post, theta), abs=1e-13)
        h = 1e-7
        for j in range(6):
            d = np.zeros(6)
            d[j] = h
            fd = (g(x_pre + d, x_post, theta) - g(x_pre - d, x_post, theta)) / (2 * h)
            assert dpre[j] == pytest.approx(fd, abs=1e-6)
            fd = (g(x_pre, x_post + d, theta) - g(x_pre, x_post - d, theta)) / (2 * h)
            assert dpost[j] == pytest.approx(fd, abs=1e-6)
        fd = (g(x_pre, x_post, theta + h) - g(x_pre, x_post, theta - h)) / (2 * h)
        assert dth == pytest.approx(fd, abs=1e-6)


def test_constraint_zero_when_consistent():
    # when theta equals the actual turn angle the residual vanishes
    rng = np.random.default_rng(7)
    vp = rng.standard_normal(3)
    x_pre = rng.standard_normal(6)
    u = np.array([0.4, -0.2, 0.6])
    x_post = ga_map(x_pre, u, vp)
    theta = turn_angle(x_pre[3:] - vp, x_post[3:] - vp)
    g0, *_ = turn_angle_constraint_lin(x_pre, x_post, theta, vp)
    assert g0 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "window", [(2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (0.5, np.pi), (0.5, 4.0), (np.nan, 1.0)]
)
def test_turn_angle_window_must_lie_inside_zero_pi(window):
    theta_min, theta_max = window
    with pytest.raises(ValueError, match="turn-angle window"):
        GaEvent(segment=1, mu_p=1.0, r_p_min=1.0, v_planet=np.zeros(3), eps=1e-3,
                theta_min=theta_min, theta_max=theta_max)


def test_gravity_assist_validation():
    vp = np.zeros(3)
    GaEvent(segment=3, mu_p=1e-5, r_p_min=1e-4, v_planet=vp, eps=1e-3)
    with pytest.raises(ValueError):
        GaEvent(segment=3, mu_p=-1.0, r_p_min=1e-4, v_planet=vp, eps=1e-3)
    with pytest.raises(ValueError):
        GaEvent(segment=3, mu_p=1e-5, r_p_min=1e-4, v_planet=vp, eps=2.0)
    with pytest.raises(ValueError):
        GaEvent(segment=3, mu_p=1e-5, r_p_min=1e-4, v_planet=np.zeros(2), eps=1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["mu_p", "r_p_min", "v_planet"])
def test_gravity_assist_rejects_nan_and_inf(field, bad):
    kwargs = dict(segment=1, mu_p=1.0, r_p_min=1.0, v_planet=np.ones(3), eps=1e-3)
    GaEvent(**kwargs)
    kwargs[field] = np.array([1.0, 1.0, bad]) if field == "v_planet" else bad
    with pytest.raises(ValueError, match="finite"):
        GaEvent(**kwargs)

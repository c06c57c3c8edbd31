"""Execution-error model, process noise, and tracking-schedule checks."""

import numpy as np
import pytest

from covtraj.dynamics import TimeGrid
from covtraj.scp import UncertaintyModel
from covtraj.uncertainty import (
    GatesParams,
    ObservationModel,
    PhaseSpec,
    gates_matrix,
    observation_schedule,
    process_noise_sqrt,
    thrust_frame,
)


def test_thrust_frame_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rng.standard_normal(3)
        T = thrust_frame(u)
        np.testing.assert_allclose(T.T @ T, np.eye(3), atol=1e-12)
        assert np.linalg.det(T) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(T[:, 2], u / np.linalg.norm(u), atol=1e-12)


def test_thrust_frame_degenerate_fallbacks():
    np.testing.assert_array_equal(thrust_frame(np.zeros(3)), np.eye(3))
    np.testing.assert_array_equal(thrust_frame(np.array([0.0, 0.0, 2.0])), np.eye(3))
    np.testing.assert_array_equal(thrust_frame(np.array([0.0, 0.0, -2.0])), np.eye(3))
    np.testing.assert_array_equal(thrust_frame(np.array([1e-13, 0.0, 0.0])), np.eye(3))


def test_gates_matrix_known_direction():
    # thrust along +x: magnitude column along x, pointing columns span y/z
    g = GatesParams(sigma_fixed_mag=0.1, sigma_prop_mag=0.02,
                    sigma_fixed_point=0.05, sigma_prop_point=0.01)
    u = np.array([2.0, 0.0, 0.0])
    G = gates_matrix(u, g)
    sigma_m = np.sqrt(0.1**2 + (0.02 * 2.0) ** 2)
    sigma_p = np.sqrt(0.05**2 + (0.01 * 2.0) ** 2)
    cov = G @ G.T
    expect = np.diag([sigma_m**2, sigma_p**2, sigma_p**2])
    np.testing.assert_allclose(cov, expect, atol=1e-14)


def test_gates_matrix_covariance_rotates_with_thrust():
    g = GatesParams(sigma_fixed_mag=0.0, sigma_prop_mag=0.05,
                    sigma_fixed_point=0.0, sigma_prop_point=0.02)
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rng.standard_normal(3)
        un = np.linalg.norm(u)
        G = gates_matrix(u, g)
        cov = G @ G.T
        zhat = u / un
        # variance along the thrust axis is sigma_m^2
        assert zhat @ cov @ zhat == pytest.approx((0.05 * un) ** 2, rel=1e-12)
        # total variance = sigma_m^2 + 2 sigma_p^2
        assert np.trace(cov) == pytest.approx(
            (0.05 * un) ** 2 + 2 * (0.02 * un) ** 2, rel=1e-12
        )


def test_gates_zero_thrust_uses_fixed_terms_only():
    g = GatesParams(sigma_fixed_mag=0.3, sigma_prop_mag=0.5,
                    sigma_fixed_point=0.2, sigma_prop_point=0.9)
    G = gates_matrix(np.zeros(3), g)
    np.testing.assert_allclose(G, np.diag([0.2, 0.2, 0.3]), atol=1e-15)


def test_gates_params_validation():
    with pytest.raises(ValueError):
        GatesParams(sigma_fixed_mag=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "field", ["sigma_fixed_mag", "sigma_prop_mag", "sigma_fixed_point", "sigma_prop_point"]
)
def test_gates_params_reject_nan_and_inf(field, bad):
    with pytest.raises(ValueError, match="finite"):
        GatesParams(**{field: bad})


@pytest.mark.parametrize(
    "sigma_acc, dt_wn", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)]
)
def test_process_noise_sqrt_rejects_nan_and_inf(sigma_acc, dt_wn):
    with pytest.raises(ValueError, match="finite"):
        process_noise_sqrt(sigma_acc, dt_wn)


def test_process_noise_sqrt_value():
    G = process_noise_sqrt(2.0, 0.25)
    np.testing.assert_allclose(G[3:], np.eye(3), atol=1e-15)
    np.testing.assert_allclose(G[:3], np.zeros((3, 3)), atol=1e-15)
    with pytest.raises(ValueError):
        process_noise_sqrt(1.0, 0.0)


def test_dispersion_spec_symmetry_enforced():
    obs = ObservationModel(has_measurement=(False,), sqrt_noise=(None,))

    def model(p_hat0=np.eye(6), p_tilde0=np.zeros((6, 6)), p_f=np.eye(6)):
        return UncertaintyModel(obs=obs, p_hat0=p_hat0, p_tilde0=p_tilde0, eps_u=0.01, p_f=p_f)

    M = np.eye(6)
    M[0, 1] = 1e-15  # rounding-level asymmetry is accepted and kept as given
    assert np.array_equal(model(p_hat0=M).p_hat0, M)
    skew = np.eye(6)
    skew[0, 1] = 1e-3
    for name in ("p_hat0", "p_tilde0", "p_f"):
        with pytest.raises(ValueError):
            model(**{name: skew})
    with pytest.raises(ValueError):
        model(p_hat0=np.eye(5))


def _inf_on_diagonal():
    m = np.eye(6)
    m[5, 5] = np.inf
    return m


@pytest.mark.parametrize(
    "field, value",
    [
        ("proc_noise_sqrt", np.full((6, 3), np.nan)),
        ("p_hat0", _inf_on_diagonal()),
        ("p_tilde0", _inf_on_diagonal()),
        ("p_hat0", np.diag([1.0] * 5 + [-1.0])),
        ("p_tilde0", np.diag([1.0] * 5 + [-1.0])),
    ],
)
def test_uncertainty_model_rejects_non_finite_and_indefinite_inputs(field, value):
    obs = ObservationModel(has_measurement=(False,), sqrt_noise=(None,))
    ok = dict(obs=obs, p_hat0=np.eye(6), p_tilde0=np.zeros((6, 6)), eps_u=0.01, p_f=np.eye(6))
    UncertaintyModel(**ok, proc_noise_sqrt=np.ones((6, 3)))
    with pytest.raises(ValueError, match="finite|semidefinite"):
        UncertaintyModel(**{**ok, field: value})


def test_observation_schedule_partition():
    grid = TimeGrid(epochs=(0.0, 1.0, 2.0, 2.0, 3.0, 4.0),
                    kinds=("thrust", "thrust", "ga", "thrust", "coast", "coast"))
    phases = [
        PhaseSpec("early", 0, 1, sigma_r=1.0, sigma_v=0.1),
        PhaseSpec("mid", 2, 3, sigma_r=2.0, sigma_v=0.2),
        PhaseSpec("late", 4, 5, sigma_r=0.5, sigma_v=0.05),
    ]
    obs = observation_schedule(grid, phases)
    assert obs.n_nodes == 6
    # GA node 2 is forced measurement-free
    assert obs.has_measurement == (True, True, False, True, True, True)
    assert obs.sqrt_noise[2] is None
    # every other node carries its own phase's noise root
    for k, (sigma_r, sigma_v) in {
        0: (1.0, 0.1), 1: (1.0, 0.1), 3: (2.0, 0.2), 4: (0.5, 0.05), 5: (0.5, 0.05),
    }.items():
        np.testing.assert_array_equal(obs.sqrt_noise[k], np.diag([sigma_r] * 3 + [sigma_v] * 3))


def test_observation_schedule_gap_and_overlap_rejected():
    grid = TimeGrid(epochs=(0.0, 1.0, 2.0), kinds=("thrust", "thrust", "coast"))
    with pytest.raises(ValueError, match="not covered"):
        observation_schedule(grid, [PhaseSpec("a", 0, 1, 1.0, 1.0)])
    with pytest.raises(ValueError, match="covered by both"):
        observation_schedule(
            grid,
            [PhaseSpec("a", 0, 1, 1.0, 1.0), PhaseSpec("b", 1, 2, 1.0, 1.0)],
        )
    with pytest.raises(ValueError, match="not within"):
        observation_schedule(grid, [PhaseSpec("a", 0, 7, 1.0, 1.0)])


def test_observation_model_validation():
    with pytest.raises(ValueError):
        ObservationModel(has_measurement=(True,), sqrt_noise=(np.zeros((6, 6)),))
    ObservationModel(has_measurement=(True, False), sqrt_noise=(np.eye(6), None))
    # every fix is full-state: a position-only noise root does not fit
    with pytest.raises(ValueError, match=r"\(6, 6\)"):
        ObservationModel(has_measurement=(True,), sqrt_noise=(np.eye(3),))
    with pytest.raises(TypeError):
        ObservationModel(has_measurement=(True,), sqrt_noise=(np.eye(6),),
                         obs_matrix=(np.eye(6),))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_observation_model_rejects_nan_and_inf(bad):
    D = np.eye(6)
    ObservationModel(has_measurement=(True,), sqrt_noise=(D,))
    D[2, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        ObservationModel(has_measurement=(True,), sqrt_noise=(D,))

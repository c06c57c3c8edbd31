"""Patched-conic gravity assists with a Cayley-parameterized turn.

The flyby is instantaneous: position is continuous and the hyperbolic-excess
velocity is rotated by an orthogonal matrix R(u) built from the Cayley
transform of a skew matrix, which keeps the turn exactly norm-preserving for
every value of the 3-parameter control slot u. The turn angle theta and the
periapsis-radius safety constraint live on top of that map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import F_THRUST, LinearSegment, require_finite

#: Allowed turn-angle window (radians). The periapsis expression degenerates
#: at 0 and pi, so references are clamped away from both.
THETA_MIN = np.deg2rad(1.0)
THETA_MAX = np.deg2rad(179.0)

#: Velocity-extraction map: v = E_VEL @ x.
E_VEL = F_THRUST.T


@dataclass(frozen=True)
class GaEvent:
    """Static data of one gravity assist tied to a zero-length grid segment.

    mu_p and r_p_min are in normalized units; eps is the impact
    chance-constraint risk level and [theta_min, theta_max] the allowed
    turn-angle window.
    """

    segment: int
    mu_p: float
    r_p_min: float
    v_planet: np.ndarray
    eps: float
    theta_min: float = THETA_MIN
    theta_max: float = THETA_MAX

    def __post_init__(self):
        object.__setattr__(self, "v_planet", np.asarray(self.v_planet, dtype=float))
        if self.v_planet.shape != (3,):
            raise ValueError("planet velocity must be a length-3 vector")
        require_finite("planet velocity", self.v_planet)
        if not (0.0 < self.mu_p < np.inf and 0.0 < self.r_p_min < np.inf):
            raise ValueError("flyby body needs positive, finite mu and periapsis floor")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("flyby risk tolerance must lie in (0, 1)")
        # the safe-flyby envelope and its slope are singular at 0 and pi
        if not 0.0 < self.theta_min < self.theta_max < np.pi:
            raise ValueError(
                f"turn-angle window ({self.theta_min}, {self.theta_max}) must satisfy "
                "0 < theta_min < theta_max < pi"
            )


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ a == cross(v, a).

    Accepts a stack of vectors (..., 3) and returns (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1], S[..., 0, 2] = -v[..., 2], v[..., 1]
    S[..., 1, 0], S[..., 1, 2] = v[..., 2], -v[..., 0]
    S[..., 2, 0], S[..., 2, 1] = -v[..., 1], v[..., 0]
    return S


def cayley_rotation(u: np.ndarray) -> np.ndarray:
    """Rotation matrix (I + [u]x)^-1 (I - [u]x).

    Proper orthogonal for every u; the turn angle about u/|u| satisfies
    tan(theta/2) = |u|, so the parameterization covers (0, pi) without
    trigonometric wraparound. Accepts a stack (..., 3).
    """
    V = skew(u)
    return np.linalg.solve(np.eye(3) + V, np.eye(3) - V)


def ga_map(x: np.ndarray, u: np.ndarray, v_planet: np.ndarray) -> np.ndarray:
    """Instantaneous flyby map: rotate the v-infinity vector by R(u).

    Args:
        x: pre-flyby state [r; v], shape (6,) or a stack (..., 6).
        u: Cayley turn parameter, shape (3,) or a stack (..., 3).
        v_planet: flyby-body velocity at the encounter epoch, shape (3,).

    Returns:
        Post-flyby state, shaped like x: same position, turned velocity.
    """
    x = np.asarray(x, dtype=float)
    v_planet = np.asarray(v_planet, dtype=float)
    v_inf = x[..., 3:] - v_planet
    v_out = v_planet + np.einsum("...ij,...j->...i", cayley_rotation(u), v_inf)
    return np.concatenate([x[..., :3], v_out], axis=-1)


def ga_linearize(
    x_ref: np.ndarray,
    u_ref: np.ndarray,
    v_planet: np.ndarray,
) -> LinearSegment:
    """Linearize the flyby map about a reference state and turn parameter.

    The state Jacobian is block-diagonal [I, R(u_ref)]; the control Jacobian
    follows from differentiating the Cayley relation,
    (I + [u]x) (v+ - vp) = (I - [u]x) (v- - vp), at fixed pre-flyby state.
    No noise enters across the zero-length segment.

    Returns:
        LinearSegment with zero noise maps.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    v_planet = np.asarray(v_planet, dtype=float)

    R = cayley_rotation(u_ref)
    x_post = ga_map(x_ref, u_ref, v_planet)

    A = np.zeros((6, 6))
    A[:3, :3] = np.eye(3)
    A[3:, 3:] = R

    S_sum = skew(x_post[3:]) + skew(x_ref[3:]) - 2.0 * skew(v_planet)
    B = np.zeros((6, 3))
    B[3:, :] = np.linalg.solve(np.eye(3) + skew(u_ref), S_sum)

    c = x_post - A @ x_ref - B @ u_ref
    return LinearSegment(A=A, B=B, c=c, G_exe=np.zeros((6, 3)), G_proc=np.zeros((6, 0)))


def cayley_from_turn(v_inf_pre: np.ndarray, v_inf_post: np.ndarray) -> np.ndarray:
    """Solve R(u) @ v_inf_pre = v_inf_post for the minimum-norm u.

    The Cayley relation reduces to the linear system
    [v_pre + v_post]x u = v_post - v_pre, solved in the least-squares sense
    (exact when the two vectors share a norm; the component of u along
    v_pre + v_post is unobservable and set to zero).
    """
    a = np.asarray(v_inf_pre, dtype=float)
    b = np.asarray(v_inf_post, dtype=float)
    u, *_ = np.linalg.lstsq(skew(a + b), b - a, rcond=None)
    return u


def turn_angle(v_inf_pre: np.ndarray, v_inf_post: np.ndarray) -> float:
    """Angle between two v-infinity vectors, clipped into [0, pi]."""
    a = np.asarray(v_inf_pre, dtype=float)
    b = np.asarray(v_inf_post, dtype=float)
    c = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def periapsis_radius(v_inf_mag: float, theta: float, mu_p: float) -> float:
    """Flyby periapsis radius for a given excess speed and turn angle.

    r_p = mu_p / |v_inf|^2 * (1 / sin(theta/2) - 1). Larger turns at a given
    speed mean deeper flybys; theta = pi grazes the center (r_p = 0).
    ``v_inf_mag`` may be an array of speeds.
    """
    if np.any(np.asarray(v_inf_mag) <= 0.0):
        raise ValueError("v_inf_mag must be positive")
    if not (0.0 < theta <= np.pi):
        raise ValueError(f"turn angle must be in (0, pi], got {theta}")
    return mu_p / v_inf_mag**2 * (1.0 / np.sin(0.5 * theta) - 1.0)


def max_v_inf_for_safe_flyby(theta: float, mu_p: float, r_p_min: float) -> float:
    """Largest |v_inf| that keeps periapsis at or above r_p_min for a turn theta.

    This is the right-hand side of the impact constraint in speed form:
    |v_inf| <= sqrt(mu_p / r_p_min * (1/sin(theta/2) - 1)).
    """
    if not (0.0 < theta < np.pi):
        raise ValueError(f"turn angle must be in (0, pi), got {theta}")
    return float(np.sqrt(mu_p / r_p_min * (1.0 / np.sin(0.5 * theta) - 1.0)))


def max_v_inf_derivative(theta: float, mu_p: float, r_p_min: float) -> float:
    """d/dtheta of :func:`max_v_inf_for_safe_flyby`.

    Singular at theta = pi, where the safe-speed envelope hits zero with
    infinite slope; references must stay clamped inside (THETA_MIN,
    THETA_MAX).
    """
    s = np.sin(0.5 * theta)
    inner = 1.0 / s - 1.0
    if inner <= 0.0:
        raise ValueError("safe-speed envelope derivative is singular at theta = pi")
    return float(np.sqrt(mu_p / r_p_min) * (-np.cos(0.5 * theta) / (4.0 * s**2 * np.sqrt(inner))))


def turn_angle_constraint_lin(
    x_pre_ref: np.ndarray,
    x_post_ref: np.ndarray,
    theta_ref: float,
    v_planet: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Linearize the turn-angle consistency constraint about a reference.

    The constraint couples the mean pre/post states and the turn variable:
    g = |v_inf_pre|^2 cos(theta) - v_inf_post . v_inf_pre = 0.

    Returns:
        (g_ref, dg_dx_pre (6,), dg_dx_post (6,), dg_dtheta) so that the
        linearized constraint reads
        g_ref + dg_dx_pre @ dx_pre + dg_dx_post @ dx_post + dg_dtheta * dtheta = 0.
    """
    x_pre_ref = np.asarray(x_pre_ref, dtype=float)
    x_post_ref = np.asarray(x_post_ref, dtype=float)
    v_planet = np.asarray(v_planet, dtype=float)
    vi_pre = x_pre_ref[3:] - v_planet
    vi_post = x_post_ref[3:] - v_planet
    ct, st = np.cos(theta_ref), np.sin(theta_ref)

    g_ref = float(np.dot(vi_pre, vi_pre) * ct - np.dot(vi_post, vi_pre))
    dg_dx_pre = (2.0 * ct * vi_pre - vi_post) @ E_VEL
    dg_dx_post = -vi_pre @ E_VEL
    dg_dtheta = -float(np.dot(vi_pre, vi_pre)) * st
    return g_ref, dg_dx_pre, dg_dx_post, dg_dtheta

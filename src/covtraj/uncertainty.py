"""Maneuver-execution error, process noise, and the tracking schedule.

The execution-error model is the classic Gates formulation: fixed and
proportional magnitude error along the thrust direction, fixed and
proportional pointing error across it. Process noise is white in
acceleration. Every measurement is a full-state position/velocity fix,
y = x + D w, whose noise root D is set per mission phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import F_THRUST, TimeGrid, require_finite

#: Thrust magnitudes below this are treated as zero for frame construction.
DEGENERATE_THRUST = 1e-12
#: Cross products with sine of angle below this trigger the axis fallback.
DEGENERATE_AXIS = 1e-9


@dataclass(frozen=True)
class GatesParams:
    """Gates execution-error magnitudes.

    sigma_fixed_mag / sigma_prop_mag: fixed (acceleration units) and
    proportional (dimensionless fraction) 1-sigma magnitude errors.
    sigma_fixed_point / sigma_prop_point: fixed (acceleration units) and
    proportional (radians) 1-sigma pointing errors.
    """

    sigma_fixed_mag: float = 0.0
    sigma_prop_mag: float = 0.0
    sigma_fixed_point: float = 0.0
    sigma_prop_point: float = 0.0

    def __post_init__(self):
        for name in ("sigma_fixed_mag", "sigma_prop_mag", "sigma_fixed_point", "sigma_prop_point"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite")


def thrust_frame(u: np.ndarray) -> np.ndarray:
    """Orthonormal maneuver frame [S E Z] with Z along the thrust.

    E is the unit cross product of the inertial z axis with Z and S completes
    the right-handed triad. Degenerate inputs (near-zero thrust, or thrust
    nearly parallel to the z axis so the cross product loses rank) fall back
    to the identity frame. Accepts a stack of thrusts (..., 3).

    Returns:
        (..., 3, 3) rotation matrices with columns [S, E, Z].
    """
    u = np.asarray(u, dtype=float)
    un = np.sqrt(np.einsum("...i,...i->...", u, u))
    idle = un < DEGENERATE_THRUST
    z = u / np.where(idle, 1.0, un)[..., None]
    # E is the unit vector along (0, 0, 1) x Z = (-z_y, z_x, 0)
    cn = np.sqrt(z[..., 1] * z[..., 1] + z[..., 0] * z[..., 0])
    axial = cn < DEGENERATE_AXIS
    ex = -z[..., 1] / np.where(axial, 1.0, cn)
    ey = z[..., 0] / np.where(axial, 1.0, cn)
    zero = np.zeros_like(ex)
    frame = np.stack(
        [
            np.stack([ey * z[..., 2], -ex * z[..., 2], ex * z[..., 1] - ey * z[..., 0]], axis=-1),
            np.stack([ex, ey, zero], axis=-1),
            z,
        ],
        axis=-1,
    )
    return np.where((idle | axial)[..., None, None], np.eye(3), frame)


def gates_matrix(u: np.ndarray, gates: GatesParams) -> np.ndarray:
    """Square root of the Gates execution-error covariance at a commanded u.

    The executed acceleration is u + gates_matrix(u, gates) @ w with
    w ~ N(0, I3): two pointing columns of size sigma_p and one magnitude
    column of size sigma_m along the thrust direction, where
    sigma_p^2 = sigma_fixed_point^2 + (sigma_prop_point |u|)^2 and
    sigma_m^2 = sigma_fixed_mag^2 + (sigma_prop_mag |u|)^2.
    Accepts a stack of thrusts (..., 3).

    Returns:
        (..., 3, 3) matrices in acceleration units.
    """
    u = np.asarray(u, dtype=float)
    un = np.sqrt(np.einsum("...i,...i->...", u, u))
    sigma_p = np.hypot(gates.sigma_fixed_point, gates.sigma_prop_point * un)
    sigma_m = np.hypot(gates.sigma_fixed_mag, gates.sigma_prop_mag * un)
    return thrust_frame(u) * np.stack([sigma_p, sigma_p, sigma_m], axis=-1)[..., None, :]


def process_noise_sqrt(sigma_acc: float, dt_wn: float) -> np.ndarray:
    """Continuous-equivalent white-acceleration noise square root.

    A zero-mean acceleration of standard deviation sigma_acc redrawn every
    dt_wn has one-sided spectral equivalence sigma_acc * sqrt(dt_wn); the
    position rows are zero.

    Returns:
        (6, 3) matrix mapping a standard Wiener rate into the state rate.
    """
    if not (0.0 <= sigma_acc < np.inf and 0.0 < dt_wn < np.inf):
        raise ValueError("need finite sigma_acc >= 0 and dt_wn > 0")
    return F_THRUST * (sigma_acc * np.sqrt(dt_wn))


@dataclass(frozen=True)
class PhaseSpec:
    """One tracking phase: inclusive node range with its fix accuracy."""

    name: str
    first_node: int
    last_node: int
    sigma_r: float
    sigma_v: float


@dataclass(frozen=True)
class ObservationModel:
    """Per-node measurement flags and noise square roots.

    Nodes with ``has_measurement[k]`` False carry no update (the filter's
    posterior equals its prior there). Every measured node takes a
    full-state fix y = x + D w with w ~ N(0, I6) and D = sqrt_noise[k]
    (6, 6), so each measurement adds one 6-column innovation block.
    """

    has_measurement: tuple[bool, ...]
    sqrt_noise: tuple[np.ndarray | None, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.has_measurement) != len(self.sqrt_noise):
            raise ValueError("flag and noise lists must align")
        for k, flag in enumerate(self.has_measurement):
            if not flag:
                continue
            D = self.sqrt_noise[k]
            if D is None or np.shape(D) != (6, 6):
                raise ValueError(f"node {k}: noise sqrt must be (6, 6)")
            require_finite(f"node {k}: the measurement noise sqrt", D)
            if not np.any(D):
                raise ValueError(f"node {k}: measurement noise sqrt must be nonzero")

    @property
    def n_nodes(self) -> int:
        return len(self.has_measurement)


def observation_schedule(grid: TimeGrid, phases: list[PhaseSpec]) -> ObservationModel:
    """Build the per-node observation model from a phase partition.

    Every node must be covered by exactly one phase; gaps and overlaps are
    reported by node index. GA nodes are forced measurement-free regardless
    of the phase they fall in.

    Args:
        grid: the optimization grid.
        phases: inclusive node ranges with their fix sigmas (normalized).

    Returns:
        ObservationModel over all grid nodes.
    """
    n = grid.n_nodes
    owner: list[str | None] = [None] * n
    for ph in phases:
        if ph.first_node < 0 or ph.last_node >= n or ph.first_node > ph.last_node:
            raise ValueError(
                f"phase {ph.name!r}: node range [{ph.first_node}, {ph.last_node}] "
                f"is not within the grid (0..{n - 1})"
            )
        if ph.sigma_r < 0.0 or ph.sigma_v < 0.0:
            raise ValueError(f"phase {ph.name!r}: sigmas must be nonnegative")
        for k in range(ph.first_node, ph.last_node + 1):
            if owner[k] is not None:
                raise ValueError(f"node {k} covered by both {owner[k]!r} and {ph.name!r}")
            owner[k] = ph.name
    uncovered = [k for k in range(n) if owner[k] is None]
    if uncovered:
        raise ValueError(f"nodes not covered by any phase: {uncovered}")

    by_name = {ph.name: ph for ph in phases}
    flags: list[bool] = []
    noises: list[np.ndarray | None] = []
    for k in range(n):
        if grid.kinds[k] == "ga":
            flags.append(False)
            noises.append(None)
            continue
        ph = by_name[owner[k]]
        flags.append(True)
        noises.append(np.diag([ph.sigma_r] * 3 + [ph.sigma_v] * 3).astype(float))
    return ObservationModel(has_measurement=tuple(flags), sqrt_noise=tuple(noises))

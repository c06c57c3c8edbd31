"""Output-feedback covariance steering along the per-segment maps.

The linearized reference is one chain of segment maps x_{k+1} = A_k x_k +
B_k u_k + c_k. Under the policy u_k = ubar_k + sum_{i<=k} K_{k,i} z_i on the
innovation process z, the node means and the estimate-dispersion and
control-covariance square roots are affine in (x0bar, U, K), each read off
the chain by one sweep: :func:`pull_back` goes back from a node to x0, the
controls and the drift; :func:`dispersion_sqrt` carries the gains forward.

The filter itself is two steps on a stack of covariances,
:func:`measurement_update` by a full-state fix y = x + D w and
:func:`time_update`. The design schedule runs them on one row; the Monte
Carlo navigators run the same steps on one covariance shared by every
sample (linear playback) or on one per sample (EKF playback).

The wide square root S_sqrt of the innovation-state covariance is built by a
forward recursion (row_{k+1} = A_k row_k, then the node's own six innovation
columns are inserted): block row k is the uncontrolled estimate deviation at
node k as a map of the whitened initial dispersion and innovations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import LinearSegment, psd_sqrt
from .errors import NumericalError
from .uncertainty import ObservationModel

N_X = 6
N_U = 3


@dataclass(frozen=True)
class KalmanSchedule:
    """Filter covariances and gains along the grid, computed once per reference.

    P_prior[k] / P_post[k] are the estimate-error covariances before/after the
    node-k measurement (equal where no measurement exists). gains[k] is the
    Kalman gain L_k (6, 6) or None, innov_sqrt[k] the Cholesky factor of the
    innovation covariance P- + D D' or None.
    """

    P_prior: np.ndarray
    P_post: np.ndarray
    gains: tuple[np.ndarray | None, ...] = field(repr=False)
    innov_sqrt: tuple[np.ndarray | None, ...] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.P_prior.shape[0]


def _t(M: np.ndarray) -> np.ndarray:
    """Transpose of every matrix of a stack."""
    return M.swapaxes(-1, -2)


def measurement_update(
    P: np.ndarray, D: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
    """Kalman update of every covariance of a stack by a full-state fix.

    The fix is y = x + D w. Forms the innovation covariance S = P + D D'
    (symmetrized), solves S L' = P for the gain L and returns the
    symmetrized Joseph posterior (I - L) P (I - L)' + L D D' L', which
    stays PSD even with strong fixes. A row whose S is singular gets a NaN
    gain and posterior and a failure message; the other rows are computed
    as if alone.

    Args:
        P: prior covariances, (r, 6, 6).
        D: measurement-noise square root shared by every row, (6, 6).

    Returns:
        (P_post, L, S, failures): posteriors (r, 6, 6), gains (r, 6, 6),
        innovation covariances (r, 6, 6) and a message per failed row.
    """
    DDt = D @ D.T
    S = P + DDt
    S = 0.5 * (S + _t(S))
    failures: dict[int, str] = {}
    try:
        L = _t(np.linalg.solve(S, P))
    except np.linalg.LinAlgError:
        L = np.full(P.shape, np.nan)
        for i in range(S.shape[0]):
            try:
                L[i] = np.linalg.solve(S[i], P[i]).T
            except np.linalg.LinAlgError as exc:
                failures[i] = f"innovation covariance: {exc}"
    closed = np.eye(N_X) - L
    P_post = closed @ P @ _t(closed) + L @ DDt @ _t(L)
    return 0.5 * (P_post + _t(P_post)), L, S, failures


def time_update(P: np.ndarray, A: np.ndarray, *injected: np.ndarray) -> np.ndarray:
    """Kalman time update A P A' + each injected covariance, symmetrized.

    A and every injected covariance are either shared by all rows of the
    stack P (r, 6, 6) or stacked one per row; a shared P broadcasts against
    stacked maps.
    """
    P = A @ P @ _t(A)
    for cov in injected:
        P = P + cov
    return 0.5 * (P + _t(P))


def kalman_precompute(
    segments: list[LinearSegment],
    obs: ObservationModel,
    P_tilde0_prior: np.ndarray,
) -> KalmanSchedule:
    """Run the discrete filter Riccati recursion along a linearized reference.

    The recursion is :func:`measurement_update` at every measured node and
    :func:`time_update` across every segment, on a one-row stack. Time
    updates inject both the execution-error and process-noise covariances
    (the filter knows neither realization).

    Args:
        segments: N linearized segments (GA segments carry zero noise).
        obs: measurement flags and noise roots over the N+1 nodes.
        P_tilde0_prior: a-priori estimate-error covariance at node 0, (6, 6).

    Returns:
        KalmanSchedule over all N+1 nodes.

    Raises:
        NumericalError: an innovation covariance is singular.
    """
    n_seg = len(segments)
    if obs.n_nodes != n_seg + 1:
        raise ValueError(f"observation model covers {obs.n_nodes} nodes, grid has {n_seg + 1}")
    P_prior = np.zeros((n_seg + 1, N_X, N_X))
    P_post = np.zeros((n_seg + 1, N_X, N_X))
    gains: list[np.ndarray | None] = []
    innov_sqrt: list[np.ndarray | None] = []

    P0 = np.asarray(P_tilde0_prior, dtype=float)
    P = 0.5 * (P0 + P0.T)[None]
    for k in range(n_seg + 1):
        P_prior[k] = P[0]
        if obs.has_measurement[k]:
            D = np.asarray(obs.sqrt_noise[k], dtype=float)
            P, L, S, failures = measurement_update(P, D)
            if failures:
                raise NumericalError(f"Kalman update at node {k}: {failures[0]}")
            gains.append(L[0])
            innov_sqrt.append(psd_sqrt(S[0]))
        else:
            gains.append(None)
            innov_sqrt.append(None)
        P_post[k] = P[0]

        if k < n_seg:
            seg = segments[k]
            P = time_update(P, seg.A, seg.G_exe @ seg.G_exe.T, seg.G_proc @ seg.G_proc.T)

    return KalmanSchedule(
        P_prior=P_prior, P_post=P_post, gains=tuple(gains), innov_sqrt=tuple(innov_sqrt)
    )


@dataclass(frozen=True)
class BlockSystem:
    """Whole-horizon structure of one linearized reference.

    segments are the N segment maps, the one form of the linearized chain.
    S_sqrt is the wide square root of the innovation-state covariance: its
    block row k (rows 6k..6k+6) gives the dispersion square root of the
    *uncontrolled* estimate at node k. meas_col maps a measured node index
    to the (start, stop) of its six innovation columns inside S_sqrt.
    """

    segments: tuple[LinearSegment, ...] = field(repr=False)
    S_sqrt: np.ndarray = field(repr=False)
    meas_col: dict[int, tuple[int, int]]

    @property
    def n_nodes(self) -> int:
        return len(self.segments) + 1

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def width(self) -> int:
        return self.S_sqrt.shape[1]

    def s_row(self, k: int) -> np.ndarray:
        """Block row k of S_sqrt, shape (6, width)."""
        return self.S_sqrt[N_X * k : N_X * (k + 1), :]


def pull_back(
    segments: Sequence[LinearSegment], left: np.ndarray, node: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dependence of left @ x_node on x0, each earlier control and the drift.

    One backward sweep of the segment maps; returns (to_x0 (r, 6), to_u
    (node, r, 3), drift (r,)) with left @ x_node = to_x0 x0 + sum_{k<node}
    to_u[k] u_k + drift.
    """
    left = np.asarray(left, dtype=float)
    to_u = np.empty((node, left.shape[0], N_U))
    drift = np.zeros(left.shape[0])
    for k in range(node - 1, -1, -1):
        to_u[k] = left @ segments[k].B
        drift += left @ segments[k].c
        left = left @ segments[k].A
    return left, to_u, drift


def build_block_system(
    segments: list[LinearSegment],
    schedule: KalmanSchedule,
    P_hat0: np.ndarray,
) -> BlockSystem:
    """Block system of a segment list and its filter schedule.

    Args:
        segments: N linearized segments.
        schedule: the matching Kalman schedule (N+1 nodes).
        P_hat0: initial estimate-dispersion covariance, (6, 6).

    Returns:
        BlockSystem with S_sqrt of width 6 (the initial dispersion) plus six
        innovation columns per measured node.
    """
    n = len(segments)
    if schedule.n_nodes != n + 1:
        raise ValueError("schedule does not match segment count")

    measured = [k for k, L in enumerate(schedule.gains) if L is not None]
    meas_col = {k: (N_X * (j + 1), N_X * (j + 2)) for j, k in enumerate(measured)}
    width = N_X * (len(measured) + 1)

    S_sqrt = np.zeros(((n + 1) * N_X, width))
    row = S_sqrt[0:N_X]
    row[:, 0:N_X] = psd_sqrt(np.asarray(P_hat0, dtype=float))
    if 0 in meas_col:
        lo, hi = meas_col[0]
        row[:, lo:hi] = schedule.gains[0] @ schedule.innov_sqrt[0]
    for k in range(n):
        nxt = S_sqrt[N_X * (k + 1) : N_X * (k + 2)]
        nxt[:] = segments[k].A @ S_sqrt[N_X * k : N_X * (k + 1)]
        if (k + 1) in meas_col:
            lo, hi = meas_col[k + 1]
            nxt[:, lo:hi] += schedule.gains[k + 1] @ schedule.innov_sqrt[k + 1]

    return BlockSystem(segments=tuple(segments), S_sqrt=S_sqrt, meas_col=meas_col)


@dataclass(frozen=True)
class FeedbackPolicy:
    """Innovation-state feedback gains K_{k,i} for u_k = ubar_k + sum_i K_{k,i} z_i.

    The one form of the flight-path-control policy: the subproblem designs
    it and the Monte Carlo playback flies it. z_i is the uncontrolled
    estimate deviation at node i, the estimate deviation less the part that
    earlier gain corrections steered through the reference maps. blocks has
    shape (N, N+1, 3, 6); block (k, i) must be zero for i > k (controls
    cannot see future innovations).
    """

    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=float)
        if b.ndim != 4 or b.shape[1] != b.shape[0] + 1 or b.shape[2:] != (N_U, N_X):
            raise ValueError(f"gain blocks must be (N, N+1, {N_U}, {N_X}), got {b.shape}")
        for k in range(b.shape[0]):
            if np.any(b[k, k + 1 :]):
                raise ValueError(f"gain block ({k}, i) nonzero for some i > {k}")
        object.__setattr__(self, "blocks", b)

    @classmethod
    def zeros(cls, n_segments: int) -> "FeedbackPolicy":
        return cls(np.zeros((n_segments, n_segments + 1, N_U, N_X)))

    @property
    def n_segments(self) -> int:
        return self.blocks.shape[0]


def control_cov_sqrt(blocks: BlockSystem, policy: FeedbackPolicy) -> np.ndarray:
    """Wide square roots of the control covariance, shape (N, 3, width).

    Row k is K-row-k applied to S_sqrt; its Gram matrix is P_{u_k}.
    """
    n = blocks.n_segments
    out = np.zeros((n, N_U, blocks.width))
    for k in range(n):
        for i in range(k + 1):
            Kki = policy.blocks[k, i]
            if np.any(Kki):
                out[k] += Kki @ blocks.s_row(i)
    return out


def dispersion_sqrt(
    blocks: BlockSystem,
    policy: FeedbackPolicy,
    u_sqrt: np.ndarray | None = None,
) -> np.ndarray:
    """Wide square roots of the closed-loop estimate dispersion, (N+1, 6, width).

    Row k is S_row(k) + steered_k, where steered_0 = 0 and
    steered_{k+1} = A_k steered_k + B_k U_k carries the control-covariance
    square roots U through the segment maps; its Gram matrix is Phat_k.
    Pass a precomputed :func:`control_cov_sqrt` result to avoid
    recomputation.
    """
    if u_sqrt is None:
        u_sqrt = control_cov_sqrt(blocks, policy)
    out = blocks.S_sqrt.reshape(blocks.n_nodes, N_X, blocks.width).copy()
    steered = np.zeros((N_X, blocks.width))
    for k, seg in enumerate(blocks.segments):
        steered = seg.A @ steered + seg.B @ u_sqrt[k]
        out[k + 1] += steered
    return out

"""Output-feedback covariance steering on a whole-horizon block system.

The filtered state estimate over all nodes stacks into one affine relation
Xhat = BA xhat0- + BB U + BC + BL Y, where Y collects the (whitened)
innovations. With the policy u_k = ubar_k + sum_{i<=k} K_{k,i} z_i driven by
the innovation process z, every statistic the optimizer needs — node means,
estimate-dispersion square roots, control-covariance square roots — is affine
in (x0bar, U, K). This module precomputes the filter schedule and the block
structures and evaluates those affine maps.

The wide square root S_sqrt of the innovation-state covariance is built by a
forward recursion (row_{k+1} = A_k row_k, then the node's own gain column is
inserted), which reproduces the stacked [BA Phat0^1/2, BL P_Y^1/2] exactly
without materializing the block matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import LinearSegment, psd_sqrt
from .uncertainty import ObservationModel

N_X = 6
N_U = 3


@dataclass(frozen=True)
class KalmanSchedule:
    """Filter covariances and gains along the grid, computed once per reference.

    P_prior[k] / P_post[k] are the estimate-error covariances before/after the
    node-k measurement (equal where no measurement exists). gains[k] is the
    Kalman gain L_k (6, m_k) or None, innov_sqrt[k] the Cholesky factor of the
    innovation covariance C P- C' + D D' or None.
    """

    P_prior: np.ndarray
    P_post: np.ndarray
    gains: tuple[np.ndarray | None, ...] = field(repr=False)
    innov_sqrt: tuple[np.ndarray | None, ...] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.P_prior.shape[0]


def kalman_precompute(
    segments: list[LinearSegment],
    obs: ObservationModel,
    P_tilde0_prior: np.ndarray,
) -> KalmanSchedule:
    """Run the discrete filter Riccati recursion along a linearized reference.

    Time updates push the posterior through each segment's A and inject both
    the execution-error and process-noise covariances (the filter knows
    neither realization). Measurement updates use the Joseph form so the
    posterior stays symmetric PSD even with strong fixes.

    Args:
        segments: N linearized segments (GA segments carry zero noise).
        obs: measurement flags/matrices over the N+1 nodes.
        P_tilde0_prior: a-priori estimate-error covariance at node 0, (6, 6).

    Returns:
        KalmanSchedule over all N+1 nodes.
    """
    n_seg = len(segments)
    if obs.n_nodes != n_seg + 1:
        raise ValueError(f"observation model covers {obs.n_nodes} nodes, grid has {n_seg + 1}")
    P_prior = np.zeros((n_seg + 1, N_X, N_X))
    P_post = np.zeros((n_seg + 1, N_X, N_X))
    gains: list[np.ndarray | None] = []
    innov_sqrt: list[np.ndarray | None] = []

    P_minus = 0.5 * (np.asarray(P_tilde0_prior, dtype=float) + np.asarray(P_tilde0_prior).T)
    for k in range(n_seg + 1):
        P_prior[k] = P_minus
        if obs.has_measurement[k]:
            C = np.asarray(obs.obs_matrix[k], dtype=float)
            D = np.asarray(obs.sqrt_noise[k], dtype=float)
            S = C @ P_minus @ C.T + D @ D.T
            S = 0.5 * (S + S.T)
            L = np.linalg.solve(S, C @ P_minus).T
            ImLC = np.eye(N_X) - L @ C
            P_plus = ImLC @ P_minus @ ImLC.T + L @ (D @ D.T) @ L.T
            gains.append(L)
            innov_sqrt.append(psd_sqrt(S))
        else:
            P_plus = P_minus
            gains.append(None)
            innov_sqrt.append(None)
        P_plus = 0.5 * (P_plus + P_plus.T)
        P_post[k] = P_plus

        if k < n_seg:
            seg = segments[k]
            P_minus = seg.A @ P_plus @ seg.A.T + seg.G_exe @ seg.G_exe.T + seg.G_proc @ seg.G_proc.T
            P_minus = 0.5 * (P_minus + P_minus.T)

    return KalmanSchedule(
        P_prior=P_prior, P_post=P_post, gains=tuple(gains), innov_sqrt=tuple(innov_sqrt)
    )


@dataclass(frozen=True)
class BlockSystem:
    """Materialized whole-horizon structure of one linearized reference.

    Phi[k] maps x0 deviations to node k; Bblk[k, i] maps u_i to node k
    (zero for i >= k); Cvec[k] is the accumulated affine drift. S_sqrt is the
    wide square root of the innovation-state covariance: its block row k
    (rows 6k..6k+6) gives the dispersion square root of the *uncontrolled*
    estimate at node k. meas_col maps a measured node index to its column
    offset inside S_sqrt.
    """

    Phi: np.ndarray
    Bblk: np.ndarray
    Cvec: np.ndarray
    S_sqrt: np.ndarray = field(repr=False)
    meas_col: dict[int, tuple[int, int]]

    @property
    def n_nodes(self) -> int:
        return self.Phi.shape[0]

    @property
    def n_segments(self) -> int:
        return self.Phi.shape[0] - 1

    @property
    def width(self) -> int:
        return self.S_sqrt.shape[1]

    def s_row(self, k: int) -> np.ndarray:
        """Block row k of S_sqrt, shape (6, width)."""
        return self.S_sqrt[N_X * k : N_X * (k + 1), :]

    def dense_B(self) -> np.ndarray:
        """Assemble the stacked control map, shape ((N+1)*6, N*3)."""
        n1, n = self.n_nodes, self.n_segments
        out = np.zeros((n1 * N_X, n * N_U))
        for k in range(n1):
            for i in range(min(k, n)):
                out[N_X * k : N_X * (k + 1), N_U * i : N_U * (i + 1)] = self.Bblk[k, i]
        return out


def mean_chain(
    segments: Sequence[LinearSegment],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node-state affine maps x_k = Phi[k] x_0 + sum_i Bblk[k, i] u_i + Cvec[k].

    Returns (Phi (N+1, 6, 6), Bblk (N+1, N, 6, 3), Cvec (N+1, 6)) for the N
    segments; Bblk[k, i] is zero for i >= k.
    """
    n = len(segments)
    Phi = np.zeros((n + 1, N_X, N_X))
    Bblk = np.zeros((n + 1, n, N_X, N_U))
    Cvec = np.zeros((n + 1, N_X))
    Phi[0] = np.eye(N_X)
    for k, seg in enumerate(segments):
        Phi[k + 1] = seg.A @ Phi[k]
        if k > 0:
            Bblk[k + 1, :k] = seg.A @ Bblk[k, :k]
        Bblk[k + 1, k] = seg.B
        Cvec[k + 1] = seg.A @ Cvec[k] + seg.c
    return Phi, Bblk, Cvec


def build_block_system(
    segments: list[LinearSegment],
    schedule: KalmanSchedule,
    P_hat0: np.ndarray,
) -> BlockSystem:
    """Stack a segment list and filter schedule into block form.

    Args:
        segments: N linearized segments.
        schedule: the matching Kalman schedule (N+1 nodes).
        P_hat0: initial estimate-dispersion covariance, (6, 6).

    Returns:
        BlockSystem with S_sqrt of width 6 + sum of measured innovation dims.
    """
    n = len(segments)
    if schedule.n_nodes != n + 1:
        raise ValueError("schedule does not match segment count")

    Phi, Bblk, Cvec = mean_chain(segments)

    meas_col: dict[int, tuple[int, int]] = {}
    width = N_X
    for k in range(n + 1):
        L = schedule.gains[k]
        if L is not None:
            m = L.shape[1]
            meas_col[k] = (width, width + m)
            width += m

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

    return BlockSystem(Phi=Phi, Bblk=Bblk, Cvec=Cvec, S_sqrt=S_sqrt, meas_col=meas_col)


@dataclass(frozen=True)
class FeedbackPolicy:
    """Innovation-state feedback gains K_{k,i} for u_k = ubar_k + sum_i K_{k,i} z_i.

    blocks has shape (N, N+1, 3, 6); block (k, i) must be zero for i > k
    (controls cannot see future innovations).
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

    @property
    def is_zero(self) -> bool:
        return not np.any(self.blocks)

    def dense(self) -> np.ndarray:
        """Assemble the stacked gain, shape (N*3, (N+1)*6)."""
        n = self.n_segments
        out = np.zeros((n * N_U, (n + 1) * N_X))
        for k in range(n):
            for i in range(k + 1):
                out[N_U * k : N_U * (k + 1), N_X * i : N_X * (i + 1)] = self.blocks[k, i]
        return out


def state_mean(blocks: BlockSystem, x0_bar: np.ndarray, U_bar: np.ndarray) -> np.ndarray:
    """Mean state at every node under the nominal control sequence.

    Args:
        blocks: block system from :func:`build_block_system`.
        x0_bar: initial mean state, (6,).
        U_bar: nominal controls, (N, 3).

    Returns:
        (N+1, 6) node means. On the linearization reference itself this
        reproduces the nonlinear flow exactly (the affine drift absorbs it).
    """
    x0_bar = np.asarray(x0_bar, dtype=float)
    U_bar = np.asarray(U_bar, dtype=float).reshape(blocks.n_segments, N_U)
    mean = blocks.Phi @ x0_bar + blocks.Cvec
    mean += np.einsum("kinm,im->kn", blocks.Bblk[:, : blocks.n_segments], U_bar)
    return mean


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

    Row k is ((I + BB K) S_sqrt) block row k; its Gram matrix is Phat_k. Pass
    a precomputed :func:`control_cov_sqrt` result to avoid recomputation.
    """
    if u_sqrt is None:
        u_sqrt = control_cov_sqrt(blocks, policy)
    n1 = blocks.n_nodes
    out = np.zeros((n1, N_X, blocks.width))
    for k in range(n1):
        row = blocks.s_row(k).copy()
        for i in range(min(k, blocks.n_segments)):
            row += blocks.Bblk[k, i] @ u_sqrt[i]
        out[k] = row
    return out


def convert_gain(blocks: BlockSystem, policy: FeedbackPolicy) -> FeedbackPolicy:
    """Convert innovation-state gains to state-estimate-deviation gains.

    The equivalent policy u_k = ubar_k + sum_{i<=k} Khat_{k,i} (xhat_i -
    xbar_i) uses Khat = K (I + BB K)^{-1}; since BB K is strictly block lower
    triangular the inverse exists and Khat keeps the causal block-triangular
    pattern (enforced exactly on the result).
    """
    n = blocks.n_segments
    K = policy.dense()
    BK = blocks.dense_B() @ K
    Khat = np.linalg.solve((np.eye(BK.shape[0]) + BK).T, K.T).T
    out = np.zeros_like(policy.blocks)
    for k in range(n):
        for i in range(k + 1):
            out[k, i] = Khat[N_U * k : N_U * (k + 1), N_X * i : N_X * (i + 1)]
    return FeedbackPolicy(out)

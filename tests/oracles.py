"""Independent oracle routines used by the test suite.

Everything here is deliberately written by a different route than the package
code it checks: textbook one-step recursions instead of whole-horizon block
assembly, direct sample-path simulation instead of covariance algebra, and
scipy.stats quantiles instead of the package's own root finder.
"""

from __future__ import annotations

import numpy as np

from covtraj.covsteer import FeedbackPolicy
from covtraj.dynamics import LinearSegment
from covtraj.uncertainty import ObservationModel

N_X = 6
N_U = 3


def random_segments(
    rng: np.random.Generator,
    n: int,
    noise: bool = True,
    contraction: float = 0.15,
) -> list[LinearSegment]:
    """Random discrete-time linear segments for covariance tests."""
    segs = []
    for k in range(n):
        A = np.eye(N_X) + contraction * rng.standard_normal((N_X, N_X))
        B = 0.3 * rng.standard_normal((N_X, N_U))
        c = 0.1 * rng.standard_normal(N_X)
        if noise:
            G_exe = 0.05 * rng.standard_normal((N_X, N_U))
            G_proc = 0.05 * rng.standard_normal((N_X, 2))
        else:
            G_exe = np.zeros((N_X, N_U))
            G_proc = np.zeros((N_X, 0))
        segs.append(
            LinearSegment(
                index=k, t0=float(k), t1=float(k + 1),
                x_ref=np.zeros(N_X), u_ref=np.zeros(N_U),
                A=A, B=B, c=c, G_exe=G_exe, G_proc=G_proc,
            )
        )
    return segs


def random_observations(
    rng: np.random.Generator,
    n_nodes: int,
    p_measured: float = 0.7,
    force_first: bool = True,
) -> ObservationModel:
    """Random full-state observation pattern with random SPD noise roots."""
    flags = [bool(rng.random() < p_measured) for _ in range(n_nodes)]
    if force_first:
        flags[0] = True
    if not any(flags):
        flags[n_nodes // 2] = True
    noises = []
    for f in flags:
        if f:
            D = 0.1 * rng.standard_normal((N_X, N_X)) + 0.5 * np.eye(N_X)
            noises.append(D)
        else:
            noises.append(None)
    return ObservationModel(has_measurement=tuple(flags), sqrt_noise=tuple(noises))


def random_policy(rng: np.random.Generator, n: int, scale: float = 0.2) -> FeedbackPolicy:
    """Random causal full-history feedback policy."""
    blocks = np.zeros((n, n + 1, N_U, N_X))
    for k in range(n):
        blocks[k, : k + 1] = scale * rng.standard_normal((k + 1, N_U, N_X))
    return FeedbackPolicy(blocks)


def recursive_filter(
    segments: list[LinearSegment],
    obs: ObservationModel,
    P_tilde0_prior: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list, list]:
    """Textbook Kalman recursion: P+ = (I - L C) P-, no Joseph form.

    Returns:
        (P_prior (N+1,6,6), P_post (N+1,6,6), gains list, innov_cov list).
    """
    n = len(segments)
    P_prior = np.zeros((n + 1, N_X, N_X))
    P_post = np.zeros((n + 1, N_X, N_X))
    gains: list = []
    innov: list = []
    Pm = np.array(P_tilde0_prior, dtype=float)
    for k in range(n + 1):
        P_prior[k] = Pm
        if obs.has_measurement[k]:
            C = obs.obs_matrix[k]
            D = obs.sqrt_noise[k]
            S = C @ Pm @ C.T + D @ D.T
            L = Pm @ C.T @ np.linalg.inv(S)
            Pp = (np.eye(N_X) - L @ C) @ Pm
            gains.append(L)
            innov.append(S)
        else:
            Pp = Pm
            gains.append(None)
            innov.append(None)
        P_post[k] = Pp
        if k < n:
            s = segments[k]
            Pm = s.A @ Pp @ s.A.T + s.G_exe @ s.G_exe.T + s.G_proc @ s.G_proc.T
    return P_prior, P_post, gains, innov


def recursive_covariances(
    segments: list[LinearSegment],
    obs: ObservationModel,
    P_hat0: np.ndarray,
    P_tilde0_prior: np.ndarray,
    policy: FeedbackPolicy,
) -> tuple[np.ndarray, np.ndarray]:
    """One-step-recursion oracle for closed-loop second moments.

    Tracks the joint covariance of the controlled estimate deviation d_k and
    the whole innovation-state history (z_0 .. z_N), updating one step at a
    time. No whole-horizon matrices are ever formed.

    Returns:
        (P_hat (N+1,6,6) estimate-dispersion covariances,
         P_u (N,3,3) control covariances).
    """
    n = len(segments)
    _, _, gains, innov = recursive_filter(segments, obs, P_tilde0_prior)

    # Sigma[i][j] = Cov(z_i, z_j) for i, j <= current k; X[i] = Cov(d_k, z_i).
    Sigma = np.zeros((n + 1, n + 1, N_X, N_X))
    X = np.zeros((n + 1, N_X, N_X))
    P_hat = np.zeros((n + 1, N_X, N_X))
    P_u = np.zeros((n, N_U, N_U))

    S00 = np.array(P_hat0, dtype=float)
    if gains[0] is not None:
        S00 = S00 + gains[0] @ innov[0] @ gains[0].T
    Sigma[0, 0] = S00
    X[0] = S00  # d_0 = z_0
    D = S00.copy()  # Cov(d_k, d_k)
    P_hat[0] = D

    for k in range(n):
        s = segments[k]
        # control deviation du_k = sum_{i<=k} K_{k,i} z_i
        Ks = policy.blocks[k]
        for i in range(k + 1):
            for j in range(k + 1):
                P_u[k] += Ks[i] @ Sigma[i, j] @ Ks[j].T
        XU = np.zeros((N_X, N_U))  # Cov(d_k, du_k)
        for i in range(k + 1):
            XU += X[i] @ Ks[i].T
        # step: d_{k+1} = A d_k + B du_k + L nu ; z_{k+1} = A z_k + L nu
        D_new = s.A @ D @ s.A.T + s.B @ P_u[k] @ s.B.T
        D_new += s.A @ XU @ s.B.T + s.B @ XU.T @ s.A.T
        X_new = np.zeros_like(X)
        for i in range(k + 1):
            acc = s.A @ X[i]
            for j in range(k + 1):
                acc += s.B @ Ks[j] @ Sigma[j, i]
            X_new[i] = acc
        for i in range(k + 1):
            Sigma[k + 1, i] = s.A @ Sigma[k, i]
            Sigma[i, k + 1] = Sigma[k + 1, i].T
        Sigma[k + 1, k + 1] = s.A @ Sigma[k, k] @ s.A.T
        X_new[k + 1] = X_new[k] @ s.A.T
        L = gains[k + 1]
        if L is not None:
            LSL = L @ innov[k + 1] @ L.T
            Sigma[k + 1, k + 1] += LSL
            X_new[k + 1] += LSL
            D_new += LSL
        X = X_new
        D = D_new
        P_hat[k + 1] = D

    return P_hat, P_u


def simulate_closed_loop_paths(
    segments: list[LinearSegment],
    obs: ObservationModel,
    x0_bar: np.ndarray,
    U_bar: np.ndarray,
    policy_innov: FeedbackPolicy,
    policy_hat: FeedbackPolicy,
    P_hat0: np.ndarray,
    P_tilde0_prior: np.ndarray,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the same noise realization through both policy forms.

    Returns (X_innov, U_innov, X_hat, U_hat) for pathwise comparison.
    """
    n = len(segments)

    def run(policy: FeedbackPolicy, use_estimate: bool):
        rng = np.random.default_rng(seed)
        _, _, gains, _ = recursive_filter(segments, obs, P_tilde0_prior)
        xbar = np.zeros((n + 1, N_X))
        xbar[0] = x0_bar
        for k, s in enumerate(segments):
            xbar[k + 1] = s.A @ xbar[k] + s.B @ U_bar[k] + s.c

        sq_h = np.linalg.cholesky(P_hat0) if np.any(P_hat0) else np.zeros((N_X, N_X))
        sq_t = np.linalg.cholesky(P_tilde0_prior) if np.any(P_tilde0_prior) else np.zeros((N_X, N_X))
        xhat = x0_bar + sq_h @ rng.standard_normal(N_X)
        x = xhat + sq_t @ rng.standard_normal(N_X)

        z_hist = np.zeros((n + 1, N_X))
        dev_hist = np.zeros((n + 1, N_X))
        X_out = np.zeros((n + 1, N_X))
        U_out = np.zeros((n, N_U))

        z = xhat - xbar[0]
        if gains[0] is not None:
            C, D = obs.obs_matrix[0], obs.sqrt_noise[0]
            y = C @ x + D @ rng.standard_normal(D.shape[0])
            nu = y - C @ xhat
            xhat = xhat + gains[0] @ nu
            z = z + gains[0] @ nu
        z_hist[0] = z
        dev_hist[0] = xhat - xbar[0]
        X_out[0] = x

        for k, s in enumerate(segments):
            du = np.zeros(N_U)
            hist = dev_hist if use_estimate else z_hist
            for i in range(k + 1):
                du += policy.blocks[k, i] @ hist[i]
            u = U_bar[k] + du
            U_out[k] = u
            w_exe = rng.standard_normal(N_U)
            nw = s.G_proc.shape[1]
            w_proc = rng.standard_normal(nw) if nw else np.zeros(0)
            x = s.A @ x + s.B @ u + s.c + s.G_exe @ w_exe + s.G_proc @ w_proc
            xhat = s.A @ xhat + s.B @ u + s.c
            z = s.A @ z
            if gains[k + 1] is not None:
                C, D = obs.obs_matrix[k + 1], obs.sqrt_noise[k + 1]
                y = C @ x + D @ rng.standard_normal(D.shape[0])
                nu = y - C @ xhat
                xhat = xhat + gains[k + 1] @ nu
                z = z + gains[k + 1] @ nu
            z_hist[k + 1] = z
            dev_hist[k + 1] = xhat - xbar[k + 1]
            X_out[k + 1] = x

        return X_out, U_out

    Xi, Ui = run(policy_innov, use_estimate=False)
    Xh, Uh = run(policy_hat, use_estimate=True)
    return Xi, Ui, Xh, Uh


def nt_scaling_matrix(eta: float, wbar: np.ndarray) -> np.ndarray:
    """Dense Nesterov-Todd scaling of one second-order cone.

    W = eta [[a, b'], [b, I + b b' / (1 + a)]] with (a, b) = wbar, written
    out as an explicit matrix instead of the solver's matrix-free products.
    """
    a, b = wbar[0], wbar[1:]
    W = np.empty((wbar.size, wbar.size))
    W[0, 0] = a
    W[0, 1:] = b
    W[1:, 0] = b
    W[1:, 1:] = np.eye(b.size) + np.outer(b, b) / (1.0 + a)
    return eta * W


def arrow_matrix(lam: np.ndarray) -> np.ndarray:
    """Arrow matrix [[l0, l1'], [l1, l0 I]] of one cone: lam o u = Arw(lam) u."""
    L = lam[0] * np.eye(lam.size)
    L[0, 1:] = lam[1:]
    L[1:, 0] = lam[1:]
    return L

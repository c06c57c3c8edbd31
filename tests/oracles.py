"""Independent oracle routines used by the test suite.

Everything here is deliberately written by a different route than the package
code it checks: textbook one-step recursions instead of whole-horizon block
assembly, the dense condensed node maps instead of the package's sweeps over
the per-segment maps, direct sample-path simulation instead of covariance
algebra, scipy's solve_ivp instead of the package's batched DOP853, and dense
cone matrices instead of the solver's flat-array cone operations.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from covtraj.covsteer import BlockSystem, FeedbackPolicy
from covtraj.dynamics import ATOL, F_THRUST, RTOL, SINGULARITY_RADIUS, LinearSegment
from covtraj.errors import NumericalError
from covtraj.subproblem import SubproblemLayout
from covtraj.uncertainty import ObservationModel

N_X = 6
N_U = 3


def eval_dynamics(x: np.ndarray, u: np.ndarray, mu: float = 1.0) -> np.ndarray:
    """Right-hand side of the controlled two-body equations, one state at a time.

    The textbook form against which the batched right-hand sides of
    :mod:`covtraj.dynamics` are checked.

    Args:
        x: state [r; v], shape (6,), normalized units.
        u: thrust acceleration, shape (3,).
        mu: central body gravitational parameter (0 switches gravity off,
            which is how free double-integrator dynamics are expressed).

    Returns:
        xdot, shape (6,).
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    r = x[:3]
    out = np.empty(6)
    out[:3] = x[3:]
    if mu != 0.0:
        rn = float(np.linalg.norm(r))
        if rn < SINGULARITY_RADIUS:
            raise NumericalError(f"state inside singularity radius: |r| = {rn:.3e}")
        out[3:] = -mu / rn**3 * r + u
    else:
        out[3:] = u
    return out


def dynamics_jacobian(x: np.ndarray, mu: float = 1.0) -> np.ndarray:
    """State Jacobian d(xdot)/dx of :func:`eval_dynamics` (control-free part)."""
    J = np.zeros((6, 6))
    J[:3, 3:] = np.eye(3)
    if mu != 0.0:
        r = np.asarray(x, dtype=float)[:3]
        rn = float(np.linalg.norm(r))
        if rn < SINGULARITY_RADIUS:
            raise NumericalError(f"state inside singularity radius: |r| = {rn:.3e}")
        J[3:, :3] = mu * (3.0 * np.outer(r, r) / rn**5 - np.eye(3) / rn**3)
    return J


def solve_ivp_propagate(
    x0: np.ndarray, u: np.ndarray, t0: float, t1: float, mu: float = 1.0
) -> tuple[np.ndarray, int, int]:
    """Two-body flow by scipy's solve_ivp(DOP853), one state at a time.

    Returns the state at t1, the number of right-hand-side evaluations and
    the number of accepted steps.
    """
    sol = solve_ivp(
        lambda t, x: eval_dynamics(x, u, mu), (t0, t1), np.asarray(x0, dtype=float),
        method="DOP853", rtol=RTOL, atol=ATOL,
    )
    assert sol.success, sol.message
    return sol.y[:, -1].copy(), sol.nfev, sol.t.size - 1


def solve_ivp_variational(
    x_ref: np.ndarray,
    u_ref: np.ndarray,
    t0: float,
    t1: float,
    mu: float = 1.0,
    proc_noise_sqrt: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """(x1, A, B, Q) of one segment by solve_ivp(DOP853) on the textbook system.

    Phi' = J Phi, Psi' = J Psi + F and Q' = J Q + Q J' + G G' with the full
    Jacobian J of :func:`dynamics_jacobian`.
    """
    with_q = proc_noise_sqrt is not None
    GGt = proc_noise_sqrt @ proc_noise_sqrt.T if with_q else None

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        x = y[:6]
        J = dynamics_jacobian(x, mu)
        out = np.empty(y.shape)
        out[:6] = eval_dynamics(x, u_ref, mu)
        out[6:42] = (J @ y[6:42].reshape(6, 6)).ravel()
        out[42:60] = (J @ y[42:60].reshape(6, 3) + F_THRUST).ravel()
        if with_q:
            Q = y[60:96].reshape(6, 6)
            out[60:96] = (J @ Q + Q @ J.T + GGt).ravel()
        return out

    y0 = np.zeros(96 if with_q else 60)
    y0[:6] = x_ref
    y0[6:42] = np.eye(6).ravel()
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=RTOL, atol=ATOL)
    assert sol.success, sol.message
    yf = sol.y[:, -1]
    Q = yf[60:96].reshape(6, 6) if with_q else None
    return yf[:6], yf[6:42].reshape(6, 6), yf[42:60].reshape(6, 3), Q


def random_segments(
    rng: np.random.Generator,
    n: int,
    noise: bool = True,
    contraction: float = 0.15,
) -> list[LinearSegment]:
    """Random discrete-time linear segments for covariance tests."""
    segs = []
    for _ in range(n):
        A = np.eye(N_X) + contraction * rng.standard_normal((N_X, N_X))
        B = 0.3 * rng.standard_normal((N_X, N_U))
        c = 0.1 * rng.standard_normal(N_X)
        if noise:
            G_exe = 0.05 * rng.standard_normal((N_X, N_U))
            G_proc = 0.05 * rng.standard_normal((N_X, 2))
        else:
            G_exe = np.zeros((N_X, N_U))
            G_proc = np.zeros((N_X, 0))
        segs.append(LinearSegment(A=A, B=B, c=c, G_exe=G_exe, G_proc=G_proc))
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


def dense_chain(segments: list[LinearSegment]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense node maps x_k = Phi[k] x_0 + sum_i Bblk[k, i] u_i + Cvec[k].

    The condensed whole-horizon table, built forward one node at a time:
    Phi (N+1, 6, 6), Bblk (N+1, N, 6, 3), zero for i >= k, and Cvec (N+1, 6).
    """
    n = len(segments)
    Phi = np.zeros((n + 1, N_X, N_X))
    Bblk = np.zeros((n + 1, n, N_X, N_U))
    Cvec = np.zeros((n + 1, N_X))
    Phi[0] = np.eye(N_X)
    for k, seg in enumerate(segments):
        Phi[k + 1] = seg.A @ Phi[k]
        Bblk[k + 1, :k] = seg.A @ Bblk[k, :k]
        Bblk[k + 1, k] = seg.B
        Cvec[k + 1] = seg.A @ Cvec[k] + seg.c
    return Phi, Bblk, Cvec


def estimate_deviation_gains(blocks: BlockSystem, policy: FeedbackPolicy) -> FeedbackPolicy:
    """Reference estimate-deviation form Khat = K (I + BB K)^-1 of a policy.

    u_k = ubar_k + sum_{i<=k} Khat_{k,i} (xhat_i - xbar_i) commands the same
    controls as the innovation-state gains K. Built from the dense stacked
    gain (N*3, (N+1)*6) and control map ((N+1)*6, N*3); BB K is strictly
    block lower triangular, so the inverse exists and Khat keeps the causal
    pattern, which is enforced exactly on the result.
    """
    n = blocks.n_segments
    K = policy.blocks.transpose(0, 2, 1, 3).reshape(n * N_U, (n + 1) * N_X)
    Bblk = dense_chain(blocks.segments)[1]
    BB = Bblk.transpose(0, 2, 1, 3).reshape((n + 1) * N_X, n * N_U)
    Khat = np.linalg.solve((np.eye(BB.shape[0]) + BB @ K).T, K.T).T
    out = Khat.reshape(n, N_U, n + 1, N_X).transpose(0, 2, 1, 3).copy()
    out[np.arange(n + 1)[None, :] > np.arange(n)[:, None]] = 0.0
    return FeedbackPolicy(out)


def recursive_filter(
    segments: list[LinearSegment],
    obs: ObservationModel,
    P_tilde0_prior: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list, list]:
    """Textbook Kalman recursion: P+ = (I - L C) P-, no Joseph form.

    Every fix is full-state; C = I is written out so that the recursion
    stays the general textbook one.

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
            C = np.eye(N_X)
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
            C, D = np.eye(N_X), obs.sqrt_noise[0]
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
                C, D = np.eye(N_X), obs.sqrt_noise[k + 1]
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


def kkt_entries(ws) -> tuple[np.ndarray, np.ndarray]:
    """The sparse path's KKT entries as int32 (rows, cols), one by one.

    K over (x, z, a v and a u column per soc cone) is [[reg_x I, A_in'],
    [A_in, -W^2]] with W^2 expanded into its cones' v and u columns (the
    solver's module docstring). Listed here as an entry list rather than the
    solver's column-by-column layout: the variable entries first, in the
    order of ``_QuasiDefiniteKkt.variable`` (the diagonal, one entry of each
    symmetric pair of the v and u columns, its mirror), then A_in and its
    mirror. ``ws`` is a sparse-path ``_Workspace``.
    """
    n, A = ws.n, ws.A_in.tocoo()
    col_v = n + ws.m_in + ws.curved_cone
    aux_r, aux_c = np.tile(n + ws.curved_rows, 2), np.r_[col_v, col_v + ws.n_curved]
    diag = np.arange(ws.kkt.size)
    rows = np.concatenate([diag, aux_r, aux_c, n + A.row, A.col], dtype=np.int32)
    cols = np.concatenate([diag, aux_c, aux_r, A.col, n + A.row], dtype=np.int32)
    return rows, cols


def program_digest(prog) -> str:
    """sha256 of a program's A (data, indices and indptr), b, c and cones.

    Two programs with one digest hold the same bytes: the same stored
    entries in the same order, the same constants and the same cone list.
    """
    h = hashlib.sha256()
    A = prog.A.tocsr()
    for a in (A.data, A.indices, A.indptr, prog.b, prog.c):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr([(c.kind, c.dim, c.alpha) for c in prog.cones]).encode())
    return h.hexdigest()


def pow3_tower_slack(s: np.ndarray, aux: np.ndarray, alpha: float) -> np.ndarray:
    """Lowered soc slacks of one pow3 cone, from its original slack.

    With alpha = p/q: the cone (t, s2), then one cell (a+b, a-b, 2w) for
    each pair of differing leaves of the geometric-mean tree, level by level
    and left to right, closing with (a+b, a-b, 2t). The leaves are p copies
    of s0, q-p of s1 and t up to the next power of two; t = aux[0] and the
    cells' w take aux[1:] in order. This acts on slack values, where the
    lowering builds a row map.
    """
    frac = Fraction(alpha).limit_denominator(64)
    p, q = frac.numerator, frac.denominator
    width = 1 << (q - 1).bit_length()
    t, ws = aux[0], iter(aux[1:])
    out = [t, s[2]]
    leaves = [("s0", s[0])] * p + [("s1", s[1])] * (q - p) + [("t", t)] * (width - q)
    while len(leaves) > 2:
        nxt = []
        for (la, a), (lb, b) in zip(leaves[0::2], leaves[1::2]):
            if la == lb:
                nxt.append((la, a))
            else:
                w = next(ws)
                out += [a + b, a - b, 2.0 * w]
                nxt.append((f"w{len(out)}", w))
        leaves = nxt
    (_, a), (_, b) = leaves
    out += [a + b, a - b, 2.0 * t]
    return np.array(out)


def state_mean(blocks: BlockSystem, x0_bar: np.ndarray, U_bar: np.ndarray) -> np.ndarray:
    """Mean state at every node under the nominal control sequence.

    Args:
        blocks: block system from :func:`covtraj.covsteer.build_block_system`.
        x0_bar: initial mean state, (6,).
        U_bar: nominal controls, (N, 3).

    Returns:
        (N+1, 6) node means. On the linearization reference itself this
        reproduces the nonlinear flow exactly (the affine drift absorbs it).
    """
    x0_bar = np.asarray(x0_bar, dtype=float)
    U_bar = np.asarray(U_bar, dtype=float).reshape(blocks.n_segments, N_U)
    Phi, Bblk, Cvec = dense_chain(blocks.segments)
    mean = Phi @ x0_bar + Cvec
    mean += np.einsum("kinm,im->kn", Bblk, U_bar)
    return mean


#: The subproblem's variable blocks, one per kind, in column order. ``K``
#: and ``b`` exist only in stochastic mode.
SUBPROBLEM_BLOCKS = ("x0", "u", "theta", "K", "a", "b", "xi", "assist", "penalty")


def layout_audit(layout: SubproblemLayout) -> dict[str, int]:
    """Documented variable-count breakdown; totals match the program.

    The count includes the free initial mean state (6 variables) alongside
    controls, turn angles, gain blocks, epigraphs, relaxation slacks, and
    penalty auxiliaries. The program's variable blocks must be exactly the
    documented kinds, in the documented order, tiling the columns with the
    sizes the breakdown predicts.
    """
    stochastic = layout.stochastic is not None
    n_thrust = len(layout.grid.thrust_segments)
    n_ga = len(layout.grid.ga_segments)
    n_assist = len(layout.assists)
    n_gain_blocks = len(layout.gain_pairs)
    n_relaxed = N_X + n_assist
    counts = {
        "x0": N_X,
        "thrust_controls": N_U * n_thrust,
        "assist_controls": N_U * n_ga,
        "turn_angles": n_assist,
        "gain_blocks": N_U * N_X * n_gain_blocks,
        "dv_epigraphs": (2 if stochastic else 1) * n_thrust,
        "impact_epigraphs": (2 if stochastic else 1) * n_assist,
        "relaxation_slacks": n_relaxed,
        "penalty_epigraphs": 2 * n_relaxed,
    }
    counts["total"] = sum(v for k, v in counts.items() if k != "total")
    assert counts["total"] == layout.program.n_vars

    sizes = {
        "x0": N_X,
        "u": N_U * (n_thrust + n_ga),
        "theta": n_assist,
        "K": N_U * N_X * n_gain_blocks,
        "a": n_thrust,
        "b": n_thrust,
        "xi": N_X,
        "assist": (3 if stochastic else 2) * n_assist,
        "penalty": 2 * n_relaxed,
    }
    names = [n for n in SUBPROBLEM_BLOCKS if stochastic or n not in ("K", "b")]
    blocks = layout.program.var_blocks
    assert list(blocks) == names, f"variable blocks {list(blocks)}, expected {names}"
    start = 0
    for name, sl in blocks.items():
        assert (sl.start, sl.stop) == (start, start + sizes[name]), name
        start = sl.stop
    assert start == layout.program.n_vars
    return counts


def bootstrap_ci_half_gather(
    values: np.ndarray,
    p: float,
    n_resamples: int,
    conf: float,
    seed: np.random.SeedSequence,
) -> float:
    """Bootstrap half-width of the order-statistic quantile, value by value.

    Draws one resample of int64 indices at a time from the same Philox
    stream, gathers the sorted values it picks and partitions them for the
    order statistic ceil(p n) (1-based).
    """
    values = np.sort(np.asarray(values, dtype=float))
    rng = np.random.Generator(np.random.Philox(seed))
    n = values.size
    order = int(np.ceil(p * n)) - 1
    quantiles = np.empty(n_resamples)
    for r in range(n_resamples):
        picked = values[rng.integers(0, n, size=n)]
        quantiles[r] = np.partition(picked, order)[order]
    lo, hi = np.quantile(quantiles, [0.5 * (1.0 - conf), 0.5 * (1.0 + conf)])
    return float(0.5 * (hi - lo))

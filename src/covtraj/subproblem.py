"""Convex trajectory subproblem: joint reference and feedback-gain design.

One subproblem instance is built around a reference trajectory and its exact
affine segment maps. Decision variables are the initial mean state, the mean
controls on thrust segments, the gravity-assist rotation parameters and turn
angles, causal output-feedback gain blocks (stochastic mode), and epigraph /
relaxation auxiliaries. The program minimizes the 99th-percentile delta-v
upper bound

    sum_k dt_k (||u_k|| + m ||P_u_k^1/2||_F),   m = chi2_quantile_sqrt(eps, 3)

plus exact-penalty terms on the relaxed terminal-mean and flyby-safety rows,
subject to thrust magnitude chance constraints, a terminal dispersion bound,
launch and flyby constraints, and a trust region. Everything is affine in the
decision variables because the control covariance square root is linear in
the gain blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaincc, gammaln, ndtri

from .conic import ConicProgram, ProgramBuilder, SolveResult, solve
from .covsteer import BlockSystem, FeedbackPolicy, KalmanSchedule, N_U, N_X, mean_chain
from .dynamics import LinearSegment, TimeGrid, psd_sqrt
from .errors import ConfigError
from .gravity_assist import (
    E_VEL,
    GaEvent,
    max_v_inf_derivative,
    max_v_inf_for_safe_flyby,
    turn_angle_constraint_lin,
)

__all__ = [
    "LaunchSpec",
    "PenaltyWeights",
    "StochasticSpec",
    "SubproblemLayout",
    "SubproblemSolution",
    "TerminalSpec",
    "augmented_cost",
    "build_subproblem",
    "chi2_quantile_sqrt",
    "extract_solution",
    "feedback_nodes",
    "layout_audit",
    "penalty_grad",
    "penalty_value",
    "solve_subproblem",
]


def chi2_quantile_sqrt(eps: float, dim: int) -> float:
    """Square root of the chi-square quantile at probability 1 - eps.

    Computed by safeguarded Newton inversion of the regularized upper
    incomplete gamma function Q(dim/2, q/2) = eps; working on the tail side
    avoids the 1 - eps cancellation that costs ~eps-relative accuracy for
    small tails. This is the tight multiplier for Gaussian norm bounds:
    P(||v|| <= m sigma) = 1 - eps for v ~ N(0, sigma^2 I_dim) with m the
    value returned here.

    Args:
        eps: tail probability in (0, 1).
        dim: dimension of the Gaussian vector (positive integer).

    Returns:
        m = sqrt(q) with P(chi2_dim <= q) = 1 - eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim}")
    a = 0.5 * dim

    # Wilson-Hilferty starting point
    zq = ndtri(1.0 - eps)
    h = 2.0 / (9.0 * dim)
    q = dim * (1.0 - h + zq * np.sqrt(h)) ** 3
    q = max(q, 1e-8)

    lo, hi = 0.0, q
    while gammaincc(a, 0.5 * hi) > eps:
        lo = hi
        hi *= 2.0

    for _ in range(100):
        # f decreasing in q; f > 0 means q is still below the quantile
        f = gammaincc(a, 0.5 * q) - eps
        if f > 0.0:
            lo = q
        else:
            hi = q
        # density of chi2 at q
        df = 0.5 * np.exp((a - 1.0) * np.log(0.5 * q) - 0.5 * q - gammaln(a))
        if df > 0.0:
            q_new = q + f / df
        else:
            q_new = 0.5 * (lo + hi)
        if not lo < q_new < hi:
            q_new = 0.5 * (lo + hi)
        if abs(q_new - q) <= 1e-15 * max(1.0, q):
            q = q_new
            break
        q = q_new
    return float(np.sqrt(q))


def penalty_value(z: float, weight: float, tau: float = 1.1) -> float:
    """Weighted exact penalty (1/w) phi(w z), phi(y) = |y|^tau / tau + y^2 / 2."""
    y = weight * z
    return (abs(y) ** tau / tau + 0.5 * y * y) / weight


def penalty_grad(z: float, weight: float, tau: float = 1.1) -> float:
    """d/dz of (1/w) phi(w z): sign(y)|y|^(tau-1) + y at y = w z."""
    y = weight * z
    return float(np.sign(y) * abs(y) ** (tau - 1.0) + y)


def feedback_nodes(
    k: int, measured: Sequence[int], depth: int | None = None
) -> tuple[int, ...]:
    """Estimate-history nodes segment k may feed back on.

    The filtered deviation at an unmeasured node is a deterministic map of
    the previous one, so gains there would be redundant; feedback is indexed
    by the initial node plus every measured node up to and including k.
    ``depth`` keeps only the most recent entries (banded feedback).
    """
    nodes = sorted({0, *(i for i in measured if i <= k)})
    nodes = [i for i in nodes if i <= k]
    if depth is not None:
        if depth < 1:
            raise ValueError(f"feedback depth must be >= 1, got {depth}")
        nodes = nodes[-depth:]
    return tuple(nodes)


@dataclass(frozen=True)
class LaunchSpec:
    """Launch constraints: position pinned to the body, bounded v-infinity."""

    r_body: np.ndarray
    v_body: np.ndarray
    v_inf_max: float

    def __post_init__(self):
        object.__setattr__(self, "r_body", np.asarray(self.r_body, dtype=float))
        object.__setattr__(self, "v_body", np.asarray(self.v_body, dtype=float))
        if self.r_body.shape != (3,) or self.v_body.shape != (3,):
            raise ValueError("launch body state must be two length-3 vectors")
        if self.v_inf_max <= 0.0:
            raise ValueError("v_inf_max must be positive")


@dataclass(frozen=True)
class TerminalSpec:
    """Rendezvous target for the terminal mean state."""

    x_target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_target", np.asarray(self.x_target, dtype=float))
        if self.x_target.shape != (N_X,):
            raise ValueError("terminal target must be a length-6 state")


@dataclass(frozen=True)
class StochasticSpec:
    """Dispersion data enabling feedback gains and chance constraints."""

    blocks: BlockSystem
    schedule: KalmanSchedule
    eps_u: float
    p_f: np.ndarray
    feedback_depth: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "p_f", np.asarray(self.p_f, dtype=float))
        if self.p_f.shape != (N_X, N_X):
            raise ValueError("terminal dispersion bound must be 6x6")
        if not 0.0 < self.eps_u < 1.0:
            raise ValueError("eps_u must lie in (0, 1)")


@dataclass(frozen=True)
class PenaltyWeights:
    """Multipliers and weight of the augmented (exact-penalty) objective."""

    weight: float
    lam_terminal: np.ndarray
    lam_assists: tuple[float, ...] = ()
    tau: float = 1.1

    def __post_init__(self):
        object.__setattr__(
            self, "lam_terminal", np.asarray(self.lam_terminal, dtype=float)
        )
        object.__setattr__(self, "lam_assists", tuple(self.lam_assists))
        if self.lam_terminal.shape != (N_X,):
            raise ValueError("terminal multiplier must have length 6")
        if self.weight <= 0.0:
            raise ValueError("penalty weight must be positive")
        if not 1.0 < self.tau < 2.0:
            raise ValueError("penalty exponent tau must lie in (1, 2)")


@dataclass(frozen=True)
class SubproblemLayout:
    """Built program plus the variable map needed to read a solution back."""

    program: ConicProgram
    grid: TimeGrid
    thrust_segments: tuple[int, ...]
    ga_segments: tuple[int, ...]
    fb_nodes: dict[int, tuple[int, ...]]
    assists: tuple[GaEvent, ...]
    weights: PenaltyWeights
    m_u: float | None
    m_assists: tuple[float, ...]
    stochastic: StochasticSpec | None
    ref_controls: np.ndarray
    x0_fixed: np.ndarray | None


@dataclass(frozen=True)
class SubproblemSolution:
    """Decision variables of one solved subproblem."""

    status: str
    objective: float | None
    x0: np.ndarray | None
    controls: np.ndarray | None
    thetas: tuple[float, ...]
    policy: FeedbackPolicy | None
    xi: np.ndarray | None
    zetas: tuple[float, ...]
    dv_linear: np.ndarray | None
    dv_feedback: np.ndarray | None
    result: SolveResult

    @property
    def ok(self) -> bool:
        return self.result.ok


def _vec_product_triplets(
    row_base: int,
    left: np.ndarray,
    s_block: np.ndarray,
    idx: np.ndarray,
    sign: float = -1.0,
):
    """Triplets for rows vec(left @ G @ s_block) of a gain block G.

    ``idx`` holds the (3, 6) variable indices of G; the value placed at
    row (r, c) for variable G[n, m] is sign * left[r, n] * s_block[m, c].
    """
    p = left.shape[0]
    q = s_block.shape[1]
    rr = row_base + np.arange(p)[:, None] * q + np.arange(q)[None, :]
    shape = (p, q, N_U, N_X)
    rows = np.broadcast_to(rr[:, :, None, None], shape).ravel()
    cols = np.broadcast_to(idx[None, None, :, :], shape).ravel()
    vals = (sign * left[:, None, :, None] * s_block.T[None, :, None, :]).ravel()
    return rows, cols, vals


class _ConeRows:
    """Accumulates triplets and the b vector for one cone."""

    def __init__(self, dim: int):
        self.b = np.zeros(dim)
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []

    def add(self, rows, cols, vals):
        self.rows.append(np.asarray(rows, dtype=int))
        self.cols.append(np.asarray(cols, dtype=int))
        self.vals.append(np.asarray(vals, dtype=float))

    def entry(self, row: int, col: int, val: float):
        self.add([row], [col], [val])

    def emit(self, pb: ProgramBuilder, kind: str, alpha: float | None = None):
        rows = np.concatenate(self.rows) if self.rows else np.zeros(0, dtype=int)
        cols = np.concatenate(self.cols) if self.cols else np.zeros(0, dtype=int)
        vals = np.concatenate(self.vals) if self.vals else np.zeros(0)
        return pb.cone(kind, self.b, rows, cols, vals, alpha=alpha)


def build_subproblem(
    grid: TimeGrid,
    segments: Sequence[LinearSegment],
    ref_states: np.ndarray,
    ref_controls: np.ndarray,
    u_max: float,
    terminal: TerminalSpec,
    weights: PenaltyWeights,
    trust_radius: float,
    *,
    launch: LaunchSpec | None = None,
    x0_fixed: np.ndarray | None = None,
    assists: Sequence[GaEvent] = (),
    theta_refs: Sequence[float] = (),
    stochastic: StochasticSpec | None = None,
    name: str = "trajectory-subproblem",
) -> SubproblemLayout:
    """Assemble the conic subproblem around one reference trajectory.

    Args:
        grid: node epochs and kinds; segment kinds select the variable set.
        segments: exact affine maps linearized at the reference.
        ref_states: (N+1, 6) reference node states (trust-region center).
        ref_controls: (N, 3) reference controls; zero on coast segments,
            Cayley parameters on gravity-assist segments.
        u_max: thrust acceleration bound.
        terminal: rendezvous target (relaxed, exact penalty).
        weights: penalty multipliers and weight.
        trust_radius: 2-norm bound on the change of (x0, controls, turns).
        launch: optional launch-body constraints on the initial mean.
        x0_fixed: optional hard value for the initial mean state.
        assists: flyby events (turn rows + safety constraint), one per ga
            segment.
        theta_refs: reference turn angle of each assist, inside its window.
        stochastic: dispersion data; None builds the mean-only problem.
        name: program name (appears in dumps).

    Returns:
        SubproblemLayout wrapping the ConicProgram and the variable map.
    """
    n_seg = grid.n_segments
    if len(segments) != n_seg:
        raise ValueError("one linear segment per grid segment is required")
    ref_states = np.asarray(ref_states, dtype=float)
    ref_controls = np.asarray(ref_controls, dtype=float)
    if ref_states.shape != (n_seg + 1, N_X):
        raise ValueError("reference states must be (N+1, 6)")
    if ref_controls.shape != (n_seg, N_U):
        raise ValueError("reference controls must be (N, 3)")
    if u_max <= 0.0:
        raise ValueError("u_max must be positive")
    if trust_radius <= 0.0:
        raise ValueError("trust radius must be positive")
    if launch is not None and x0_fixed is not None:
        raise ValueError("launch constraints and a fixed x0 are exclusive")
    if len(weights.lam_assists) != len(assists):
        raise ValueError("one assist multiplier per assist is required")

    kinds = grid.kinds
    thrust = tuple(k for k in range(n_seg) if kinds[k] == "thrust")
    ga_segs = tuple(k for k in range(n_seg) if kinds[k] == "ga")
    if tuple(sorted(a.segment for a in assists)) != ga_segs:
        raise ValueError("assists must map one-to-one onto ga segments")
    if len(theta_refs) != len(assists):
        raise ValueError("one reference turn angle per assist is required")
    theta_refs = tuple(float(t) for t in theta_refs)
    for a, theta_ref in zip(assists, theta_refs):
        if not a.theta_min <= theta_ref <= a.theta_max:
            raise ValueError(
                f"reference turn angle {theta_ref} outside [{a.theta_min}, {a.theta_max}]"
            )
    var_segments = tuple(sorted(thrust + ga_segs))
    dts = grid.dts

    Phi, Bb, Cv = mean_chain(segments)

    m_u = None
    fb: dict[int, tuple[int, ...]] = {}
    if stochastic is not None:
        blocks = stochastic.blocks
        if blocks.n_segments != n_seg:
            raise ValueError("block system does not match the grid")
        m_u = chi2_quantile_sqrt(stochastic.eps_u, N_U)
        measured = tuple(sorted(stochastic.blocks.meas_col))
        for k in thrust:
            fb[k] = feedback_nodes(k, measured, stochastic.feedback_depth)
        # columns of the square-root table active at or before node n
        def cols_at(n: int) -> int:
            ends = [e for i, (s0, e) in blocks.meas_col.items() if i <= n]
            return max([N_X, *ends])

        chol_pf = np.linalg.cholesky(stochastic.p_f)
        pf_inv = np.linalg.solve(chol_pf, np.eye(N_X))
        p_tilde_sqrt = [psd_sqrt(stochastic.schedule.P_post[n]) for n in range(n_seg + 1)]
    m_assists = tuple(
        chi2_quantile_sqrt(a.eps, N_U) if stochastic is not None else 0.0
        for a in assists
    )

    pb = ProgramBuilder(name)
    x0 = pb.var_block("x0", N_X)
    u_idx: dict[int, np.ndarray] = {}
    for k in var_segments:
        u_idx[k] = pb.var_block(f"u{k}", N_U)
    theta_idx: dict[int, int] = {}
    for a_i, a in enumerate(assists):
        theta_idx[a_i] = pb.var_block(f"theta{a_i}", 1)[0]
    gain_idx: dict[tuple[int, int], np.ndarray] = {}
    if stochastic is not None:
        for k in thrust:
            for i in fb[k]:
                gain_idx[(k, i)] = pb.var_block(f"K{k}_{i}", N_U * N_X).reshape(
                    N_U, N_X
                )
    a_idx = {k: pb.var_block(f"a{k}", 1)[0] for k in thrust}
    b_idx: dict[int, int] = {}
    if stochastic is not None:
        for k in thrust:
            if fb[k]:
                b_idx[k] = pb.var_block(f"b{k}", 1)[0]
    xi = pb.var_block("xi", N_X)
    zeta_idx: dict[int, int] = {}
    c1_idx: dict[int, int] = {}
    c2_idx: dict[int, int] = {}
    for a_i in range(len(assists)):
        zeta_idx[a_i] = pb.var_block(f"zeta{a_i}", 1)[0]
        c1_idx[a_i] = pb.var_block(f"c1_{a_i}", 1)[0]
        if stochastic is not None:
            c2_idx[a_i] = pb.var_block(f"c2_{a_i}", 1)[0]
    relaxed = [("xi", j) for j in range(N_X)] + [("zeta", a_i) for a_i in range(len(assists))]
    pa_idx = {}
    pq_idx = {}
    for j, key in enumerate(relaxed):
        pa_idx[key] = pb.var_block(f"pa{j}", 1)[0]
        pq_idx[key] = pb.var_block(f"pq{j}", 1)[0]

    # ------------------------------------------------------------------
    # objective
    w = weights.weight
    tau = weights.tau
    for k in thrust:
        pb.cost(a_idx[k], dts[k])
        if k in b_idx:
            pb.cost(b_idx[k], dts[k] * m_u)
    pb.cost(xi, weights.lam_terminal)
    for a_i, lam in enumerate(weights.lam_assists):
        pb.cost(zeta_idx[a_i], lam)
    for key in relaxed:
        pb.cost(pa_idx[key], 1.0 / (w * tau))
        pb.cost(pq_idx[key], 0.5 * w)

    # ------------------------------------------------------------------
    # helper: affine mean-state rows coeff @ x_node (plus constants)
    def mean_entries(cone: _ConeRows, row0: int, coeff: np.ndarray, node: int):
        """Add rows coeff @ x_mean(node) with slack sign s = const + coeff x."""
        Cx0 = coeff @ Phi[node]
        rr, cc = np.nonzero(Cx0)
        cone.add(row0 + rr, x0[cc], -Cx0[rr, cc])
        for k in var_segments:
            if k >= node:
                break
            Ck = coeff @ Bb[node, k]
            rr, cc = np.nonzero(Ck)
            if rr.size:
                cone.add(row0 + rr, u_idx[k][cc], -Ck[rr, cc])
        return coeff @ Cv[node]

    # thrust epigraphs, chance constraint
    for k in thrust:
        cone = _ConeRows(1 + N_U)
        cone.entry(0, a_idx[k], -1.0)
        for i in range(N_U):
            cone.entry(1 + i, u_idx[k][i], -1.0)
        cone.emit(pb, "soc")

        if k in b_idx:
            q = cols_at(k)
            cone = _ConeRows(1 + N_U * q)
            cone.entry(0, b_idx[k], -1.0)
            for i in fb[k]:
                s_blk = blocks.s_row(i)[:, :q]
                cone.add(*_vec_product_triplets(1, np.eye(N_U), s_blk, gain_idx[(k, i)]))
            cone.emit(pb, "soc")

        cone = _ConeRows(1)
        cone.b[0] = u_max
        cone.entry(0, a_idx[k], 1.0)
        if k in b_idx:
            cone.entry(0, b_idx[k], m_u)
        cone.emit(pb, "nonneg")

    # terminal mean (relaxed): x_N - x_target - xi = 0
    cone = _ConeRows(N_X)
    const = mean_entries(cone, 0, np.eye(N_X), n_seg)
    cone.b[:] = const - terminal.x_target
    for j in range(N_X):
        cone.entry(j, xi[j], 1.0)
    cone.emit(pb, "zero")

    # terminal dispersion bound (stochastic): ||Pf^-1/2 [Dhat_N, Ptilde_N^1/2]||_F <= 1
    if stochastic is not None:
        qn = cols_at(n_seg)
        cone = _ConeRows(1 + N_X * qn + N_X * N_X)
        cone.b[0] = 1.0
        cone.b[1 : 1 + N_X * qn] = (pf_inv @ blocks.s_row(n_seg)[:, :qn]).ravel()
        for k in thrust:
            left = pf_inv @ blocks.Bblk[n_seg, k]
            for i in fb[k]:
                s_blk = blocks.s_row(i)[:, :qn]
                cone.add(*_vec_product_triplets(1, left, s_blk, gain_idx[(k, i)]))
        cone.b[1 + N_X * qn :] = (pf_inv @ p_tilde_sqrt[n_seg]).ravel()
        cone.emit(pb, "soc")

    # launch constraints
    if x0_fixed is not None:
        x0_fixed = np.asarray(x0_fixed, dtype=float)
        cone = _ConeRows(N_X)
        cone.b[:] = x0_fixed
        for j in range(N_X):
            cone.entry(j, x0[j], 1.0)
        cone.emit(pb, "zero")
    if launch is not None:
        cone = _ConeRows(3)
        cone.b[:] = launch.r_body
        for j in range(3):
            cone.entry(j, x0[j], 1.0)
        cone.emit(pb, "zero")
        cone = _ConeRows(4)
        cone.b[0] = launch.v_inf_max
        cone.b[1:] = -launch.v_body
        for j in range(3):
            cone.entry(1 + j, x0[3 + j], -1.0)
        cone.emit(pb, "soc")

    # gravity assists
    for a_i, (a, theta_ref) in enumerate(zip(assists, theta_refs)):
        pre, post = a.segment, a.segment + 1
        th = theta_idx[a_i]

        # turn-angle consistency (linearized, exact at the reference)
        g_ref, dg_pre, dg_post, dg_th = turn_angle_constraint_lin(
            ref_states[pre], ref_states[post], theta_ref, a.v_planet
        )
        cone = _ConeRows(1)
        c_pre = mean_entries(cone, 0, dg_pre[None, :], pre)[0]
        c_post = mean_entries(cone, 0, dg_post[None, :], post)[0]
        cone.entry(0, th, -dg_th)
        cone.b[0] = (
            g_ref
            - dg_pre @ ref_states[pre]
            - dg_post @ ref_states[post]
            - dg_th * theta_ref
            + c_pre
            + c_post
        )
        cone.emit(pb, "zero")

        # turn-angle bounds
        cone = _ConeRows(2)
        cone.b[0] = -a.theta_min
        cone.entry(0, th, -1.0)
        cone.b[1] = a.theta_max
        cone.entry(1, th, 1.0)
        cone.emit(pb, "nonneg")

        # c1 >= ||v_inf_pre|| (mean part)
        cone = _ConeRows(4)
        cone.entry(0, c1_idx[a_i], -1.0)
        const = mean_entries(cone, 1, E_VEL, pre)
        cone.b[1:] = const - a.v_planet
        cone.emit(pb, "soc")

        # c2 >= || E_vel [Dhat_pre, Ptilde_pre^1/2] ||_F (dispersion part)
        if stochastic is not None:
            qp = cols_at(pre)
            cone = _ConeRows(1 + 3 * qp + 3 * N_X)
            cone.entry(0, c2_idx[a_i], -1.0)
            cone.b[1 : 1 + 3 * qp] = (E_VEL @ blocks.s_row(pre)[:, :qp]).ravel()
            for k in thrust:
                if k >= pre:
                    break
                left = E_VEL @ blocks.Bblk[pre, k]
                for i in fb[k]:
                    s_blk = blocks.s_row(i)[:, :qp]
                    cone.add(
                        *_vec_product_triplets(1, left, s_blk, gain_idx[(k, i)])
                    )
            cone.b[1 + 3 * qp :] = (E_VEL @ p_tilde_sqrt[pre]).ravel()
            cone.emit(pb, "soc")

        # safety margin (relaxed): v_max(theta) + zeta - c1 - m c2 >= 0
        vmax_ref = max_v_inf_for_safe_flyby(theta_ref, a.mu_p, a.r_p_min)
        dvmax = max_v_inf_derivative(theta_ref, a.mu_p, a.r_p_min)
        cone = _ConeRows(1)
        cone.b[0] = vmax_ref - dvmax * theta_ref
        cone.entry(0, th, -dvmax)
        cone.entry(0, zeta_idx[a_i], -1.0)
        cone.entry(0, c1_idx[a_i], 1.0)
        if stochastic is not None:
            cone.entry(0, c2_idx[a_i], m_assists[a_i])
        cone.emit(pb, "nonneg")

        # zeta >= 0
        cone = _ConeRows(1)
        cone.entry(0, zeta_idx[a_i], -1.0)
        cone.emit(pb, "nonneg")

    # penalty epigraphs per relaxed row
    for key in relaxed:
        var = xi[key[1]] if key[0] == "xi" else zeta_idx[key[1]]
        cone = _ConeRows(3)
        cone.entry(0, pa_idx[key], -1.0)
        cone.b[1] = 1.0
        cone.entry(2, var, -w)
        cone.emit(pb, "pow3", alpha=1.0 / tau)
        cone = _ConeRows(3)
        cone.entry(0, pq_idx[key], -1.0)
        cone.b[1] = 0.5
        cone.entry(2, var, -1.0)
        cone.emit(pb, "rsoc")

    # trust region over (x0, controls, turn angles); the initial mean is
    # included even when pinned so every variable has inequality-cone support
    tr_vars: list[int] = []
    tr_refs: list[float] = []
    tr_vars.extend(x0)
    tr_refs.extend(ref_states[0] if x0_fixed is None else x0_fixed)
    for k in var_segments:
        tr_vars.extend(u_idx[k])
        tr_refs.extend(ref_controls[k])
    for a_i, theta_ref in enumerate(theta_refs):
        tr_vars.append(theta_idx[a_i])
        tr_refs.append(theta_ref)
    cone = _ConeRows(1 + len(tr_vars))
    cone.b[0] = trust_radius
    cone.b[1:] = tr_refs
    for j, v in enumerate(tr_vars):
        cone.entry(1 + j, v, 1.0)
    cone.emit(pb, "soc")

    return SubproblemLayout(
        program=pb.build(),
        grid=grid,
        thrust_segments=thrust,
        ga_segments=ga_segs,
        fb_nodes=dict(fb),
        assists=tuple(assists),
        weights=weights,
        m_u=m_u,
        m_assists=m_assists,
        stochastic=stochastic,
        ref_controls=ref_controls.copy(),
        x0_fixed=None if x0_fixed is None else np.asarray(x0_fixed, dtype=float),
    )


def extract_solution(layout: SubproblemLayout, result: SolveResult) -> SubproblemSolution:
    """Read the decision variables of a solved subproblem back out.

    Returns a solution with None fields if the solve did not succeed.
    """
    if not result.ok:
        return SubproblemSolution(
            status=result.status, objective=None, x0=None, controls=None,
            thetas=(), policy=None, xi=None, zetas=(), dv_linear=None,
            dv_feedback=None, result=result,
        )
    prog = layout.program
    x = result.x

    def block(name: str) -> np.ndarray:
        return x[prog.var_blocks[name]]

    n_seg = layout.grid.n_segments
    controls = np.zeros((n_seg, N_U))
    for k in layout.thrust_segments + layout.ga_segments:
        controls[k] = block(f"u{k}")
    thetas = tuple(float(block(f"theta{i}")[0]) for i in range(len(layout.assists)))
    policy = None
    if layout.stochastic is not None:
        kblocks = np.zeros((n_seg, n_seg + 1, N_U, N_X))
        for k in layout.thrust_segments:
            for i in layout.fb_nodes.get(k, ()):
                kblocks[k, i] = block(f"K{k}_{i}").reshape(N_U, N_X)
        policy = FeedbackPolicy(blocks=kblocks)
    dv_lin = np.zeros(n_seg)
    dv_fb = np.zeros(n_seg)
    for k in layout.thrust_segments:
        dv_lin[k] = float(block(f"a{k}")[0])
        if f"b{k}" in prog.var_blocks:
            dv_fb[k] = float(block(f"b{k}")[0])
    zetas = tuple(
        float(block(f"zeta{i}")[0]) for i in range(len(layout.assists))
    )
    return SubproblemSolution(
        status=result.status,
        objective=result.obj,
        x0=block("x0").copy(),
        controls=controls,
        thetas=thetas,
        policy=policy,
        xi=block("xi").copy(),
        zetas=zetas,
        dv_linear=dv_lin,
        dv_feedback=dv_fb,
        result=result,
    )


def solve_subproblem(
    layout: SubproblemLayout, tol: float = 1e-8, max_iters: int = 100
) -> SubproblemSolution:
    """Solve a built subproblem and extract the decision variables."""
    return extract_solution(layout, solve(layout.program, tol=tol, max_iters=max_iters))


def augmented_cost(
    dv_cost: float,
    xi: np.ndarray,
    zetas: Sequence[float],
    weights: PenaltyWeights,
) -> float:
    """Exact-penalty augmented objective for given violation values.

    dv_cost is the delta-v upper bound; xi the terminal-mean residual; zetas
    the per-assist safety slacks (nonnegative). Used identically for the
    linearized candidate (convex subproblem values) and the nonlinear
    evaluation (shooting residuals), so the two are comparable.
    """
    total = float(dv_cost)
    for lam, v in zip(weights.lam_terminal, np.asarray(xi, dtype=float)):
        total += lam * v + penalty_value(v, weights.weight, weights.tau)
    for lam, v in zip(weights.lam_assists, zetas):
        total += lam * v + penalty_value(v, weights.weight, weights.tau)
    return total


def layout_audit(layout: SubproblemLayout) -> dict[str, int]:
    """Documented variable-count breakdown; totals match the program.

    The count includes the free initial mean state (6 variables) alongside
    controls, turn angles, gain blocks, epigraphs, relaxation slacks, and
    penalty auxiliaries.
    """
    n_thrust = len(layout.thrust_segments)
    n_ga = len(layout.ga_segments)
    n_assist = len(layout.assists)
    n_gain_blocks = sum(len(v) for v in layout.fb_nodes.values())
    n_b = sum(
        1 for k in layout.thrust_segments if f"b{k}" in layout.program.var_blocks
    )
    n_relaxed = N_X + n_assist
    counts = {
        "x0": N_X,
        "thrust_controls": N_U * n_thrust,
        "assist_controls": N_U * n_ga,
        "turn_angles": n_assist,
        "gain_blocks": N_U * N_X * n_gain_blocks,
        "dv_epigraphs": n_thrust + n_b,
        "impact_epigraphs": (2 if layout.stochastic is not None else 1) * n_assist,
        "relaxation_slacks": n_relaxed,
        "penalty_epigraphs": 2 * n_relaxed,
    }
    counts["total"] = sum(v for k, v in counts.items() if k != "total")
    assert counts["total"] == layout.program.n_vars
    return counts

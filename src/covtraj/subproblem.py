"""Convex trajectory subproblem: joint reference and feedback-gain design.

One subproblem instance is built around a reference trajectory and its exact
affine segment maps. Decision variables are the initial mean state, the mean
controls on thrust segments, the gravity-assist rotation parameters and turn
angles, causal output-feedback gain blocks (stochastic mode), and epigraph /
relaxation auxiliaries. The program minimizes the 99th-percentile delta-v
upper bound, at the fixed level 1 - DV99_TAIL whatever the thrust risk eps_u,

    sum_k dt_k (||u_k|| + m ||P_u_k^1/2||_F),   m = DV99_MULTIPLIER

plus exact-penalty terms on the relaxed terminal-mean and flyby-safety rows,
subject to thrust chance constraints at risk eps_u, a terminal dispersion
bound, launch and flyby constraints, and a trust region. Everything is affine
in the decision variables because the control covariance square root is
linear in the gain blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import gammainccinv

from .conic import ConicProgram, ProgramBuilder, SolveResult, SolveStructure, solve
from .covsteer import BlockSystem, FeedbackPolicy, KalmanSchedule, N_U, N_X, pull_back
from .dynamics import LinearSegment, TimeGrid, psd_sqrt, require_finite, require_positive_definite
from .errors import ConfigError
from .gravity_assist import (
    E_VEL,
    GaEvent,
    max_v_inf_derivative,
    max_v_inf_for_safe_flyby,
    turn_angle_constraint_lin,
)

__all__ = [
    "DV99_MULTIPLIER",
    "DV99_TAIL",
    "PENALTY_TAU",
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
    "penalty_grad",
    "penalty_value",
    "require_feedback_depth",
    "solve_subproblem",
]


def chi2_quantile_sqrt(eps: float, dim: int) -> float:
    """Square root of the chi-square quantile at probability 1 - eps.

    Inverts the regularized upper incomplete gamma function,
    Q(dim/2, q/2) = eps; working on the tail side avoids the 1 - eps
    cancellation that costs ~eps-relative accuracy for small tails. This is
    the tight multiplier for Gaussian norm bounds: P(||v|| <= m sigma) =
    1 - eps for v ~ N(0, sigma^2 I_dim) with m the value returned here.

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
    return float(np.sqrt(2.0 * gammainccinv(0.5 * dim, eps)))


#: Tail of the delta-v bound j_ub (its 0.99 quantile) and its feedback multiplier.
#: The tail is stored since 1 - 0.01 == 0.99 in doubles but 1 - 0.99 != 0.01.
DV99_TAIL = 1e-2
DV99_MULTIPLIER = chi2_quantile_sqrt(DV99_TAIL, N_U)

#: Exponent tau of the exact penalty phi(y) = |y|^tau / tau + y^2 / 2; the
#: subproblem models the |y|^tau term with a pow3 cone of exponent 1 / tau.
PENALTY_TAU = 1.1


def penalty_value(z: float, weight: float) -> float:
    """Weighted exact penalty (1/w) phi(w z), phi(y) = |y|^tau / tau + y^2 / 2."""
    y = weight * z
    return (abs(y) ** PENALTY_TAU / PENALTY_TAU + 0.5 * y * y) / weight


def penalty_grad(z: float, weight: float) -> float:
    """d/dz of (1/w) phi(w z): sign(y)|y|^(tau-1) + y at y = w z."""
    y = weight * z
    return float(np.sign(y) * abs(y) ** (PENALTY_TAU - 1.0) + y)


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
    require_feedback_depth(depth)
    return tuple(nodes if depth is None else nodes[-depth:])


def require_feedback_depth(depth: int | None) -> None:
    """Raise ValueError unless depth is None or an integer >= 1."""
    if depth is not None and not (isinstance(depth, (int, np.integer)) and depth >= 1):
        raise ValueError(f"feedback depth must be None or an integer >= 1, got {depth!r}")


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
        require_finite("launch body state", np.append(self.r_body, self.v_body))
        if not 0.0 < self.v_inf_max < np.inf:
            raise ValueError("v_inf_max must be positive and finite")


@dataclass(frozen=True)
class TerminalSpec:
    """Rendezvous target for the terminal mean state."""

    x_target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_target", np.asarray(self.x_target, dtype=float))
        if self.x_target.shape != (N_X,):
            raise ValueError("terminal target must be a length-6 state")
        require_finite("terminal target", self.x_target)


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
        require_positive_definite("p_f", self.p_f)
        if not 0.0 < self.eps_u < 1.0:
            raise ValueError("eps_u must lie in (0, 1)")
        require_feedback_depth(self.feedback_depth)


@dataclass(frozen=True)
class PenaltyWeights:
    """Multipliers and weight of the augmented (exact-penalty) objective."""

    weight: float
    lam_terminal: np.ndarray
    lam_assists: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "lam_terminal", np.asarray(self.lam_terminal, dtype=float)
        )
        object.__setattr__(self, "lam_assists", tuple(self.lam_assists))
        if self.lam_terminal.shape != (N_X,):
            raise ValueError("terminal multiplier must have length 6")
        require_finite("penalty multipliers", np.append(self.lam_terminal, self.lam_assists))
        if not 0.0 < self.weight < np.inf:
            raise ValueError("penalty weight must be positive and finite")


@dataclass(frozen=True)
class SubproblemLayout:
    """Built program plus the variable map needed to read a solution back.

    The program has one variable block per kind, in this column order:

    - ``x0`` (6): the initial mean state
    - ``u`` (n_ctl, 3): one row per thrust or gravity-assist segment of
      ``grid``, in segment order (thrust accelerations, Cayley parameters)
    - ``theta`` (n_assist): the turn angle of each assist
    - ``K`` (18 n_gain, stochastic only): the gain blocks, see below
    - ``a`` (n_thrust): the thrust-magnitude epigraph of each thrust segment
    - ``b`` (n_thrust, stochastic only): its feedback-magnitude epigraph
    - ``xi`` (6): the terminal-mean relaxation
    - ``assist`` (n_assist, 2 or 3): per assist, the safety slack zeta, the
      mean v-infinity epigraph c1 and (stochastic only) the dispersion one c2
    - ``penalty`` (6 + n_assist, 2): per relaxed row, ``xi`` then each zeta,
      the penalty epigraphs pa (a pow3 cone, |w z|^tau) and pq (a soc,
      z^2)

    ``gain_pairs`` (n_gain, 2) lists the (segment k, node i) of every
    designed gain block K_{k,i}, by thrust segment and then feedback node;
    pair j owns the 18 consecutive columns from 18 j of the variable block
    ``K``, the (3, 6) block in row-major order. It is empty in mean-only
    mode, where ``K`` does not exist.
    """

    program: ConicProgram
    grid: TimeGrid
    gain_pairs: np.ndarray
    assists: tuple[GaEvent, ...]
    stochastic: StochasticSpec | None


@dataclass(frozen=True)
class SubproblemSolution:
    """Decision variables of one solved subproblem; ``dv_linear`` and
    ``dv_feedback`` are the unweighted per-segment ||u_k|| and ||P_u_k^1/2||_F."""

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
    """Nonzero triplets for rows vec(left @ G @ s_block) of a gain block G.

    ``idx`` holds the (3, 6) variable indices of G; the value placed at
    row (r, c) for variable G[n, m] is sign * left[r, n] * s_block[m, c].
    Zero products are left out: most products are zero (the gain blocks are
    sparse), and materialising them cost several times the built program's
    memory.
    """
    q = s_block.shape[1]
    prod = sign * left[:, None, :, None] * s_block.T[None, :, None, :]
    r, c, n, m = np.nonzero(prod)
    return row_base + r * q + c, idx[n, m], prod[r, c, n, m]


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
        pb.cone(kind, self.b, rows, cols, vals, alpha=alpha)


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
    if not 0.0 < u_max < np.inf:
        raise ValueError("u_max must be positive and finite")
    if not 0.0 < trust_radius < np.inf:
        raise ValueError("trust radius must be positive and finite")
    if launch is not None and x0_fixed is not None:
        raise ValueError("launch constraints and a fixed x0 are exclusive")
    if len(weights.lam_assists) != len(assists):
        raise ValueError("one assist multiplier per assist is required")

    thrust = list(grid.thrust_segments)
    if tuple(sorted(a.segment for a in assists)) != grid.ga_segments:
        raise ValueError("assists must map one-to-one onto ga segments")
    if len(theta_refs) != len(assists):
        raise ValueError("one reference turn angle per assist is required")
    theta_refs = tuple(float(t) for t in theta_refs)
    for a, theta_ref in zip(assists, theta_refs):
        if not a.theta_min <= theta_ref <= a.theta_max:
            raise ValueError(
                f"reference turn angle {theta_ref} outside [{a.theta_min}, {a.theta_max}]"
            )
    var_segs = sorted(grid.thrust_segments + grid.ga_segments)
    dts = grid.dts

    stoch = stochastic is not None
    gain_pairs = np.zeros((0, 2), dtype=int)
    if stoch:
        blocks = stochastic.blocks
        if blocks.n_segments != n_seg:
            raise ValueError("block system does not match the grid")
        m_thrust = chi2_quantile_sqrt(stochastic.eps_u, N_U)
        measured, depth = tuple(sorted(blocks.meas_col)), stochastic.feedback_depth
        pair_list = [(k, i) for k in thrust for i in feedback_nodes(k, measured, depth)]
        gain_pairs = np.array(pair_list, dtype=int).reshape(-1, 2)
        # columns of the square-root table active at or before node n
        def cols_at(n: int) -> int:
            return max([N_X, *(e for i, (_, e) in blocks.meas_col.items() if i <= n)])

        chol_pf = np.linalg.cholesky(stochastic.p_f)
        pf_inv = np.linalg.solve(chol_pf, np.eye(N_X))
        # the estimation error enters the terminal and pre-flyby rows only
        p_tilde_sqrt = {
            n: psd_sqrt(stochastic.schedule.P_post[n])
            for n in (n_seg, *(a.segment for a in assists))
        }
    m_assists = [chi2_quantile_sqrt(a.eps, N_U) if stoch else 0.0 for a in assists]

    pb = ProgramBuilder("trajectory-subproblem")
    x0 = pb.var_block("x0", N_X)
    u = pb.var_block("u", N_U * len(var_segs)).reshape(-1, N_U)
    u_at = np.full((n_seg, N_U), -1)  # u's columns by segment; -1 on coasts
    u_at[var_segs] = u
    theta = pb.var_block("theta", len(assists))
    if stoch:
        K = pb.var_block("K", len(gain_pairs) * N_U * N_X).reshape(-1, N_U, N_X)
    a_col = pb.var_block("a", len(thrust))
    if stoch:
        b_col = pb.var_block("b", len(thrust))
    xi = pb.var_block("xi", N_X)
    width = 3 if stoch else 2
    aux = pb.var_block("assist", width * len(assists)).reshape(-1, width)
    zeta, c1 = aux[:, 0], aux[:, 1]
    c2 = aux[:, 2] if stoch else None
    relaxed = np.concatenate([xi, zeta])
    pa, pq = pb.var_block("penalty", 2 * len(relaxed)).reshape(-1, 2).T

    # ------------------------------------------------------------------
    # objective
    w = weights.weight
    pb.cost(a_col, dts[thrust])
    if stoch:
        pb.cost(b_col, dts[thrust] * DV99_MULTIPLIER)
    pb.cost(xi, weights.lam_terminal)
    pb.cost(zeta, weights.lam_assists)
    pb.cost(pa, 1.0 / (w * PENALTY_TAU))
    pb.cost(pq, 0.5 * w)

    # ------------------------------------------------------------------
    # helper: affine mean-state rows left @ x_node of a pull_back result
    def mean_entries(cone: _ConeRows, row0: int, chain):
        """Add rows left @ x_mean(node) with slack sign s = const + left x."""
        to_x0, to_u, drift = chain
        rr, cc = np.nonzero(to_x0)
        cone.add(row0 + rr, x0[cc], -to_x0[rr, cc])
        ks = [k for k in var_segs if k < len(to_u)]
        j, rr, cc = np.nonzero(to_u[ks])
        cone.add(row0 + rr, u_at[ks][j, cc], -to_u[ks][j, rr, cc])
        return drift

    # helper: rows vec(lefts[k] @ K_{k,i} @ S_i) of every gain pair whose
    # segment k has a left factor, S_i the first q columns of block row i
    def gain_entries(cone: _ConeRows, q: int, lefts: dict[int, np.ndarray]):
        for j, (k, i) in enumerate(pair_list):
            if k in lefts:
                s_blk = blocks.s_row(i)[:, :q]
                cone.add(*_vec_product_triplets(1, lefts[k], s_blk, K[j]))

    # thrust epigraphs, chance constraint
    for t, k in enumerate(thrust):
        cone = _ConeRows(1 + N_U)
        cone.entry(0, a_col[t], -1.0)
        cone.add(1 + np.arange(N_U), u_at[k], np.full(N_U, -1.0))
        cone.emit(pb, "soc")

        if stoch:
            q = cols_at(k)
            cone = _ConeRows(1 + N_U * q)
            cone.entry(0, b_col[t], -1.0)
            gain_entries(cone, q, {k: np.eye(N_U)})
            cone.emit(pb, "soc")

        cone = _ConeRows(1)
        cone.b[0] = u_max
        cone.entry(0, a_col[t], 1.0)
        if stoch:
            cone.entry(0, b_col[t], m_thrust)
        cone.emit(pb, "nonneg")

    # terminal mean (relaxed): x_N - x_target - xi = 0
    cone = _ConeRows(N_X)
    const = mean_entries(cone, 0, pull_back(segments, np.eye(N_X), n_seg))
    cone.b[:] = const - terminal.x_target
    for j in range(N_X):
        cone.entry(j, xi[j], 1.0)
    cone.emit(pb, "zero")

    # terminal dispersion bound (stochastic): ||Pf^-1/2 [Dhat_N, Ptilde_N^1/2]||_F <= 1
    if stoch:
        qn = cols_at(n_seg)
        cone = _ConeRows(1 + N_X * qn + N_X * N_X)
        cone.b[0] = 1.0
        cone.b[1 : 1 + N_X * qn] = (pf_inv @ blocks.s_row(n_seg)[:, :qn]).ravel()
        gain_entries(cone, qn, dict(enumerate(pull_back(segments, pf_inv, n_seg)[1])))
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
        th = theta[a_i]

        # turn-angle consistency (linearized, exact at the reference)
        g_ref, dg_pre, dg_post, dg_th = turn_angle_constraint_lin(
            ref_states[pre], ref_states[post], theta_ref, a.v_planet
        )
        cone = _ConeRows(1)
        c_pre = mean_entries(cone, 0, pull_back(segments, dg_pre[None, :], pre))[0]
        c_post = mean_entries(cone, 0, pull_back(segments, dg_post[None, :], post))[0]
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
        vel_chain = pull_back(segments, E_VEL, pre)
        cone = _ConeRows(4)
        cone.entry(0, c1[a_i], -1.0)
        const = mean_entries(cone, 1, vel_chain)
        cone.b[1:] = const - a.v_planet
        cone.emit(pb, "soc")

        # c2 >= || E_vel [Dhat_pre, Ptilde_pre^1/2] ||_F (dispersion part)
        if stoch:
            qp = cols_at(pre)
            cone = _ConeRows(1 + 3 * qp + 3 * N_X)
            cone.entry(0, c2[a_i], -1.0)
            cone.b[1 : 1 + 3 * qp] = (E_VEL @ blocks.s_row(pre)[:, :qp]).ravel()
            gain_entries(cone, qp, dict(enumerate(vel_chain[1])))
            cone.b[1 + 3 * qp :] = (E_VEL @ p_tilde_sqrt[pre]).ravel()
            cone.emit(pb, "soc")

        # safety margin (relaxed): v_max(theta) + zeta - c1 - m c2 >= 0
        vmax_ref = max_v_inf_for_safe_flyby(theta_ref, a.mu_p, a.r_p_min)
        dvmax = max_v_inf_derivative(theta_ref, a.mu_p, a.r_p_min)
        cone = _ConeRows(1)
        cone.b[0] = vmax_ref - dvmax * theta_ref
        cone.entry(0, th, -dvmax)
        cone.entry(0, zeta[a_i], -1.0)
        cone.entry(0, c1[a_i], 1.0)
        if stoch:
            cone.entry(0, c2[a_i], m_assists[a_i])
        cone.emit(pb, "nonneg")

        # zeta >= 0
        cone = _ConeRows(1)
        cone.entry(0, zeta[a_i], -1.0)
        cone.emit(pb, "nonneg")

    # penalty epigraphs per relaxed row
    for var, pa_j, pq_j in zip(relaxed, pa, pq):
        cone = _ConeRows(3)
        cone.entry(0, pa_j, -1.0)
        cone.b[1] = 1.0
        cone.entry(2, var, -w)
        cone.emit(pb, "pow3", alpha=1.0 / PENALTY_TAU)
        # pq >= var^2 as the soc (pq + 1/2, pq - 1/2, sqrt(2) var)
        cone = _ConeRows(3)
        cone.entry(0, pq_j, -1.0)
        cone.entry(1, pq_j, -1.0)
        cone.b[:2] = 0.5, -0.5
        cone.entry(2, var, -np.sqrt(2.0))
        cone.emit(pb, "soc")

    # trust region over (x0, controls, turn angles); the initial mean is
    # included even when pinned so every variable has inequality-cone support
    tr_vars = np.concatenate([x0, u.ravel(), theta])
    cone = _ConeRows(1 + len(tr_vars))
    cone.b[0] = trust_radius
    cone.b[1:] = np.concatenate([
        ref_states[0] if x0_fixed is None else x0_fixed,
        ref_controls[var_segs].ravel(),
        theta_refs,
    ])
    cone.add(1 + np.arange(len(tr_vars)), tr_vars, np.ones(len(tr_vars)))
    cone.emit(pb, "soc")

    return SubproblemLayout(
        program=pb.build(),
        grid=grid,
        gain_pairs=gain_pairs,
        assists=tuple(assists),
        stochastic=stochastic,
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

    grid = layout.grid
    n_seg = grid.n_segments
    thrust = list(grid.thrust_segments)
    stochastic = layout.stochastic is not None
    controls = np.zeros((n_seg, N_U))
    controls[sorted(grid.thrust_segments + grid.ga_segments)] = block("u").reshape(-1, N_U)
    policy = None
    if stochastic:
        kblocks = np.zeros((n_seg, n_seg + 1, N_U, N_X))
        seg, node = layout.gain_pairs.T
        kblocks[seg, node] = block("K").reshape(-1, N_U, N_X)
        policy = FeedbackPolicy(blocks=kblocks)
    dv_lin = np.zeros(n_seg)
    dv_fb = np.zeros(n_seg)
    dv_lin[thrust] = block("a")
    if stochastic:
        dv_fb[thrust] = block("b")
    zetas = block("assist").reshape(-1, 3 if stochastic else 2)[:, 0]
    return SubproblemSolution(
        status=result.status,
        objective=result.obj,
        x0=block("x0").copy(),
        controls=controls,
        thetas=tuple(block("theta").tolist()),
        policy=policy,
        xi=block("xi").copy(),
        zetas=tuple(zetas.tolist()),
        dv_linear=dv_lin,
        dv_feedback=dv_fb,
        result=result,
    )


def solve_subproblem(
    layout: SubproblemLayout,
    tol: float = 1e-8,
    max_iters: int = 100,
    structure: SolveStructure | None = None,
) -> SubproblemSolution:
    """Solve a built subproblem and extract the decision variables.

    ``structure`` is passed to :func:`~covtraj.conic.solve`: the subproblems
    of one SCP phase share one, since they share a pattern.
    """
    return extract_solution(
        layout, solve(layout.program, tol=tol, max_iters=max_iters, structure=structure)
    )


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
        total += lam * v + penalty_value(v, weights.weight)
    for lam, v in zip(weights.lam_assists, zetas):
        total += lam * v + penalty_value(v, weights.weight)
    return total

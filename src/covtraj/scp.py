"""Trust-region successive convexification with augmented-Lagrangian penalties.

The driver alternates: linearize the dynamics about the current reference,
solve the convex subproblem (joint mean-control and feedback-gain design),
score the candidate by the ratio rho of the actual to the predicted reduction
of the nonlinearly evaluated augmented cost, then accept or reject the step,
resize the trust region, and update the exact-penalty multipliers on accepted
steps. A numerical failure of the embedded solver triggers the safeguard:
shrink the penalty weight and re-solve without touching the reference.

The reference iterate is kept single-shooting consistent: its node states are
the nonlinear flow of (x0, controls), with the flyby map applied at
gravity-assist nodes. Because every linearized segment is exact at the
reference, a subproblem built on such an iterate prices the reference itself
exactly; the predicted reduction is therefore nonnegative whenever the
subproblem solves to optimality.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .covsteer import (
    N_U,
    N_X,
    BlockSystem,
    FeedbackPolicy,
    KalmanSchedule,
    build_block_system,
    control_cov_sqrt,
    dispersion_sqrt,
    kalman_precompute,
)
from .dynamics import LinearSegment, TimeGrid, linearize_segment, psd_sqrt
from .gravity_assist import (
    E_VEL,
    GaEvent,
    ga_linearize,
    max_v_inf_for_safe_flyby,
)
from .subproblem import (
    LaunchSpec,
    PenaltyWeights,
    StochasticSpec,
    SubproblemSolution,
    TerminalSpec,
    augmented_cost,
    build_subproblem,
    chi2_quantile_sqrt,
    penalty_grad,
    solve_subproblem,
)
from .uncertainty import GatesParams, ObservationModel, gates_matrix

__all__ = [
    "GaEvent",
    "IterationRecord",
    "ReferencePoint",
    "ScpParams",
    "ScpProblem",
    "ScpResult",
    "TrajectoryGuess",
    "UncertaintyModel",
    "accept_and_update",
    "deterministic_initial_guess",
    "deterministic_problem",
    "evaluate_point",
    "nl_augmented_cost",
    "run",
    "step_ratio",
    "updated_multipliers",
]

logger = logging.getLogger(__name__)

#: Predicted reductions at or below this are treated as converged-candidate
#: steps (ratio forced to one) instead of risking a near-zero division.
DEGENERATE_PREDICTED_REDUCTION = 1e-12

#: Give up after this many back-to-back subproblem failures: the safeguard
#: assumes failures come from an oversized penalty weight, so if repeated
#: weight cuts do not restore solvability the instance itself is the problem
#: and further halving would loop to the iteration cap doing nothing.
MAX_CONSECUTIVE_FAILURES = 8


@dataclass(frozen=True)
class ScpParams:
    """Driver tuning: tolerances, acceptance bands, and penalty schedule.

    The acceptance band is ``|rho - 1| <= eta0``; the trust region grows by
    ``alpha2`` inside the tight band ``eta2``, holds inside ``eta1``, and
    shrinks by ``alpha1`` outside. ``gamma`` gates penalty-weight growth: the
    weight multiplies by ``beta`` whenever an accepted step fails to shrink
    the maximum violation below ``gamma`` times its value at the previous
    multiplier update.
    """

    eps_opt: float = 1e-6
    eps_feas: float = 1e-6
    eta0: float = 1.0
    eta1: float = 0.5
    eta2: float = 0.1
    alpha1: float = 2.0
    alpha2: float = 3.0
    beta: float = 2.0
    gamma: float = 0.95
    w_init: float = 1e2
    w_max: float = 1e10
    tr_init: float = 0.1
    tr_min: float = 1e-8
    tr_max: float = 1.0
    tau: float = 1.1
    max_iters: int = 200

    def __post_init__(self):
        if not 0.0 < self.eta2 < self.eta1 < self.eta0 <= 1.0:
            raise ValueError(
                f"acceptance bands need 1 >= eta0 > eta1 > eta2 > 0, got "
                f"({self.eta0}, {self.eta1}, {self.eta2})"
            )
        if self.alpha1 <= 1.0 or self.alpha2 <= 1.0:
            raise ValueError("trust-region factors alpha1, alpha2 must exceed 1")
        if self.beta <= 1.0:
            raise ValueError("penalty growth factor beta must exceed 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("violation-reduction factor gamma must lie in (0, 1)")
        if self.eps_opt <= 0.0 or self.eps_feas <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.w_init <= 0.0 or self.w_max < self.w_init:
            raise ValueError("need 0 < w_init <= w_max")
        if not 0.0 < self.tr_min <= self.tr_init <= self.tr_max:
            raise ValueError("need 0 < tr_min <= tr_init <= tr_max")
        if not 1.0 < self.tau < 2.0:
            raise ValueError("penalty exponent tau must lie in (1, 2)")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")


@dataclass(frozen=True)
class UncertaintyModel:
    """Noise, navigation, and dispersion data for the stochastic problem.

    p_hat0 is the covariance of the a-priori state estimate about the design
    mean and p_tilde0 that of the a-priori estimate error; their sum is the
    total initial state covariance. p_f bounds the terminal covariance. All
    three must be symmetric; they are stored as given.
    """

    obs: ObservationModel
    p_hat0: np.ndarray
    p_tilde0: np.ndarray
    eps_u: float
    p_f: np.ndarray
    gates: GatesParams | None = None
    proc_noise_sqrt: np.ndarray | None = None
    feedback_depth: int | None = None

    def __post_init__(self):
        for name in ("p_hat0", "p_tilde0", "p_f"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.shape != (N_X, N_X):
                raise ValueError(f"{name} must be a 6x6 covariance")
            if not np.allclose(mat, mat.T, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
            object.__setattr__(self, name, mat)
        if self.proc_noise_sqrt is not None:
            g = np.asarray(self.proc_noise_sqrt, dtype=float)
            if g.ndim != 2 or g.shape[0] != N_X:
                raise ValueError("process-noise square root must have 6 rows")
            object.__setattr__(self, "proc_noise_sqrt", g)
        if not 0.0 < self.eps_u < 1.0:
            raise ValueError("eps_u must lie in (0, 1)")


@dataclass(frozen=True)
class ScpProblem:
    """One trajectory-design instance the driver iterates on."""

    grid: TimeGrid
    u_max: float
    x_target: np.ndarray
    mu: float = 1.0
    launch: LaunchSpec | None = None
    x0_fixed: np.ndarray | None = None
    ga_events: tuple[GaEvent, ...] = ()
    uncertainty: UncertaintyModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "x_target", np.asarray(self.x_target, dtype=float))
        object.__setattr__(self, "ga_events", tuple(self.ga_events))
        if self.x_target.shape != (N_X,):
            raise ValueError("target must be a length-6 state")
        if self.x0_fixed is not None:
            x0f = np.asarray(self.x0_fixed, dtype=float)
            if x0f.shape != (N_X,):
                raise ValueError("fixed initial state must have length 6")
            object.__setattr__(self, "x0_fixed", x0f)
        if self.launch is not None and self.x0_fixed is not None:
            raise ValueError("launch constraints and a fixed x0 are exclusive")
        if self.u_max <= 0.0:
            raise ValueError("u_max must be positive")
        if self.mu < 0.0:
            raise ValueError("gravitational parameter must be nonnegative")
        events = tuple(sorted(e.segment for e in self.ga_events))
        if events != self.grid.ga_segments:
            raise ValueError(
                f"gravity-assist events {events} must map one-to-one onto "
                f"grid GA segments {self.grid.ga_segments}"
            )
        if self.uncertainty is not None and self.uncertainty.obs.n_nodes != self.grid.n_nodes:
            raise ValueError("observation model does not cover the grid nodes")

    @property
    def thrust_segments(self) -> tuple[int, ...]:
        return tuple(
            k for k in range(self.grid.n_segments) if self.grid.kinds[k] == "thrust"
        )


def deterministic_problem(problem: ScpProblem) -> ScpProblem:
    """The same instance with every noise source removed (mean-only design)."""
    return replace(problem, uncertainty=None)


@dataclass(frozen=True)
class TrajectoryGuess:
    """Initial iterate: mean state, controls, and flyby turn angles.

    ``controls`` rows carry thrust accelerations on thrust segments and
    Cayley rotation parameters on gravity-assist segments; coast rows are
    ignored (forced to zero).
    """

    x0: np.ndarray
    controls: np.ndarray
    thetas: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "controls", np.asarray(self.controls, dtype=float))
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if self.x0.shape != (N_X,):
            raise ValueError("initial state must have length 6")
        if self.controls.ndim != 2 or self.controls.shape[1] != N_U:
            raise ValueError("controls must be (N, 3)")


@dataclass(frozen=True)
class ReferencePoint:
    """One iterate together with everything the driver derives from it.

    ``states`` is the single-shooting nonlinear flow of (x0, controls), so
    every linearized segment is exact at this trajectory. ``g_eq`` is the
    terminal rendezvous defect of that flow; ``g_ineq`` holds the flyby
    safety margins (positive means violated). ``dv_linear``/``dv_feedback``
    are the deterministic and dispersion-feedback parts of the delta-v bound.
    """

    x0: np.ndarray
    controls: np.ndarray
    thetas: tuple[float, ...]
    policy: FeedbackPolicy | None
    states: np.ndarray
    segments: tuple[LinearSegment, ...] = field(repr=False)
    blocks: BlockSystem | None = field(repr=False)
    schedule: KalmanSchedule | None = field(repr=False)
    dv_linear: float
    dv_feedback: float
    g_eq: np.ndarray
    g_ineq: tuple[float, ...]

    @property
    def j_ub(self) -> float:
        """Delta-v-99 upper bound of this iterate."""
        return self.dv_linear + self.dv_feedback

    @property
    def max_violation(self) -> float:
        """Largest relaxed-constraint violation (zero when feasible)."""
        viol = float(np.max(np.abs(self.g_eq)))
        for z in self.g_ineq:
            viol = max(viol, z)
        return max(viol, 0.0)


def evaluate_point(
    problem: ScpProblem,
    x0: np.ndarray,
    controls: np.ndarray,
    thetas: Sequence[float] = (),
    policy: FeedbackPolicy | None = None,
) -> ReferencePoint:
    """Nonlinearly evaluate an iterate and linearize the dynamics along it.

    Single-shooting propagation: thrust/coast segments integrate the
    two-body flow under zero-order-hold control, gravity-assist segments
    apply the exact flyby map with the segment's Cayley control. Each
    positive-duration segment is linearized about its own flown arc, with
    the execution-error square root refreshed at the current control, so the
    affine chain reproduces the flow exactly at this iterate.
    """
    grid = problem.grid
    n_seg = grid.n_segments
    unc = problem.uncertainty
    x0 = np.asarray(x0, dtype=float)
    controls = np.array(controls, dtype=float)
    if controls.shape != (n_seg, N_U):
        raise ValueError(f"controls must be ({n_seg}, {N_U})")
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) != len(problem.ga_events):
        raise ValueError("one turn angle per gravity assist is required")
    for t, e in zip(thetas, problem.ga_events):
        if not e.theta_min <= t <= e.theta_max:
            raise ValueError(
                f"turn angle {t} outside [{e.theta_min}, {e.theta_max}] "
                f"for the assist at segment {e.segment}"
            )
    for k in range(n_seg):
        if grid.kinds[k] == "coast":
            controls[k] = 0.0

    if unc is None:
        policy = None
    elif policy is None:
        policy = FeedbackPolicy.zeros(n_seg)

    event_at = {e.segment: e for e in problem.ga_events}
    states = np.zeros((n_seg + 1, N_X))
    states[0] = x0
    segments: list[LinearSegment] = []
    for k in range(n_seg):
        if grid.is_ga(k):
            seg = ga_linearize(
                k, states[k], controls[k], event_at[k].v_planet, grid.epochs[k]
            )
        else:
            exe = None
            if unc is not None and unc.gates is not None and grid.kinds[k] == "thrust":
                exe = gates_matrix(controls[k], unc.gates)
            proc = unc.proc_noise_sqrt if unc is not None else None
            seg = linearize_segment(
                k,
                states[k],
                controls[k],
                grid.epochs[k],
                grid.epochs[k + 1],
                mu=problem.mu,
                exe_error_sqrt=exe,
                proc_noise_sqrt=proc,
            )
        # the affine map is exact at its own reference, so this IS the flow
        states[k + 1] = seg.A @ states[k] + seg.B @ controls[k] + seg.c
        segments.append(seg)

    blocks = None
    schedule = None
    dv_feedback = 0.0
    u_sqrt = None
    if unc is not None:
        schedule = kalman_precompute(segments, unc.obs, unc.p_tilde0)
        blocks = build_block_system(segments, schedule, unc.p_hat0)
        m_u = chi2_quantile_sqrt(unc.eps_u, N_U)
        u_sqrt = control_cov_sqrt(blocks, policy)
        for k in problem.thrust_segments:
            dv_feedback += grid.dt(k) * m_u * float(np.linalg.norm(u_sqrt[k]))

    dv_linear = sum(
        grid.dt(k) * float(np.linalg.norm(controls[k]))
        for k in problem.thrust_segments
    )

    g_ineq: list[float] = []
    for t, e in zip(thetas, problem.ga_events):
        pre = e.segment
        v_inf = float(np.linalg.norm(states[pre][3:] - e.v_planet))
        disp = 0.0
        if unc is not None:
            d_row = dispersion_sqrt(blocks, policy, u_sqrt)[pre]
            est_sqrt = psd_sqrt(schedule.P_post[pre])
            disp = math.hypot(
                float(np.linalg.norm(E_VEL @ d_row)),
                float(np.linalg.norm(E_VEL @ est_sqrt)),
            )
            disp *= chi2_quantile_sqrt(e.eps, N_U)
        g_ineq.append(v_inf + disp - max_v_inf_for_safe_flyby(t, e.mu_p, e.r_p_min))

    return ReferencePoint(
        x0=x0,
        controls=controls,
        thetas=thetas,
        policy=policy,
        states=states,
        segments=tuple(segments),
        blocks=blocks,
        schedule=schedule,
        dv_linear=float(dv_linear),
        dv_feedback=float(dv_feedback),
        g_eq=states[n_seg] - problem.x_target,
        g_ineq=tuple(g_ineq),
    )


def nl_augmented_cost(point: ReferencePoint, weights: PenaltyWeights) -> float:
    """Augmented cost of an iterate from its nonlinear constraint values.

    The inequality buffers are the positive parts of the safety margins, so
    this coincides with the subproblem's augmented objective whenever the
    linearization is exact (strictly feasible margins carry no credit).
    """
    zetas = tuple(max(z, 0.0) for z in point.g_ineq)
    return augmented_cost(point.j_ub, point.g_eq, zetas, weights)


def step_ratio(
    j_ref: float, j_cand_nl: float, j_cand_model: float
) -> tuple[float, float, float, bool]:
    """Reduction ratio rho = (actual decrease) / (predicted decrease).

    Returns (rho, actual, predicted, degenerate). A predicted decrease at or
    below the degeneracy floor means the subproblem could not improve on the
    reference; the ratio is pinned to one so the step is accepted and the
    convergence test decides whether the loop is done.
    """
    d_j = float(j_ref - j_cand_nl)
    d_l = float(j_ref - j_cand_model)
    if d_l <= DEGENERATE_PREDICTED_REDUCTION:
        return 1.0, d_j, d_l, True
    return d_j / d_l, d_j, d_l, False


def accept_and_update(
    rho: float, tr_radius: float, params: ScpParams
) -> tuple[bool, float]:
    """Step acceptance and trust-region resize from the reduction ratio."""
    accepted = abs(rho - 1.0) <= params.eta0
    if abs(rho - 1.0) <= params.eta2:
        tr_new = min(params.alpha2 * tr_radius, params.tr_max)
    elif abs(rho - 1.0) <= params.eta1:
        tr_new = tr_radius
    else:
        tr_new = max(tr_radius / params.alpha1, params.tr_min)
    return accepted, tr_new


def updated_multipliers(
    weights: PenaltyWeights, point: ReferencePoint, params: ScpParams
) -> PenaltyWeights:
    """First-order multiplier update at an accepted iterate.

    Equality multipliers move by the penalty gradient of the signed defect;
    inequality multipliers likewise but clipped at zero, so strictly feasible
    margins bleed their multipliers off. The weight itself is managed
    separately by the driver.
    """
    w = weights.weight
    lam = np.array(
        [
            l + penalty_grad(g, w, weights.tau)
            for l, g in zip(weights.lam_terminal, point.g_eq)
        ]
    )
    mus = tuple(
        max(0.0, m + penalty_grad(g, w, weights.tau))
        for m, g in zip(weights.lam_assists, point.g_ineq)
    )
    return PenaltyWeights(
        weight=w, lam_terminal=lam, lam_assists=mus, tau=weights.tau
    )


@dataclass(frozen=True)
class IterationRecord:
    """Bookkeeping for one driver iteration (values after the updates)."""

    iteration: int
    status: str
    rho: float
    d_j: float
    d_l: float
    accepted: bool
    tr_radius: float
    weight: float
    violation: float
    j_ub: float


@dataclass(frozen=True)
class ScpResult:
    """Driver outcome: the returned iterate plus the full iteration log."""

    status: str
    point: ReferencePoint
    weights: PenaltyWeights
    tr_radius: float
    records: tuple[IterationRecord, ...]

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def iterations(self) -> int:
        return len(self.records)


_LOG_COLUMNS = (
    "iteration",
    "rho",
    "d_j",
    "d_l",
    "tr_radius",
    "weight",
    "violation",
    "j_ub",
    "accepted",
    "status",
)


def _write_log(path: str | Path, records: Sequence[IterationRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_LOG_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.iteration,
                    repr(float(r.rho)),
                    repr(float(r.d_j)),
                    repr(float(r.d_l)),
                    repr(float(r.tr_radius)),
                    repr(float(r.weight)),
                    repr(float(r.violation)),
                    repr(float(r.j_ub)),
                    int(r.accepted),
                    r.status,
                ]
            )


def run(
    problem: ScpProblem,
    guess: TrajectoryGuess | ReferencePoint,
    params: ScpParams | None = None,
    *,
    solver_tol: float = 1e-8,
    solver_iters: int = 100,
    log_path: str | Path | None = None,
) -> ScpResult:
    """Iterate linearize / solve / score / update until converged or capped.

    Convergence requires both a relative cost stall, |actual decrease| <=
    eps_opt * max(1, |J_aug|), and feasibility of the relaxed constraints to
    eps_feas, evaluated at an accepted candidate. On iteration cap the best
    accepted iterate is returned (feasibility first, then cost).

    Args:
        problem: the instance (deterministic when ``uncertainty`` is None).
        guess: initial iterate; a pre-evaluated :class:`ReferencePoint` from
            a previous run is accepted and re-evaluated against ``problem``.
        params: driver tuning; defaults to :class:`ScpParams()`.
        solver_tol / solver_iters: embedded conic-solver settings.
        log_path: optional CSV iteration-log destination.

    Returns:
        ScpResult with status "converged", "iteration_cap", or
        "solver_failure" (the subproblem failed
        :data:`MAX_CONSECUTIVE_FAILURES` times in a row despite the
        weight-reduction safeguard); the last two carry the best accepted
        iterate.
    """
    params = params or ScpParams()
    if isinstance(guess, ReferencePoint):
        ref = evaluate_point(problem, guess.x0, guess.controls, guess.thetas, guess.policy)
    else:
        ref = evaluate_point(problem, guess.x0, guess.controls, guess.thetas)

    n_ga = len(problem.ga_events)
    weights = PenaltyWeights(
        weight=params.w_init,
        lam_terminal=np.zeros(N_X),
        lam_assists=(0.0,) * n_ga,
        tau=params.tau,
    )
    tr_radius = params.tr_init
    viol_marker = ref.max_violation
    dts = problem.grid.dts

    def rank_key(point: ReferencePoint) -> tuple[float, float]:
        # feasibility first: points inside tolerance tie, then cost decides
        return (max(point.max_violation, params.eps_feas), point.j_ub)

    best = ref
    best_key = rank_key(ref)
    records: list[IterationRecord] = []
    status = "iteration_cap"
    failures_in_a_row = 0

    for it in range(1, params.max_iters + 1):
        j_ref = nl_augmented_cost(ref, weights)
        layout = build_subproblem(
            problem.grid,
            list(ref.segments),
            ref.states,
            ref.controls,
            problem.u_max,
            TerminalSpec(x_target=problem.x_target),
            weights,
            tr_radius,
            launch=problem.launch,
            x0_fixed=problem.x0_fixed,
            assists=problem.ga_events,
            theta_refs=ref.thetas,
            stochastic=(
                None
                if problem.uncertainty is None
                else StochasticSpec(
                    blocks=ref.blocks,
                    schedule=ref.schedule,
                    eps_u=problem.uncertainty.eps_u,
                    p_f=problem.uncertainty.p_f,
                    feedback_depth=problem.uncertainty.feedback_depth,
                )
            ),
        )
        sol = solve_subproblem(layout, tol=solver_tol, max_iters=solver_iters)

        if not sol.ok:
            # safeguard: large weights breed ill-conditioning; back the
            # weight off and retry from the same reference
            weights = PenaltyWeights(
                weight=weights.weight / params.beta,
                lam_terminal=weights.lam_terminal,
                lam_assists=weights.lam_assists,
                tau=weights.tau,
            )
            logger.warning(
                "iteration %d: subproblem %s; weight reduced to %.3e",
                it,
                sol.status,
                weights.weight,
            )
            records.append(
                IterationRecord(
                    iteration=it,
                    status=sol.status,
                    rho=math.nan,
                    d_j=math.nan,
                    d_l=math.nan,
                    accepted=False,
                    tr_radius=tr_radius,
                    weight=weights.weight,
                    violation=ref.max_violation,
                    j_ub=ref.j_ub,
                )
            )
            failures_in_a_row += 1
            if failures_in_a_row >= MAX_CONSECUTIVE_FAILURES:
                status = "solver_failure"
                break
            continue

        failures_in_a_row = 0
        cand = evaluate_point(problem, sol.x0, sol.controls, sol.thetas, sol.policy)
        j_cand_nl = nl_augmented_cost(cand, weights)
        m_u = layout.m_u or 0.0
        dv_model = float(dts @ sol.dv_linear + m_u * (dts @ sol.dv_feedback))
        j_cand_model = augmented_cost(dv_model, sol.xi, sol.zetas, weights)
        rho, d_j, d_l, degenerate = step_ratio(j_ref, j_cand_nl, j_cand_model)
        accepted, tr_radius = accept_and_update(rho, tr_radius, params)

        converged = False
        if accepted:
            ref = cand
            converged = (
                abs(d_j) <= params.eps_opt * max(1.0, abs(j_cand_nl))
                and cand.max_violation <= params.eps_feas
            )
            weights = updated_multipliers(weights, cand, params)
            if cand.max_violation > params.gamma * viol_marker:
                weights = PenaltyWeights(
                    weight=min(params.beta * weights.weight, params.w_max),
                    lam_terminal=weights.lam_terminal,
                    lam_assists=weights.lam_assists,
                    tau=weights.tau,
                )
            viol_marker = cand.max_violation
            key = rank_key(cand)
            if key < best_key:
                best, best_key = cand, key

        records.append(
            IterationRecord(
                iteration=it,
                status=sol.status,
                rho=rho,
                d_j=d_j,
                d_l=d_l,
                accepted=accepted,
                tr_radius=tr_radius,
                weight=weights.weight,
                violation=cand.max_violation,
                j_ub=cand.j_ub,
            )
        )
        logger.info(
            "iter %3d %-8s rho % .3e dJ % .3e dL % .3e tr %.2e w %.1e viol %.3e J %.6f",
            it,
            "accept" if accepted else "reject",
            rho,
            d_j,
            d_l,
            tr_radius,
            weights.weight,
            cand.max_violation,
            cand.j_ub,
        )
        if converged:
            status = "converged"
            if degenerate:
                logger.info("iteration %d: degenerate predicted reduction at optimum", it)
            break

    result_point = ref if status == "converged" else best
    result = ScpResult(
        status=status,
        point=result_point,
        weights=weights,
        tr_radius=tr_radius,
        records=tuple(records),
    )
    if log_path is not None:
        _write_log(log_path, records)
    return result


def deterministic_initial_guess(
    problem: ScpProblem,
    guess: TrajectoryGuess,
    params: ScpParams | None = None,
    **run_kwargs,
) -> ScpResult:
    """Solve the mean-only reduction of the instance to seed a stochastic run.

    All noise sources are dropped and gains are pinned to zero, which turns
    the chance constraints into their deterministic counterparts (the
    dispersion margins vanish). The returned iterate's controls, turn
    angles, and initial state seed :func:`run` on the full problem.
    """
    return run(deterministic_problem(problem), guess, params, **run_kwargs)

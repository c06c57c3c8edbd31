"""Trust-region successive convexification with augmented-Lagrangian penalties.

The driver alternates: linearize the dynamics about the current reference,
solve the convex subproblem (joint mean-control and feedback-gain design),
score the candidate by the ratio rho of the actual to the predicted reduction
of the nonlinearly evaluated augmented cost, then accept or reject the step,
resize the trust region, and update the exact-penalty multipliers on accepted
steps. The schedule departs from SCvx* (Oguri, CDC 2023) in three places:
the penalty phi(y) = |y|^1.1 / 1.1 + y^2 / 2; multipliers and weight updated
on every accepted step, the weight under the gamma rule; and acceptance
inside the band |rho - 1| <= eta0. The penalty weight grows no further than
``ScpParams.w_max``, below the weights at which the embedded interior-point
solver stops resolving the subproblem. A numerical failure of that solver
triggers the safeguard: shrink the penalty weight and re-solve without
touching the reference.

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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .conic import SolveStructure
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
from .dynamics import (
    LinearSegment,
    TimeGrid,
    linearize_segment,
    psd_sqrt,
    require_finite,
    require_positive_definite,
    require_positive_semidefinite,
)
from .gravity_assist import (
    GaEvent,
    ga_linearize,
    max_v_inf_for_safe_flyby,
)
from .subproblem import (
    DV99_MULTIPLIER,
    LaunchSpec,
    PenaltyWeights,
    StochasticSpec,
    SubproblemSolution,
    TerminalSpec,
    augmented_cost,
    build_subproblem,
    chi2_quantile_sqrt,
    penalty_grad,
    require_feedback_depth,
    solve_subproblem,
)
from .uncertainty import GatesParams, ObservationModel, gates_matrix

__all__ = [
    "BoundFloor",
    "GaEvent",
    "IterationRecord",
    "ReferencePoint",
    "ScpParams",
    "ScpProblem",
    "ScpResult",
    "TrajectoryGuess",
    "UncertaintyModel",
    "accept_and_update",
    "deterministic_problem",
    "evaluate_point",
    "nl_augmented_cost",
    "run",
    "step_ratio",
    "updated_multipliers",
    "write_log",
]

logger = logging.getLogger(__name__)

#: Predicted reductions at or below this are treated as converged-candidate
#: steps (ratio forced to one) instead of risking a near-zero division.
DEGENERATE_PREDICTED_REDUCTION = 1e-12

#: Give up after this many back-to-back subproblem failures: the safeguard
#: assumes failures come from an oversized penalty weight, so if repeated
#: weight cuts do not restore solvability the instance itself is the problem
#: and further halving would loop to the iteration cap doing nothing. A
#: ``primal_infeasible`` subproblem is not retried: the weight enters no hard
#: row, so no cut can make it feasible.
MAX_CONSECUTIVE_FAILURES = 8


@dataclass(frozen=True)
class ScpParams:
    """Driver tuning: the trust region's initial radius and its cap.

    ``tr_init`` and ``tr_max`` are the only settings. The rest of the
    schedule is fixed on the class and read like a field (``params.eta0``).

    ``eps_opt`` is the relative cost tolerance: an accepted step that
    changes the augmented cost J by at most ``eps_opt * max(1, |J|)`` meets
    the convergence test's stall condition, and a step whose actual and
    predicted changes are both that small is degenerate (rho pinned to one,
    see :func:`step_ratio`). ``eps_feas`` bounds the relaxed-constraint
    violation of a converged iterate.

    The acceptance band is ``|rho - 1| <= eta0``; the trust region grows by
    ``alpha2`` inside the tight band ``eta2``, holds inside ``eta1``, and
    shrinks by ``alpha1`` outside, never below ``tr_min``. ``gamma`` gates
    penalty-weight growth: the weight starts at ``w_init`` and multiplies by
    ``beta`` whenever an accepted step fails to shrink the maximum violation
    below ``gamma`` times its value at the previous multiplier update, up to
    ``w_max``. The run stops after ``max_iters`` iterations.
    """

    eps_opt: ClassVar[float] = 1e-6
    eps_feas: ClassVar[float] = 1e-6
    eta0: ClassVar[float] = 1.0
    eta1: ClassVar[float] = 0.5
    eta2: ClassVar[float] = 0.1
    alpha1: ClassVar[float] = 2.0
    alpha2: ClassVar[float] = 3.0
    beta: ClassVar[float] = 2.0
    gamma: ClassVar[float] = 0.95
    w_init: ClassVar[float] = 1e2
    # From about 1e6 the subproblems end optimal_inaccurate, and from 1e8
    # the IPM reports bounded subproblems dual_infeasible.
    w_max: ClassVar[float] = 1e5
    tr_min: ClassVar[float] = 1e-8
    max_iters: ClassVar[int] = 200

    tr_init: float = 0.1
    tr_max: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.tr_min <= self.tr_init <= self.tr_max:
            raise ValueError("need tr_min <= tr_init <= tr_max")


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
            # the initial covariances may be singular, the terminal bound not
            require = require_positive_definite if name == "p_f" else require_positive_semidefinite
            require(name, mat)
        if self.proc_noise_sqrt is not None:
            g = np.asarray(self.proc_noise_sqrt, dtype=float)
            if g.ndim != 2 or g.shape[0] != N_X:
                raise ValueError("process-noise square root must have 6 rows")
            require_finite("process-noise square root", g)
            object.__setattr__(self, "proc_noise_sqrt", g)
        if not 0.0 < self.eps_u < 1.0:
            raise ValueError("eps_u must lie in (0, 1)")
        require_feedback_depth(self.feedback_depth)


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
        require_finite("target", self.x_target)
        if self.x0_fixed is not None:
            x0f = np.asarray(self.x0_fixed, dtype=float)
            if x0f.shape != (N_X,):
                raise ValueError("fixed initial state must have length 6")
            require_finite("fixed initial state", x0f)
            object.__setattr__(self, "x0_fixed", x0f)
        if self.launch is not None and self.x0_fixed is not None:
            raise ValueError("launch constraints and a fixed x0 are exclusive")
        if not (np.isfinite(self.u_max) and self.u_max > 0.0):
            raise ValueError("u_max must be positive and finite")
        if not (np.isfinite(self.mu) and self.mu >= 0.0):
            raise ValueError("gravitational parameter must be nonnegative and finite")
        events = tuple(sorted(e.segment for e in self.ga_events))
        if events != self.grid.ga_segments:
            raise ValueError(
                f"gravity-assist events {events} must map one-to-one onto "
                f"grid GA segments {self.grid.ga_segments}"
            )
        if self.uncertainty is not None and self.uncertainty.obs.n_nodes != self.grid.n_nodes:
            raise ValueError("observation model does not cover the grid nodes")


def deterministic_problem(problem: ScpProblem) -> ScpProblem:
    """The same instance with every noise source removed (mean-only design).

    Its chance constraints reduce to their deterministic counterparts, and
    ``run`` on it gives the iterate that seeds ``run`` on the full problem.
    """
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
        require_finite("guess", np.concatenate([self.x0, self.controls.ravel(), self.thetas]))


@dataclass(frozen=True)
class ReferencePoint:
    """One iterate together with everything the driver derives from it.

    ``states`` is the single-shooting nonlinear flow of (x0, controls), so
    every linearized segment is exact at this trajectory. ``g_eq`` is the
    terminal rendezvous defect of that flow; ``g_ineq`` holds the flyby
    safety margins (positive means violated). ``dv_linear``/``dv_feedback``
    are the two dt-weighted parts of the delta-v bound; unlike the per-segment
    ``SubproblemSolution.dv_feedback``, ``dv_feedback`` has DV99_MULTIPLIER in.
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
        """Bound on this iterate's 1 - DV99_TAIL delta-v quantile, for any eps_u."""
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
    dts = grid.dts
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
    elif policy.n_segments != n_seg:
        raise ValueError(f"policy covers {policy.n_segments} segments, the grid {n_seg}")

    event_at = {e.segment: e for e in problem.ga_events}
    states = np.zeros((n_seg + 1, N_X))
    states[0] = x0
    segments: list[LinearSegment] = []
    for k in range(n_seg):
        if grid.is_ga(k):
            seg = ga_linearize(states[k], controls[k], event_at[k].v_planet)
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
    d_sqrt = None
    if unc is not None:
        schedule = kalman_precompute(segments, unc.obs, unc.p_tilde0)
        blocks = build_block_system(segments, schedule, unc.p_hat0)
        u_sqrt = control_cov_sqrt(blocks, policy)
        for k in grid.thrust_segments:
            dv_feedback += dts[k] * DV99_MULTIPLIER * float(np.linalg.norm(u_sqrt[k]))
        if problem.ga_events:
            d_sqrt = dispersion_sqrt(blocks, policy, u_sqrt)

    dv_linear = sum(
        dts[k] * float(np.linalg.norm(controls[k]))
        for k in grid.thrust_segments
    )

    g_ineq: list[float] = []
    for t, e in zip(thetas, problem.ga_events):
        pre = e.segment
        v_inf = float(np.linalg.norm(states[pre][3:] - e.v_planet))
        disp = 0.0
        if unc is not None:
            d_row = d_sqrt[pre]
            est_sqrt = psd_sqrt(schedule.P_post[pre])
            disp = math.hypot(
                float(np.linalg.norm(d_row[3:])),
                float(np.linalg.norm(est_sqrt[3:])),
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

    Returns (rho, actual, predicted, degenerate). Two kinds of step are
    degenerate, and for both the ratio is pinned to one so the step is
    accepted and the convergence test decides whether the loop is done:

    - a predicted decrease at or below the degeneracy floor: the subproblem
      could not improve on the reference;
    - an actual and a predicted change both within the convergence
      tolerance ``ScpParams.eps_opt * max(1, |J|)`` of the candidate's cost
      J: their quotient divides solver-tolerance noise by solver-tolerance
      noise and says nothing about the model.

    A small predicted decrease paired with a larger actual change is scored
    as usual, so a real increase is still rejected.
    """
    d_j = float(j_ref - j_cand_nl)
    d_l = float(j_ref - j_cand_model)
    floor = ScpParams.eps_opt * max(1.0, abs(j_cand_nl))
    if d_l <= DEGENERATE_PREDICTED_REDUCTION or max(abs(d_j), abs(d_l)) <= floor:
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


def updated_multipliers(weights: PenaltyWeights, point: ReferencePoint) -> PenaltyWeights:
    """First-order multiplier update at an accepted iterate.

    Equality multipliers move by the penalty gradient of the signed defect;
    inequality multipliers likewise but clipped at zero, so strictly feasible
    margins bleed their multipliers off. The weight itself is managed
    separately by the driver.
    """
    w = weights.weight
    lam = np.array(
        [
            l + penalty_grad(g, w)
            for l, g in zip(weights.lam_terminal, point.g_eq)
        ]
    )
    mus = tuple(
        max(0.0, m + penalty_grad(g, w))
        for m, g in zip(weights.lam_assists, point.g_ineq)
    )
    return replace(weights, lam_terminal=lam, lam_assists=mus)


@dataclass(frozen=True)
class IterationRecord:
    """Bookkeeping for one driver iteration (values after the updates).

    The fields are declared in the column order of :func:`write_log`.
    ``degenerate`` marks a step whose rho :func:`step_ratio` pinned to one.
    A failed subproblem solve leaves rho, d_j and d_l NaN, is not
    degenerate, and reports the unchanged reference's violation and bound.
    """

    iteration: int
    rho: float
    d_j: float
    d_l: float
    degenerate: bool
    tr_radius: float
    weight: float
    violation: float
    j_ub: float
    accepted: bool
    status: str


@dataclass(frozen=True)
class BoundFloor:
    """A bound that needs its ``floor``, the least value its left side takes
    at a reference whatever the decision variables, to be at most 1."""

    bound: str
    floor: float


@dataclass(frozen=True)
class ScpResult:
    """Driver outcome: the returned iterate plus the full iteration log.

    ``status`` is "converged", "iteration_cap", "infeasible" or
    "solver_failure"; see :func:`run`. ``unmet`` names the bound whose
    floor ended an infeasible run before a solve, and is None otherwise.
    """

    status: str
    point: ReferencePoint
    weights: PenaltyWeights
    tr_radius: float
    records: tuple[IterationRecord, ...]
    unmet: BoundFloor | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def iterations(self) -> int:
        return len(self.records)


def write_log(records: Sequence[IterationRecord], path: str | Path) -> None:
    """Write an iteration log as CSV, one row per record.

    The columns are the fields of :class:`IterationRecord` in declaration
    order. Float fields are written as their shortest round-trip repr and
    flags as 0/1, so the file is deterministic for fixed records.
    """
    columns = fields(IterationRecord)
    cell = {"float": lambda v: repr(float(v)), "bool": int}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in columns)
        for r in records:
            writer.writerow(cell.get(f.type, str)(getattr(r, f.name)) for f in columns)


def run(
    problem: ScpProblem,
    guess: TrajectoryGuess | ReferencePoint,
    params: ScpParams | None = None,
    *,
    solver_tol: float = 1e-8,
    solver_iters: int = 100,
) -> ScpResult:
    """Iterate linearize / solve / score / update until converged or capped.

    Convergence requires both a relative cost stall, |actual decrease| <=
    eps_opt * max(1, |J_aug|), and feasibility of the relaxed constraints to
    eps_feas, evaluated at an accepted candidate. A step whose actual and
    predicted changes both lie within that same tolerance is not scored by
    their quotient, which is noise: :func:`step_ratio` pins rho to one, the
    step is accepted, and the convergence test decides. An accepted step
    that stalls with the weight already at ``w_max`` and its violation above
    both eps_feas and gamma times the violation marker is stationary
    infeasible and ends the run. So does, before a subproblem is built, a
    stochastic reference whose terminal estimation error alone breaks the
    terminal bound: tr(P_f^-1 P_tilde_N) > 1, and a subproblem the solver
    reports ``primal_infeasible``, since the penalty weight enters no hard
    row. Any other failed solve halves the weight and retries from the same
    reference. Unless converged, the run returns the best accepted iterate
    (feasibility first, then cost).

    Args:
        problem: the instance (deterministic when ``uncertainty`` is None).
        guess: initial iterate; a pre-evaluated :class:`ReferencePoint` from
            a previous run is accepted and re-evaluated against ``problem``.
        params: trust-region settings; defaults to :class:`ScpParams()`.
        solver_tol / solver_iters: embedded conic-solver settings.

    Returns:
        ScpResult with status "converged", "iteration_cap", "infeasible"
        (stationary and infeasible at the weight cap, a ``primal_infeasible``
        subproblem with the weight it was built with, or the floor named in
        ``unmet``), or "solver_failure" (the subproblem ended
        ``dual_infeasible``, ``max_iterations`` or ``numerical_error``
        :data:`MAX_CONSECUTIVE_FAILURES` times in a row despite the
        weight-reduction safeguard); the last three carry the best accepted
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
    )
    tr_radius = params.tr_init
    viol_marker = ref.max_violation
    dts = problem.grid.dts

    def rank_key(point: ReferencePoint) -> tuple[float, float]:
        # feasibility first: points inside tolerance tie, then cost decides
        return (max(point.max_violation, params.eps_feas), point.j_ub)

    # the phase's subproblems share one pattern, analysed once
    structure = SolveStructure()
    best = ref
    best_key = rank_key(ref)
    records: list[IterationRecord] = []
    status: str | None = None
    unmet = None
    failures_in_a_row = 0

    for it in range(1, params.max_iters + 1):
        if problem.uncertainty is not None:
            # the terminal cone ||P_f^-1/2 [Dhat_N, P_tilde_N^1/2]||_F <= 1 needs
            # tr(P_f^-1 P_tilde_N) <= 1 whatever the gains; no subproblem moves it
            p_f = problem.uncertainty.p_f
            floor = float(np.trace(np.linalg.solve(p_f, ref.schedule.P_post[-1])))
            if floor > 1.0:
                status, unmet = "infeasible", BoundFloor("terminal_dispersion", floor)
                break
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
        sol = solve_subproblem(
            layout, tol=solver_tol, max_iters=solver_iters, structure=structure
        )

        degenerate = False
        if not sol.ok:
            if sol.status == "primal_infeasible":
                # the hard rows alone are infeasible, and the weight enters none
                status = "infeasible"
            else:
                # safeguard: large weights breed ill-conditioning; back the
                # weight off and retry from the same reference
                weights = replace(weights, weight=weights.weight / params.beta)
                failures_in_a_row += 1
                if failures_in_a_row >= MAX_CONSECUTIVE_FAILURES:
                    status = "solver_failure"
            rho = d_j = d_l = math.nan
            accepted = False
            reported = ref
        else:
            failures_in_a_row = 0
            cand = evaluate_point(problem, sol.x0, sol.controls, sol.thetas, sol.policy)
            j_cand_nl = nl_augmented_cost(cand, weights)
            dv_model = float(dts @ sol.dv_linear + DV99_MULTIPLIER * (dts @ sol.dv_feedback))
            j_cand_model = augmented_cost(dv_model, sol.xi, sol.zetas, weights)
            rho, d_j, d_l, degenerate = step_ratio(j_ref, j_cand_nl, j_cand_model)
            accepted, tr_radius = accept_and_update(rho, tr_radius, params)
            if accepted:
                ref = cand
                if abs(d_j) <= params.eps_opt * max(1.0, abs(j_cand_nl)):
                    if cand.max_violation <= params.eps_feas:
                        status = "converged"
                    # the violation does not fall by gamma, and the weight
                    # has no growth left to trade cost for feasibility
                    elif (
                        weights.weight >= params.w_max
                        and cand.max_violation > params.gamma * viol_marker
                    ):
                        status = "infeasible"
                weights = updated_multipliers(weights, cand)
                if cand.max_violation > params.gamma * viol_marker:
                    weights = replace(
                        weights, weight=min(params.beta * weights.weight, params.w_max)
                    )
                viol_marker = cand.max_violation
                key = rank_key(cand)
                if key < best_key:
                    best, best_key = cand, key
            reported = cand

        record = IterationRecord(
            iteration=it,
            rho=rho,
            d_j=d_j,
            d_l=d_l,
            degenerate=degenerate,
            tr_radius=tr_radius,
            weight=weights.weight,
            violation=reported.max_violation,
            j_ub=reported.j_ub,
            accepted=accepted,
            status=sol.status,
        )
        records.append(record)
        logger.log(logging.INFO if sol.ok else logging.WARNING, "%s", record)
        if status is not None:
            break

    return ScpResult(
        status=status or "iteration_cap",
        point=ref if status == "converged" else best,
        weights=weights,
        tr_radius=tr_radius,
        records=tuple(records),
        unmet=unmet,
    )

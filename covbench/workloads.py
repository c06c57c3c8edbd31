"""The covtraj workloads: fixed instances, one timed round each, output checks.

Every call into the package goes through a module attribute
(``scp.run``, ``subproblem.build_subproblem``, ``montecarlo.run_campaign``)
so that a traced run, which replaces those attributes, sees it.

Instances are rebuilt here from the public API; nothing is imported from the
test suite. The design and sweep instances are fixed problem data: a
perturbed instance would change iteration counts and make times
incomparable. Only the Monte Carlo master seed comes from ``--seed``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from covtraj import montecarlo, scp, subproblem
from covtraj.covsteer import FeedbackPolicy, dispersion_sqrt
from covtraj.dynamics import TimeGrid, propagate
from covtraj.gravity_assist import ga_map
from covtraj.uncertainty import GatesParams, ObservationModel, process_noise_sqrt

clock = time.perf_counter

SOLVER_TOL = 1e-8
DESIGN_PARAMS = scp.ScpParams(tr_init=1.0, tr_max=1.0)

# Seed-commit outputs. The SCP stops once an accepted step changes the
# augmented cost by at most eps_opt * max(1, |J|) (scp.run), an absolute
# 1e-6 here since |J| < 1. That step does not bound the distance to the
# limit: under a linear contraction rate r the rest of the way is at most
# step * r / (1 - r). j_ub is checked to J_UB_K * eps_opt * max(1, |j_ub|)
# absolute, J_UB_K = 100, which admits any correct implementation whose
# rate is at most 0.98 on either side of the reference and still rejects a
# design that is off by more than 1e-4. A sweep solve is a single conic
# solve at SOLVER_TOL; its objective is checked to the solver's
# optimal_inaccurate band, 1e2 * SOLVER_TOL absolute, and every cone of the
# original program must hold at the solution to CONE_TOL * (1 + max|b|).
DESIGN_J_UB = {"mean_only": 0.1992159683011983, "stochastic": 0.47803234320701915}
J_UB_K = 100
SWEEP_OBJ = {6: 0.05094760334197323, 12: 0.047649286952981436, 24: 0.051153090740320886}
OBJ_ATOL = 1e2 * SOLVER_TOL
CONE_TOL = 1e-6

# The speed kernel: KERNEL_PASSES dense Cholesky factor-and-solve passes on
# a KERNEL_N x KERNEL_N matrix, and its typical time on the 2-vCPU VM the
# benchmark was built on. KERNEL_REFERENCE_S holds only for these sizes.
KERNEL_N = 500
KERNEL_PASSES = 6
KERNEL_REFERENCE_S = 0.1
#: A piece of timed work is scaled by the gauge readings within this many
#: seconds of it.
GAUGE_WINDOW_S = 5.0


def j_ub_atol(ref: float) -> float:
    return J_UB_K * DESIGN_PARAMS.eps_opt * max(1.0, abs(ref))


class Gauge:
    """Gauges the machine's speed with a fixed reference task.

    On a shared virtual machine the effective speed drifts by about +-20%
    within seconds, and repetition inside a run does not average it away.
    The task runs once when the gauge is made and once after each piece of
    timed work (``timed``, ``read``). ``scale`` turns the work into seconds
    at the reference speed: its seconds x ``reference_s`` over the median
    task time among the readings that overlap the work widened by
    GAUGE_WINDOW_S on each side. A median over several nearby readings
    follows the drift without taking on the jitter of a single reading.
    The task is the benchmark's own code; no change to the package moves it.
    """

    def __init__(self, task, reference_s: float):
        self.task = task  # runs the reference task once, returns its seconds
        self.reference_s = reference_s
        self.readings: list[tuple[float, float, float]] = []  # start, end, seconds
        self.read()

    def read(self) -> None:
        start = clock()
        seconds = self.task()
        self.readings.append((start, clock(), seconds))

    def times(self) -> list[float]:
        return [seconds for _, _, seconds in self.readings]

    def timed(self, fn, *args):
        """(fn(*args), (seconds, start, end)), then one reading."""
        start = clock()
        result = fn(*args)
        end = clock()
        self.read()
        return result, (end - start, start, end)

    def scale(self, seconds: float, start: float, end: float) -> float:
        near = [
            s for a, b, s in self.readings
            if b >= start - GAUGE_WINDOW_S and a <= end + GAUGE_WINDOW_S
        ]
        return seconds * self.reference_s / statistics.median(near)


def speed_gauge() -> Gauge:
    """A gauge on the CPU speed: the dense Cholesky kernel."""
    a = np.random.default_rng(0).random((KERNEL_N, KERNEL_N))
    matrix = a @ a.T + KERNEL_N * np.eye(KERNEL_N)

    def kernel() -> float:
        t = clock()
        for _ in range(KERNEL_PASSES):
            sla.cho_solve(sla.cho_factor(matrix), a)
        return clock() - t

    return Gauge(kernel, KERNEL_REFERENCE_S)


class CheckFailed(Exception):
    """An output of the program is wrong; the run must not report a result."""


@dataclass
class RoundResult:
    """One timed round: case samples, deterministic outputs, op counts.

    A sample is (seconds, start, end). Call ``time`` outside any tracer
    span: it reads the gauge.
    """

    gauge: Gauge
    samples: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def time(self, case: str, start: float, end: float) -> None:
        self.samples.setdefault(case, []).append((end - start, start, end))
        self.gauge.read()


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering (floats written with all digits)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- instances
def _thrust_grid(n: int, dt: float = 1.0) -> TimeGrid:
    return TimeGrid(
        epochs=tuple(k * dt for k in range(n + 1)),
        kinds=("thrust",) * n + ("coast",),
    )


def design_problem():
    """Gravity-free N=6 rendezvous with navigation, Gates errors and noise.

    The terminal bound is three times the open-loop dispersion, so the gains
    must do real work to meet it.
    """
    n = 6
    flags = tuple(k in (0, 2, 4) for k in range(n + 1))
    obs = ObservationModel(
        has_measurement=flags,
        sqrt_noise=tuple(0.05 * np.eye(6) if f else None for f in flags),
    )
    unc = scp.UncertaintyModel(
        obs=obs,
        p_hat0=0.02 * np.eye(6),
        p_tilde0=0.03 * np.eye(6),
        eps_u=1e-2,
        p_f=np.eye(6),
        gates=GatesParams(
            sigma_fixed_mag=0.004, sigma_prop_mag=0.01,
            sigma_fixed_point=0.004, sigma_prop_point=0.01,
        ),
        proc_noise_sqrt=process_noise_sqrt(5e-3, 1.0),
    )
    x0 = np.array([0.4, -0.2, 0.1, 0.02, 0.01, -0.03])
    prob = scp.ScpProblem(
        grid=_thrust_grid(n), u_max=0.6, x_target=np.zeros(6), mu=0.0,
        x0_fixed=x0, uncertainty=unc,
    )
    ref = scp.evaluate_point(prob, x0, np.zeros((n, 3)))
    D = dispersion_sqrt(ref.blocks, FeedbackPolicy.zeros(n))
    p_open = D[n] @ D[n].T + ref.schedule.P_post[n]
    prob = dataclasses.replace(
        prob, uncertainty=dataclasses.replace(unc, p_f=3.0 * p_open)
    )
    return prob, scp.TrajectoryGuess(x0=x0, controls=np.zeros((n, 3)))


def sweep_problem(n: int) -> scp.ScpProblem:
    """Keplerian 1.0 -> 1.1 orbit raise over half a transfer period, N segments."""
    tof = math.pi * 1.05**1.5
    flags = tuple(k % 2 == 0 for k in range(n + 1))
    obs = ObservationModel(
        has_measurement=flags,
        sqrt_noise=tuple(1e-3 * np.eye(6) if f else None for f in flags),
    )
    unc = scp.UncertaintyModel(
        obs=obs,
        p_hat0=1e-6 * np.eye(6),
        p_tilde0=1e-6 * np.eye(6),
        eps_u=1e-2,
        p_f=1e-2 * np.eye(6),
        gates=GatesParams(sigma_prop_mag=0.01, sigma_prop_point=0.01),
        proc_noise_sqrt=process_noise_sqrt(1e-4, 0.01),
    )
    r_f = 1.1
    return scp.ScpProblem(
        grid=TimeGrid(
            epochs=tuple(tof * k / n for k in range(n + 1)),
            kinds=("thrust",) * n + ("coast",),
        ),
        u_max=0.1,
        x_target=np.array([-r_f, 0.0, 0.0, 0.0, -math.sqrt(1.0 / r_f), 0.0]),
        mu=1.0,
        x0_fixed=np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
        uncertainty=unc,
    )


def flyby_problem():
    """Thrust, flyby, thrust: a fixed open-loop flyby flown under dispersion."""
    grid = TimeGrid(epochs=(0.0, 1.0, 1.0, 2.0), kinds=("thrust", "ga", "thrust", "coast"))
    v_planet = np.array([0.0, 1.0, 0.0])
    theta = 0.9
    event = scp.GaEvent(
        segment=1, mu_p=0.05, r_p_min=0.01, v_planet=v_planet, eps=1e-3,
        theta_min=0.1, theta_max=2.0,
    )
    x0 = np.array([1.0, 0.0, 0.0, 0.35, 1.0, 0.35])
    controls = np.array(
        [[0.0, 0.0, 0.0], [0.0, np.tan(0.5 * theta), 0.0], [0.05, -0.02, 0.01]]
    )
    x1 = propagate(x0, controls[0], 0.0, 1.0, 0.0)
    x2 = ga_map(x1, controls[1], v_planet)
    x_target = propagate(x2, controls[2], 1.0, 2.0, 0.0)
    obs = ObservationModel(
        has_measurement=(True, False, True, False),
        sqrt_noise=(0.03 * np.eye(6), None, 0.03 * np.eye(6), None),
    )
    unc = scp.UncertaintyModel(
        obs=obs,
        p_hat0=4e-4 * np.eye(6),
        p_tilde0=4e-4 * np.eye(6),
        eps_u=1e-2,
        p_f=np.eye(6),
        gates=GatesParams(
            sigma_fixed_mag=1e-3, sigma_prop_mag=2e-3,
            sigma_fixed_point=1e-3, sigma_prop_point=2e-3,
        ),
        proc_noise_sqrt=process_noise_sqrt(1e-3, 1.0),
    )
    prob = scp.ScpProblem(
        grid=grid, u_max=0.6, x_target=x_target, mu=0.0, x0_fixed=x0,
        ga_events=(event,), uncertainty=unc,
    )
    return prob, scp.evaluate_point(prob, x0, controls, thetas=(theta,))


# ------------------------------------------------------------------- checks
def cone_violation(prog, x) -> float:
    """Largest violation of any cone by the slack b - A x (0 when feasible)."""
    s = prog.residual(x)
    worst = 0.0
    for cone, sl in prog.cone_slices():
        v = s[sl]
        if cone.kind == "zero":
            viol = float(np.max(np.abs(v)))
        elif cone.kind == "nonneg":
            viol = float(-np.min(v))
        elif cone.kind == "soc":
            viol = float(np.linalg.norm(v[1:]) - v[0])
        elif cone.kind == "rsoc":
            geo = math.sqrt(2.0 * max(v[0], 0.0) * max(v[1], 0.0))
            viol = max(float(np.linalg.norm(v[2:])) - geo, -v[0], -v[1])
        else:  # pow3
            a = cone.alpha
            geo = max(v[0], 0.0) ** a * max(v[1], 0.0) ** (1.0 - a)
            viol = max(abs(v[2]) - geo, -v[0], -v[1])
        worst = max(worst, viol)
    return worst


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def count_scp_failures(result) -> tuple[int, int]:
    """(attempted, failed): subproblem solves and the SCP run itself.

    A solve counts as failed when its status is not ``ok``; the run counts as
    failed when it did not converge.
    """
    attempted = len(result.records) + 1
    failed = sum(
        1 for r in result.records if r.status not in ("optimal", "optimal_inaccurate")
    )
    return attempted, failed + (not result.converged)


# ---------------------------------------------------------------- workloads
class DesignN6:
    """Mean-only SCP from a zero-control guess, then the stochastic SCP."""

    name = "design_n6"

    def named_metrics(self, cases):
        return [("design_s", sum(cases.values()), "s")]

    def round_seconds(self, cases):
        return sum(cases.values())

    def prepare(self, seed: int):
        return None

    def setup(self, seed: int, prepared=None):
        prob, guess = design_problem()
        det_prob = scp.deterministic_problem(prob)
        # first-call warm-up: one evaluation and one small conic solve
        ref = scp.evaluate_point(det_prob, guess.x0, guess.controls)
        layout = subproblem.build_subproblem(
            det_prob.grid, list(ref.segments), ref.states, ref.controls,
            det_prob.u_max, subproblem.TerminalSpec(x_target=det_prob.x_target),
            subproblem.PenaltyWeights(weight=DESIGN_PARAMS.w_init, lam_terminal=np.zeros(6)),
            DESIGN_PARAMS.tr_init, x0_fixed=det_prob.x0_fixed,
        )
        subproblem.solve_subproblem(layout, tol=SOLVER_TOL)
        return prob, det_prob, guess

    def round(self, state, tracer, gauge) -> RoundResult:
        prob, det_prob, guess = state
        out = RoundResult(gauge)
        with tracer.span("bench.design", N=6):
            start = clock()
            det = scp.run(det_prob, guess, DESIGN_PARAMS, solver_tol=SOLVER_TOL)
            end = clock()
        out.time("mean_only", start, end)
        with tracer.span("bench.design", N=6):
            start = clock()
            sto = scp.run(prob, det.point, DESIGN_PARAMS, solver_tol=SOLVER_TOL)
            end = clock()
        out.time("stochastic", start, end)
        for case, res in (("mean_only", det), ("stochastic", sto)):
            attempted, failed = count_scp_failures(res)
            out.attempted += attempted
            out.failed += failed
            p = res.point
            out.outputs[case] = {
                "status": res.status,
                "j_ub": p.j_ub,
                "iterations": res.iterations,
                "accepted": sum(r.accepted for r in res.records),
                "records": [[r.status, r.rho, r.j_ub, r.accepted] for r in res.records],
                "point": array_digest(
                    p.x0, p.controls, p.states,
                    p.policy.blocks if p.policy is not None else np.zeros(0),
                ),
            }
        return out

    def check(self, out: RoundResult) -> None:
        for case, ref in DESIGN_J_UB.items():
            o = out.outputs[case]
            _require(o["status"] == "converged", f"{case} SCP status {o['status']}")
            bad = [r[0] for r in o["records"] if r[0] != "optimal"]
            _require(not bad, f"{case} SCP subproblem statuses {bad}")
            _require(
                abs(o["j_ub"] - ref) <= j_ub_atol(ref),
                f"{case} j_ub {o['j_ub']!r} differs from {ref!r} by more than {j_ub_atol(ref):g}",
            )


class HorizonSweep:
    """One stochastic Keplerian subproblem at N = 6, 12, 24.

    A case is evaluate_point + build_subproblem + solve_subproblem at a zero
    control reference. Small cases repeat within a round, so each point gets
    several samples per run while the N=24 solve dominates the round.
    """

    name = "horizon_sweep"
    horizons = (6, 12, 24)
    repeats = {6: 2, 12: 1, 24: 1}
    cases = tuple(f"n{n}" for n in horizons)
    weight = 100.0
    trust_radius = 0.1

    def named_metrics(self, cases):
        return [(f"subproblem_s.{c}", cases[c], "s") for c in self.cases]

    def round_seconds(self, cases):
        """Geometric mean over N, so a change at any N moves it alike."""
        return math.exp(statistics.fmean(math.log(cases[c]) for c in self.cases))

    def prepare(self, seed: int):
        return None

    def setup(self, seed: int, prepared=None):
        problems = {n: sweep_problem(n) for n in self.horizons}
        self._solve(problems[6])  # first-call warm-up
        return problems

    def _solve(self, prob):
        n = prob.grid.n_segments
        unc = prob.uncertainty
        point = scp.evaluate_point(prob, prob.x0_fixed, np.zeros((n, 3)))
        layout = subproblem.build_subproblem(
            prob.grid, list(point.segments), point.states, point.controls,
            prob.u_max, subproblem.TerminalSpec(x_target=prob.x_target),
            subproblem.PenaltyWeights(weight=self.weight, lam_terminal=np.zeros(6)),
            self.trust_radius, x0_fixed=prob.x0_fixed,
            stochastic=subproblem.StochasticSpec(
                blocks=point.blocks, schedule=point.schedule,
                eps_u=unc.eps_u, p_f=unc.p_f,
            ),
        )
        return layout, subproblem.solve_subproblem(layout, tol=SOLVER_TOL)

    def round(self, problems, tracer, gauge) -> RoundResult:
        out = RoundResult(gauge)
        for n in self.horizons:
            for _ in range(self.repeats[n]):
                with tracer.span("bench.sweep", N=n):
                    start = clock()
                    layout, sol = self._solve(problems[n])
                    end = clock()
                out.time(f"n{n}", start, end)
                out.attempted += 1
                out.failed += sol.status != "optimal"
            prog = layout.program
            out.outputs[f"n{n}"] = {
                "status": sol.status,
                "objective": sol.objective,
                "iterations": sol.result.iterations,
                "n_vars": prog.n_vars,
                "nnz": int(prog.A.nnz),
                "cone_violation": (
                    cone_violation(prog, sol.result.x) / (1.0 + float(np.max(np.abs(prog.b))))
                    if sol.result.x is not None else math.inf
                ),
                "x": array_digest(sol.result.x if sol.result.x is not None else np.zeros(0)),
            }
        return out

    def check(self, out: RoundResult) -> None:
        for n, ref in SWEEP_OBJ.items():
            o = out.outputs[f"n{n}"]
            _require(o["status"] == "optimal", f"N={n} solve status {o['status']}")
            _require(
                abs(o["objective"] - ref) <= OBJ_ATOL,
                f"N={n} objective {o['objective']!r} differs from {ref!r} by more than {OBJ_ATOL:g}",
            )
            _require(
                o["cone_violation"] <= CONE_TOL,
                f"N={n} solution violates a cone by {o['cone_violation']:.3e} (relative)",
            )


class McPlayback:
    """Three campaigns that verify a design; no conic work inside the round.

    Sample counts are scaled so each campaign takes about 2 s at the seed
    commit on one core: linear mode is bound by per-sample numpy recursion
    and the bootstrap, EKF mode by dynamics integration, and the flyby
    campaign is the only one that runs the gravity-assist map.

    The linear and EKF campaigns fly the stochastic design_n6 point, whose
    j_ub must bound the realized delta-v quantile. The flyby point is a
    fixed open-loop reference with no feedback margin, so its j_ub is the
    nominal delta-v and says nothing about execution errors; that campaign
    is checked on its periapsis statistics instead.
    """

    name = "mc_playback"
    samples = {"linear": 5000, "ekf": 80, "flyby": 400}
    ekf_dt_wn = 0.2

    def named_metrics(self, cases):
        return [(f"mc_{c}_samples_per_s", self.samples[c] / cases[c], "1/s") for c in self.samples]

    def round_seconds(self, cases):
        return sum(cases.values())

    def configs(self, seed: int, scale: float = 1.0) -> dict[str, montecarlo.McConfig]:
        n = {k: max(2, int(v * scale)) for k, v in self.samples.items()}
        return {
            "linear": montecarlo.McConfig(n_samples=n["linear"], master_seed=seed, mode="linear"),
            "ekf": montecarlo.McConfig(
                n_samples=n["ekf"], master_seed=seed, mode="ekf", dt_wn=self.ekf_dt_wn
            ),
            "flyby": montecarlo.McConfig(n_samples=n["flyby"], master_seed=seed, mode="ekf"),
        }

    def prepare(self, seed: int):
        """The stochastic design_n6 point, solved once per run."""
        prob, det_prob, guess = DesignN6().setup(seed)
        det = scp.run(det_prob, guess, DESIGN_PARAMS, solver_tol=SOLVER_TOL)
        sto = scp.run(prob, det.point, DESIGN_PARAMS, solver_tol=SOLVER_TOL)
        if not sto.converged:
            raise CheckFailed(f"design for playback did not converge: {sto.status}")
        return prob, sto.point

    def setup(self, seed: int, prepared):
        prob, point = prepared
        fly_prob, fly_point = flyby_problem()
        cases = {"linear": (prob, point), "ekf": (prob, point), "flyby": (fly_prob, fly_point)}
        # first-call warm-up on a few samples of each campaign
        for case, cfg in self.configs(seed, scale=0.01).items():
            montecarlo.run_campaign(*cases[case], dataclasses.replace(cfg, bootstrap=10))
        return cases, self.configs(seed)

    def round(self, state, tracer, gauge) -> RoundResult:
        cases, configs = state
        out = RoundResult(gauge)
        for case, cfg in configs.items():
            with tracer.span("bench.mc", mc=case):
                start = clock()
                report = montecarlo.run_campaign(*cases[case], cfg)
                bound = montecarlo.compare_bound(report)
                summary = report.as_dict()
                end = clock()
            out.time(case, start, end)
            out.attempted += cfg.n_samples
            out.failed += report.n_failed
            out.outputs[case] = {
                "report": summary,
                "dv_values": array_digest(report.dv_values),
                "periapses": [array_digest(p) for p in report.periapses],
                "periapsis_max": [float(p.max()) for p in report.periapses],
                "bound_holds": bound.holds,
                "bound_slack": bound.slack,
            }
        return out

    def check(self, out: RoundResult) -> None:
        for case, o in out.outputs.items():
            rep = o["report"]
            _require(rep["n_failed"] == 0, f"{case} campaign lost samples {rep['failed']}")
            _require(rep["od_containment"] >= 0.95, f"{case} OD containment {rep['od_containment']}")
        for case in ("linear", "ekf"):
            rep = out.outputs[case]["report"]
            _require(
                out.outputs[case]["bound_holds"],
                f"{case} campaign: dv quantile {rep['dv_q']!r} exceeds "
                f"j_ub {rep['j_ub']!r} beyond the bootstrap half-width",
            )
        fly = out.outputs["flyby"]
        nominal, low, high = (
            fly["report"]["periapsis_nominal"][0],
            fly["report"]["periapsis_min"][0],
            fly["periapsis_max"][0],
        )
        _require(
            0.0 < low < nominal < high,
            f"flyby periapsis spread [{low}, {high}] does not straddle nominal {nominal}",
        )


WORKLOADS = {w.name: w for w in (DesignN6(), HorizonSweep(), McPlayback())}


def median_cases(rounds: list[RoundResult], scaled: bool = True) -> dict[str, float]:
    """Median seconds of each case over every sample in every round.

    Scaled to the gauge's reference speed, or raw with ``scaled=False``.
    """
    merged: dict[str, list[float]] = {}
    for r in rounds:
        for case, samples in r.samples.items():
            merged.setdefault(case, []).extend(
                r.gauge.scale(*sample) if scaled else sample[0] for sample in samples
            )
    return {case: statistics.median(times) for case, times in merged.items()}

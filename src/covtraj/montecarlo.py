"""Monte Carlo verification of a steered trajectory solution.

Plays an optimized reference and its feedback policy back through a truth
simulation with sampled initial dispersion, thrust execution errors, white
acceleration noise, and measurement noise, and reports the realized
delta-v quantile, thrust-bound violation rate, flyby periapsis spread,
orbit-determination consistency, and terminal dispersion statistics.

Two truth models are available:

* ``"linear"`` — truth and navigator both use the discrete affine segment
  maps and the precomputed Kalman gains attached to the reference point.
  Sample statistics then converge to the closed-form covariances of
  :mod:`covtraj.covsteer`, which makes this mode the cross-check oracle
  for the analytic steering machinery.
* ``"ekf"`` — truth follows the exact nonlinear flow with the white
  acceleration redrawn every sub-window and execution errors applied to
  the realized thrust, while the navigator runs an extended Kalman filter
  that re-linearizes the dynamics about its own estimate each segment.

The flown control is the reference plus gain corrections driven by the
navigator's posterior state deviations,

    u_k = ubar_k + sum_{i<=k} Khat_{k,i} (xhat_i - xbar_i),

with ``Khat`` the estimate-deviation form of the optimized policy
(:func:`covtraj.covsteer.convert_gain`). Gravity-assist rows carry no gain
corrections, so flybys replay the optimized turn exactly and only the
incoming dispersion moves the realized periapsis.

Every sample draws from its own counter-based random stream keyed by
``(master_seed, sample index)``, so campaigns reproduce bit-for-bit for a
fixed configuration.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covsteer import FeedbackPolicy, convert_gain, dispersion_sqrt
from .dynamics import linearize_segment, propagate, psd_sqrt
from .errors import ConfigError, CovtrajError, NumericalError
from .gravity_assist import ga_linearize, ga_map, periapsis_radius
from .scp import ReferencePoint, ScpProblem
from .uncertainty import gates_matrix

N_X = 6
N_U = 3

#: Absolute slack added to the three-sigma orbit-determination gate so the
#: containment check stays meaningful when a filter variance is exactly zero
#: (noise-free scenarios reproduce the estimate to integrator precision, not
#: bit-exactly).
OD_TOLERANCE = 1e-12


@dataclass(frozen=True)
class McConfig:
    """Campaign controls: sample count, seeding, truth model, and statistics.

    ``dt_wn`` is the redraw interval of the white-acceleration process in
    ``"ekf"`` mode; segments are split into uniform windows no longer than
    this, and ``None`` holds one draw across each whole segment. The
    bootstrap settings size the confidence interval attached to the delta-v
    quantile; ``max_failure_rate`` is the tolerated fraction of samples that
    may fail numerically before the campaign itself errors out.
    """

    n_samples: int
    master_seed: int = 0
    mode: str = "ekf"
    dt_wn: float | None = None
    quantile: float = 0.99
    bootstrap: int = 1000
    bootstrap_conf: float = 0.99
    max_failure_rate: float = 0.01
    keep_samples: bool = False

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.mode not in ("ekf", "linear"):
            raise ValueError(f"mode must be 'ekf' or 'linear', got {self.mode!r}")
        if self.dt_wn is not None and self.dt_wn <= 0.0:
            raise ValueError("dt_wn must be positive when given")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile level must lie in (0, 1)")
        if self.bootstrap < 1:
            raise ValueError("need at least one bootstrap resample")
        if not 0.0 < self.bootstrap_conf < 1.0:
            raise ValueError("bootstrap confidence must lie in (0, 1)")
        if not 0.0 <= self.max_failure_rate <= 1.0:
            raise ValueError("max_failure_rate must lie in [0, 1]")


@dataclass(frozen=True)
class McSample:
    """One realized trajectory with its navigator playback and metrics.

    ``truth``/``estimates`` hold the node states of the simulated vehicle
    and of the navigator's posterior, ``od_error`` their difference, and
    ``od_contained[k]`` whether every component of that error sits inside
    the filter's three-sigma band at node k. ``commanded`` is the gain-
    corrected control, ``executed`` what the actuator realized (identical
    except for execution error on thrust segments in ``"ekf"`` mode), and
    ``dv`` integrates ``executed`` over the grid:
    dv = sum_k ||u_k^executed|| dt_k >= 0.
    """

    index: int
    truth: np.ndarray
    estimates: np.ndarray
    commanded: np.ndarray
    executed: np.ndarray
    od_error: np.ndarray
    od_contained: np.ndarray
    violations: np.ndarray
    periapses: tuple[float, ...]
    dv: float
    terminal_defect: np.ndarray


@dataclass(frozen=True)
class McReport:
    """Campaign statistics over all successful samples.

    ``dv_q`` is the order-statistic delta-v quantile at ``quantile_p`` with
    bootstrap confidence half-width ``dv_ci_half``; ``j_ub`` is the analytic
    bound carried by the reference point for comparison. Violation counts
    are per segment (commanded thrust above ``u_max``), the containment
    figures count per-node orbit-determination errors inside three-sigma,
    and the terminal statistics describe the dispersion of the realized
    final state about the reference (with the closed-form prediction
    alongside). ``periapses`` holds one realized-radius array per
    gravity-assist event, in event order.
    """

    mode: str
    n_samples: int
    n_failed: int
    failed: tuple[int, ...]
    master_seed: int
    quantile_p: float
    dv_values: np.ndarray
    dv_nominal: float
    dv_mean: float
    dv_max: float
    dv_q: float
    dv_ci_half: float
    j_ub: float
    violation_counts: np.ndarray
    violation_rate: float
    od_containment: float
    od_contained_per_node: np.ndarray
    terminal_mean: np.ndarray
    terminal_cov: np.ndarray
    terminal_cov_analytic: np.ndarray
    periapses: tuple[np.ndarray, ...]
    periapsis_nominal: tuple[float, ...]
    periapsis_min: tuple[float, ...]
    samples: tuple[McSample, ...] = ()

    def as_dict(self) -> dict:
        """JSON-ready summary (arrays as nested lists, samples omitted)."""
        return {
            "mode": self.mode,
            "n_samples": self.n_samples,
            "n_failed": self.n_failed,
            "failed": list(self.failed),
            "master_seed": self.master_seed,
            "quantile_p": self.quantile_p,
            "dv_nominal": self.dv_nominal,
            "dv_mean": self.dv_mean,
            "dv_max": self.dv_max,
            "dv_q": self.dv_q,
            "dv_ci_half": self.dv_ci_half,
            "j_ub": self.j_ub,
            "violation_counts": self.violation_counts.tolist(),
            "violation_rate": self.violation_rate,
            "od_containment": self.od_containment,
            "od_contained_per_node": self.od_contained_per_node.tolist(),
            "terminal_mean": self.terminal_mean.tolist(),
            "terminal_cov": self.terminal_cov.tolist(),
            "terminal_cov_analytic": self.terminal_cov_analytic.tolist(),
            "periapsis_nominal": list(self.periapsis_nominal),
            "periapsis_min": list(self.periapsis_min),
        }


@dataclass(frozen=True)
class BoundCheck:
    """Realized quantile versus analytic bound, with sampling-error slack.

    ``holds`` is True when dv_q <= j_ub + ci_half: the bootstrap half-width
    absorbs estimator noise, so only a statistically significant exceedance
    fails. ``slack`` is j_ub - dv_q (positive when the bound has margin).
    """

    quantile_p: float
    dv_q: float
    j_ub: float
    ci_half: float
    slack: float
    holds: bool


def estimate_quantile(values, p: float) -> float:
    """Smallest sample value whose empirical probability reaches p.

    Order-statistic estimator: entry ceil(p * n) (1-based) of the sorted
    sample — the smallest x with at least a fraction p of the sample at or
    below x. Monotone in p by construction.

    Raises:
        ValueError: empty sample, or p outside (0, 1).
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot estimate a quantile from an empty sample")
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {p}")
    return float(np.sort(arr)[math.ceil(p * arr.size) - 1])


def _quantile_ci_half(
    values: np.ndarray,
    p: float,
    n_resamples: int,
    conf: float,
    seed: np.random.SeedSequence,
) -> float:
    """Half-width of the central bootstrap confidence interval of the quantile."""
    rng = np.random.Generator(np.random.Philox(seed))
    n = values.size
    order = math.ceil(p * n) - 1
    quantiles = np.empty(n_resamples)
    # Resample in chunks so the index matrix stays bounded at large n.
    chunk = max(1, 20_000_000 // max(n, 1))
    done = 0
    while done < n_resamples:
        m = min(chunk, n_resamples - done)
        idx = rng.integers(0, n, size=(m, n))
        quantiles[done : done + m] = np.partition(values[idx], order, axis=1)[:, order]
        done += m
    lo, hi = np.quantile(quantiles, [0.5 * (1.0 - conf), 0.5 * (1.0 + conf)])
    return float(0.5 * (hi - lo))


def _playback_gains(point: ReferencePoint) -> np.ndarray:
    """Estimate-deviation gain blocks Khat, (N, N+1, 3, 6)."""
    policy = point.policy
    if policy is None:
        policy = FeedbackPolicy.zeros(point.controls.shape[0])
    if policy.is_zero or point.blocks is None:
        return policy.blocks
    return convert_gain(point.blocks, policy).blocks


def _simulate(
    problem: ScpProblem,
    point: ReferencePoint,
    cfg: McConfig,
    khat: np.ndarray,
    sq_hat0: np.ndarray,
    sq_til0: np.ndarray,
    lin_sigma: np.ndarray | None,
    index: int,
) -> McSample:
    """Run one sample on its dedicated random stream.

    Draw order is fixed: initial estimate deviation (6), initial estimation
    error (6); then per node a measurement noise vector where one is taken;
    then per segment the execution-error vector (thrust only) followed by
    the process-noise vector(s) — one per segment in linear mode, one per
    sub-window in EKF mode. Gravity-assist segments draw nothing.
    """
    grid = problem.grid
    unc = problem.uncertainty
    obs = unc.obs
    n_seg = grid.n_segments
    linear = cfg.mode == "linear"
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([cfg.master_seed, index]))
    )

    x_bar = point.states
    u_bar = point.controls
    schedule = point.schedule
    event_at = {e.segment: e for e in problem.ga_events}
    theta_at = {e.segment: t for e, t in zip(problem.ga_events, point.thetas)}

    truth = np.zeros((n_seg + 1, N_X))
    estimates = np.zeros((n_seg + 1, N_X))
    od_error = np.zeros((n_seg + 1, N_X))
    od_contained = np.zeros(n_seg + 1, dtype=bool)
    commanded = np.zeros((n_seg, N_U))
    executed = np.zeros((n_seg, N_U))
    violations = np.zeros(n_seg, dtype=bool)
    devs = np.zeros((n_seg + 1, N_X))
    periapses: list[float] = []

    xhat_minus = x_bar[0] + sq_hat0 @ rng.standard_normal(N_X)
    x = xhat_minus + sq_til0 @ rng.standard_normal(N_X)
    p_minus = None if linear else np.array(unc.p_tilde0, dtype=float)

    for k in range(n_seg + 1):
        if obs.has_measurement[k]:
            C = obs.obs_matrix[k]
            D = obs.sqrt_noise[k]
            y = C @ x + D @ rng.standard_normal(D.shape[0])
            if linear:
                gain = schedule.gains[k]
            else:
                innov_cov = C @ p_minus @ C.T + D @ D.T
                gain = np.linalg.solve(innov_cov, C @ p_minus).T
                closed = np.eye(N_X) - gain @ C
                gain_noise = gain @ D
                p_minus = closed @ p_minus @ closed.T + gain_noise @ gain_noise.T
            xhat = xhat_minus + gain @ (y - C @ xhat_minus)
        else:
            xhat = xhat_minus

        truth[k] = x
        estimates[k] = xhat
        od_error[k] = x - xhat
        if linear:
            sigma = lin_sigma[k]
        else:
            sigma = np.sqrt(np.clip(np.diag(p_minus), 0.0, None))
        od_contained[k] = bool(
            np.all(np.abs(od_error[k]) <= 3.0 * sigma + OD_TOLERANCE)
        )
        devs[k] = xhat - x_bar[k]
        if k == n_seg:
            break

        u = u_bar[k] + np.tensordot(
            khat[k, : k + 1], devs[: k + 1], axes=([0, 2], [0, 1])
        )
        commanded[k] = u
        thrusting = grid.kinds[k] == "thrust"
        if thrusting:
            violations[k] = bool(np.linalg.norm(u) > problem.u_max)

        if grid.is_ga(k):
            event = event_at[k]
            v_inf = float(np.linalg.norm(x[3:] - event.v_planet))
            periapses.append(periapsis_radius(v_inf, theta_at[k], event.mu_p))
            executed[k] = u
            if linear:
                seg = point.segments[k]
                x = seg.A @ x + seg.B @ u + seg.c
                xhat_minus = seg.A @ xhat + seg.B @ u + seg.c
            else:
                x = ga_map(x, u, event.v_planet)
                A_ga = ga_linearize(k, xhat, u, event.v_planet, grid.epochs[k]).A
                xhat_minus = ga_map(xhat, u, event.v_planet)
                p_minus = A_ga @ p_minus @ A_ga.T
            continue

        if linear:
            seg = point.segments[k]
            x_next = seg.A @ x + seg.B @ u + seg.c
            if thrusting:
                x_next = x_next + seg.G_exe @ rng.standard_normal(N_U)
            if seg.G_proc.shape[1]:
                x_next = x_next + seg.G_proc @ rng.standard_normal(seg.G_proc.shape[1])
            x = x_next
            xhat_minus = seg.A @ xhat + seg.B @ u + seg.c
            executed[k] = u
            continue

        exe_sqrt = None
        u_exec = u
        if thrusting and unc.gates is not None:
            exe_sqrt = gates_matrix(u, unc.gates)
            u_exec = u + exe_sqrt @ rng.standard_normal(N_U)
        executed[k] = u_exec

        t0, t1 = grid.epochs[k], grid.epochs[k + 1]
        noise = unc.proc_noise_sqrt
        if noise is None:
            x = propagate(x, u_exec, t0, t1, problem.mu)
        else:
            # White acceleration held piecewise-constant: each uniform
            # window of length h gets an acceleration of covariance
            # (noise_v noise_v') / h, which reproduces the continuous noise
            # intensity exactly while the drift is integrated by the full
            # nonlinear flow.
            if cfg.dt_wn is None:
                n_win = 1
            else:
                n_win = max(1, math.ceil((t1 - t0) / cfg.dt_wn))
            h = (t1 - t0) / n_win
            scale = 1.0 / math.sqrt(h)
            for j in range(n_win):
                a_wn = scale * (noise[3:, :] @ rng.standard_normal(noise.shape[1]))
                x = propagate(x, u_exec + a_wn, t0 + j * h, t0 + (j + 1) * h, problem.mu)

        seg_hat = linearize_segment(
            k,
            xhat,
            u,
            t0,
            t1,
            problem.mu,
            exe_error_sqrt=exe_sqrt,
            proc_noise_sqrt=noise,
        )
        xhat_minus = seg_hat.A @ xhat + seg_hat.B @ u + seg_hat.c
        p_minus = (
            seg_hat.A @ p_minus @ seg_hat.A.T
            + seg_hat.G_exe @ seg_hat.G_exe.T
            + seg_hat.G_proc @ seg_hat.G_proc.T
        )

    dv = float(np.sum(np.linalg.norm(executed, axis=1) * grid.dts))
    return McSample(
        index=index,
        truth=truth,
        estimates=estimates,
        commanded=commanded,
        executed=executed,
        od_error=od_error,
        od_contained=od_contained,
        violations=violations,
        periapses=tuple(periapses),
        dv=dv,
        terminal_defect=truth[-1] - problem.x_target,
    )


def _prepare(problem: ScpProblem, point: ReferencePoint, cfg: McConfig):
    """Validate the campaign inputs and precompute per-campaign factors."""
    unc = problem.uncertainty
    if unc is None:
        raise ConfigError(
            "Monte Carlo playback needs a problem with an uncertainty model"
        )
    if point.blocks is None or point.schedule is None:
        raise ConfigError(
            "reference point carries no covariance structure; re-evaluate it "
            "on the stochastic problem"
        )
    khat = _playback_gains(point)
    sq_hat0 = psd_sqrt(np.asarray(unc.p_hat0, dtype=float))
    sq_til0 = psd_sqrt(np.asarray(unc.p_tilde0, dtype=float))
    lin_sigma = None
    if cfg.mode == "linear":
        post_var = np.diagonal(point.schedule.P_post, axis1=1, axis2=2)
        lin_sigma = np.sqrt(np.clip(post_var, 0.0, None))
    return khat, sq_hat0, sq_til0, lin_sigma


def run_sample(
    problem: ScpProblem, point: ReferencePoint, cfg: McConfig, index: int
) -> McSample:
    """Simulate a single sample on the stream keyed by (master_seed, index)."""
    khat, sq_hat0, sq_til0, lin_sigma = _prepare(problem, point, cfg)
    return _simulate(problem, point, cfg, khat, sq_hat0, sq_til0, lin_sigma, index)


def run_campaign(
    problem: ScpProblem, point: ReferencePoint, cfg: McConfig
) -> McReport:
    """Run the full campaign and reduce it to an McReport.

    Samples are independent and reduced in index order. Samples that fail
    numerically are excluded from every statistic and warned about; the
    campaign raises once more than ``max_failure_rate`` of them fail.
    """
    khat, sq_hat0, sq_til0, lin_sigma = _prepare(problem, point, cfg)
    grid = problem.grid

    def one(i: int) -> McSample | int:
        try:
            return _simulate(
                problem, point, cfg, khat, sq_hat0, sq_til0, lin_sigma, i
            )
        except (CovtrajError, np.linalg.LinAlgError) as exc:
            warnings.warn(f"Monte Carlo sample {i} failed and is excluded: {exc}")
            return i

    results = [one(i) for i in range(cfg.n_samples)]

    samples = [r for r in results if isinstance(r, McSample)]
    failed = tuple(r for r in results if not isinstance(r, McSample))
    if len(failed) > cfg.max_failure_rate * cfg.n_samples:
        raise NumericalError(
            f"{len(failed)} of {cfg.n_samples} Monte Carlo samples failed "
            f"(tolerated fraction {cfg.max_failure_rate:.2%})"
        )

    dv_values = np.array([s.dv for s in samples])
    dv_q = estimate_quantile(dv_values, cfg.quantile)
    ci_half = _quantile_ci_half(
        np.sort(dv_values),
        cfg.quantile,
        cfg.bootstrap,
        cfg.bootstrap_conf,
        np.random.SeedSequence([cfg.master_seed, cfg.n_samples]),
    )

    violation_counts = np.sum([s.violations for s in samples], axis=0).astype(int)
    n_thrust = len(problem.thrust_segments)
    violation_rate = (
        float(violation_counts.sum()) / (len(samples) * n_thrust) if n_thrust else 0.0
    )

    contained = np.array([s.od_contained for s in samples])
    od_per_node = contained.mean(axis=0)
    od_fraction = float(contained.mean())

    dispersion = np.array([s.truth[-1] for s in samples]) - point.states[-1]
    terminal_mean = dispersion.mean(axis=0)
    if len(samples) >= 2:
        terminal_cov = np.cov(dispersion, rowvar=False, ddof=1)
    else:
        terminal_cov = np.zeros((N_X, N_X))
    policy = point.policy if point.policy is not None else FeedbackPolicy.zeros(
        grid.n_segments
    )
    d_sqrt = dispersion_sqrt(point.blocks, policy)[-1]
    terminal_cov_analytic = d_sqrt @ d_sqrt.T + point.schedule.P_post[-1]

    periapses = tuple(
        np.array([s.periapses[j] for s in samples])
        for j in range(len(problem.ga_events))
    )
    periapsis_nominal = []
    for event, theta in zip(problem.ga_events, point.thetas):
        v_inf_ref = float(
            np.linalg.norm(point.states[event.segment, 3:] - event.v_planet)
        )
        periapsis_nominal.append(periapsis_radius(v_inf_ref, theta, event.mu_p))

    return McReport(
        mode=cfg.mode,
        n_samples=cfg.n_samples,
        n_failed=len(failed),
        failed=failed,
        master_seed=cfg.master_seed,
        quantile_p=cfg.quantile,
        dv_values=dv_values,
        dv_nominal=point.dv_linear,
        dv_mean=float(dv_values.mean()),
        dv_max=float(dv_values.max()),
        dv_q=dv_q,
        dv_ci_half=ci_half,
        j_ub=point.j_ub,
        violation_counts=violation_counts,
        violation_rate=violation_rate,
        od_containment=od_fraction,
        od_contained_per_node=od_per_node,
        terminal_mean=terminal_mean,
        terminal_cov=terminal_cov,
        terminal_cov_analytic=terminal_cov_analytic,
        periapses=periapses,
        periapsis_nominal=tuple(periapsis_nominal),
        periapsis_min=tuple(float(p.min()) for p in periapses),
        samples=tuple(samples) if cfg.keep_samples else (),
    )


def compare_bound(report: McReport, j_ub: float | None = None) -> BoundCheck:
    """Check the realized delta-v quantile against the analytic bound.

    Uses the bound stored in the report unless an explicit one is given.
    The check only fails when the quantile exceeds the bound by more than
    the bootstrap confidence half-width, so pure sampling noise cannot
    flag a sound bound.
    """
    bound = report.j_ub if j_ub is None else float(j_ub)
    return BoundCheck(
        quantile_p=report.quantile_p,
        dv_q=report.dv_q,
        j_ub=bound,
        ci_half=report.dv_ci_half,
        slack=bound - report.dv_q,
        holds=bool(report.dv_q <= bound + report.dv_ci_half),
    )


def write_report(report: McReport, out_dir) -> dict[str, Path]:
    """Write the report summary and distribution data files to a directory.

    Emits ``report.json`` (summary statistics), ``dv_samples.csv`` (one
    realized delta-v per row), ``periapsis_samples.csv`` (one column per
    flyby, when any exist), and — only when the report retained samples —
    ``sample_states.csv`` / ``sample_controls.csv`` with per-node and
    per-segment trajectories. Output is deterministic for a fixed report.

    Returns:
        Mapping from artifact name to written path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    path = out / "report.json"
    path.write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    written["report"] = path

    path = out / "dv_samples.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dv"])
        for value in report.dv_values:
            writer.writerow([repr(float(value))])
    written["dv_samples"] = path

    if report.periapses:
        path = out / "periapsis_samples.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"event_{j}" for j in range(len(report.periapses))])
            for row in zip(*report.periapses):
                writer.writerow([repr(float(v)) for v in row])
        written["periapsis_samples"] = path

    if report.samples:
        path = out / "sample_states.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["sample", "node"]
                + [f"truth_{i}" for i in range(N_X)]
                + [f"estimate_{i}" for i in range(N_X)]
                + ["od_contained"]
            )
            for s in report.samples:
                for k in range(s.truth.shape[0]):
                    writer.writerow(
                        [s.index, k]
                        + [repr(float(v)) for v in s.truth[k]]
                        + [repr(float(v)) for v in s.estimates[k]]
                        + [int(s.od_contained[k])]
                    )
        written["sample_states"] = path

        path = out / "sample_controls.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["sample", "segment"]
                + [f"commanded_{i}" for i in range(N_U)]
                + [f"executed_{i}" for i in range(N_U)]
                + ["violation"]
            )
            for s in report.samples:
                for k in range(s.commanded.shape[0]):
                    writer.writerow(
                        [s.index, k]
                        + [repr(float(v)) for v in s.commanded[k]]
                        + [repr(float(v)) for v in s.executed[k]]
                        + [int(s.violations[k])]
                    )
        written["sample_controls"] = path

    return written

"""Two-body dynamics, analytic ephemerides, and segment linearization.

Everything in this module works in normalized units (see :class:`ScaleSet`);
physical units only appear at the configuration boundary. The state vector is
x = [r; v] (6,) and the control u (3,) is an inertial thrust acceleration held
zero-order over a segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

AU_KM = 1.495978707e8
MU_SUN_KM3S2 = 1.32712440018e11

#: Below this radius (normalized length units) the point-mass field is treated
#: as singular and evaluation refuses to continue.
SINGULARITY_RADIUS = 1e-6

_KEPLER_TOL = 1e-13
_KEPLER_MAX_ITER = 50


@dataclass(frozen=True)
class ScaleSet:
    """Normalization constants: canonical length and time units.

    Velocities, accelerations and gravitational parameters are derived. With
    :meth:`heliocentric` defaults the Sun's gravitational parameter is exactly
    1 in normalized units.
    """

    length_km: float
    time_s: float

    @property
    def velocity_kms(self) -> float:
        return self.length_km / self.time_s

    @property
    def mu_km3s2(self) -> float:
        return self.length_km**3 / self.time_s**2

    @classmethod
    def heliocentric(cls, length_km: float = AU_KM, mu_km3s2: float = MU_SUN_KM3S2) -> "ScaleSet":
        """Canonical heliocentric scales: 1 AU and the time unit that makes mu_sun = 1."""
        return cls(length_km=length_km, time_s=float(np.sqrt(length_km**3 / mu_km3s2)))

    def state_to_norm(self, r_km: np.ndarray, v_kms: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(r_km) / self.length_km, np.asarray(v_kms) / self.velocity_kms])

    def state_to_phys(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x)
        return x[:3] * self.length_km, x[3:] * self.velocity_kms


@dataclass(frozen=True)
class BodyEphemeris:
    """Keplerian elements of a body around the central mass, normalized units.

    Angles are radians, ``a`` is in normalized length units, ``epoch`` is the
    normalized time at which ``mean_anomaly`` applies, and ``mu`` is the
    central body's normalized gravitational parameter.
    """

    name: str
    a: float
    e: float
    inc: float
    raan: float
    argp: float
    mean_anomaly: float
    epoch: float
    mu: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.e < 1.0):
            raise ValueError(f"ephemeris for {self.name!r} needs 0 <= e < 1, got {self.e}")
        if not 0.0 < self.a < np.inf:
            raise ValueError(f"ephemeris for {self.name!r} needs a finite a > 0, got {self.a}")
        for name in ("inc", "raan", "argp", "mean_anomaly", "epoch", "mu"):
            require_finite(f"ephemeris {name} of {self.name!r}", getattr(self, name))

    @property
    def mean_motion(self) -> float:
        return float(np.sqrt(self.mu / self.a**3))

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.mean_motion


@dataclass(frozen=True)
class TimeGrid:
    """Node epochs and node kinds for one optimization horizon.

    ``epochs`` has N+1 entries; segment k runs from node k to node k+1.
    ``kinds[k]`` labels node k and its outgoing segment: ``"thrust"`` and
    ``"coast"`` segments have strictly positive duration, a ``"ga"`` node is a
    zero-length gravity-assist segment (t_k == t_{k+1} exactly). The final
    node must not be a GA node.
    """

    epochs: tuple[float, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        if len(self.epochs) != len(self.kinds):
            raise ValueError("epochs and kinds must have equal length")
        if len(self.epochs) < 2:
            raise ValueError("a grid needs at least one segment")
        require_finite("grid epochs", self.epochs)
        allowed = {"thrust", "coast", "ga"}
        bad = set(self.kinds) - allowed
        if bad:
            raise ValueError(f"unknown node kinds: {sorted(bad)}")
        if self.kinds[-1] == "ga":
            raise ValueError("the final node cannot be a gravity-assist node")
        for k in range(self.n_segments):
            dt = self.epochs[k + 1] - self.epochs[k]
            if self.kinds[k] == "ga":
                if dt != 0.0:
                    raise ValueError(f"GA segment {k} must have exactly zero duration, got {dt}")
            elif dt <= 0.0:
                raise ValueError(f"segment {k} must have positive duration, got {dt}")

    @property
    def n_nodes(self) -> int:
        return len(self.epochs)

    @property
    def n_segments(self) -> int:
        return len(self.epochs) - 1

    @property
    def dts(self) -> np.ndarray:
        return np.diff(np.asarray(self.epochs))

    def is_ga(self, k: int) -> bool:
        return self.kinds[k] == "ga"

    @property
    def thrust_segments(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n_segments) if self.kinds[k] == "thrust")

    @property
    def ga_segments(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n_segments) if self.kinds[k] == "ga")


@dataclass(frozen=True)
class LinearSegment:
    """Discrete-time linearization of one segment about a reference point.

    x_{k+1} ~ A x_k + B u_k + c + G_exe w_exe + G_proc w, with w_exe (3,) and
    w (n_w,) independent standard normal vectors. The affine map reproduces
    the nonlinear flow of the reference exactly:
    A @ x_ref + B @ u_ref + c == flow(x_ref, u_ref).
    """

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    G_exe: np.ndarray
    G_proc: np.ndarray


def _solve_kepler(M: float, e: float) -> float:
    """Solve E - e sin E = M for elliptic orbits by Newton iteration."""
    M = float(np.mod(M + np.pi, 2.0 * np.pi) - np.pi)
    E = M if e < 0.8 else np.pi * np.sign(M) if M != 0.0 else 0.0
    if E == 0.0 and M == 0.0:
        return 0.0
    for _ in range(_KEPLER_MAX_ITER):
        f = E - e * np.sin(E) - M
        E -= f / (1.0 - e * np.cos(E))
        if abs(f) < _KEPLER_TOL:
            return float(E)
    raise NumericalError(f"Kepler iteration did not converge (M={M}, e={e})")


def planet_state(body: BodyEphemeris, t: float) -> np.ndarray:
    """Cartesian state of a body at normalized time t from its elements.

    Args:
        body: Keplerian elements, normalized units.
        t: normalized epoch.

    Returns:
        [r; v], shape (6,), normalized units.
    """
    M = body.mean_anomaly + body.mean_motion * (t - body.epoch)
    E = _solve_kepler(M, body.e)
    cE, sE = np.cos(E), np.sin(E)
    b_fac = np.sqrt(1.0 - body.e**2)
    r_pf = body.a * np.array([cE - body.e, b_fac * sE, 0.0])
    rn = body.a * (1.0 - body.e * cE)
    v_pf = np.sqrt(body.mu * body.a) / rn * np.array([-sE, b_fac * cE, 0.0])

    co, so = np.cos(body.raan), np.sin(body.raan)
    ci, si = np.cos(body.inc), np.sin(body.inc)
    cw, sw = np.cos(body.argp), np.sin(body.argp)
    rot = np.array(
        [
            [co * cw - so * sw * ci, -co * sw - so * cw * ci, so * si],
            [so * cw + co * sw * ci, -so * sw + co * cw * ci, -co * si],
            [sw * si, cw * si, ci],
        ]
    )
    return np.concatenate([rot @ r_pf, rot @ v_pf])


def _stumpff_c(z: float) -> float:
    """Stumpff C(z) = (1 - cos sqrt(z)) / z, extended by series through z = 0."""
    if z > 1e-7:
        return (1.0 - np.cos(np.sqrt(z))) / z
    if z < -1e-7:
        return (np.cosh(np.sqrt(-z)) - 1.0) / (-z)
    return 0.5 - z / 24.0 + z * z / 720.0


def _stumpff_s(z: float) -> float:
    """Stumpff S(z) = (sqrt(z) - sin sqrt(z)) / z^{3/2}, series through z = 0."""
    if z > 1e-7:
        sz = np.sqrt(z)
        return (sz - np.sin(sz)) / sz**3
    if z < -1e-7:
        sz = np.sqrt(-z)
        return (np.sinh(sz) - sz) / sz**3
    return 1.0 / 6.0 - z / 120.0 + z * z / 5040.0


def lambert(
    r1: np.ndarray,
    r2: np.ndarray,
    tof: float,
    mu: float = 1.0,
    prograde: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-revolution two-point boundary value problem of Kepler motion.

    Finds the conic connecting position ``r1`` to ``r2`` in flight time
    ``tof`` via the universal-variable formulation: the transfer time is a
    monotone function of the universal parameter z, solved by bracketed
    root finding between the hyperbolic floor and the single-revolution
    ellipse limit. The transfer plane is taken from r1 x r2; ``prograde``
    picks the branch whose angular momentum has a nonnegative z component.

    Args:
        r1, r2: boundary positions, shape (3,), normalized units.
        tof: flight time, > 0.
        mu: central gravitational parameter.
        prograde: sweep direction selector.

    Returns:
        (v1, v2): velocities at departure and arrival, shape (3,) each.

    Raises:
        NumericalError: collinear geometry (transfer angle 0 or pi, where
            the plane is undefined) or no single-revolution solution.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    if tof <= 0.0 or mu <= 0.0:
        raise ValueError("lambert needs tof > 0 and mu > 0")
    r1n = float(np.linalg.norm(r1))
    r2n = float(np.linalg.norm(r2))
    if r1n < SINGULARITY_RADIUS or r2n < SINGULARITY_RADIUS:
        raise NumericalError("lambert endpoints inside the singularity radius")

    cross = np.cross(r1, r2)
    cos_dt = float(np.dot(r1, r2) / (r1n * r2n))
    cos_dt = min(1.0, max(-1.0, cos_dt))
    sin_mag = float(np.linalg.norm(cross) / (r1n * r2n))
    if prograde == (cross[2] >= 0.0):
        sin_dt = sin_mag
    else:
        sin_dt = -sin_mag
    if abs(sin_dt) < 1e-12 or 1.0 - cos_dt < 1e-12:
        raise NumericalError("lambert geometry is collinear; transfer plane undefined")
    A = sin_dt * np.sqrt(r1n * r2n / (1.0 - cos_dt))

    def y_of(z: float) -> float:
        return r1n + r2n + A * (z * _stumpff_s(z) - 1.0) / np.sqrt(_stumpff_c(z))

    def tof_of(z: float) -> float:
        y = y_of(z)
        if y < 0.0:
            return -np.inf
        chi = np.sqrt(y / _stumpff_c(z))
        return float((chi**3 * _stumpff_s(z) + A * np.sqrt(y)) / np.sqrt(mu))

    # stop just short of z = 4 pi^2 where C(z) -> 0 (full-revolution limit);
    # the flight time there is already astronomically large
    z_hi = 4.0 * np.pi**2 * (1.0 - 1e-4)
    z_lo = -40.0 * np.pi**2
    if y_of(z_lo) < 0.0:
        # short-way geometry: walk the lower bracket up to where y turns
        # positive (y is increasing in z)
        lo, hi = z_lo, z_hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if y_of(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        z_lo = hi
    if not tof_of(z_lo) <= tof <= tof_of(z_hi):
        raise NumericalError(
            f"no single-revolution transfer of duration {tof} for this geometry"
        )
    # imported here so that importing this module leaves scipy.optimize unloaded
    from scipy.optimize import brentq

    z_star = brentq(lambda z: tof_of(z) - tof, z_lo, z_hi, xtol=1e-13, rtol=1e-15)

    y = y_of(float(z_star))
    f = 1.0 - y / r1n
    g = A * np.sqrt(y / mu)
    gdot = 1.0 - y / r2n
    if g == 0.0 or not np.isfinite(g):
        raise NumericalError(
            f"transfer of duration {tof} is degenerate for this geometry"
        )
    v1 = (r2 - f * r1) / g
    v2 = (gdot * r2 - r1) / g
    if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))):
        raise NumericalError(
            f"transfer of duration {tof} is degenerate for this geometry"
        )
    return v1, v2


#: Relative and absolute tolerances of every trajectory integration.
RTOL = 1e-12
ATOL = 1e-12

# DOP853 tableau and solve_ivp's step-size control (Hairer, Norsett & Wanner,
# Solving Ordinary Differential Equations I, sec. II.4 and II.10). The weights
# are those of Hairer's dop853.f as scipy ships them in
# scipy/integrate/_ivp/dop853_coefficients.py, written out as the doubles scipy
# computes (E3 included, which scipy forms as B minus the third-order weights),
# so that importing this module does not import scipy.integrate; the tests
# check every entry against scipy's. Row s of _A_ROWS holds the s weights of
# stage s on stages 0..s-1.
_N_STAGES = 12
_A_ROWS = [np.array(row) for row in (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)]
_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, 0.3111643669578199,
               -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
_E53 = np.stack([_E5, _E3])
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0


def _rms(v: np.ndarray) -> np.ndarray:
    """Root-mean-square of each row of v (n_rows, n)."""
    return np.sqrt(np.einsum("rn,rn->r", v, v)) / np.sqrt(v.shape[1])


def _stage_sum(coef: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_s coef[s] K[s], accumulated stage by stage for every entry."""
    return np.einsum("s,srn->rn", coef, K[: coef.size])


def _initial_step(fun, rows, y0, f0, span) -> np.ndarray:
    """solve_ivp's empirical first step of every row."""
    scale = ATOL + np.abs(y0) * RTOL
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, span)
    f1 = fun(rows, y0 + h0[:, None] * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** (-_ERROR_EXPONENT),
    )
    return np.minimum(np.minimum(100.0 * h0, h1), span)


def dop853(fun, y0: np.ndarray, t0, t1) -> tuple[np.ndarray, dict[int, str]]:
    """Integrate y' = fun(rows, y) forward for a stack of rows, each with its own step.

    Every row runs DOP853 at tolerances RTOL and ATOL with solve_ivp's rules:
    its first-step choice, its error norm, and its accept, reject and
    step-factor logic, all applied to each row separately. Rows step in
    lockstep but never share a step size. Stage sums and norms reduce over
    one row's own entries only, so a row's result is the same bits whatever
    other rows share the batch.

    Args:
        fun: right-hand side, called as fun(rows, y) with ``rows`` an index
            array (or a full slice) selecting the batch rows it is given and
            y their states. A row whose derivative is undefined (inside the
            singularity radius, say) comes back non-finite.
        y0: initial states, shape (n_rows, n).
        t0, t1: span of each row, scalars or (n_rows,), with t1 >= t0;
            t1 == t0 returns the row unchanged.

    Returns:
        (y1, failures): the final states (n_rows, n), NaN on failed rows,
        and a message for every row index that failed.

    Raises:
        ValueError: a row has t1 < t0.
    """
    y = np.array(y0, dtype=float)
    n_rows, n = y.shape
    t0 = np.broadcast_to(np.asarray(t0, dtype=float), (n_rows,))
    t1 = np.broadcast_to(np.asarray(t1, dtype=float), (n_rows,))
    if np.any(t1 < t0):
        raise ValueError("dop853 integrates forward only: every row needs t1 >= t0")
    failures: dict[int, str] = {}
    rows = np.flatnonzero(t1 != t0)
    if rows.size == 0:
        return y, failures
    # while every row is live, fun reads its row parameters through a view
    pick = slice(None) if rows.size == n_rows else rows

    t, t_end = t0[rows], t1[rows]
    yr = y[rows]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = fun(pick, yr)
        h_abs = _initial_step(fun, pick, yr, f, t_end - t)
        rejected = np.zeros(rows.size, dtype=bool)
        while rows.size:
            min_step = 10.0 * (np.nextafter(t, np.inf) - t)
            stuck = rejected & (h_abs < min_step)
            h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
            t_new = np.minimum(t + h_abs, t_end)
            h_abs = t_new - t
            h = h_abs[:, None]

            K = np.empty((_N_STAGES + 1,) + yr.shape)
            K[0] = f
            for s in range(1, _N_STAGES):
                K[s] = fun(pick, yr + _stage_sum(_A_ROWS[s], K) * h)
            y_new = yr + h * _stage_sum(_B, K)
            f_new = K[-1] = fun(pick, y_new)

            scale = ATOL + np.maximum(np.abs(yr), np.abs(y_new)) * RTOL
            err = np.einsum("es,srn->ern", _E53, K) / scale
            e5, e3 = np.einsum("ern,ern->er", err, err)
            denom = e5 + 0.01 * e3
            error_norm = np.where(denom == 0.0, 0.0, h_abs * e5 / np.sqrt(denom * n))
            accepted = error_norm < 1.0
            factor = _SAFETY * error_norm**_ERROR_EXPONENT
            grow = np.minimum(np.where(rejected, 1.0, _MAX_FACTOR), factor)
            h_abs = h_abs * np.where(accepted, grow, np.maximum(_MIN_FACTOR, factor))

            broken = ~np.isfinite(error_norm + np.add.reduce(y_new, axis=1))
            failed = stuck | broken
            accepted &= ~failed
            done = accepted & (t_new == t_end)
            if accepted.all():
                t, yr, f = t_new, y_new, f_new
            else:
                t = np.where(accepted, t_new, t)
                yr = np.where(accepted[:, None], y_new, yr)
                f = np.where(accepted[:, None], f_new, f)
            rejected = ~accepted

            leaving = done | failed
            if leaving.any():
                y[rows[done]] = y_new[done]
                y[rows[failed]] = np.nan
                for i in rows[stuck]:
                    failures[int(i)] = "step size fell below the spacing of floating-point numbers"
                for i in rows[broken & ~stuck]:
                    failures[int(i)] = (
                        "state or derivative became non-finite (singular radius or overflow)"
                    )
                keep = ~leaving
                rows, t, t_end, yr, f = rows[keep], t[keep], t_end[keep], yr[keep], f[keep]
                h_abs, rejected = h_abs[keep], rejected[keep]
                pick = rows
    return y, failures


def _gravity(r: np.ndarray, mu: float, gradient: bool = False):
    """Point-mass factors k3 = mu/|r|^3 and k5 = 3 mu/|r|^5 of each row.

    The acceleration is -k3 r and its gradient k5 r r' - k3 I; k5 is None
    unless ``gradient``. Rows inside the singularity radius get NaN. Called
    with mu != 0 inside :func:`dop853`, which silences the floating-point
    warnings.
    """
    rn2 = np.einsum("ri,ri->r", r, r)
    k3 = mu / (rn2 * np.sqrt(rn2))
    k3[rn2 < SINGULARITY_RADIUS**2] = np.nan
    k5 = 3.0 * k3 / rn2 if gradient else None
    return k3, k5


def propagate_rows(
    x0: np.ndarray, u, t0, t1, mu=1.0
) -> tuple[np.ndarray, dict[int, str]]:
    """Propagate a stack of states through the controlled two-body flow.

    Args:
        x0: initial states, shape (n_rows, 6).
        u: zero-order-hold control of each row, (n_rows, 3) or (3,).
        t0, t1: span of each row, scalars or (n_rows,), with t1 >= t0.
        mu: gravitational parameter shared by every row, one number.

    Returns:
        (x1, failures) as from :func:`dop853`.
    """
    x0 = np.asarray(x0, dtype=float)
    u = np.broadcast_to(np.asarray(u, dtype=float), (x0.shape[0], 3))
    mu = float(mu)

    def rhs(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        out[:, :3] = x[:, 3:]
        if mu == 0.0:
            out[:, 3:] = u[rows]
        else:
            k3, _ = _gravity(x[:, :3], mu)
            out[:, 3:] = u[rows] - k3[:, None] * x[:, :3]
        return out

    return dop853(rhs, x0, t0, t1)


def propagate(
    x0: np.ndarray, u: np.ndarray, t0: float, t1: float, mu: float = 1.0
) -> np.ndarray:
    """Propagate the controlled two-body flow with zero-order-hold control.

    One row of :func:`propagate_rows`, over t1 >= t0.

    Returns:
        State at t1, shape (6,).
    """
    x1, failures = propagate_rows(np.asarray(x0, dtype=float)[None], u, t0, t1, mu)
    if failures:
        raise NumericalError(f"propagation failed over [{t0}, {t1}]: {failures[0]}")
    return x1[0]


#: Control influence matrix lifting an acceleration into the state rate.
F_THRUST = np.vstack([np.zeros((3, 3)), np.eye(3)])


def linearize_rows(
    x_ref: np.ndarray,
    u_ref,
    t0,
    t1,
    mu=1.0,
    proc_noise_sqrt: np.ndarray | None = None,
):
    """Variational flow of a stack of reference rows.

    Integrates each reference state together with its state transition
    matrix A = Phi(t1, t0), its control convolution B = int Phi(t1, s) F ds
    and, when process noise is present, the Lyapunov companion
    Q = int Phi(t1, s) G G' Phi(t1, s)' ds. With J = [[0, I], [Gg, 0]] and
    Gg the gravity gradient, the system is Phi' = J Phi, B' = J B + F and
    Q' = J Q + (J Q)' + G G', which keeps Q exactly symmetric.

    Args:
        x_ref: reference states, shape (n_rows, 6).
        u_ref: reference control of each row, (n_rows, 3) or (3,).
        t0, t1: span of each row, scalars or (n_rows,), with t1 >= t0.
        mu: gravitational parameter shared by every row, one number.
        proc_noise_sqrt: continuous process-noise square root (6, n_w)
            shared by every row, or None.

    Returns:
        (x1, A, B, Q, failures): end states (n_rows, 6), A (n_rows, 6, 6),
        B (n_rows, 6, 3), Q (n_rows, 6, 6) or None, and the failure
        messages of :func:`dop853`.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    n_rows = x_ref.shape[0]
    u = np.broadcast_to(np.asarray(u_ref, dtype=float), (n_rows, 3))
    mu = float(mu)
    GGt = None
    width = 9
    if proc_noise_sqrt is not None:
        Gc = np.asarray(proc_noise_sqrt, dtype=float)
        GGt = Gc @ Gc.T
        width = 15
    eye3 = np.eye(3)

    def rhs(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
        m = y.shape[0]
        r = y[:, :3]
        M = y[:, 6:].reshape(m, 6, width)
        out = np.empty_like(y)
        out[:, :3] = y[:, 3:6]
        dM = out[:, 6:].reshape(m, 6, width)
        dM[:, :3] = M[:, 3:]
        if mu == 0.0:
            out[:, 3:6] = u[rows]
            dM[:, 3:] = 0.0
        else:
            k3, k5 = _gravity(r, mu, gradient=True)
            out[:, 3:6] = u[rows] - k3[:, None] * r
            rM = np.einsum("ri,rij->rj", r, M[:, :3])
            dM[:, 3:] = (k5[:, None] * r)[:, :, None] * rM[:, None, :] - k3[:, None, None] * M[:, :3]
        dM[:, 3:, 6:9] += eye3
        if GGt is not None:
            JQ = dM[:, :, 9:]
            dM[:, :, 9:] = JQ + JQ.transpose(0, 2, 1) + GGt
        return out

    M0 = np.zeros((n_rows, 6, width))
    M0[:, :, :6] = np.eye(6)
    y1, failures = dop853(rhs, np.concatenate([x_ref, M0.reshape(n_rows, -1)], axis=1), t0, t1)
    M1 = y1[:, 6:].reshape(n_rows, 6, width)
    Q = M1[:, :, 9:].copy() if GGt is not None else None
    return y1[:, :6].copy(), M1[:, :, :6].copy(), M1[:, :, 6:9].copy(), Q, failures


def linearize_segment(
    index: int,
    x_ref: np.ndarray,
    u_ref: np.ndarray,
    t0: float,
    t1: float,
    mu: float = 1.0,
    exe_error_sqrt: np.ndarray | None = None,
    proc_noise_sqrt: np.ndarray | None = None,
) -> LinearSegment:
    """Linearize one thrust/coast segment about a reference point.

    One row of :func:`linearize_rows`; the symmetric factor of Q becomes the
    discrete process-noise map.

    Args:
        index: segment index within the grid, named in errors.
        x_ref: reference state at t0, shape (6,).
        u_ref: reference control over the segment, shape (3,).
        t0, t1: segment bounds, t1 > t0.
        mu: central gravitational parameter.
        exe_error_sqrt: execution-error square root in acceleration space,
            shape (3, 3) (typically the Gates matrix at u_ref), or None.
        proc_noise_sqrt: continuous process-noise square root, shape (6, n_w)
            (acceleration rows only for the white-acceleration model), or None.

    Returns:
        LinearSegment with A, B, c, and discrete noise maps. The affine part
        satisfies A @ x_ref + B @ u_ref + c == propagate(x_ref, u_ref, t0, t1)
        to integration tolerance.
    """
    if t1 <= t0:
        raise ValueError(f"segment {index}: need t1 > t0, got [{t0}, {t1}]")
    x_ref = np.asarray(x_ref, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    x1, A, B, Q, failures = linearize_rows(
        x_ref[None], u_ref, t0, t1, mu, proc_noise_sqrt
    )
    if failures:
        raise NumericalError(
            f"variational integration failed on segment {index}: {failures[0]}"
        )
    A, B = A[0], B[0]
    c = x1[0] - A @ x_ref - B @ u_ref

    if exe_error_sqrt is not None:
        G_exe = B @ np.asarray(exe_error_sqrt, dtype=float)
    else:
        G_exe = np.zeros((6, 3))
    if Q is not None:
        G_proc = psd_sqrt(Q[0])
    else:
        G_proc = np.zeros((6, 0))

    return LinearSegment(A=A, B=B, c=c, G_exe=G_exe, G_proc=G_proc)


#: Relative regularization of :func:`psd_sqrt`, a fraction of the mean
#: eigenvalue added to the diagonal before factoring.
PSD_REL_REG = 1e-14


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor with trace-scaled regularization.

    Adds ``PSD_REL_REG * trace(M) / n * I`` before factoring so that nearly
    singular positive-semidefinite matrices (zero-noise or perfectly observed
    directions) still factor; a zero matrix returns zero.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    tr = float(np.trace(M))
    if tr <= 0.0:
        if np.allclose(M, 0.0):
            return np.zeros_like(M)
        raise NumericalError("matrix with non-positive trace is not PSD")
    shift = PSD_REL_REG * tr / n
    for bump in (1.0, 1e2, 1e4):
        try:
            return np.linalg.cholesky(M + bump * shift * np.eye(n))
        except np.linalg.LinAlgError:
            continue
    raise NumericalError("matrix is not positive semidefinite within regularization budget")


def require_finite(name: str, value) -> None:
    """Raise ValueError unless every entry of ``value`` is finite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")


def require_positive_semidefinite(name: str, mat: np.ndarray) -> None:
    """Raise ValueError unless ``mat`` is finite and has a Cholesky factor once
    shifted by 1e-12 of its largest entry (of 1 when it is zero)."""
    try:
        if np.all(np.isfinite(mat)):
            np.linalg.cholesky(mat + 1e-12 * (np.abs(mat).max() or 1.0) * np.eye(len(mat)))
            return
    except np.linalg.LinAlgError:
        pass
    raise ValueError(f"{name} must be finite and positive semidefinite")


def require_positive_definite(name: str, mat: np.ndarray) -> None:
    """Raise ValueError unless ``mat`` is finite and has a Cholesky factor."""
    try:
        if np.all(np.isfinite(mat)):
            np.linalg.cholesky(mat)
            return
    except np.linalg.LinAlgError:
        pass
    raise ValueError(f"{name} must be finite and positive definite")

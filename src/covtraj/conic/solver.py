"""Primal-dual interior-point solver on the homogeneous self-dual embedding.

Handles programs whose cones are zero (equalities), nonneg, and second-order
cones; rotated and power cones are reduced exactly beforehand (see
``lowering``). The algorithm is the standard Nesterov-Todd scaled
predictor-corrector with one linear-solve path per iteration:

1. one Cholesky factorization of the regularized normal matrix
   M = A_in' W^-2 A_in + reg I;
2. a direct solve of the equality rows through the Schur complement
   E = A_eq M^-1 A_eq' (a program without equality rows is the empty case);
3. residual-correction (polish) passes over the full Newton system, the only
   correction loop, which remove the regularization bias and the
   factorization error of steps 1-2.

The embedding's tau/kappa pair classifies the outcome (optimal / primal
infeasible / dual infeasible); variables that appear in no inequality row need
no special treatment, since the regularization keeps M definite and the
certificates report an unbounded direction as dual infeasible.

Per-cone Gram matrices restricted to each cone's column support are
precomputed once per solve; each iteration then assembles M from scalar cone
weights plus rank-two updates, so the per-iteration cost is dominated by one
dense Cholesky factorization. Everything is deterministic: no randomness, no
iteration-order ambiguity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ..errors import NumericalError
from .lowering import lower_program
from .program import ConicProgram

logger = logging.getLogger(__name__)

#: Fraction of the distance to the cone boundary taken by combined steps.
STEP_FRACTION = 0.99
#: Static diagonal regularization relative to the normal-matrix scale.
STATIC_REG = 1e-12
#: Gram matrices larger than this (entries) are recomputed per iteration.
GRAM_ENTRY_LIMIT = 40_000_000


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one conic solve.

    status is one of ``optimal``, ``optimal_inaccurate``,
    ``primal_infeasible``, ``dual_infeasible``, ``max_iterations``,
    ``numerical_error``. x holds the original-variable primal solution (None
    unless solved or inaccurate); s and z are the lowered-program slack and
    dual in the lowered row order.
    """

    status: str
    x: np.ndarray | None
    obj: float | None
    iterations: int
    pres: float
    dres: float
    gap: float
    s: np.ndarray | None = field(default=None, repr=False)
    z: np.ndarray | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "optimal_inaccurate")


class _SocScaling:
    """NT scaling data for one second-order cone."""

    __slots__ = ("eta", "wbar", "lam")

    def __init__(self, s: np.ndarray, z: np.ndarray):
        rho_s2 = s[0] ** 2 - s[1:] @ s[1:]
        rho_z2 = z[0] ** 2 - z[1:] @ z[1:]
        if rho_s2 <= 0.0 or rho_z2 <= 0.0 or s[0] <= 0.0 or z[0] <= 0.0:
            raise NumericalError("iterate left the interior of a second-order cone")
        rho_s = np.sqrt(rho_s2)
        rho_z = np.sqrt(rho_z2)
        sbar = s / rho_s
        zbar = z / rho_z
        gamma = np.sqrt((1.0 + sbar @ zbar) / 2.0)
        wbar = np.empty_like(sbar)
        wbar[0] = (sbar[0] + zbar[0]) / (2.0 * gamma)
        wbar[1:] = (sbar[1:] - zbar[1:]) / (2.0 * gamma)
        self.eta = float(np.sqrt(rho_s / rho_z))
        self.wbar = wbar
        self.lam = self.mul_w(z)

    def mul_w(self, u: np.ndarray) -> np.ndarray:
        """W u with W = eta * [[a, b'], [b, I + b b'/(1+a)]], (a, b) = wbar."""
        a, bvec = self.wbar[0], self.wbar[1:]
        bu = bvec @ u[1:]
        out = np.empty_like(u)
        out[0] = a * u[0] + bu
        out[1:] = u[1:] + (u[0] + bu / (1.0 + a)) * bvec
        return self.eta * out

    def mul_winv(self, u: np.ndarray) -> np.ndarray:
        """W^-1 u = J (W/eta) J u / eta."""
        a, bvec = self.wbar[0], self.wbar[1:]
        bu = bvec @ u[1:]
        out = np.empty_like(u)
        out[0] = a * u[0] - bu
        out[1:] = u[1:] + (-u[0] + bu / (1.0 + a)) * bvec
        return out / self.eta

    def mul_winv2(self, u: np.ndarray) -> np.ndarray:
        """W^-2 u = eta^-2 (2 wtil wtil' - J) u with wtil = J wbar."""
        a, bvec = self.wbar[0], self.wbar[1:]
        wtu = a * u[0] - bvec @ u[1:]
        out = np.empty_like(u)
        out[0] = 2.0 * a * wtu - u[0]
        out[1:] = -2.0 * wtu * bvec + u[1:]
        return out / self.eta**2


def _jmul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Jordan product on a second-order cone: (u'v, u0 v1 + v0 u1)."""
    out = np.empty_like(u)
    out[0] = u @ v
    out[1:] = u[0] * v[1:] + v[0] * u[1:]
    return out


def _jsolve(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve lam o u = v for u (arrow-matrix inverse)."""
    det = lam[0] ** 2 - lam[1:] @ lam[1:]
    if det <= 0.0 or lam[0] <= 0.0:
        raise NumericalError("scaling point left the cone interior")
    u0 = (lam[0] * v[0] - lam[1:] @ v[1:]) / det
    out = np.empty_like(v)
    out[0] = u0
    out[1:] = (v[1:] - u0 * lam[1:]) / lam[0]
    return out


def _soc_max_step(u: np.ndarray, d: np.ndarray) -> float:
    """Largest alpha with u + alpha d remaining in the second-order cone."""
    c = u[0] ** 2 - u[1:] @ u[1:]
    a = d[0] ** 2 - d[1:] @ d[1:]
    b = 2.0 * (u[0] * d[0] - u[1:] @ d[1:])
    best = np.inf
    if c <= 0.0:
        return 0.0
    disc = b * b - 4.0 * a * c
    if a == 0.0:
        if b < 0.0:
            best = -c / b
    elif disc >= 0.0:
        sq = np.sqrt(disc)
        roots = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
        pos = [r for r in roots if r > 0.0]
        if a < 0.0:
            # f opens downward: the larger root is the exit point
            best = max(pos) if len(pos) == 2 else (pos[0] if pos else 0.0)
        elif pos and min(pos) < np.inf:
            # f opens upward: feasible until the smaller positive root,
            # unless f stays positive before it (then until that root anyway)
            best = min(pos)
    if d[0] < 0.0:
        best = min(best, -u[0] / d[0])
    return float(best)


def _nonneg_max_step(u: np.ndarray, d: np.ndarray) -> float:
    neg = d < 0.0
    if not np.any(neg):
        return np.inf
    return float(np.min(-u[neg] / d[neg]))


class _Workspace:
    """Row split, per-cone indexing, and Gram precomputation for one solve."""

    def __init__(self, prog: ConicProgram):
        A = prog.A.tocsr()
        eq_rows: list[int] = []
        nn_rows: list[int] = []
        soc_groups: list[np.ndarray] = []
        for cone, sl in prog.cone_slices():
            rows = np.arange(sl.start, sl.stop)
            if cone.kind == "zero":
                eq_rows.extend(rows)
            elif cone.kind == "nonneg":
                nn_rows.extend(rows)
            elif cone.kind == "soc":
                soc_groups.append(rows)
            else:  # pragma: no cover - lowering guarantees absence
                raise ValueError(f"solver got unlowered cone {cone.kind!r}")

        self.n = prog.n_vars
        self.eq_rows = np.asarray(eq_rows, dtype=int)
        in_rows = nn_rows + [r for g in soc_groups for r in g]
        self.in_rows = np.asarray(in_rows, dtype=int)
        self.m_in = len(in_rows)
        self.n_eq = len(eq_rows)
        self.n_nn = len(nn_rows)
        self.nn = slice(0, self.n_nn)
        self.socs: list[slice] = []
        at = self.n_nn
        for g in soc_groups:
            self.socs.append(slice(at, at + len(g)))
            at += len(g)

        self.A_eq = A[self.eq_rows].toarray()
        self.b_eq = prog.b[self.eq_rows]
        self.A_in = A[self.in_rows].tocsr()
        self.b_in = prog.b[self.in_rows]
        self.c = prog.c.copy()

        self.A_nn = self.A_in[self.nn]
        self.soc_data: list[dict] = []
        for slc in self.socs:
            Ac = self.A_in[slc]
            sup = np.unique(Ac.indices) if Ac.nnz else np.zeros(0, dtype=int)
            dense = Ac[:, sup].toarray() if sup.size else np.zeros((slc.stop - slc.start, 0))
            if sup.size**2 <= GRAM_ENTRY_LIMIT:
                gram = dense.T @ dense
            else:
                gram = None
                logger.warning(
                    "cone with %d rows on %d columns exceeds the Gram cache "
                    "limit; per-iteration recompute will be slow",
                    slc.stop - slc.start, sup.size,
                )
            self.soc_data.append({"sup": sup, "dense": dense, "gram": gram})

        self.degree = self.n_nn + len(self.socs)


def _equilibrate(prog: ConicProgram, passes: int = 3):
    """Ruiz-style scaling with cone-uniform row factors.

    Returns (A csr, b, c, row_scale e, col_scale d) with A' = E A D,
    b' = E b, c' = D c. Rows belonging to one soc cone share a scale factor
    so the cone geometry is preserved.
    """
    A = prog.A.tocsr().astype(float)
    m, n = A.shape
    e = np.ones(m)
    d = np.ones(n)
    groups: list[np.ndarray] = []
    for cone, sl in prog.cone_slices():
        rows = np.arange(sl.start, sl.stop)
        if cone.kind in ("zero", "nonneg"):
            groups.extend(rows[:, None])
        else:
            groups.append(rows)

    work = A.copy()
    for _ in range(passes):
        # column pass
        cmax = np.zeros(n)
        coo = work.tocoo()
        np.maximum.at(cmax, coo.col, np.abs(coo.data))
        cs = 1.0 / np.sqrt(np.maximum(cmax, 1e-12))
        cs[cmax == 0.0] = 1.0
        d *= cs
        work = work @ sp.diags(cs)
        # row pass (uniform inside each cone)
        rmax = np.zeros(m)
        coo = work.tocoo()
        np.maximum.at(rmax, coo.row, np.abs(coo.data))
        rs = np.ones(m)
        for g in groups:
            top = float(np.max(rmax[g])) if g.size else 0.0
            if top > 0.0:
                rs[g] = 1.0 / np.sqrt(top)
        e *= rs
        work = sp.diags(rs) @ work
    b = e * prog.b
    c = d * prog.c
    return work.tocsr(), b, c, e, d


def solve(
    prog: ConicProgram,
    tol: float = 1e-8,
    max_iters: int = 100,
) -> SolveResult:
    """Solve a conic program to the requested relative tolerance.

    The program is lowered to zero/nonneg/soc cones and equilibrated; each
    interior-point iteration then factors the normal matrix once, solves the
    equality rows through their Schur complement, and polishes the combined
    direction against the full Newton system. One line per iteration is
    logged at DEBUG level.

    Args:
        prog: program with zero/nonneg/soc/rsoc/pow3 cones.
        tol: relative primal/dual/gap tolerance for the ``optimal`` status.
        max_iters: interior-point iteration cap.

    Returns:
        SolveResult; ``x`` is in the original (pre-lowering) variables.
    """
    lowered = lower_program(prog)
    n_orig = lowered.n_orig
    lp = lowered.program

    A_s, b_s, c_s, e_row, d_col = _equilibrate(lp)
    scaled = ConicProgram(c=c_s, A=A_s, b=b_s, cones=lp.cones, name=lp.name)
    ws = _Workspace(scaled)

    n, m_in, n_eq = ws.n, ws.m_in, ws.n_eq
    x = np.zeros(n)
    y = np.zeros(n_eq)
    s = np.zeros(m_in)
    z = np.zeros(m_in)
    s[ws.nn] = 1.0
    z[ws.nn] = 1.0
    for slc in ws.socs:
        s[slc.start] = 1.0
        z[slc.start] = 1.0
    tau, kappa = 1.0, 1.0

    norm_b = 1.0 + np.sqrt(ws.b_in @ ws.b_in + ws.b_eq @ ws.b_eq)
    norm_c = 1.0 + float(np.linalg.norm(ws.c))
    inf_tol = max(tol, 1e-10)

    # best feasibility-merit iterate seen, restored if later steps degrade
    best_merit = np.inf
    best_snap: dict | None = None
    reg_scale = [0.0]

    def cone_scalings():
        scs = [_SocScaling(s[slc], z[slc]) for slc in ws.socs]
        w_nn = np.sqrt(s[ws.nn] / z[ws.nn])
        lam_nn = np.sqrt(s[ws.nn] * z[ws.nn])
        return scs, w_nn, lam_nn

    def mul_winv2(u, scs, w_nn):
        out = np.empty_like(u)
        out[ws.nn] = u[ws.nn] / w_nn**2
        for sc, slc in zip(scs, ws.socs):
            out[slc] = sc.mul_winv2(u[slc])
        return out

    def mul_w(u, scs, w_nn):
        out = np.empty_like(u)
        out[ws.nn] = u[ws.nn] * w_nn
        for sc, slc in zip(scs, ws.socs):
            out[slc] = sc.mul_w(u[slc])
        return out

    def mul_winv(u, scs, w_nn):
        out = np.empty_like(u)
        out[ws.nn] = u[ws.nn] / w_nn
        for sc, slc in zip(scs, ws.socs):
            out[slc] = sc.mul_winv(u[slc])
        return out

    def assemble_normal(scs, w_nn):
        M = np.zeros((n, n))
        if ws.n_nn:
            Wnn = ws.A_nn.multiply((1.0 / w_nn**2)[:, None]).tocsr()
            G = (ws.A_nn.T @ Wnn).tocoo()
            M[G.row, G.col] += G.data
        for sc, data, slc in zip(scs, ws.soc_data, ws.socs):
            sup = data["sup"]
            if not sup.size:
                continue
            dense = data["dense"]
            wtil = sc.wbar.copy()
            wtil[1:] = -wtil[1:]
            g = dense.T @ wtil
            a0 = dense[0]
            gram = data["gram"]
            if gram is None:
                gram = dense.T @ dense
            blk = gram + 2.0 * (np.outer(g, g) - np.outer(a0, a0))
            M[np.ix_(sup, sup)] += blk / sc.eta**2
        # the scale is frozen at the first iteration: cone weights diverge as
        # the complementarity gap closes and a regularization tracking the
        # growing diagonal would bias the dual residual by reg * |dx|
        if reg_scale[0] == 0.0:
            reg_scale[0] = 1.0 + float(np.abs(np.diag(M)).max(initial=0.0))
        M[np.diag_indices_from(M)] += STATIC_REG * reg_scale[0]
        return M

    def factor(M):
        scale_now = 1.0 + float(np.abs(np.diag(M)).max(initial=0.0))
        for bump in (0.0, 1e4, 1e8):
            try:
                return sla.cho_factor(
                    M + bump * STATIC_REG * scale_now * np.eye(n), lower=True
                )
            except np.linalg.LinAlgError:
                continue
        raise NumericalError("normal matrix factorization failed")

    status = "max_iterations"
    it = 0
    pres = dres = gap_rel = np.inf

    for it in range(1, max_iters + 1):
        # residuals of the embedding
        Axi = ws.A_in @ x
        Axe = ws.A_eq @ x
        Atz = ws.A_in.T @ z + ws.A_eq.T @ y
        rd = Atz + ws.c * tau
        rp_in = s + Axi - ws.b_in * tau
        rp_eq = Axe - ws.b_eq * tau
        rg = kappa + ws.c @ x + ws.b_in @ z + ws.b_eq @ y

        sz_gap = s @ z + tau * kappa
        mu = sz_gap / (ws.degree + 1)

        # convergence metrics at the tau-normalized point
        xs = x / tau
        pres = float(
            np.sqrt(
                np.sum((ws.A_in @ xs + s / tau - ws.b_in) ** 2)
                + np.sum((ws.A_eq @ xs - ws.b_eq) ** 2)
            )
        ) / norm_b
        dres = float(np.linalg.norm(ws.A_in.T @ (z / tau) + ws.A_eq.T @ (y / tau) + ws.c)) / norm_c
        pobj = float(ws.c @ xs)
        dobj = -float(ws.b_in @ z + ws.b_eq @ y) / tau
        gap_rel = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        logger.debug(
            "iter %3d  pres %.2e  dres %.2e  gap %.2e  tau %.2e  kappa %.2e",
            it, pres, dres, gap_rel, tau, kappa,
        )
        merit = max(pres, dres, gap_rel)
        if merit < best_merit:
            best_merit = merit
            best_snap = {
                "x": x.copy(), "y": y.copy(), "s": s.copy(), "z": z.copy(),
                "tau": tau, "kappa": kappa,
                "pres": pres, "dres": dres, "gap": gap_rel,
            }
        elif merit > 1e6 * best_merit:
            # conditioning has taken over; the best iterate is the answer
            status = "numerical_error"
            break

        if pres <= tol and dres <= tol and gap_rel <= tol:
            status = "optimal"
            break

        # infeasibility certificates
        by = -(ws.b_in @ z + ws.b_eq @ y)
        if by > 0.0:
            cert = float(np.linalg.norm(Atz)) / by / norm_c
            if cert <= inf_tol:
                status = "primal_infeasible"
                break
        cx = -float(ws.c @ x)
        if cx > 0.0:
            cert = float(np.sqrt(np.sum((Axi + s) ** 2) + np.sum(Axe**2))) / cx / norm_b
            if cert <= inf_tol:
                status = "dual_infeasible"
                break

        try:
            scs, w_nn, lam_nn = cone_scalings()
            M = assemble_normal(scs, w_nn)
            MF = factor(M)
        except NumericalError:
            status = "numerical_error"
            break

        ME = sla.cho_solve(MF, ws.A_eq.T)
        E = ws.A_eq @ ME
        # scaled with the current diagonal: E inherits the cone-weight
        # growth and an undersized shift lets factorization noise through;
        # the bias this injects is removed by the direction polish passes
        E[np.diag_indices_from(E)] += STATIC_REG * (1.0 + np.abs(np.diag(E)).max(initial=0.0))
        EF = sla.cho_factor(E, lower=True)

        def saddle(f, g):
            """Solve [[M, A_eq'], [A_eq, 0]] (p, q) = (f, g) by the Schur complement."""
            Mf = sla.cho_solve(MF, f)
            q = sla.cho_solve(EF, ws.A_eq @ Mf - g)
            return Mf - ME @ q, q

        # system 1: dtau coefficient
        f1 = ws.A_in.T @ mul_winv2(ws.b_in, scs, w_nn) - ws.c
        dx1, dy1 = saddle(f1, ws.b_eq)
        dz1 = mul_winv2(ws.A_in @ dx1 - ws.b_in, scs, w_nn)
        den = float(ws.c @ dx1 + ws.b_in @ dz1 + ws.b_eq @ dy1) - kappa / tau

        def newton(R_d, R_pin, R_peq, R_g, R_comp, R_tk):
            """Direction for general right-hand sides of the scaled KKT system."""
            beta = np.empty(m_in)
            beta[ws.nn] = R_comp[ws.nn] / lam_nn
            for sc, slc in zip(scs, ws.socs):
                beta[slc] = _jsolve(sc.lam, R_comp[slc])
            wbeta = mul_w(beta, scs, w_nn)

            f2 = R_d + ws.A_in.T @ mul_winv2(R_pin - wbeta, scs, w_nn)
            dx2, dy2 = saddle(f2, R_peq)
            dz2 = mul_winv2(ws.A_in @ dx2 + wbeta - R_pin, scs, w_nn)

            num = (
                R_g
                - R_tk / tau
                - float(ws.c @ dx2 + ws.b_in @ dz2 + ws.b_eq @ dy2)
            )
            dtau = num / den
            dx = dx2 + dtau * dx1
            dy = dy2 + dtau * dy1
            dz = dz2 + dtau * dz1
            ds = R_pin - ws.A_in @ dx + ws.b_in * dtau
            dkappa = (R_tk - kappa * dtau) / tau
            return dx, dy, dz, ds, dtau, dkappa

        def comp_apply(dz, ds):
            """lam o (W dz + W^-1 ds), the linearized complementarity map."""
            out = np.empty(m_in)
            out[ws.nn] = lam_nn * (w_nn * dz[ws.nn] + ds[ws.nn] / w_nn)
            for sc, slc in zip(scs, ws.socs):
                out[slc] = _jmul(sc.lam, sc.mul_w(dz[slc]) + sc.mul_winv(ds[slc]))
            return out

        def newton_residuals(R, dx, dy, dz, ds, dtau, dkappa):
            r1 = R[0] - (ws.A_in.T @ dz + ws.A_eq.T @ dy + ws.c * dtau)
            r2 = R[1] - (ds + ws.A_in @ dx - ws.b_in * dtau)
            r3 = R[2] - (ws.A_eq @ dx - ws.b_eq * dtau)
            r4 = R[3] - (float(ws.c @ dx + ws.b_in @ dz + ws.b_eq @ dy) + dkappa)
            r5 = R[4] - comp_apply(dz, ds)
            r6 = R[5] - (tau * dkappa + kappa * dtau)
            return r1, r2, r3, r4, r5, r6

        def direction(sigma, corr_cone, corr_tk, polish=0):
            rhs = np.empty(m_in)
            rhs[ws.nn] = sigma * mu - lam_nn**2
            for sc, slc in zip(scs, ws.socs):
                lam = sc.lam
                r = -_jmul(lam, lam)
                r[0] += sigma * mu
                rhs[slc] = r
            if corr_cone is not None:
                rhs -= corr_cone
            one_m_sig = 1.0 - sigma
            R = (
                -one_m_sig * rd,
                -one_m_sig * rp_in,
                -one_m_sig * rp_eq,
                -one_m_sig * rg,
                rhs,
                sigma * mu - tau * kappa - corr_tk,
            )
            d = newton(*R)
            scale = 1.0 + max(np.linalg.norm(Rj) for Rj in R[:3]) + abs(R[3])
            res_norm = np.inf
            # residual-correction passes over the full Newton system, the only
            # correction of the direction: the saddle solves carry
            # regularization bias and late-stage factorization noise
            for _ in range(polish):
                rs = newton_residuals(R, *d)
                norms = (
                    np.linalg.norm(rs[0]), np.linalg.norm(rs[1]),
                    np.linalg.norm(rs[2]), abs(rs[3]),
                    np.linalg.norm(rs[4]), abs(rs[5]),
                )
                new_norm = max(norms)
                if new_norm <= 1e-13 * scale or new_norm >= res_norm:
                    break
                res_norm = new_norm
                cd = newton(*rs)
                d = tuple(a + b for a, b in zip(d, cd))
            return d

        def max_step(dz, ds, dtau, dkappa):
            alpha = np.inf
            if ws.n_nn:
                alpha = min(alpha, _nonneg_max_step(s[ws.nn], ds[ws.nn]))
                alpha = min(alpha, _nonneg_max_step(z[ws.nn], dz[ws.nn]))
            for slc in ws.socs:
                alpha = min(alpha, _soc_max_step(s[slc], ds[slc]))
                alpha = min(alpha, _soc_max_step(z[slc], dz[slc]))
            if dtau < 0.0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0.0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        try:
            dxa, dya, dza, dsa, dta, dka = direction(0.0, None, 0.0)
        except NumericalError:
            status = "numerical_error"
            break
        a_aff = min(1.0, max_step(dza, dsa, dta, dka))
        gap_aff = (s + a_aff * dsa) @ (z + a_aff * dza) + (tau + a_aff * dta) * (
            kappa + a_aff * dka
        )
        sigma = float(np.clip((max(gap_aff, 0.0) / sz_gap) ** 3, 1e-8, 1.0 - 1e-8))

        corr = np.empty(m_in)
        wds = mul_winv(dsa, scs, w_nn)
        wdz = mul_w(dza, scs, w_nn)
        corr[ws.nn] = wds[ws.nn] * wdz[ws.nn]
        for slc in ws.socs:
            corr[slc] = _jmul(wds[slc], wdz[slc])
        try:
            dx, dy, dz, ds, dtau, dkappa = direction(sigma, corr, dta * dka, polish=10)
        except NumericalError:
            status = "numerical_error"
            break

        alpha = STEP_FRACTION * max_step(dz, ds, dtau, dkappa)
        alpha = min(1.0, alpha)
        if alpha <= 1e-10:
            status = "numerical_error"
            break
        x += alpha * dx
        y += alpha * dy
        z += alpha * dz
        s += alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa

    else:
        it = max_iters

    if (
        status not in ("optimal", "primal_infeasible", "dual_infeasible")
        and best_snap is not None
        and max(pres, dres, gap_rel) > best_merit
    ):
        x, y = best_snap["x"], best_snap["y"]
        s, z = best_snap["s"], best_snap["z"]
        tau, kappa = best_snap["tau"], best_snap["kappa"]
        pres, dres, gap_rel = best_snap["pres"], best_snap["dres"], best_snap["gap"]

    if status not in ("optimal", "primal_infeasible", "dual_infeasible"):
        if pres <= tol and dres <= tol and gap_rel <= tol:
            status = "optimal"
        elif pres <= 1e2 * tol and dres <= 1e2 * tol and gap_rel <= 1e2 * tol:
            status = "optimal_inaccurate"

    if status in ("optimal", "optimal_inaccurate"):
        # undo equilibration and the homogenizing tau
        x_full = d_col * (x / tau)
        s_full = np.zeros(lp.n_rows)
        z_full = np.zeros(lp.n_rows)
        s_full[ws.in_rows] = s / tau
        z_full[ws.in_rows] = z / tau
        z_full[ws.eq_rows] = y / tau
        s_unscaled = s_full / np.where(e_row != 0.0, e_row, 1.0)
        z_unscaled = z_full * e_row
        x_orig = x_full[:n_orig]
        return SolveResult(
            status=status,
            x=x_orig,
            obj=float(lp.c @ x_full),
            iterations=it,
            pres=pres,
            dres=dres,
            gap=gap_rel,
            s=s_unscaled,
            z=z_unscaled,
        )
    return SolveResult(
        status=status, x=None, obj=None, iterations=it,
        pres=pres, dres=dres, gap=gap_rel,
    )

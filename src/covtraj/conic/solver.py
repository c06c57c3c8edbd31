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

All second-order cones share one flat row region: the workspace records each
cone's head offset, a per-row cone id and the J = diag(1, -1, ..., -1) sign
that marks head and tail rows. The NT scaling (eta, wbar, lam) of every cone
is computed together once per iteration, and W, W^-1, W^-2, the Jordan
product, the arrow solve and the step length act on all cones at once:
per-cone dot products are ``np.add.reduceat`` sums, per-cone scalars are
broadcast back through the cone id. Only the normal-matrix assembly visits
cones one at a time: each cone's Gram matrix on its column support is
precomputed once per solve, and each iteration adds it with a rank-two update
scaled by the cone's weight, so the per-iteration cost is dominated by one
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


class _NtScaling:
    """Nesterov-Todd scaling W of every inequality cone at one iterate.

    Nonneg rows scale by w = sqrt(s / z). Second-order cone k scales by
    W_k = eta_k [[a, b'], [b, I + b b' / (1 + a)]] with (a, b) its rows of
    ``wbar``. ``eta`` holds one entry per cone, ``wbar`` is flat over the SOC
    region and the scaled point ``lam = W z = W^-1 s`` over all inequality
    rows. Every method acts on all cones at once.
    """

    def __init__(self, ws: _Workspace, s: np.ndarray, z: np.ndarray):
        self.ws = ws
        h, cid = ws.heads, ws.cone_id
        ss, zs = s[ws.soc], z[ws.soc]
        s0, z0 = ss[h], zs[h]
        rho_s2 = s0**2 - ws.tail_dot(ss, ss)
        rho_z2 = z0**2 - ws.tail_dot(zs, zs)
        if (
            np.any(rho_s2 <= 0.0) or np.any(rho_z2 <= 0.0)
            or np.any(s0 <= 0.0) or np.any(z0 <= 0.0)
        ):
            raise NumericalError("iterate left the interior of a second-order cone")
        rho_s = np.sqrt(rho_s2)
        rho_z = np.sqrt(rho_z2)
        sbar = ss / rho_s[cid]
        zbar = zs / rho_z[cid]
        gamma = np.sqrt((1.0 + ws.cone_dot(sbar, zbar)) / 2.0)
        self.wbar = (sbar + ws.jsign * zbar) / (2.0 * gamma)[cid]
        self.eta = np.sqrt(rho_s / rho_z)
        self._a = self.wbar[h]
        self._a1 = 1.0 + self._a
        self._eta_rows = self.eta[cid]
        self._eta2_rows = (self.eta**2)[cid]

        self.w_nn = np.sqrt(s[ws.nn] / z[ws.nn])
        self._w2_nn = self.w_nn**2
        self.lam = np.empty_like(s)
        self.lam[ws.nn] = np.sqrt(s[ws.nn] * z[ws.nn])
        lam = self._soc_w(zs)
        self.lam[ws.soc] = lam
        self._lam0 = lam[h]
        self._lam_det = self._lam0**2 - ws.tail_dot(lam, lam)
        if np.any(self._lam_det <= 0.0) or np.any(self._lam0 <= 0.0):
            raise NumericalError("scaling point left the cone interior")

    def _soc_w(self, u: np.ndarray) -> np.ndarray:
        h = self.ws.heads
        u0 = u[h]
        bu = self.ws.tail_dot(self.wbar, u)
        out = u + (u0 + bu / self._a1)[self.ws.cone_id] * self.wbar
        out[h] = self._a * u0 + bu
        return self._eta_rows * out

    def mul_w(self, u: np.ndarray) -> np.ndarray:
        """W u."""
        ws = self.ws
        out = np.empty_like(u)
        out[ws.nn] = u[ws.nn] * self.w_nn
        out[ws.soc] = self._soc_w(u[ws.soc])
        return out

    def mul_winv(self, u: np.ndarray) -> np.ndarray:
        """W^-1 u; on a second-order cone W^-1 = J (W / eta) J / eta."""
        ws = self.ws
        h = ws.heads
        out = np.empty_like(u)
        out[ws.nn] = u[ws.nn] / self.w_nn
        us = u[ws.soc]
        u0 = us[h]
        bu = ws.tail_dot(self.wbar, us)
        o = us + (-u0 + bu / self._a1)[ws.cone_id] * self.wbar
        o[h] = self._a * u0 - bu
        out[ws.soc] = o / self._eta_rows
        return out

    def mul_winv2(self, u: np.ndarray) -> np.ndarray:
        """W^-2 u; on a second-order cone W^-2 = eta^-2 (2 wtil wtil' - J), wtil = J wbar."""
        ws = self.ws
        h = ws.heads
        out = np.empty_like(u)
        out[ws.nn] = u[ws.nn] / self._w2_nn
        us = u[ws.soc]
        u0 = us[h]
        wtu = self._a * u0 - ws.tail_dot(self.wbar, us)
        o = (-2.0 * wtu)[ws.cone_id] * self.wbar + us
        o[h] = 2.0 * self._a * wtu - u0
        out[ws.soc] = o / self._eta2_rows
        return out

    def arrow_solve(self, v: np.ndarray) -> np.ndarray:
        """Solve lam o u = v for u (the arrow-matrix inverse on each cone)."""
        ws = self.ws
        h = ws.heads
        out = np.empty_like(v)
        out[ws.nn] = v[ws.nn] / self.lam[ws.nn]
        lam, vs = self.lam[ws.soc], v[ws.soc]
        u0 = (self._lam0 * vs[h] - ws.tail_dot(lam, vs)) / self._lam_det
        o = (vs - u0[ws.cone_id] * lam) / self._lam0[ws.cone_id]
        o[h] = u0
        out[ws.soc] = o
        return out


def _nonneg_max_step(u: np.ndarray, d: np.ndarray) -> float:
    neg = d < 0.0
    if not np.any(neg):
        return np.inf
    return float(np.min(-u[neg] / d[neg]))


class _Workspace:
    """Row split, flat cone indexing, and Gram precomputation for one solve.

    The inequality rows hold the nonneg rows (slice ``nn``) followed by one
    flat region of every second-order cone's rows (slice ``soc``). Inside
    that region cone k starts at row ``heads[k]``; ``cone_id`` gives each
    row's cone and ``jsign`` is the diagonal of J = diag(1, -1, ..., -1)
    (+1 on a head, -1 on a tail row). Per-cone dot products are
    ``np.add.reduceat`` sums over ``heads`` and per-cone scalars are broadcast
    back to rows through ``cone_id``, so every cone operation is a handful of
    array operations whatever the number of cones.
    """

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
        self.soc = slice(self.n_nn, self.m_in)
        sizes = np.array([len(g) for g in soc_groups], dtype=int)
        self.heads = np.cumsum(sizes) - sizes
        self.cone_id = np.repeat(np.arange(sizes.size), sizes)
        self.jsign = -np.ones(self.m_in - self.n_nn)
        self.jsign[self.heads] = 1.0
        #: identity element of the cone product: 1 on nonneg rows and heads
        self.e = np.zeros(self.m_in)
        self.e[self.nn] = 1.0
        self.e[self.n_nn + self.heads] = 1.0

        self.A_eq = A[self.eq_rows].toarray()
        self.b_eq = prog.b[self.eq_rows]
        self.A_in = A[self.in_rows].tocsr()
        self.b_in = prog.b[self.in_rows]
        self.c = prog.c.copy()

        self.A_nn = self.A_in[self.nn]
        self.soc_data: list[dict] = []
        for head, size in zip(self.heads, sizes):
            rows = slice(head, head + size)
            Ac = self.A_in[self.n_nn + head: self.n_nn + head + size]
            sup = np.unique(Ac.indices) if Ac.nnz else np.zeros(0, dtype=int)
            dense = Ac[:, sup].toarray() if sup.size else np.zeros((size, 0))
            if sup.size**2 <= GRAM_ENTRY_LIMIT:
                gram = dense.T @ dense
            else:
                gram = None
                logger.warning(
                    "cone with %d rows on %d columns exceeds the Gram cache "
                    "limit; per-iteration recompute will be slow",
                    size, sup.size,
                )
            self.soc_data.append({"rows": rows, "sup": sup, "dense": dense, "gram": gram})

        self.degree = self.n_nn + sizes.size

    def tail_dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u[1:] . v[1:] of every cone, for u, v over the SOC region."""
        p = u * v
        p[self.heads] = 0.0
        return np.add.reduceat(p, self.heads)

    def cone_dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u . v of every cone, for u, v over the SOC region."""
        return np.add.reduceat(u * v, self.heads)

    def jmul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jordan product u o v over the inequality rows.

        Elementwise on nonneg rows and (u'v, u0 v1 + v0 u1) on each
        second-order cone.
        """
        h, cid = self.heads, self.cone_id
        out = np.empty_like(u)
        out[self.nn] = u[self.nn] * v[self.nn]
        us, vs = u[self.soc], v[self.soc]
        o = us[h][cid] * vs + vs[h][cid] * us
        o[h] = self.cone_dot(us, vs)
        out[self.soc] = o
        return out

    def soc_steps(self, u: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Largest alpha per cone with u + alpha d in that second-order cone.

        u and d are over the SOC region. With f(alpha) = c + b alpha + a alpha^2
        the cone's Lorentz form of u + alpha d, a cone whose u is not interior
        (c <= 0) gets 0; otherwise the step runs to the root of f where it
        leaves the cone, capped where the head turns negative.
        """
        h = self.heads
        u0, d0 = u[h], d[h]
        c = u0**2 - self.tail_dot(u, u)
        a = d0**2 - self.tail_dot(d, d)
        b = 2.0 * (u0 * d0 - self.tail_dot(u, d))
        best = np.full(h.size, np.inf)
        live = c > 0.0
        lin = live & (a == 0.0) & (b < 0.0)
        best[lin] = -c[lin] / b[lin]
        disc = b * b - 4.0 * a * c
        quad = live & (a != 0.0) & (disc >= 0.0)
        aq, bq = a[quad], b[quad]
        sq = np.sqrt(disc[quad])
        r1 = (-bq - sq) / (2.0 * aq)
        r2 = (-bq + sq) / (2.0 * aq)
        p1, p2 = r1 > 0.0, r2 > 0.0
        # f opens downward: the larger positive root is the exit point (0
        # without one); f opens upward: feasible until the smaller positive root
        exit_down = np.maximum(np.where(p1, r1, 0.0), np.where(p2, r2, 0.0))
        exit_up = np.minimum(np.where(p1, r1, np.inf), np.where(p2, r2, np.inf))
        best[quad] = np.where(aq < 0.0, exit_down, exit_up)
        cap = live & (d0 < 0.0)
        best[cap] = np.minimum(best[cap], -u0[cap] / d0[cap])
        best[~live] = 0.0
        return best

    def max_step(self, u: np.ndarray, d: np.ndarray) -> float:
        """Largest alpha with u + alpha d in every inequality cone."""
        alpha = _nonneg_max_step(u[self.nn], d[self.nn])
        return float(min(alpha, self.soc_steps(u[self.soc], d[self.soc]).min(initial=np.inf)))


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

    n, n_eq = ws.n, ws.n_eq
    x = np.zeros(n)
    y = np.zeros(n_eq)
    s = ws.e.copy()
    z = ws.e.copy()
    tau, kappa = 1.0, 1.0

    norm_b = 1.0 + np.sqrt(ws.b_in @ ws.b_in + ws.b_eq @ ws.b_eq)
    norm_c = 1.0 + float(np.linalg.norm(ws.c))
    inf_tol = max(tol, 1e-10)

    # best feasibility-merit iterate seen, restored if later steps degrade
    best_merit = np.inf
    best_snap: dict | None = None
    reg_scale = [0.0]

    def assemble_normal(sc):
        M = np.zeros((n, n))
        if ws.n_nn:
            Wnn = ws.A_nn.multiply((1.0 / sc.w_nn**2)[:, None]).tocsr()
            G = (ws.A_nn.T @ Wnn).tocoo()
            M[G.row, G.col] += G.data
        wtil = ws.jsign * sc.wbar
        for k, data in enumerate(ws.soc_data):
            sup = data["sup"]
            if not sup.size:
                continue
            dense = data["dense"]
            g = dense.T @ wtil[data["rows"]]
            a0 = dense[0]
            gram = data["gram"]
            if gram is None:
                gram = dense.T @ dense
            # one sup x sup buffer, evaluated in the order of
            # (gram + 2 (g g' - a0 a0')) / eta^2 so M keeps its last bits (the
            # iteration the IPM stops at can hinge on them); a block on every
            # column is added without an np.ix_ gather and scatter
            blk = np.multiply.outer(g, g)
            blk -= np.multiply.outer(a0, a0)
            blk *= 2.0
            blk += gram
            blk /= sc.eta[k] ** 2
            if sup.size == n:
                M += blk
            else:
                M[np.ix_(sup, sup)] += blk
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
            Mb = M
            if bump > 0.0:
                Mb = M.copy()
                Mb[np.diag_indices_from(Mb)] += bump * STATIC_REG * scale_now
            try:
                return sla.cho_factor(Mb, lower=True)
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
            sc = _NtScaling(ws, s, z)
            M = assemble_normal(sc)
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
        f1 = ws.A_in.T @ sc.mul_winv2(ws.b_in) - ws.c
        dx1, dy1 = saddle(f1, ws.b_eq)
        dz1 = sc.mul_winv2(ws.A_in @ dx1 - ws.b_in)
        den = float(ws.c @ dx1 + ws.b_in @ dz1 + ws.b_eq @ dy1) - kappa / tau

        def newton(R_d, R_pin, R_peq, R_g, R_comp, R_tk):
            """Direction for general right-hand sides of the scaled KKT system."""
            wbeta = sc.mul_w(sc.arrow_solve(R_comp))

            f2 = R_d + ws.A_in.T @ sc.mul_winv2(R_pin - wbeta)
            dx2, dy2 = saddle(f2, R_peq)
            dz2 = sc.mul_winv2(ws.A_in @ dx2 + wbeta - R_pin)

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
            return ws.jmul(sc.lam, sc.mul_w(dz) + sc.mul_winv(ds))

        def newton_residuals(R, dx, dy, dz, ds, dtau, dkappa):
            r1 = R[0] - (ws.A_in.T @ dz + ws.A_eq.T @ dy + ws.c * dtau)
            r2 = R[1] - (ds + ws.A_in @ dx - ws.b_in * dtau)
            r3 = R[2] - (ws.A_eq @ dx - ws.b_eq * dtau)
            r4 = R[3] - (float(ws.c @ dx + ws.b_in @ dz + ws.b_eq @ dy) + dkappa)
            r5 = R[4] - comp_apply(dz, ds)
            r6 = R[5] - (tau * dkappa + kappa * dtau)
            return r1, r2, r3, r4, r5, r6

        def direction(sigma, corr_cone, corr_tk, polish=0):
            rhs = sigma * mu * ws.e - ws.jmul(sc.lam, sc.lam)
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
            alpha = min(ws.max_step(s, ds), ws.max_step(z, dz))
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

        corr = ws.jmul(sc.mul_winv(dsa), sc.mul_w(dza))
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

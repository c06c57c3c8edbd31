"""Primal-dual interior-point solver on the homogeneous self-dual embedding.

Takes programs in canonical form (``program.is_canonical``), the class
order every program has from the builder on: the equality (zero) rows, then
the nonneg rows, then the second-order cones' rows (the builder writes a
power cone as soc cones), so the solver keeps no row lists. It rejects the
declared ``pow3`` and ``rsoc`` kinds.
The algorithm is the standard Nesterov-Todd scaled predictor-corrector with
one linear-solve path per iteration:

1. one factorization of the Newton system without its equality rows, on
   one of the two paths below;
2. a direct solve of the equality rows through the Schur complement
   E = A_eq M^-1 A_eq' (a program without equality rows is the empty case);
3. residual-correction (polish) passes over the full Newton system, the only
   correction loop, which remove the regularization bias and the
   factorization error of steps 1-2. At most ``POLISH_PASSES`` run; the loop
   stops at the first pass that cuts the residual by less than
   ``POLISH_STOP_RATIO`` (5x), as Clarabel's iterative refinement does, or
   once the residual reaches 1e-13 of the right-hand side's scale; a pass
   that raised the residual is reverted.

Both factorizations sit behind one solve (f_x, f_z, g) -> (dx, dy, dz), and
the program's structure picks one per solve: the sparse path when a dense
Cholesky, n^3/3 flops, would cost more than ``SPARSE_KKT_RATIO`` times the
nonzeros of the sparse KKT, the dense path otherwise.

- Dense: the in-place Cholesky factor of the normal matrix M = A_in' W^-2
  A_in + reg I, reg = STATIC_REG ``reg_scale``, assembled as one triangle
  in Fortran order; dz = W^-2 (A_in dx - f_z). With W^-2 = eta^-2 (2 J
  wbar wbar' J - J) on a cone, the lower triangle of M is one product of a
  Gram stack fixed for the solve with the weights 1/eta^2, plus 2 F F' with
  one column A_k' J wbar_k / eta_k of F per cone of more than one row, added
  in place (on a one-row cone W^-2 = 1/eta^2, so its Gram block enters with
  sign +1 and it has no column of F).
- Sparse: SuperLU's factor of the quasi-definite KKT [[reg_x I, A_in'],
  [A_in, -W^2]] over (x, z, two expansion columns per soc cone), whose z
  block gives dz. Each soc cone's W^2 = eta^2 (D + u u' - v v') is expanded
  as ECOS does (Domahidi, Chu & Boyd, ECC 2013): -eta^2 D on its rows, a
  column eta^2 v with diagonal -eta^2 and a column eta^2 u with diagonal
  +eta^2; a one-row cone carries -eta^2. With wbar = (w0, omega q), q a unit
  vector: d1 = 1/2 / (1 + 2 omega^2), D = diag(d1, 1, ..., 1), u = (u0,
  u1 q), v = (0, v1 q), u0 = sqrt(1 + 2 omega^2 - d1), u1 = 2 w0 omega / u0
  and v1 = sqrt(2 omega^2 (1 + d1) / (1 + 2 omega^2 - d1)), a form without
  the cancellation of sqrt(u1^2 - 2 omega^2). Static regularization goes on
  every diagonal with its quasi-definite sign, + on x and the u columns and
  - on z and the v columns: KKT_REG ``reg_scale`` on x, ``KKT_REG``
  elsewhere. So K factors without pivoting in any order: the first
  factorization takes SuperLU's minimum-degree order of K + K' and permutes
  K into it once; later ones write only the diagonal and expansion columns
  (5% of K at N=24). No n x n matrix and no Gram stack is built.

Every solve starts as CVXOPT and Clarabel do (Vandenberghe 2010; Goulart &
Chen, arXiv:2405.12762): one factorization of the Newton system at W = I
(s = z = e) gives the least-norm slack s = b_in - A_in x with A_eq x = b_eq
and the least-norm (z, y) with A_in' z + A_eq' y = -c; s and z are each
moved into their cones along e, and tau = kappa = 1. If it fails, the solve
ends ``numerical_error`` after 0 iterations. Both paths regularize x
relative to ``reg_scale`` = 1 + max diag M at W = I, where diag M is A_in's
squared column norms. It stays fixed: the cone weights diverge as the gap
closes, and a regularization tracking them would bias the dual residual by
reg |dx|.

The embedding's tau/kappa pair classifies the outcome (optimal / primal
infeasible / dual infeasible); variables that appear in no inequality row need
no special treatment, since the regularization keeps M definite and the
certificates report an unbounded direction as dual infeasible.

Every inequality row lies in one flat cone region: a nonneg row is a one-row
second-order cone (s0 >= 0, an empty tail), on which the Nesterov-Todd
formulas reduce to the nonneg ones (W = sqrt(s / z), lam = sqrt(s z)), so
each cone operation has one code path. The workspace records each cone's
head offset, a per-row cone id and the J = diag(1, -1, ..., -1) sign that
marks head and tail rows. The NT scaling (eta, wbar, lam) of every cone is
computed together once per iteration, and W, W^-1, W^-2, the Jordan
product, the arrow solve and the step length act on all cones at once:
per-cone dot products are ``np.add.reduceat`` sums, per-cone scalars are
broadcast back through the cone id. No triangular solve scans for NaNs:
the dense factors' diagonals, the equality rows and each direction are
checked finite instead.
The work comes at three rates. Per pattern (a program's size, cones and
A's ``indptr``/``indices``), a :class:`SolveStructure` holds what reads no
value: the cone indexing and row groups, the equilibration's column order,
the Gram stack's lifted index and the scatter of F; SCP passes one per
phase, since a phase's subproblems share their pattern, and a solve without
one builds its own. Per solve, the workspace copies and equilibrates the
values, forms A_eq, A_in and A_in' and the Gram
stack, and factors the start's Newton system, which on the sparse path
lays K out, orders it and permutes it into that order (Sparse, above). Per
iteration, the NT scaling, the normal matrix (F is one ``np.bincount``) or
K's variable entries, one factorization and its solves. Every answer is a
fresh solve's, bit for bit.

Everything is deterministic: no randomness, no iteration-order ambiguity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk

from ..errors import NumericalError
from .program import ConicProgram, is_canonical

logger = logging.getLogger(__name__)

#: Fraction of the distance to the cone boundary taken by combined steps.
STEP_FRACTION = 0.99
#: Static diagonal regularization of M relative to ``reg_scale``.
STATIC_REG = 1e-12
#: Column-then-row scaling passes of the Ruiz equilibration.
EQUILIBRATION_PASSES = 3
#: Polish stops at the first pass that cuts the Newton-system residual by
#: less than this factor, as Clarabel's ``iterative_refinement_stop_ratio``
#: (Goulart & Chen, arXiv:2405.12762): a pass that gains less leaves only
#: factorization noise, which further passes do not remove.
POLISH_STOP_RATIO = 5.0
#: Cap on the polish passes of the combined direction.
POLISH_PASSES = 10
#: The factorization rule's one constant: the sparse path takes programs
#: with n^3/3 > SPARSE_KKT_RATIO nnz(K). Measured crossover (one BLAS
#: thread): n^3/(3 nnz K) is 511-670 on design_n6, where one SuperLU factor
#: takes 1.45 ms against 0.9 ms for LAPACK's with the assembly of M; the paths
#: are at parity at 2,675 (sweep N=12), the dense one as fast at 4,591 and
#: 5,793 (N=60 depth 2, N=40 depth 3); at 18,831 (N=24) the sparse one wins 3x.
SPARSE_KKT_RATIO = 1e4
#: Static regularization of the sparse KKT (see the module docstring).
KKT_REG = 1e-8

@dataclass(frozen=True)
class SolveResult:
    """Outcome of one conic solve.

    status is one of ``optimal``, ``optimal_inaccurate``,
    ``primal_infeasible``, ``dual_infeasible``, ``max_iterations``,
    ``numerical_error``. x holds the original-variable primal solution (None
    unless solved or inaccurate).
    """

    status: str
    x: np.ndarray | None
    obj: float | None
    iterations: int
    pres: float
    dres: float
    gap: float

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "optimal_inaccurate")


class _NtScaling:
    """Nesterov-Todd scaling W of every inequality cone at one iterate.

    Cone k scales by W_k = eta_k [[a, b'], [b, I + b b' / (1 + a)]] with
    (a, b) its rows of ``wbar``. ``eta`` holds one entry per cone, ``wbar``
    and the scaled point ``lam = W z = W^-1 s`` are flat over the inequality
    rows. A nonneg row is a one-row cone: there wbar = 1, so W = eta =
    sqrt(s / z) and lam = eta z. Every method acts on all cones at once.
    """

    def __init__(self, ws: _Workspace, s: np.ndarray, z: np.ndarray):
        self.ws = ws
        h, cid = ws.heads, ws.cone_id
        s0, z0 = s[h], z[h]
        rho_s2 = s0**2 - ws.tail_dot(s, s)
        rho_z2 = z0**2 - ws.tail_dot(z, z)
        if (
            np.any(rho_s2 <= 0.0) or np.any(rho_z2 <= 0.0)
            or np.any(s0 <= 0.0) or np.any(z0 <= 0.0)
        ):
            raise NumericalError("iterate left the interior of an inequality cone")
        rho_s = np.sqrt(rho_s2)
        rho_z = np.sqrt(rho_z2)
        sbar = s / rho_s[cid]
        zbar = z / rho_z[cid]
        gamma = np.sqrt((1.0 + ws.cone_dot(sbar, zbar)) / 2.0)
        self.wbar = (sbar + ws.jsign * zbar) / (2.0 * gamma)[cid]
        self.eta = np.sqrt(rho_s / rho_z)
        self._a = self.wbar[h]
        self._a1 = 1.0 + self._a
        self._eta_rows = self.eta[cid]
        self._eta2_rows = (self.eta**2)[cid]

        self.lam = self.mul_w(z)
        self._lam0 = self.lam[h]
        self._lam_det = self._lam0**2 - ws.tail_dot(self.lam, self.lam)
        if np.any(self._lam_det <= 0.0) or np.any(self._lam0 <= 0.0):
            raise NumericalError("scaling point left the cone interior")

    def mul_w(self, u: np.ndarray) -> np.ndarray:
        """W u."""
        h = self.ws.heads
        u0 = u[h]
        bu = self.ws.tail_dot(self.wbar, u)
        out = u + (u0 + bu / self._a1)[self.ws.cone_id] * self.wbar
        out[h] = self._a * u0 + bu
        return self._eta_rows * out

    def mul_winv(self, u: np.ndarray) -> np.ndarray:
        """W^-1 u; W^-1 = J (W / eta) J / eta."""
        h = self.ws.heads
        u0 = u[h]
        bu = self.ws.tail_dot(self.wbar, u)
        out = u + (-u0 + bu / self._a1)[self.ws.cone_id] * self.wbar
        out[h] = self._a * u0 - bu
        return out / self._eta_rows

    def mul_winv2(self, u: np.ndarray) -> np.ndarray:
        """W^-2 u; W^-2 = eta^-2 (2 wtil wtil' - J) with wtil = J wbar."""
        h = self.ws.heads
        u0 = u[h]
        wtu = self._a * u0 - self.ws.tail_dot(self.wbar, u)
        out = (-2.0 * wtu)[self.ws.cone_id] * self.wbar + u
        out[h] = 2.0 * self._a * wtu - u0
        return out / self._eta2_rows

    def arrow_solve(self, v: np.ndarray) -> np.ndarray:
        """Solve lam o u = v for u (the arrow-matrix inverse on each cone)."""
        h, cid = self.ws.heads, self.ws.cone_id
        u0 = (self._lam0 * v[h] - self.ws.tail_dot(self.lam, v)) / self._lam_det
        out = (v - u0[cid] * self.lam) / self._lam0[cid]
        out[h] = u0
        return out


def _gram_stack(A: sp.csr_matrix, lifted: np.ndarray, sign: np.ndarray, n_groups: int):
    """Sparse (n*n) x n_groups matrix whose column g is one triangle of A_g' S_g A_g.

    Row r of A is in group g_r and S = diag(s_r); entry k of A, in row r,
    has ``lifted[k]`` = its column + n g_r and ``sign[k]`` = s_r. Shifting
    each row into its group's block of n columns, one sparse product stacks
    every Gram block (row g*n + i, column j). Only the entries with i <= j
    are kept, at position i*n + j: read in Fortran order, a weighted sum of
    the columns is the lower triangle of the weighted sum of the blocks.
    """
    m, n = A.shape
    lifted = sp.csr_matrix((sign * A.data, lifted, A.indptr), shape=(m, n_groups * n))
    blocks = (lifted.T @ A).tocsr()
    gi = np.repeat(np.arange(n_groups * n), np.diff(blocks.indptr))
    keep = gi % n <= blocks.indices
    gi = gi[keep]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(gi // n, minlength=n_groups))])
    stacked = sp.csr_matrix(
        (blocks.data[keep], gi % n * n + blocks.indices[keep], indptr),
        shape=(n_groups, n * n),
    )
    return stacked.T


def _row_groups(cones) -> np.ndarray:
    """Rows of each group: one group per zero or nonneg row, one per soc cone."""
    one_row = np.array([c.kind in ("zero", "nonneg") for c in cones], dtype=bool)
    dims = np.array([c.dim for c in cones], dtype=int)
    return np.repeat(np.where(one_row, 1, dims), np.where(one_row, dims, 1))


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of a, in a's own buffer when a is Fortran-ordered.

    A non-finite entry anywhere in the factored triangle reaches the diagonal
    of its row, so a finite diagonal stands for a finite factor.
    """
    factor = sla.cho_factor(a, lower=True, overwrite_a=True, check_finite=False)
    if not np.isfinite(np.diagonal(factor[0])).all():
        raise NumericalError("Cholesky factor is not finite")
    return factor


class _QuasiDefiniteKkt:
    """The sparse path's KKT over (x, z, two columns per soc cone), built once per solve.

    Its variable entries, the diagonal and the v and u columns, move with the
    scaling; A_in's stay. :meth:`_natural` is the one place that lays K out.
    Each solve's first factorization factors that natural K under SuperLU's
    minimum-degree order q and permutes it into K[q][:, q] once; each later
    one writes only the variable entries, through ``_slot``, and factors
    K[q][:, q] as it stands. No other order of that first factorization
    gives its result bit for bit, so every solve orders K, also one whose
    pattern was solved before.
    """

    def __init__(self, ws: _Workspace):
        # no reference back to ws, which holds this KKT: a cycle would outlive the solve
        self.n_aux = 2 * ws.n_curved
        self.size = ws.n + ws.m_in + self.n_aux
        self.reg = (KKT_REG * ws.reg_scale, KKT_REG)  # on x, on every other diagonal
        self._ordered = None

    def variable(self, sc: _NtScaling, bump: float) -> np.ndarray:
        """K's variable entries at the scaling sc: the diagonal, one entry of
        each symmetric pair of the v and u columns, then its mirror, in the
        order of the slots :meth:`_natural` returns."""
        ws = sc.ws
        h, cid, curved = ws.heads, ws.cone_id, ws.sizes > 1
        omega2 = ws.tail_dot(sc.wbar, sc.wbar)
        d1 = 0.5 / (1.0 + 2.0 * omega2)
        u0 = np.sqrt(1.0 + 2.0 * omega2 - d1)
        eta2 = sc.eta**2
        d = np.ones(ws.m_in)
        d[h[curved]] = d1[curved]
        # eta^2 u and eta^2 v of every cone, whose tails are multiples of wbar's
        u = (2.0 * sc.wbar[h] / u0 * eta2)[cid] * sc.wbar
        v = (np.sqrt(2.0 * (1.0 + d1)) / u0 * eta2)[cid] * sc.wbar
        u[h] = u0 * eta2
        v[h] = 0.0
        reg_x, reg = self.reg
        aux = eta2[curved]
        diag = np.concatenate([np.full(ws.n, reg_x), -eta2[cid] * d - reg, -aux - reg, aux + reg])
        diag *= 1.0 + bump * STATIC_REG
        pair = np.concatenate([v[ws.curved_rows], u[ws.curved_rows]])
        return np.concatenate([diag, pair, pair])

    def _natural(self, ws: _Workspace, values: np.ndarray) -> tuple[sp.csc_matrix, np.ndarray]:
        """K in its natural order, and the slot of each of ``values`` (the
        :meth:`variable` entries) in it.

        Each column's rows ascend, laid out from A_in's CSC (``A_in_t``) and
        CSR patterns with no sort: an x column is its diagonal over A_in's
        column; a z column A_in's row, its diagonal, its v and u entries; a
        v or u column its cone's z rows, its diagonal.
        """
        n, m, nc, rows = ws.n, ws.m_in, ws.n_curved, ws.curved_rows
        A, At, size = ws.A_in, ws.A_in_t, self.size
        dims = np.bincount(ws.curved_cone, minlength=nc)
        in_cone = np.arange(rows.size) - (np.cumsum(dims) - dims)[ws.curved_cone]
        above = np.concatenate([np.zeros(n, dtype=int), np.diff(A.indptr), dims, dims])
        below = np.r_[np.diff(At.indptr), 2 * (ws.sizes[ws.cone_id] > 1), np.zeros(2 * nc, int)]
        def spread(B, first):  # the slots of B's entries, row r's from first[r] on
            return np.arange(B.nnz) + np.repeat(first - B.indptr[:-1], np.diff(B.indptr))
        indptr = np.concatenate([[0], np.cumsum(above + 1 + below)]).astype(np.int32)
        diag = indptr[:-1] + above
        aux, pair = n + m + ws.curved_cone, values[size: size + 2 * rows.size]
        indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
        pieces = (
            (diag, np.arange(size), values[:size]),
            (np.r_[indptr[aux] + in_cone, indptr[aux + nc] + in_cone], np.tile(n + rows, 2), pair),
            (np.r_[diag[n + rows] + 1, diag[n + rows] + 2], np.r_[aux, aux + nc], pair),
            (spread(At, diag[:n] + 1), n + At.indices, At.data),
            (spread(A, indptr[n: n + m]), A.indices, A.data),
        )
        for at, index, value in pieces:
            indices[at] = index
            data[at] = value
        slot = np.concatenate([at for at, _, _ in pieces[:3]])
        return sp.csc_matrix((data, indices, indptr), shape=(size,) * 2), slot

    @staticmethod
    def _permuted(K: sp.csc_matrix, slot: np.ndarray, q: np.ndarray):
        """K[q][:, q], and the slots in it of the entries at ``slot`` in K.

        Each entry of K is tagged with its position in int32, and the tags
        go through the permutation and the sort of each column's rows; they
        pick each entry's value and say where each slot went.
        """
        tags = sp.csc_matrix((np.arange(K.nnz, dtype=np.int32), K.indices, K.indptr), shape=K.shape)
        tags = tags[q][:, q]
        tags.sort_indices()
        ordered = sp.csc_matrix((K.data[tags.data], tags.indices, tags.indptr), shape=K.shape)
        where = np.empty_like(tags.data)
        where[tags.data] = np.arange(tags.nnz, dtype=np.int32)
        return ordered, where[slot]

    def factor(self, sc: _NtScaling, bump: float):
        """The solve (f_x, f_z) -> (dx, dz) of one factorization of K at sc.

        ``bump`` scales every diagonal by 1 + bump * STATIC_REG, as a retry
        on the dense path does; SuperLU raises RuntimeError on a zero pivot.
        """
        from scipy.sparse.linalg import splu

        values = self.variable(sc, bump)
        options = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
        if self._ordered is None:
            K, slot = self._natural(sc.ws, values)
            lu = splu(K, permc_spec="MMD_AT_PLUS_A", **options)
            self._order = np.argsort(lu.perm_c)
            self._ordered, self._slot = self._permuted(K, slot, self._order)
            q = slice(None)  # this factor applies its own order
        else:
            self._ordered.data[self._slot] = values
            lu = splu(self._ordered, permc_spec="NATURAL", **options)
            q = self._order
        n, m = sc.ws.n, sc.ws.m_in

        def newton_solve(f_x, f_z):
            rhs = np.concatenate([f_x, f_z, np.zeros((self.n_aux,) + np.shape(f_x)[1:])])
            sol = np.empty_like(rhs)
            sol[q] = lu.solve(rhs[q])
            return sol[:n], sol[n: n + m]

        return newton_solve


def _polish(d, residuals, correction, target: float, passes: int):
    """Residual-correction passes d <- d + correction(residuals(d)) on a tuple d.

    ``residuals(d)`` returns the residual blocks (arrays or scalars) of the
    system at d and ``correction`` solves the system for them. At most
    ``passes`` corrections are made; the loop stops early once the residual
    norm (the largest block norm) is at most ``target``, or at the first
    pass that cut it by less than :data:`POLISH_STOP_RATIO`. A pass that
    raised the residual is reverted, as Clarabel reverts such a refinement
    step: the direction from before it is returned.
    """
    last, before = np.inf, d
    for _ in range(passes):
        rs = residuals(d)
        norm = max(np.linalg.norm(r) if np.ndim(r) else abs(r) for r in rs)
        if norm > last:
            return before
        if norm <= target or POLISH_STOP_RATIO * norm > last:
            break
        last, before = norm, d
        d = tuple(a + b for a, b in zip(d, correction(rs)))
    return d


class _Pattern:
    """Everything a solve needs of one canonical program but its values.

    Built from the program's cones and A's pattern (``indptr``, ``indices``,
    copied), once per pattern; a solve of any program with that pattern and
    those ``cones`` reads it (``SolveStructure``). It holds:

    - the cone indexing of the :class:`_Workspace` docstring and the row
      groups of :func:`_row_groups` (``groups``);
    - the equilibration's orders: ``col_order`` lists A's entries column by
      column from the starts ``col_starts`` of the columns ``col_live``
      that have entries, and ``group_nnz`` counts each group's entries,
      whose starts ``group_starts`` (of the groups ``group_live``) delimit
      them in A's own order;
    - the equality rows' flat positions ``eq_flat`` in a dense n_eq x n
      array and the inequality rows' pattern (``in_indptr``,
      ``in_indices``);
    - the path: ``sparse`` is the factorization rule's choice. The dense
      path's Gram stack takes its lifted column index and sign per A_in
      entry (``g_lifted``, ``g_sign``, see :func:`_gram_stack`), and F its
      scatter: A_in's entry ``f_src[t]``, times the weight of curved row
      ``f_row[t]``, adds into slot ``f_dest[t]`` of F in Fortran order, the
      terms in row order, as the sparse product A_in' C with a cone map C
      adds them.
    """

    def __init__(self, prog: ConicProgram):
        if not is_canonical(prog.cones):
            raise ValueError("the solver takes zero, then nonneg, then soc cones")
        A = prog.A.tocsr()
        m, n = A.shape
        self.cones = prog.cones
        self.indptr, self.indices = A.indptr.copy(), A.indices.copy()
        self.groups = _row_groups(prog.cones)
        self.m, self.n = m, n
        self.n_eq = sum(c.dim for c in prog.cones if c.kind == "zero")
        self.m_in = m - self.n_eq
        #: rows of each cone: a 1 for each nonneg row, then each soc dim
        self.sizes = self.groups[self.n_eq:]
        self.heads = np.cumsum(self.sizes) - self.sizes
        self.cone_id = np.repeat(np.arange(self.sizes.size), self.sizes)
        self.jsign = -np.ones(self.m_in)
        self.jsign[self.heads] = 1.0
        #: identity element of the cone product: 1 on every head
        self.e = np.zeros(self.m_in)
        self.e[self.heads] = 1.0
        self.degree = self.sizes.size
        curved = self.sizes > 1
        self.n_curved = int(curved.sum())
        #: the rows of the cones of more than one row, and each one's cone
        #: among those: its column of F, or of the v and u columns of K
        self.curved_rows = np.flatnonzero(curved[self.cone_id])
        self.curved_cone = (np.cumsum(curved) - 1)[self.cone_id[self.curved_rows]]

        width = np.diff(self.indptr)
        count = np.bincount(self.indices, minlength=n)
        self.col_order = np.argsort(self.indices, kind="stable").astype(self.indices.dtype)
        self.col_live = np.flatnonzero(count)
        self.col_starts = (np.cumsum(count) - count)[self.col_live]
        self.group_nnz = np.add.reduceat(width, np.cumsum(self.groups) - self.groups)
        self.group_live = np.flatnonzero(self.group_nnz)
        self.group_starts = (np.cumsum(self.group_nnz) - self.group_nnz)[self.group_live]

        k = self.nnz_eq = int(self.indptr[self.n_eq])
        self.eq_flat = np.repeat(np.arange(self.n_eq) * n, width[: self.n_eq]) + self.indices[:k]
        self.in_indptr = self.indptr[self.n_eq:] - k
        self.in_indices = self.indices[k:]

        # K's nonzeros: its diagonal, A_in and two columns per soc cone, twice
        kkt_nnz = n + self.m_in + 2 * self.in_indices.size + int((4 * self.sizes[curved] + 2).sum())
        self.sparse = n**3 / 3.0 > SPARSE_KKT_RATIO * kkt_nnz
        if self.sparse:
            return
        in_curved = curved[self.cone_id]
        in_row = np.repeat(np.arange(self.m_in), width[self.n_eq:])
        #: each A_in entry's column in its cone's block, and its Gram sign
        self.g_lifted = self.in_indices + n * self.cone_id[in_row]
        self.g_sign = np.where(in_curved, -self.jsign, 1.0)[in_row]
        self.f_src = np.flatnonzero(in_curved[in_row])
        self.f_row = (np.cumsum(in_curved) - 1)[in_row[self.f_src]]
        self.f_dest = self.in_indices[self.f_src] + n * self.curved_cone[self.f_row]


class SolveStructure:
    """What the solves of one pattern share: every map that reads no value.

    ``solve(prog, structure=s)`` reads the analysis of prog's pattern
    (``_Pattern``) from s while prog has the cones, and its A the shape,
    ``indptr`` and ``indices``, that analysis was built from; otherwise it
    is built afresh into s. So one structure serves an SCP phase, whose
    subproblems share one pattern (the penalty's power-cone towers
    included), and every answer is a fresh solve's. It holds no program and
    no value of one, and nothing of the sparse path's K.
    """

    def __init__(self):
        self._pattern = None

    def pattern(self, prog: ConicProgram) -> _Pattern:
        """The analysis of prog's pattern, held here."""
        A, pat = prog.A.tocsr(), self._pattern
        if pat is None or not (
            A.shape == (pat.m, pat.n)
            and prog.cones == pat.cones
            and np.array_equal(A.indptr, pat.indptr)
            and np.array_equal(A.indices, pat.indices)
        ):
            self._pattern = _Pattern(prog)
        return self._pattern


def lower_program(*_args, **_kwargs):
    """Retired, as the builder writes power cones as soc cones; the name stays
    while covbench traces it, and nothing calls it."""
    raise NotImplementedError("programs are built in the solver's form; call solve")


class _Workspace:
    """A solve's whole set-up: the scaled rows, cone indexing, regularization scale.

    It is the per-solve work of the module docstring's three rates, on the
    maps of its :class:`_Pattern`: it copies A's values once and
    equilibrates them in place, so ``A_eq``, ``A_in``, ``A_in_t``, ``b_*``
    and ``c`` are scaled, ``col_scale`` maps x back, and the program is not
    read again; ``reg_scale`` is the module docstring's, and the Gram stack
    is one sparse product.

    The program must be in canonical form (``program.is_canonical``): its
    first ``n_eq`` rows are the equality rows and the rest are the inequality
    rows. Every inequality row belongs to one second-order cone of that flat
    region: each nonneg row is a one-row cone s0 >= 0, followed by the soc
    cones. Cone k starts at row ``heads[k]``; ``cone_id`` gives each row's
    cone and ``jsign`` is the diagonal of J = diag(1, -1, ..., -1) (+1 on a
    head, -1 on a tail row). Per-cone dot products are ``np.add.reduceat``
    sums over ``heads`` and per-cone scalars are broadcast back to rows
    through ``cone_id``, so every cone operation is a handful of array
    operations whatever the number of cones. ``kkt`` is the sparse path's
    KKT, or None on the dense path, whose ``gram_stack`` holds one column per
    cone, the entries i <= j of A_k' (-J) A_k at position i*n + j (A_k' A_k
    on a one-row cone); ``n_curved`` counts the cones of more than one row,
    each of which has a column of F in :meth:`assemble_normal`.
    """

    def __init__(self, prog: ConicProgram, pattern: _Pattern | None = None):
        """``pattern`` is prog's own, analysed here when not given."""
        pat = self.pattern = _Pattern(prog) if pattern is None else pattern
        self.n, self.n_eq, self.m_in, self.degree = pat.n, pat.n_eq, pat.m_in, pat.degree
        self.sizes, self.heads, self.cone_id = pat.sizes, pat.heads, pat.cone_id
        self.jsign, self.e = pat.jsign, pat.e
        self.n_curved, self.curved_rows, self.curved_cone = (
            pat.n_curved, pat.curved_rows, pat.curved_cone
        )
        n, k = self.n, pat.nnz_eq

        data = np.array(prog.A.tocsr().data, dtype=float)
        row_scale, self.col_scale = _equilibrate(data, pat)
        self.A_eq = np.bincount(pat.eq_flat, data[:k], minlength=self.n_eq * n).reshape(
            self.n_eq, n
        )
        # the right-hand side of every solve with A_eq', checked once here
        if not np.isfinite(self.A_eq).all():
            raise NumericalError("equality rows are not finite")
        b = row_scale * prog.b
        self.b_eq = b[: self.n_eq]
        self.A_in = sp.csr_matrix((data[k:], pat.in_indices, pat.in_indptr), shape=(self.m_in, n))
        #: A_in' built once: its products sum in the same order as A_in.T's
        self.A_in_t = self.A_in.T.tocsr()
        self.b_in = b[self.n_eq:]
        self.c = self.col_scale * prog.c
        squares = np.bincount(pat.in_indices, self.A_in.data**2, minlength=n)
        self.reg_scale = 1.0 + float(squares.max(initial=0.0))

        self.kkt = None
        if pat.sparse:
            self.kkt = _QuasiDefiniteKkt(self)
            return
        self.gram_stack = _gram_stack(self.A_in, pat.g_lifted, pat.g_sign, self.degree)
        self._f_vals = self.A_in.data[pat.f_src]

    def assemble_normal(self, sc: _NtScaling) -> np.ndarray:
        """The lower triangle of A_in' W^-2 A_in at the scaling sc, in Fortran order.

        With W^-2 = eta^-2 (2 J wbar wbar' J - J) on each cone, every cone's
        Gram block is weighted by 1/eta^2 in one product with ``gram_stack``,
        which lands in a fresh Fortran-ordered buffer. On a one-row cone
        W^-2 = 1/eta^2 is that weight alone; on each larger cone the rank-one
        part, 2 F F' with a column of F equal to A_k' J wbar_k / eta_k, is
        added into the buffer by one ``dsyrk``, skipped when there is no such
        cone. F is one ``np.bincount`` through the pattern's scatter. The
        strict upper triangle is left zero.
        """
        M = (self.gram_stack @ (1.0 / sc.eta**2)).reshape(self.n, self.n, order="F")
        if not self.n_curved:
            return M
        pat = self.pattern
        v = (self.jsign * sc.wbar / sc.eta[self.cone_id])[self.curved_rows]
        F = np.bincount(pat.f_dest, self._f_vals * v[pat.f_row], minlength=self.n * self.n_curved)
        F = F.reshape(self.n, self.n_curved, order="F")
        return dsyrk(2.0, F, beta=1.0, c=M, lower=1, overwrite_c=1)

    def tail_dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u[1:] . v[1:] of every cone, for u, v over the inequality rows (last axis)."""
        p = u * v
        p[..., self.heads] = 0.0
        return np.add.reduceat(p, self.heads, axis=-1)

    def cone_dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u . v of every cone, for u, v over the inequality rows."""
        return np.add.reduceat(u * v, self.heads)

    def jmul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jordan product u o v over the inequality rows: (u'v, u0 v1 + v0 u1) per cone."""
        h, cid = self.heads, self.cone_id
        out = u[h][cid] * v + v[h][cid] * u
        out[h] = self.cone_dot(u, v)
        return out

    def cone_steps(self, u: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Largest alpha per cone with u + alpha d in that cone.

        u and d run over the inequality rows in their last axis; stacked
        points (one per leading index) give one row of steps each, equal to
        what each point alone gives.

        With f(alpha) = c + b alpha + a alpha^2 the cone's Lorentz form of
        u + alpha d, a cone whose u is not interior (c <= 0) gets 0; otherwise
        the step runs to the root of f where it leaves the cone, capped where
        the head turns negative. A one-row cone can leave only through its
        head, so its step is exactly -u0/d0 (inf when d0 >= 0): the roots of f
        would carry the rounding of b^2 - 4ac, which is 0 in exact arithmetic.
        """
        h = self.heads
        u0, d0 = u[..., h], d[..., h]
        c = u0**2 - self.tail_dot(u, u)
        a = d0**2 - self.tail_dot(d, d)
        b = 2.0 * (u0 * d0 - self.tail_dot(u, d))
        best = np.full(c.shape, np.inf)
        live = c > 0.0
        curved = live & (self.sizes > 1)
        lin = curved & (a == 0.0) & (b < 0.0)
        best[lin] = -c[lin] / b[lin]
        disc = b * b - 4.0 * a * c
        quad = curved & (a != 0.0) & (disc >= 0.0)
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
        """Largest alpha with u + alpha d in every inequality cone, for every stacked point."""
        return float(self.cone_steps(u, d).min(initial=np.inf))


def _equilibrate(data: np.ndarray, pat: _Pattern) -> tuple[np.ndarray, np.ndarray]:
    """Ruiz-style scaling of the values ``data`` of A, in place, with cone-uniform row factors.

    A (pattern ``pat``) becomes E A D; returns the row and column scales
    (e, d) = (diag E, diag D), with which b' = E b and c' = D c. Each group
    of :func:`_row_groups` shares one factor, taken from its largest entry:
    zero and nonneg rows scale one by one, and the rows of one soc cone
    together, so the cone geometry is preserved. Each pass takes its maxima
    with ``np.maximum.reduceat`` over the pattern's fixed orders, the
    columns' through ``col_order`` and the groups' in A's own order.
    """
    e = np.ones(pat.groups.sum())
    d = np.ones(pat.n)
    cmax = np.zeros(pat.n)
    top = np.zeros(pat.groups.size)

    # the scales multiply the stored entries in place, so the pattern is fixed
    for _ in range(EQUILIBRATION_PASSES):
        # column pass
        if pat.col_live.size:
            cmax[pat.col_live] = np.maximum.reduceat(np.abs(data)[pat.col_order], pat.col_starts)
        cs = 1.0 / np.sqrt(np.maximum(cmax, 1e-12))
        cs[cmax == 0.0] = 1.0
        d *= cs
        data *= cs[pat.indices]
        # row pass (uniform inside each cone)
        if pat.group_live.size:
            top[pat.group_live] = np.maximum.reduceat(np.abs(data), pat.group_starts)
        gs = np.ones(top.size)
        live = top > 0.0
        gs[live] = 1.0 / np.sqrt(top[live])
        e *= np.repeat(gs, pat.groups)
        data *= np.repeat(gs, pat.group_nnz)
    return e, d


def _into_cone(ws: _Workspace, u: np.ndarray) -> np.ndarray:
    """u if inside every cone, else u + (1 + alpha) e, alpha = max_k |u_k tail| - u_k head."""
    alpha = np.max(np.sqrt(ws.tail_dot(u, u)) - u[ws.heads], initial=-np.inf)
    return u if alpha < 0.0 else u + (1.0 + alpha) * ws.e


def solve(
    prog: ConicProgram,
    tol: float = 1e-8,
    max_iters: int = 100,
    structure: SolveStructure | None = None,
) -> SolveResult:
    """Solve a conic program to the requested relative tolerance.

    The workspace equilibrates its own copy of the rows through the
    pattern's maps in ``structure``. It starts from the least-norm slack and dual
    point moved into their cones (module docstring); each interior-point
    iteration then
    factors the Newton system once, solves the equality rows through their
    Schur complement, and polishes the combined direction against the full
    Newton system: at most ``POLISH_PASSES`` residual-correction passes,
    stopping at the first that cuts the residual by less than
    ``POLISH_STOP_RATIO`` and reverting one that raised it. The factorization
    is the dense Cholesky factor of the normal matrix, or, when n^3/3 >
    ``SPARSE_KKT_RATIO`` nnz(K), SuperLU's factor of the expanded, regularized
    quasi-definite KKT K (module docstring). One line per iteration is logged
    at DEBUG level.

    Args:
        prog: program with zero, nonneg and soc cones, in class order; a
            ``pow3`` or ``rsoc`` cone raises ValueError.
        tol: relative primal/dual/gap tolerance for the ``optimal`` status.
        max_iters: interior-point iteration cap.
        structure: the value-independent maps of prog's pattern, reused
            while they are prog's and rebuilt in place otherwise; a solve
            without one builds its own. The answer is the same either way.

    Returns:
        SolveResult; ``x`` holds every column of prog. A
        solve that ends neither optimal nor with an infeasibility
        certificate reports its best measured iterate and that iterate's
        residuals; one whose start fails ends ``numerical_error`` with
        ``iterations == 0`` and no iterate.

    Raises:
        NumericalError: the program's equality rows are not finite.
        ValueError: prog holds a cone kind the solver does not take.
    """
    structure = SolveStructure() if structure is None else structure
    ws = _Workspace(prog, structure.pattern(prog))

    n, n_eq = ws.n, ws.n_eq
    tau, kappa = 1.0, 1.0

    norm_b = 1.0 + np.sqrt(ws.b_in @ ws.b_in + ws.b_eq @ ws.b_eq)
    norm_c = 1.0 + float(np.linalg.norm(ws.c))
    inf_tol = max(tol, 1e-10)

    # best feasibility-merit iterate seen, restored if later steps degrade
    best_merit = np.inf
    best_snap: dict | None = None

    def factor(sc):
        """This iteration's solve of the Newton system, (f_x, f_z, g) -> (dx, dy, dz).

        (dx, dz) solve it without equality rows for (f_x - A_eq' dy, f_z),
        and dy makes A_eq dx = g through E = A_eq M^-1 A_eq'; A_in dx comes
        with them. A failed factorization, not E, is retried with its
        diagonal scaled, so the bump stays relative to each pivot.
        """
        for bump in (0.0, 1e4, 1e8):
            try:
                if ws.kkt is not None:
                    solve_kkt = ws.kkt.factor(sc, bump)
                    break
                # LAPACK factors M where it lies, so each retry assembles it again
                M = ws.assemble_normal(sc)
                diag = np.diag_indices_from(M)
                M[diag] += STATIC_REG * ws.reg_scale
                M[diag] *= 1.0 + bump * STATIC_REG
                L = _cholesky(M)
                break
            except (np.linalg.LinAlgError, RuntimeError):
                M = None
        else:
            raise NumericalError("Newton system factorization failed")

        if ws.kkt is not None:
            ME_x, ME_z = solve_kkt(ws.A_eq.T, np.zeros((ws.m_in, n_eq)))
        else:
            ME_x = sla.cho_solve(L, ws.A_eq.T, check_finite=False)
        E = ws.A_eq @ ME_x
        # scaled with the current diagonal: E inherits the cone-weight
        # growth and an undersized shift lets factorization noise through;
        # the bias this injects is removed by the direction polish passes
        E[np.diag_indices_from(E)] += STATIC_REG * (1.0 + np.abs(np.diag(E)).max(initial=0.0))
        EF = _cholesky(E)

        def saddle(f_x, f_z, g):
            if ws.kkt is not None:
                px, pz = solve_kkt(f_x, f_z)
            else:
                px = sla.cho_solve(L, f_x + ws.A_in_t @ sc.mul_winv2(f_z), check_finite=False)
            q = sla.cho_solve(EF, ws.A_eq @ px - g, check_finite=False)
            dx = px - ME_x @ q
            Adx = ws.A_in @ dx
            # the normal equations give dz from dx; the KKT gives it in its
            # z block, which carries the KKT's own regularization
            dz = pz - ME_z @ q if ws.kkt is not None else sc.mul_winv2(Adx - f_z)
            # a non-finite right-hand side or factor shows in the direction
            if not (np.isfinite(dx).all() and np.isfinite(q).all() and np.isfinite(dz).all()):
                raise NumericalError("Newton direction is not finite")
            return dx, q, dz, Adx

        return saddle

    status = "max_iterations"
    it = 0
    pres = dres = gap_rel = np.inf
    try:
        # the least-norm slack and the least-norm dual point, from the Newton
        # system at W = I, each moved into its cone (CVXOPT's start)
        saddle = factor(_NtScaling(ws, ws.e, ws.e))
        x, _, s, _ = saddle(np.zeros(n), ws.b_in, ws.b_eq)
        _, y, z, _ = saddle(-ws.c, np.zeros(ws.m_in), np.zeros(n_eq))
        s, z = _into_cone(ws, -s), _into_cone(ws, z)
    except (NumericalError, np.linalg.LinAlgError):
        status, max_iters = "numerical_error", 0  # no iteration runs

    for it in range(1, max_iters + 1):
        # residuals of the embedding
        Axi = ws.A_in @ x
        Axe = ws.A_eq @ x
        Atz = ws.A_in_t @ z + ws.A_eq.T @ y
        rd = Atz + ws.c * tau
        rp_in = s + Axi - ws.b_in * tau
        rp_eq = Axe - ws.b_eq * tau
        rg = kappa + ws.c @ x + ws.b_in @ z + ws.b_eq @ y

        sz_gap = s @ z + tau * kappa
        mu = sz_gap / (ws.degree + 1)

        # convergence metrics at the tau-normalized point: the embedding
        # residuals divided by tau
        pres = float(np.sqrt(rp_in @ rp_in + rp_eq @ rp_eq)) / tau / norm_b
        dres = float(np.linalg.norm(rd)) / tau / norm_c
        pobj = float(ws.c @ x) / tau
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

        # direction solves on this iteration's scaling and factors (set below)
        def newton(R_d, R_pin, R_peq, R_g, R_comp, R_tk):
            """Direction for general right-hand sides of the scaled KKT system."""
            wbeta = sc.mul_w(sc.arrow_solve(R_comp))
            dx2, dy2, dz2, Adx2 = saddle(R_d, R_pin - wbeta, R_peq)

            num = R_g - R_tk / tau - float(ws.c @ dx2 + ws.b_in @ dz2 + ws.b_eq @ dy2)
            dtau = num / den
            dx = dx2 + dtau * dx1
            dy = dy2 + dtau * dy1
            dz = dz2 + dtau * dz1
            # A_in dx from the two products already formed
            ds = R_pin - (Adx2 + dtau * Adx1) + ws.b_in * dtau
            dkappa = (R_tk - kappa * dtau) / tau
            return dx, dy, dz, ds, dtau, dkappa

        def newton_residuals(R, dx, dy, dz, ds, dtau, dkappa):
            r1 = R[0] - (ws.A_in_t @ dz + ws.A_eq.T @ dy + ws.c * dtau)
            r2 = R[1] - (ds + ws.A_in @ dx - ws.b_in * dtau)
            r3 = R[2] - (ws.A_eq @ dx - ws.b_eq * dtau)
            r4 = R[3] - (float(ws.c @ dx + ws.b_in @ dz + ws.b_eq @ dy) + dkappa)
            # lam o (W dz + W^-1 ds), the linearized complementarity map
            r5 = R[4] - ws.jmul(sc.lam, sc.mul_w(dz) + sc.mul_winv(ds))
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
            scale = 1.0 + max(np.linalg.norm(Rj) for Rj in R[:3]) + abs(R[3])
            # residual-correction passes over the full Newton system, the only
            # correction of the direction: the saddle solves carry
            # regularization bias and late-stage factorization noise
            return _polish(
                newton(*R),
                lambda d: newton_residuals(R, *d),
                lambda rs: newton(*rs),
                1e-13 * scale,
                polish,
            )

        def max_step(dz, ds, dtau, dkappa):
            alpha = ws.max_step(np.stack((s, z)), np.stack((ds, dz)))
            if dtau < 0.0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0.0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        try:
            sc = _NtScaling(ws, s, z)
            # one factorization, the dense one factored where it lies, is
            # live at a time
            saddle = None
            saddle = factor(sc)

            # system 1: dtau coefficient
            dx1, dy1, dz1, Adx1 = saddle(-ws.c, ws.b_in, ws.b_eq)
            den = float(ws.c @ dx1 + ws.b_in @ dz1 + ws.b_eq @ dy1) - kappa / tau

            dxa, dya, dza, dsa, dta, dka = direction(0.0, None, 0.0)
            a_aff = min(1.0, max_step(dza, dsa, dta, dka))
            gap_aff = (s + a_aff * dsa) @ (z + a_aff * dza)
            gap_aff += (tau + a_aff * dta) * (kappa + a_aff * dka)
            sigma = float(np.clip((max(gap_aff, 0.0) / sz_gap) ** 3, 1e-8, 1.0 - 1e-8))

            corr = ws.jmul(sc.mul_winv(dsa), sc.mul_w(dza))
            dx, dy, dz, ds, dtau, dkappa = direction(sigma, corr, dta * dka, POLISH_PASSES)
        except (NumericalError, np.linalg.LinAlgError):
            status = "numerical_error"
            break

        alpha = min(1.0, STEP_FRACTION * max_step(dz, ds, dtau, dkappa))
        if alpha <= 1e-10:
            status = "numerical_error"
            break
        x += alpha * dx
        y += alpha * dy
        z += alpha * dz
        s += alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa

    # every iteration steps after it is measured, so only the best measured
    # iterate carries the residuals that are reported with it
    if status not in ("optimal", "primal_infeasible", "dual_infeasible") and best_snap is not None:
        x, y = best_snap["x"], best_snap["y"]
        s, z = best_snap["s"], best_snap["z"]
        tau, kappa = best_snap["tau"], best_snap["kappa"]
        pres, dres, gap_rel = best_snap["pres"], best_snap["dres"], best_snap["gap"]

    # every measured iterate was tested against tol in its own iteration, so
    # the best one can at most meet the looser 1e2 * tol
    if status not in ("optimal", "primal_infeasible", "dual_infeasible"):
        if pres <= 1e2 * tol and dres <= 1e2 * tol and gap_rel <= 1e2 * tol:
            status = "optimal_inaccurate"

    if status in ("optimal", "optimal_inaccurate"):
        # undo equilibration and the homogenizing tau
        x_full = ws.col_scale * (x / tau)
        return SolveResult(
            status=status,
            x=x_full,
            obj=float(prog.c @ x_full),
            iterations=it,
            pres=pres,
            dres=dres,
            gap=gap_rel,
        )
    return SolveResult(
        status=status, x=None, obj=None, iterations=it,
        pres=pres, dres=dres, gap=gap_rel,
    )

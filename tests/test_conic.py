"""Conic layer: analytic-solution problems, power-cone towers, certificates, dumps."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    arrow_matrix,
    kkt_entries,
    nt_scaling_matrix,
    pow3_tower_slack,
    program_digest,
)

from covtraj.conic import Cone, ConicProgram, ProgramBuilder, solve, solver
from covtraj.conic.solver import (
    POLISH_STOP_RATIO,
    _equilibrate,
    _NtScaling,
    _Pattern,
    _polish,
    _Workspace,
)
from covtraj.errors import ConfigError, NumericalError


def _triplets(entries):
    """(rows, cols, vals) arrays of (local_row, col, val) triplets."""
    rows = np.array([e[0] for e in entries], dtype=int)
    cols = np.array([e[1] for e in entries], dtype=int)
    vals = np.array([e[2] for e in entries], dtype=float)
    return rows, cols, vals


def _var_cone(pb, kind, entries, b, alpha=None):
    """Cone rows from (local_row, col, val) triplets."""
    return pb.cone(kind, np.asarray(b, dtype=float), *_triplets(entries), alpha=alpha)


def _power_cone(pb, entries, b, p, q):
    """The soc tower of a power cone of exponent p/q, from its slack's triplets."""
    return pb.power_cone(np.asarray(b, dtype=float), *_triplets(entries), p, q)


def test_lp_unique_vertex():
    # min -2 x0 - x1 s.t. x0 + x1 <= 1, x >= 0 -> x = (1, 0), obj -2
    pb = ProgramBuilder("lp")
    x = pb.var_block("x", 2)
    pb.cost(x, [-2.0, -1.0])
    _var_cone(pb, "nonneg", [(0, x[0], 1.0), (0, x[1], 1.0)], [1.0])
    _var_cone(pb, "nonneg", [(0, x[0], -1.0), (1, x[1], -1.0)], [0.0, 0.0])
    res = solve(pb.build())
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-7)
    assert res.obj == pytest.approx(-2.0, abs=1e-7)


def test_soc_projection_with_equality():
    # min t s.t. t >= ||x - p||, x0 + x1 = 1, p = 0 -> x = (.5, .5), t = sqrt(.5)
    pb = ProgramBuilder("proj")
    x = pb.var_block("x", 2)
    t = pb.var_block("t", 1)[0]
    pb.cost(t, 1.0)
    _var_cone(pb, "zero", [(0, x[0], 1.0), (0, x[1], 1.0)], [1.0])
    _var_cone(
        pb, "soc",
        [(0, t, -1.0), (1, x[0], -1.0), (2, x[1], -1.0)],
        [0.0, 0.0, 0.0],
    )
    res = solve(pb.build())
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x[:2], [0.5, 0.5], atol=1e-7)
    assert res.x[2] == pytest.approx(np.sqrt(0.5), abs=1e-7)


def test_soc_anchored_distance():
    # min t s.t. t >= ||x - p||, x fixed by equalities at q
    p = np.array([1.0, -2.0, 0.5])
    q = np.array([-0.3, 0.4, 2.0])
    pb = ProgramBuilder()
    x = pb.var_block("x", 3)
    t = pb.var_block("t", 1)[0]
    pb.cost(t, 1.0)
    _var_cone(pb, "zero", [(i, x[i], 1.0) for i in range(3)], q)
    _var_cone(
        pb, "soc",
        [(0, t, -1.0)] + [(1 + i, x[i], -1.0) for i in range(3)],
        np.concatenate([[0.0], -p]),
    )
    res = solve(pb.build())
    assert res.status == "optimal"
    assert res.x[3] == pytest.approx(np.linalg.norm(q - p), abs=1e-7)


def test_primal_infeasible_certificate():
    # x >= 1 and x <= 0 cannot hold
    pb = ProgramBuilder()
    x = pb.var_block("x", 1)[0]
    pb.cost(x, 1.0)
    _var_cone(pb, "nonneg", [(0, x, -1.0)], [-1.0])  # x - 1 >= 0
    _var_cone(pb, "nonneg", [(0, x, 1.0)], [0.0])  # -x >= 0
    res = solve(pb.build())
    assert res.status == "primal_infeasible"
    assert res.x is None


def test_dual_infeasible_certificate():
    # min -x with x >= 0 is unbounded below
    pb = ProgramBuilder()
    x = pb.var_block("x", 1)[0]
    pb.cost(x, -1.0)
    _var_cone(pb, "nonneg", [(0, x, -1.0)], [0.0])
    res = solve(pb.build())
    assert res.status == "dual_infeasible"


def test_pow3_epigraph_of_tau_power():
    # min a s.t. a^(10/11) >= |z|, z = 2  ->  a = 2^(11/10)
    pb = ProgramBuilder()
    a = pb.var_block("a", 1)[0]
    pb.cost(a, 1.0)
    _power_cone(pb, [(0, a, -1.0)], [0.0, 1.0, 2.0], 10, 11)
    res = solve(pb.build())
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0 ** 1.1, abs=1e-6)


def test_pow3_general_exponent():
    # min x s.t. x^(2/3) y^(1/3) >= |z|, y = 8, z = 3 -> x = (3/2)^(3/2)
    pb = ProgramBuilder()
    x = pb.var_block("x", 1)[0]
    pb.cost(x, 1.0)
    _power_cone(pb, [(0, x, -1.0)], [0.0, 8.0, 3.0], 2, 3)
    res = solve(pb.build())
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.5 ** 1.5, abs=1e-6)


def test_pow3_sqrt_case():
    # alpha = 1/2: min x s.t. sqrt(x y) >= |z|, y = 4, z = 3 -> x = 9/4
    pb = ProgramBuilder()
    x = pb.var_block("x", 1)[0]
    pb.cost(x, 1.0)
    _power_cone(pb, [(0, x, -1.0)], [0.0, 4.0, 3.0], 1, 2)
    res = solve(pb.build())
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.25, abs=1e-6)


def test_penalty_shaped_composite():
    # min a + q s.t. a >= |xi|^1.1, q >= xi^2, xi = 0.7; q >= xi^2 is the
    # soc (q + 1/2, q - 1/2, sqrt(2) xi), as build_subproblem writes it
    pb = ProgramBuilder()
    xi = pb.var_block("xi", 1)[0]
    a = pb.var_block("a", 1)[0]
    q = pb.var_block("q", 1)[0]
    pb.cost([a, q], [1.0, 1.0])
    _var_cone(pb, "zero", [(0, xi, 1.0)], [0.7])
    _power_cone(pb, [(0, a, -1.0), (2, xi, -1.0)], [0.0, 1.0, 0.0], 10, 11)
    _var_cone(pb, "soc", [(0, q, -1.0), (1, q, -1.0), (2, xi, -np.sqrt(2.0))],
              [0.5, -0.5, 0.0])
    res = solve(pb.build())
    assert res.status == "optimal"
    assert res.x[1] == pytest.approx(0.7 ** 1.1, abs=1e-6)
    assert res.x[2] == pytest.approx(0.49, abs=1e-6)


@pytest.mark.parametrize(
    "p, q, n_aux, dims",
    [(10, 11, 4, [2, 3, 3, 3, 3]), (3, 10, 6, [2, 3, 3, 3, 3, 3, 3]), (1, 2, 1, [2, 3])],
    ids=["10-11", "3-10", "1-2"],
)
def test_power_cone_rows_match_dense_slack_oracle(p, q, n_aux, dims):
    # b - A [x; aux] of the built program is the documented tower of the
    # power cone's slack b_p - A_p x, for any x and aux; the soc cone added
    # first keeps its slack, and the tower's columns come after the block
    rng = np.random.default_rng(7)
    n = 4
    pb = ProgramBuilder()
    pb.var_block("x", n)
    slacks = []
    for dim in (5, 3):
        local, cols = np.divmod(np.arange(dim * n), n)
        b, vals = rng.standard_normal(dim), rng.standard_normal(dim * n)
        if dim == 5:
            pb.cone("soc", b, local, cols, vals)
        else:
            pb.power_cone(b, local, cols, vals, p, q)
        slacks.append((b, vals.reshape(dim, n)))
    prog = pb.build()
    assert prog.n_vars == n + n_aux and prog.var_blocks == {"x": slice(0, n)}
    assert not prog.c.any()
    assert [c.kind for c in prog.cones] == ["soc"] * (1 + len(dims))
    assert [c.dim for c in prog.cones] == [5, *dims]
    x = rng.standard_normal(n)
    aux = rng.standard_normal(n_aux)
    got = prog.b - prog.A.toarray() @ np.concatenate([x, aux])
    (b_soc, a_soc), (b_pow, a_pow) = slacks
    want = np.concatenate([b_soc - a_soc @ x, pow3_tower_slack(b_pow - a_pow @ x, aux, p, q)])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _interleaved_program(order):
    """min t + u + v + 0.1 x0 over the cones named in ``order``.

    soc: ||x - p|| <= t; zero0: x0 + x1 + x2 = 1; nonneg: x2 <= 0.2;
    quad: u >= x0^2, the soc (u + 1/2, u - 1/2, sqrt(2) x0);
    power: v >= |x1|^1.1, the tower of v^(10/11) >= |x1|; zero1: x3 = 0.5.
    """
    pb = ProgramBuilder("interleaved")
    x = pb.var_block("x", 4)
    t, u, v = pb.var_block("tuv", 3)
    pb.cost([t, u, v, x[0]], [1.0, 1.0, 1.0, 0.1])
    cones = {
        "soc": ("soc", [0.0, 0.3, -0.2, 0.1, 0.4],
                [(0, t, -1.0)] + [(1 + j, x[j], -1.0) for j in range(4)]),
        "zero0": ("zero", [1.0], [(0, x[j], 1.0) for j in range(3)]),
        "nonneg": ("nonneg", [0.2], [(0, x[2], 1.0)]),
        "quad": ("soc", [0.5, -0.5, 0.0],
                 [(0, u, -1.0), (1, u, -1.0), (2, x[0], -np.sqrt(2.0))]),
        "power": ("power", [0.0, 1.0, 0.0], [(0, v, -1.0), (2, x[1], -1.0)]),
        "zero1": ("zero", [0.5], [(0, x[3], 1.0)]),
    }
    for name in order:
        kind, b, entries = cones[name]
        if kind == "power":
            _power_cone(pb, entries, b, 10, 11)
        else:
            _var_cone(pb, kind, entries, b)
    return pb.build()


def test_builder_call_order_does_not_change_the_program():
    # the builder puts the cones in class order and keeps the call order
    # within a class, so every call order that keeps it builds one program
    order = ["soc", "zero0", "nonneg", "quad", "power", "zero1"]
    prog = _interleaved_program(order)
    assert [c.kind for c in prog.cones] == ["zero", "zero", "nonneg"] + ["soc"] * 7
    assert [c.dim for c in prog.cones[3:]] == [5, 3, 2, 3, 3, 3, 3]
    digest = program_digest(prog)
    n_orders = 0
    for perm in itertools.permutations(order):
        if perm.index("zero0") < perm.index("zero1") and (
            perm.index("soc") < perm.index("quad") < perm.index("power")
        ):
            assert program_digest(_interleaved_program(perm)) == digest, perm
            n_orders += 1
    assert n_orders == 60
    # within a class the call order stands
    swapped = _interleaved_program(["zero0", "zero1", "nonneg", "quad", "soc", "power"])
    assert [c.dim for c in swapped.cones[3:5]] == [3, 5]
    res = solve(prog)
    assert res.status == "optimal"


def _empty_program(*cones):
    m = sum(c.dim for c in cones)
    return ConicProgram(c=np.zeros(1), A=sp.csr_matrix((m, 1)), b=np.zeros(m), cones=cones)


def test_program_rejects_cones_out_of_class_order():
    _empty_program(Cone("zero", 1), Cone("nonneg", 2), Cone("pow3", 3, 0.5), Cone("soc", 3))
    for cones in (
        (Cone("soc", 3), Cone("nonneg", 2)),
        (Cone("nonneg", 1), Cone("zero", 1)),
        (Cone("pow3", 3, 0.5), Cone("zero", 1)),
    ):
        with pytest.raises(ValueError, match="class order|zero, then nonneg"):
            _empty_program(*cones)


def test_workspace_rejects_a_non_canonical_program():
    _Workspace(_empty_program(Cone("zero", 1), Cone("nonneg", 2), Cone("soc", 3)))
    # the two declared kinds the builder never writes: one error for both
    for declared in (Cone("pow3", 3, 0.5), Cone("rsoc", 3)):
        prog = _empty_program(Cone("nonneg", 1), declared)
        for reject in (_Workspace, solve):
            with pytest.raises(ValueError, match="^the solver takes zero, then nonneg, then soc cones$"):
                reject(prog)


def test_builder_stores_no_explicit_zeros():
    pb = ProgramBuilder()
    x = pb.var_block("x", 3)
    # an explicit 0.0, and two entries that sum to zero
    _var_cone(pb, "nonneg", [(0, x[0], 1.0), (0, x[1], 0.0), (1, x[2], 2.0), (1, x[2], -2.0)],
              [1.0, 1.0])
    A = pb.build().A.tocoo()
    assert A.nnz == 1
    assert (A.row.tolist(), A.col.tolist(), A.data.tolist()) == ([0], [x[0]], [1.0])


def test_equilibration_matches_per_group_loop():
    # the reduceat maxima over the pattern's fixed orders equal scipy's
    # column maxima and the per-cone row loop they replaced, bit for bit
    rng = np.random.default_rng(11)
    cones = (Cone("zero", 2), Cone("nonneg", 3), Cone("soc", 4), Cone("soc", 2))
    m, n = 11, 5
    dense = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 3, (m, n))
    dense[rng.random((m, n)) < 0.4] = 0.0
    dense[4] = 0.0  # an all-zero row keeps the scale 1
    A = sp.csr_matrix(dense)
    scaled = A.copy()
    pattern = _Pattern(ConicProgram(c=np.zeros(n), A=A, b=np.zeros(m), cones=cones))
    e, d = _equilibrate(scaled.data, pattern)

    groups = [np.array([r]) for r in range(5)] + [np.arange(5, 9), np.arange(9, 11)]
    work, e_ref, d_ref = A.copy(), np.ones(m), np.ones(n)
    for _ in range(3):
        cmax = np.abs(work).max(axis=0).toarray().ravel()
        cs = np.where(cmax > 0.0, 1.0 / np.sqrt(np.maximum(cmax, 1e-12)), 1.0)
        d_ref *= cs
        work = work @ sp.diags(cs)
        rmax = np.abs(work).max(axis=1).toarray().ravel()
        rs = np.ones(m)
        for g in groups:
            if rmax[g].max() > 0.0:
                rs[g] = 1.0 / np.sqrt(rmax[g].max())
        e_ref *= rs
        work = sp.diags(rs) @ work
    assert d.tobytes() == d_ref.tobytes()
    assert e.tobytes() == e_ref.tobytes()
    assert scaled.toarray().tobytes() == work.toarray().tobytes()


def test_dump_load_round_trip():
    pb = ProgramBuilder("roundtrip")
    x = pb.var_block("x", 2)
    t = pb.var_block("t", 1)[0]
    pb.cost(t, 1.0)
    _var_cone(pb, "zero", [(0, x[0], 1.0), (0, x[1], 0.25)], [1.0])
    _var_cone(
        pb, "soc",
        [(0, t, -1.0), (1, x[0], -1.0), (2, x[1], -1.0)],
        [0.0, 0.125, -0.3],
    )
    _power_cone(pb, [(0, t, -1.0)], [0.0, 1.0, 0.5], 10, 11)
    prog = pb.build()
    text = prog.dump()
    prog2 = ConicProgram.load(text)
    assert prog2.dump() == text
    r1, r2 = solve(prog), solve(prog2)
    assert r1.status == r2.status
    np.testing.assert_array_equal(r1.x, r2.x)
    # a declared pow3 cone keeps its exponent's bits
    pow3 = _empty_program(Cone("nonneg", 1), Cone("pow3", 3, 10.0 / 11.0))
    assert ConicProgram.load(pow3.dump()).cones == pow3.cones


def test_load_rejects_unknown_kinds_and_cones_out_of_class_order():
    pb = ProgramBuilder("load")
    x = pb.var_block("x", 2)
    _var_cone(pb, "zero", [(0, x[0], 1.0)], [1.0])
    _var_cone(pb, "soc", [(1, x[0], -1.0), (2, x[1], -1.0)], [1.0, 0.0, 0.0])
    text = pb.build().dump()
    assert "cones\nzero 1 -\nsoc 3 -\n" in text
    for bad in (
        text.replace("soc 3 -", "exp 3 -"),  # a kind no program holds
        text.replace("soc 3 -", "soc 1 -"),  # a cone too small for its kind
        text.replace("zero 1 -\nsoc 3 -", "soc 3 -\nzero 1 -"),  # out of class order
    ):
        with pytest.raises(ConfigError):
            ConicProgram.load(bad)


def _small_socp():
    """A 5-variable SOCP with three equality rows and one 5-row cone."""
    pb = ProgramBuilder()
    rng = np.random.default_rng(12)
    x = pb.var_block("x", 4)
    t = pb.var_block("t", 1)[0]
    pb.cost(t, 1.0)
    pb.cost(x, rng.standard_normal(4) * 0.1)
    A = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    entries = [(i, x[j], A[i, j]) for i in range(3) for j in range(4)]
    _var_cone(pb, "zero", entries, b)
    _var_cone(
        pb, "soc",
        [(0, t, -1.0)] + [(1 + j, x[j], -1.0) for j in range(4)],
        np.zeros(5),
    )
    return pb.build()


def test_solver_deterministic():
    prog = _small_socp()
    r1 = solve(prog)
    r2 = solve(prog)
    assert r1.status == r2.status == "optimal"
    assert r1.x.tobytes() == r2.x.tobytes()
    assert r1.obj == r2.obj


def test_capped_solve_reports_the_residuals_of_the_iterate_it_returns():
    # each IPM iteration measures its iterate and then steps, so a solve
    # stopped by the cap must return a measured iterate with its own
    # residuals: two results share x exactly when they share residuals. The
    # interleaved program runs enough iterations (11) that three capped
    # solves already return an iterate within 1e2 * tol
    prog = _interleaved_program(["zero0", "nonneg", "soc", "quad", "power", "zero1"])
    full = solve(prog)
    assert full.status == "optimal"
    results = [solve(prog, max_iters=j) for j in range(1, full.iterations)] + [full]
    returned = [r for r in results if r.x is not None]
    assert [r.status for r in returned[:-1]] == ["optimal_inaccurate"] * (len(returned) - 1)
    assert len(returned) >= 3
    for a, b in itertools.combinations(returned, 2):
        same_residuals = (a.pres, a.dres, a.gap) == (b.pres, b.dres, b.gap)
        assert same_residuals == np.array_equal(a.x, b.x)


@pytest.mark.parametrize("seed", range(10))
def test_solve_survives_last_bit_changes_of_the_factored_matrices(monkeypatch, seed):
    # a symmetric one-ulp perturbation of every factored matrix (random signs
    # times eps |M|) stands for any re-associated sum in their assembly; the
    # stopping iteration must not hinge on such last bits
    prog = _small_socp()
    plain = solve(prog)
    rng = np.random.default_rng(seed)
    cho_factor = solver.sla.cho_factor

    def perturbed(a, *args, **kwargs):
        signs = np.triu(rng.choice([-1.0, 1.0], size=a.shape))
        signs += np.triu(signs, 1).T
        return cho_factor(a + signs * np.finfo(float).eps * np.abs(a), *args, **kwargs)

    monkeypatch.setattr(solver.sla, "cho_factor", perturbed)
    res = solve(prog)
    assert plain.status == res.status == "optimal"
    assert res.iterations == plain.iterations


def _spy_cho_factor(monkeypatch, order, fail=()):
    """Wrap the solver's cho_factor to record the diagonal of each order x order input.

    The k-th such call (counting from 1) raises LinAlgError instead of
    factoring when k is in ``fail``.
    """
    cho_factor = solver.sla.cho_factor
    seen = []

    def spy(a, *args, **kwargs):
        if a.shape[0] == order:
            seen.append(a.diagonal().copy())
            if len(seen) in fail:
                raise np.linalg.LinAlgError("injected")
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(solver.sla, "cho_factor", spy)
    return seen


def test_factor_retry_scales_the_diagonal(monkeypatch):
    # the first attempt of the third iteration (the fourth factorization,
    # after the start's) fails; the retry factors the same matrix with its
    # diagonal scaled by 1 + 1e4 * STATIC_REG
    prog = _small_socp()
    seen = _spy_cho_factor(monkeypatch, prog.n_vars, fail=(4,))
    res = solve(prog)
    assert res.status == "optimal"
    np.testing.assert_array_equal(seen[4], seen[3] * (1.0 + 1e4 * solver.STATIC_REG))


def test_factor_that_fails_every_retry_ends_numerical_error(monkeypatch):
    prog = _small_socp()
    seen = _spy_cho_factor(monkeypatch, prog.n_vars, fail=(4, 5, 6))
    res = solve(prog)
    assert res.status == "numerical_error"
    assert len(seen) == 6 and res.iterations == 3


def test_failing_equality_factor_ends_numerical_error(monkeypatch):
    prog = _small_socp()
    n_eq = sum(c.dim for c in prog.cones if c.kind == "zero")
    # the start factors E first, then each iteration once: call 3 is iteration 2's
    _spy_cho_factor(monkeypatch, n_eq, fail=(3,))
    res = solve(prog)
    assert res.status == "numerical_error"
    assert res.iterations == 2


def test_nan_in_the_factored_triangle_ends_numerical_error(monkeypatch):
    # from the third iteration on (the fourth assembly, after the start's),
    # one entry of the lower triangle is NaN
    assemble = _Workspace.assemble_normal
    calls = []

    def poisoned(self, sc):
        M = assemble(self, sc)
        calls.append(1)
        if len(calls) >= 4:
            M[2, 1] = np.nan
        return M

    monkeypatch.setattr(_Workspace, "assemble_normal", poisoned)
    res = solve(_small_socp())
    assert res.status == "numerical_error"
    assert res.iterations == 3


def test_non_finite_saddle_right_hand_side_ends_numerical_error(monkeypatch):
    # system 1 of the second iteration gets a NaN right-hand side; the
    # start's primal solve is the first with b_in on the right
    mul_winv2 = _NtScaling.mul_winv2
    calls = []

    def poisoned(self, u):
        out = mul_winv2(self, u)
        if u is self.ws.b_in:
            calls.append(1)
            if len(calls) == 3:
                out[0] = np.nan
        return out

    monkeypatch.setattr(_NtScaling, "mul_winv2", poisoned)
    res = solve(_small_socp())
    assert res.status == "numerical_error"
    assert res.iterations == 2


def test_normal_matrix_is_factored_where_it_lies(monkeypatch):
    # LAPACK reads the lower triangle in Fortran order: no transposing copy
    # of the normal matrix, and no finiteness scan of the factor in a solve
    prog = _small_socp()
    n = prog.n_vars
    cho_factor, cho_solve = solver.sla.cho_factor, solver.sla.cho_solve
    layouts, solve_checks = [], []

    def factor_spy(a, *args, **kwargs):
        out = cho_factor(a, *args, **kwargs)
        if a.shape[0] == n:
            layouts.append(
                (a.flags.f_contiguous, kwargs.get("overwrite_a"), np.shares_memory(out[0], a))
            )
        return out

    def solve_spy(*args, **kwargs):
        solve_checks.append(kwargs.get("check_finite"))
        return cho_solve(*args, **kwargs)

    monkeypatch.setattr(solver.sla, "cho_factor", factor_spy)
    monkeypatch.setattr(solver.sla, "cho_solve", solve_spy)
    res = solve(prog)
    assert res.status == "optimal"
    assert layouts and set(layouts) == {(True, True, True)}
    assert solve_checks and set(solve_checks) == {False}


def test_random_socp_against_cvxpy():
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(3)
    for trial in range(5):
        n, m = 6, 4
        C = rng.standard_normal((m, n))
        d = rng.standard_normal(m)
        c_obj = rng.standard_normal(n) * 0.3

        # min c'x + t s.t. t >= ||C x + d||, ||x|| <= 2
        pb = ProgramBuilder()
        x = pb.var_block("x", n)
        t = pb.var_block("t", 1)[0]
        pb.cost(x, c_obj)
        pb.cost(t, 1.0)
        entries = [(0, t, -1.0)] + [
            (1 + i, x[j], -C[i, j]) for i in range(m) for j in range(n)
        ]
        _var_cone(pb, "soc", entries, np.concatenate([[0.0], d]))
        _var_cone(
            pb, "soc",
            [(1 + j, x[j], -1.0) for j in range(n)],
            np.concatenate([[2.0], np.zeros(n)]),
        )
        res = solve(pb.build())
        assert res.status == "optimal"

        xv = cp.Variable(n)
        obj = cp.Minimize(c_obj @ xv + cp.norm(C @ xv + d))
        prob = cp.Problem(obj, [cp.norm(xv) <= 2])
        prob.solve()
        assert res.obj == pytest.approx(prob.value, abs=1e-5)


def test_program_validation():
    pb = ProgramBuilder()
    pb.var_block("x", 2)
    with pytest.raises(ValueError):
        pb.var_block("x", 1)
    with pytest.raises(ValueError):
        _var_cone(pb, "soc", [(0, 0, 1.0)], [0.0])  # soc dim >= 2
    with pytest.raises(ValueError):
        _var_cone(pb, "pow3", [(0, 0, 1.0)], [0.0, 0.0, 0.0], alpha=1.5)
    for p, q in ((0, 2), (2, 2), (3, 2)):
        with pytest.raises(ValueError, match="not inside"):
            _power_cone(pb, [(0, 0, 1.0)], [0.0, 0.0, 0.0], p, q)
    with pytest.raises(ValueError, match="exactly 3 rows"):
        _power_cone(pb, [(0, 0, 1.0)], [0.0, 0.0], 1, 2)
    with pytest.raises(ValueError, match="out of cone range"):
        _power_cone(pb, [(3, 0, 1.0)], [0.0, 0.0, 0.0], 1, 2)
    with pytest.raises(ValueError):
        _var_cone(pb, "mystery", [(0, 0, 1.0)], [0.0])


def test_variable_with_only_equality_rows_still_solves():
    # min x0 s.t. x0 + x1 = 3, x0 >= 1: x1 never appears in an inequality
    # cone, so the normal matrix holds only its regularization there and the
    # equality Schur complement pins it. Optimum pins x0 = 1, so x1 = 2.
    pb = ProgramBuilder("eq-only-column")
    x = pb.var_block("x", 2)
    pb.cost(x[0], 1.0)
    _var_cone(pb, "zero", [(0, x[0], 1.0), (0, x[1], 1.0)], [3.0])
    _var_cone(pb, "nonneg", [(0, x[0], -1.0)], [-1.0])
    res = solve(pb.build())
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-7)


def test_unbounded_free_column_is_not_reported_optimal():
    # min x1 with x1 in no constraint row at all: unbounded below. The
    # embedding's dual-infeasibility certificate must classify it.
    pb = ProgramBuilder("free-ray")
    x = pb.var_block("x", 2)
    pb.cost(x[1], 1.0)
    _var_cone(pb, "nonneg", [(0, x[0], -1.0)], [-1.0])
    res = solve(pb.build())
    assert res.status == "dual_infeasible"
    assert res.x is None


def test_zero_cost_column_in_no_row_solves():
    # x1 has zero cost and appears in no row: any value is optimal, and the
    # regularized normal matrix keeps it at zero instead of failing.
    pb = ProgramBuilder("free-zero-cost")
    x = pb.var_block("x", 2)
    pb.cost(x[0], 1.0)
    _var_cone(pb, "nonneg", [(0, x[0], -1.0)], [-1.0])
    res = solve(pb.build())
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-7)
    assert res.obj == pytest.approx(1.0, abs=1e-7)


# ------------------------------------------------ flat cone operations
SOC_SIZES = (2, 3, 4, 25, 181)


def _cone_workspace(sizes, n_nonneg=0):
    """Workspace of a program whose rows are n_nonneg nonneg rows, then one soc per size."""
    m = n_nonneg + sum(sizes)
    cones = ((Cone("nonneg", n_nonneg),) if n_nonneg else ()) + tuple(
        Cone("soc", k) for k in sizes
    )
    prog = ConicProgram(c=np.zeros(1), A=sp.csr_matrix((m, 1)), b=np.zeros(m), cones=cones)
    return _Workspace(prog)


def _interior(rng, ws):
    """A random point strictly inside every inequality cone (one-row cones too)."""
    u = np.empty(ws.m_in)
    for at, k in zip(ws.heads, ws.sizes):
        tail = rng.standard_normal(k - 1)
        u[at + 1: at + k] = tail
        u[at] = np.linalg.norm(tail) * rng.uniform(1.05, 3.0) + rng.uniform(0.05, 1.0)
    return u


def _per_cone(ws, v):
    """Split a vector over the inequality rows into one array per cone."""
    return np.split(v, ws.heads[1:])


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.sampled_from(SOC_SIZES), min_size=1, max_size=6),
    n_nonneg=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_cone_operations_match_dense_oracle(sizes, n_nonneg, seed):
    rng = np.random.default_rng(seed)
    ws = _cone_workspace(sizes, n_nonneg)
    s, z = _interior(rng, ws), _interior(rng, ws)
    sc = _NtScaling(ws, s, z)
    u = rng.standard_normal(ws.m_in)
    tol = 1e-10

    # W z = W^-1 s = lam, W W^-1 u = u, W^-2 u = W^-1 W^-1 u
    assert _rel(sc.mul_w(z), sc.lam) <= tol
    assert _rel(sc.mul_winv(s), sc.lam) <= tol
    assert _rel(sc.mul_w(sc.mul_winv(u)), u) <= tol
    assert _rel(sc.mul_winv2(u), sc.mul_winv(sc.mul_winv(u))) <= tol
    # the arrow solve inverts the Jordan product
    assert _rel(ws.jmul(sc.lam, sc.arrow_solve(u)), u) <= tol
    assert _rel(sc.arrow_solve(ws.jmul(sc.lam, u)), u) <= tol

    # each cone, nonneg rows included, against its explicit W and arrow matrices
    blocks = [
        _per_cone(ws, v)
        for v in (s, z, u, sc.lam, sc.mul_w(u), sc.mul_winv2(u), ws.jmul(sc.lam, u))
    ]
    for k, (wbar, sk, zk, uk, lk, wu, w2u, ju) in enumerate(
        zip(_per_cone(ws, sc.wbar), *blocks)
    ):
        W = nt_scaling_matrix(sc.eta[k], wbar)
        assert _rel(W @ zk, lk) <= tol
        assert _rel(np.linalg.solve(W, sk), lk) <= tol
        assert _rel(W @ uk, wu) <= tol
        assert _rel(np.linalg.solve(W @ W, uk), w2u) <= tol
        assert _rel(arrow_matrix(lk) @ uk, ju) <= tol

    # max step: on the boundary of each cone, or inf when d lies in the cone;
    # a one-row cone leaves only through its head, at -u/d exactly
    d = rng.standard_normal(ws.m_in)
    inside = np.repeat(rng.random(ws.sizes.size) < 0.3, ws.sizes)
    d = np.where(inside, _interior(rng, ws), d)
    steps = ws.cone_steps(s, d)
    for k, (sk, dk) in enumerate(zip(_per_cone(ws, s), _per_cone(ws, d))):
        if dk.size == 1:
            assert steps[k] == (-sk[0] / dk[0] if dk[0] < 0.0 else np.inf)
            continue
        in_cone = dk[0] >= np.linalg.norm(dk[1:])
        if in_cone:
            assert steps[k] == np.inf
            continue
        assert 0.0 < steps[k] < np.inf
        p = sk + steps[k] * dk
        scale = np.linalg.norm(sk) + steps[k] * np.linalg.norm(dk)
        assert abs(p[0] - np.linalg.norm(p[1:])) <= tol * scale
    assert ws.max_step(s, d) == steps.min(initial=np.inf)


def _random_cone_workspace(rng, sizes, n_nonneg, empty, full):
    """Workspace of a random 9-column program with two equality rows, n_nonneg
    nonneg rows and one soc per size; the cones listed in ``empty`` touch no
    column, those in ``full`` every column through their head row. Returns
    it with its equilibrated inequality rows, dense."""
    n, n_eq = 9, 2
    m = n_eq + n_nonneg + sum(sizes)
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.4)
    starts = n_eq + n_nonneg + np.cumsum(sizes) - sizes
    for k in empty:
        A[starts[k]: starts[k] + sizes[k]] = 0.0
    for k in full:
        A[starts[k], :] = rng.standard_normal(n)
    cones = (Cone("zero", n_eq), Cone("nonneg", n_nonneg)) + tuple(Cone("soc", k) for k in sizes)
    ws = _Workspace(ConicProgram(c=np.zeros(n), A=sp.csr_matrix(A), b=np.zeros(m), cones=cones))
    return ws, ws.A_in.toarray()


@pytest.mark.parametrize(
    "sizes, n_nonneg, empty, full",
    [
        ((2, 3, 5, 25, 4), 3, (), ()),  # mixed cone sizes plus nonneg rows
        ((3, 6, 2), 2, (), (1,)),  # one cone on every column
        ((4, 3, 5), 1, (1,), ()),  # one cone on no column
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_normal_matrix_matches_dense_oracle(sizes, n_nonneg, empty, full, seed):
    rng = np.random.default_rng(seed)
    ws, A_in = _random_cone_workspace(rng, sizes, n_nonneg, empty, full)
    s, z = _interior(rng, ws), _interior(rng, ws)
    sc = _NtScaling(ws, s, z)

    # the nonneg rows lead the cone region, one one-row cone each
    assert np.array_equal(ws.sizes, (1,) * n_nonneg + sizes)
    nn = slice(0, n_nonneg)
    winv2 = np.zeros((ws.m_in, ws.m_in))
    winv2[nn, nn] = np.diag(z[nn] / s[nn])
    for at, eta, wbar in zip(
        ws.heads[n_nonneg:], sc.eta[n_nonneg:], _per_cone(ws, sc.wbar)[n_nonneg:]
    ):
        winv = np.linalg.inv(nt_scaling_matrix(eta, wbar))
        winv2[at: at + wbar.size, at: at + wbar.size] = winv @ winv
    oracle = A_in.T @ winv2 @ A_in
    # the solver assembles and factors one triangle; the upper one stays zero
    M = ws.assemble_normal(sc)
    assert _rel(np.tril(M), np.tril(oracle)) <= 1e-12
    assert not np.any(np.triu(M, 1))
    # the stack keeps the entries i <= j of each group's Gram block
    groups = np.split(A_in, ws.heads[1:])
    assert ws.gram_stack.nnz == sum(np.triu((Ag != 0).T @ (Ag != 0)).sum() for Ag in groups)
    for k in empty:
        assert not np.any(ws.gram_stack[:, n_nonneg + k].toarray())


def test_scaling_rejects_a_point_outside_one_cone():
    sizes = [3, 4, 2]
    ws = _cone_workspace(sizes, n_nonneg=2)
    rng = np.random.default_rng(5)
    s, z = _interior(rng, ws), _interior(rng, ws)
    _NtScaling(ws, s, z)
    k = 2 + 1  # the 4-row cone, after the two one-row nonneg cones
    rows = slice(ws.heads[k], ws.heads[k] + ws.sizes[k])
    outside = s.copy()
    outside[rows.start] = 0.5 * np.linalg.norm(s[rows][1:])  # head below the tail norm
    mirrored = s.copy()
    mirrored[rows] = -s[rows]  # inside -K: the Lorentz form alone is positive
    for bad in (outside, mirrored):
        with pytest.raises(NumericalError):
            _NtScaling(ws, bad, z)
        with pytest.raises(NumericalError):
            _NtScaling(ws, z, bad)


@pytest.mark.parametrize("value", [0.0, -0.5])
def test_scaling_rejects_a_nonneg_slack_at_or_below_zero(value):
    # a nonneg row is a one-row cone: the interior check catches it before
    # any square root is taken
    sizes = [3, 4]
    ws = _cone_workspace(sizes, n_nonneg=2)
    rng = np.random.default_rng(7)
    s, z = _interior(rng, ws), _interior(rng, ws)
    bad = s.copy()
    bad[1] = value
    with pytest.raises(NumericalError):
        _NtScaling(ws, bad, z)
    with pytest.raises(NumericalError):
        _NtScaling(ws, z, bad)


def test_max_step_is_zero_from_the_cone_boundary():
    sizes = [3, 2, 4]
    ws = _cone_workspace(sizes)
    rng = np.random.default_rng(6)
    u = _interior(rng, ws)
    u[3:5] = [2.0, -2.0]  # the 2-row cone: u0 = |u1|, c = 0
    d = rng.standard_normal(ws.m_in)
    steps = ws.cone_steps(u, d)
    assert steps[1] == 0.0
    assert steps[0] > 0.0 and steps[2] > 0.0
    assert ws.max_step(u, d) == 0.0


def test_stacked_points_take_the_steps_of_each_point():
    # one cone_steps call over stacked (s, z) gives each point's own steps,
    # bit for bit, and max_step their joint minimum
    ws = _cone_workspace([3, 2, 25, 4], n_nonneg=3)
    rng = np.random.default_rng(11)
    s, z = _interior(rng, ws), _interior(rng, ws)
    ds, dz = rng.standard_normal((2, ws.m_in))
    both = ws.cone_steps(np.stack((s, z)), np.stack((ds, dz)))
    assert np.array_equal(both, np.stack((ws.cone_steps(s, ds), ws.cone_steps(z, dz))))
    assert ws.max_step(np.stack((s, z)), np.stack((ds, dz))) == min(
        ws.max_step(s, ds), ws.max_step(z, dz)
    )


def test_program_without_a_second_order_cone_skips_the_rank_one_update(monkeypatch):
    # on a one-row cone W^-2 = 1/eta^2 is the Gram weight alone, so an LP's
    # normal matrix needs no F column and no dsyrk
    def no_dsyrk(*args, **kwargs):
        raise AssertionError("dsyrk called on a program with no soc cone")

    monkeypatch.setattr(solver, "dsyrk", no_dsyrk)
    pb = ProgramBuilder("lp")
    x = pb.var_block("x", 2)
    pb.cost(x, [-2.0, -1.0])
    _var_cone(pb, "nonneg", [(0, x[0], 1.0), (0, x[1], 1.0)], [1.0])
    _var_cone(pb, "nonneg", [(0, x[0], -1.0), (1, x[1], -1.0)], [0.0, 0.0])
    res = solve(pb.build())
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-7)


# ------------------------------------------------ polish stop rule
def _polish_toward(qs, target=0.0, passes=10):
    """Polish d toward b = ((3, -4), 2), where correction k leaves qs[k] of the residual.

    Returns the polished d and the residual norm each correction was asked
    to remove (5 for the first).
    """
    b = (np.array([3.0, -4.0]), 2.0)
    seen = []

    def residuals(d):
        return tuple(bj - dj for bj, dj in zip(b, d))

    def correction(rs):
        q = qs[len(seen)] if len(seen) < len(qs) else qs[-1]
        seen.append(max(np.linalg.norm(r) if np.ndim(r) else abs(r) for r in rs))
        return tuple((1.0 - q) * r for r in rs)

    return _polish((np.zeros(2), 0.0), residuals, correction, target, passes), seen


def test_polish_runs_while_each_pass_gains_the_stop_ratio():
    # every pass cuts the residual tenfold: the 10-pass cap ends the loop
    _, seen = _polish_toward([0.1])
    assert len(seen) == 10
    np.testing.assert_allclose(seen, 5.0 * 0.1 ** np.arange(10), rtol=1e-5)
    # ... or the absolute target, once a measured residual is within it
    _, seen = _polish_toward([0.1], target=1e-2)
    assert seen == pytest.approx([5.0, 0.5, 0.05])


def test_polish_stops_at_the_first_pass_that_gains_less_than_the_stop_ratio():
    assert POLISH_STOP_RATIO == 5.0
    # two tenfold cuts, then a pass that only halves the residual: the
    # residual it leaves is measured and the loop stops there
    d, seen = _polish_toward([0.1, 0.1, 0.5, 0.1])
    assert seen == pytest.approx([5.0, 0.5, 0.05])
    np.testing.assert_allclose(d[0], [3.0, -4.0], atol=0.026)
    # a fourfold cut is below the ratio too; so is a residual that grows
    for q in (0.25, 0.8, 2.0):
        _, seen = _polish_toward([q])
        assert len(seen) == 1
    # no passes leave the direction as it is
    d, seen = _polish_toward([0.1], passes=0)
    assert not seen and d[1] == 0.0


def test_polish_reverts_a_pass_that_raised_the_residual():
    # a tenfold cut, then a pass that doubles the residual: that pass is
    # measured, stops the loop and is undone, so the direction keeps the
    # residual 0.5 of the first pass instead of 1.0
    d, seen = _polish_toward([0.1, 2.0])
    assert seen == pytest.approx([5.0, 0.5])
    np.testing.assert_allclose(d[0], [2.7, -3.6], rtol=1e-14)
    assert d[1] == pytest.approx(1.8, rel=1e-14)
    # a first pass that raises the residual leaves the direction as it was
    d, seen = _polish_toward([2.0])
    assert seen == pytest.approx([5.0])
    assert not d[0].any() and d[1] == 0.0


# ------------------------------------------------ the sparse KKT path
def _force_path(monkeypatch, path):
    """Send every program to one factorization by patching the rule's constant."""
    monkeypatch.setattr(solver, "SPARSE_KKT_RATIO", {"dense": np.inf, "sparse": 0.0}[path])


def _oracle_winv2(ws, sc):
    """Block-diagonal W^-2 from each cone's explicit W, as J W^2 J / eta^4."""
    winv2 = np.zeros((ws.m_in, ws.m_in))
    for at, eta, wbar in zip(ws.heads, sc.eta, _per_cone(ws, sc.wbar)):
        W = nt_scaling_matrix(eta, wbar)
        J = np.diag(np.r_[1.0, -np.ones(wbar.size - 1)])
        winv2[at: at + wbar.size, at: at + wbar.size] = J @ W @ W @ J / eta**4
    return winv2


def _kkt_case(monkeypatch, sizes, n_nonneg, empty, full, seed):
    """A sparse-path workspace on the cone sets of the normal-matrix oracle test."""
    _force_path(monkeypatch, "sparse")
    rng = np.random.default_rng(seed)
    ws, A_in = _random_cone_workspace(rng, sizes, n_nonneg, empty, full)
    assert ws.kkt is not None and not hasattr(ws, "gram_stack")
    return rng, ws, A_in


def _natural_kkt(ws, sc):
    """K at sc in natural order, as the first factorization builds it."""
    return ws.kkt._natural(ws, ws.kkt.variable(sc, 0.0))[0]


def _kkt_solves(ws, sc, reg_x):
    """Two solves of the KKT at sc without z-side regularization: the first
    factorization, which picks the order, and a later one in that order."""
    ws.kkt.reg = (reg_x, 0.0)
    return [ws.kkt.factor(sc, 0.0) for _ in range(2)]


KKT_CONE_SETS = [
    ((2, 3, 5, 25, 4), 3, (), ()),  # mixed cone sizes plus nonneg rows
    ((3, 6, 2), 2, (), (1,)),  # one cone on every column
    ((4, 3, 5), 1, (1,), ()),  # one cone on no column
    ((), 12, (), ()),  # one-row cones only: no expansion column
]


@pytest.mark.parametrize("sizes, n_nonneg, empty, full", KKT_CONE_SETS)
@pytest.mark.parametrize("seed", range(3))
def test_kkt_solve_matches_the_normal_equations(monkeypatch, sizes, n_nonneg, empty, full, seed):
    # K (dx, dz) = (f_x, f_z) reduces to (M + reg_x I) dx = f_x + A' W^-2 f_z
    # and dz = W^-2 (A dx - f_z); reg_x keeps the oracle well conditioned
    # where A_in has fewer independent rows than columns
    rng, ws, A_in = _kkt_case(monkeypatch, sizes, n_nonneg, empty, full, seed)
    sc = _NtScaling(ws, _interior(rng, ws), _interior(rng, ws))
    winv2 = _oracle_winv2(ws, sc)
    M = A_in.T @ winv2 @ A_in
    reg_x = 1e-3 * (1.0 + np.diag(M).max())
    f_x, f_z = rng.standard_normal(ws.n), rng.standard_normal(ws.m_in)
    dx = np.linalg.solve(M + reg_x * np.eye(ws.n), f_x + A_in.T @ winv2 @ f_z)
    dz = winv2 @ (A_in @ dx - f_z)
    for kkt_solve in _kkt_solves(ws, sc, reg_x):
        got_x, got_z = kkt_solve(f_x, f_z)
        assert _rel(got_x, dx) <= 1e-9 and _rel(got_z, dz) <= 1e-9
        # columns of right-hand sides solve as each column alone
        cols_x, cols_z = kkt_solve(np.stack([f_x, -f_x], 1), np.stack([f_z, -f_z], 1))
        np.testing.assert_allclose(cols_x, np.stack([got_x, -got_x], 1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(cols_z, np.stack([got_z, -got_z], 1), rtol=1e-12, atol=0)


@pytest.mark.parametrize("sizes, n_nonneg, empty, full", KKT_CONE_SETS)
def test_start_point_fixes_the_regularization_scale(monkeypatch, sizes, n_nonneg, empty, full):
    # at s = z = e each NT scaling is W = I, the scaling of the start's
    # Newton system: the scale both paths regularize by is 1 + the normal
    # matrix's largest diagonal there, whatever W the later iterates reach
    _force_path(monkeypatch, "dense")
    ws, A_in = _random_cone_workspace(np.random.default_rng(4), sizes, n_nonneg, empty, full)
    sc = _NtScaling(ws, ws.e, ws.e)
    assert np.all(sc.eta == 1.0) and np.array_equal(sc.wbar, ws.e)
    oracle = A_in.T @ _oracle_winv2(ws, sc) @ A_in
    assert ws.reg_scale == pytest.approx(1.0 + np.diag(oracle).max(), rel=1e-14)
    assert ws.reg_scale == pytest.approx(1.0 + np.diag(ws.assemble_normal(sc)).max(), rel=1e-14)
    # the sparse path's KKT regularizes x by the same scale, from its constructor
    _force_path(monkeypatch, "sparse")
    sparse, _ = _random_cone_workspace(np.random.default_rng(4), sizes, n_nonneg, empty, full)
    assert sparse.reg_scale == ws.reg_scale
    assert sparse.kkt.reg == (solver.KKT_REG * ws.reg_scale, solver.KKT_REG)


@pytest.mark.parametrize("sizes, n_nonneg, empty, full", KKT_CONE_SETS[:3])
@pytest.mark.parametrize("seed", range(3))
def test_kkt_expansion_holds_near_a_cone_boundary(monkeypatch, sizes, n_nonneg, empty, full, seed):
    # s and z a relative 4e-7 inside the boundary of the first soc cone, on
    # opposite sides: its wbar has omega = |wbar_1:| = 1 / sqrt(8e-7), about 1.1e3
    rng, ws, A_in = _kkt_case(monkeypatch, sizes, n_nonneg, empty, full, seed)
    s, z = _interior(rng, ws), _interior(rng, ws)
    at, d = ws.heads[n_nonneg], ws.sizes[n_nonneg]
    q = rng.standard_normal(d - 1)
    q /= np.linalg.norm(q)
    s[at], s[at + 1: at + d] = 1.0, (1.0 - 4e-7) * q
    z[at], z[at + 1: at + d] = 2.0, -2.0 * (1.0 - 4e-7) * q
    sc = _NtScaling(ws, s, z)
    assert np.sqrt(ws.tail_dot(sc.wbar, sc.wbar)).max() >= 1e3

    # eliminating the expansion columns from K leaves -W^2 on every cone
    kkt, n, m = ws.kkt, ws.n, ws.m_in
    kkt.reg = (1.0, 0.0)
    K = _natural_kkt(ws, sc).toarray()
    zz, aux = slice(n, n + m), slice(n + m, None)
    w2 = -K[zz, zz] + K[zz, aux] @ np.linalg.solve(K[aux, aux], K[aux, zz])
    for at, eta, wbar in zip(ws.heads, sc.eta, _per_cone(ws, sc.wbar)):
        W = nt_scaling_matrix(eta, wbar)
        block = w2[at: at + wbar.size, at: at + wbar.size]
        assert np.linalg.norm(block - W @ W) <= 1e-12 * np.linalg.norm(W @ W)

    # the reduced system's condition is about 1e8-1e9 here, so no solve in
    # double precision, the dense oracle's included, gets closer than about
    # 1e-8 to the exact solution
    winv2 = _oracle_winv2(ws, sc)
    M = A_in.T @ winv2 @ A_in
    reg_x = solver.KKT_REG * (1.0 + np.diag(M).max())
    f_x, f_z = rng.standard_normal(n), rng.standard_normal(m)
    dx = np.linalg.solve(M + reg_x * np.eye(n), f_x + A_in.T @ winv2 @ f_z)
    dz = winv2 @ (A_in @ dx - f_z)
    for kkt_solve in _kkt_solves(ws, sc, reg_x):
        got_x, got_z = kkt_solve(f_x, f_z)
        assert _rel(got_x, dx) <= 1e-6 and _rel(got_z, dz) <= 1e-6


@pytest.mark.parametrize("sizes, n_nonneg, empty, full", KKT_CONE_SETS)
def test_kkt_factors_k_in_its_first_factorizations_order(monkeypatch, sizes, n_nonneg, empty, full):
    # SuperLU gets K first, then K[q][:, q], q = argsort(perm_c) of that
    # first factorization, at a later scaling and at a bump retry of it,
    # byte for byte as an entry list (oracles.kkt_entries) builds them: K
    # from its entries in any order, and K[q][:, q] from entries tagged by
    # their position, whose tags give each value its slot. The slots the
    # KKT writes, in K and in K[q][:, q], hold exactly variable()'s values
    # at their entries' (row, col)
    rng, ws, _ = _kkt_case(monkeypatch, sizes, n_nonneg, empty, full, 0)
    kkt, splu = ws.kkt, spla.splu
    got, perm_c = [], []

    def spy(K, *args, **kwargs):
        got.append((K.data.copy(), K.indices.copy(), K.indptr.copy()))
        lu = splu(K, *args, **kwargs)
        perm_c.append(lu.perm_c)
        return lu

    def entry_cols(K):
        return np.repeat(np.arange(K.shape[1]), np.diff(K.indptr))

    monkeypatch.setattr(spla, "splu", spy)
    rows, cols = kkt_entries(ws)
    first, later = (_NtScaling(ws, _interior(rng, ws), _interior(rng, ws)) for _ in range(2))
    calls = [(first, 0.0), (later, 0.0), (later, 1e4)]
    variable = kkt.variable(first, 0.0)
    var_rows, var_cols = rows[: variable.size], cols[: variable.size]
    K, slot = kkt._natural(ws, variable)
    assert K.data[slot].tobytes() == variable.tobytes()
    assert np.array_equal(K.indices[slot], var_rows)
    assert np.array_equal(entry_cols(K)[slot], var_cols)
    for sc, bump in calls:
        kkt.factor(sc, bump)
        p, ordered = perm_c[0], kkt._ordered
        assert ordered.data[kkt._slot].tobytes() == kkt.variable(sc, bump).tobytes()
        assert np.array_equal(ordered.indices[kkt._slot], p[var_rows])
        assert np.array_equal(entry_cols(ordered)[kkt._slot], p[var_cols])
    shape = (kkt.size,) * 2
    for k, ((sc, bump), matrix) in enumerate(zip(calls, got)):
        values = np.concatenate([kkt.variable(sc, bump), ws.A_in.data, ws.A_in.data])
        shuffle = rng.permutation(values.size)
        natural = sp.csc_matrix((values[shuffle], (rows[shuffle], cols[shuffle])), shape=shape)
        if k == 0:
            want = natural
        else:
            tags = np.arange(1.0, values.size + 1.0)
            want = sp.csc_matrix((tags, (p[rows], p[cols])), shape=shape)
            at = np.empty(values.size, dtype=int)
            at[want.data.astype(int) - 1] = np.arange(values.size)
            want.data[at] = values
            q = np.argsort(p)
            permuted = natural[q][:, q]
            permuted.sort_indices()
            assert np.array_equal(permuted.data, want.data)
            assert np.array_equal(permuted.indices, want.indices)
            assert np.array_equal(permuted.indptr, want.indptr)
        for a, b in zip(matrix, (want.data, want.indices, want.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _banded_socp(n, dim, width):
    """n soc cones of ``dim`` rows, the rows of cone j on columns j to
    j + width - 1 (the last ones clipped to n - 1): a band, whose KKT
    factors with little fill."""
    rng = np.random.default_rng(3)
    m = n * dim
    rows = np.repeat(np.arange(m), width)
    cols = np.minimum(rows // dim + np.tile(np.arange(width), m), n - 1)
    A = sp.csr_matrix((rng.standard_normal(rows.size), (rows, cols)), shape=(m, n))
    return ConicProgram(c=np.zeros(n), A=A, b=np.zeros(m), cones=(Cone("soc", dim),) * n)


def test_sparse_path_allocates_few_bytes_per_kkt_entry(monkeypatch):
    # the workspace and two factorizations of a 52k-entry K allocate at most
    # 70 bytes per entry of K at their peak, SuperLU's own memory aside: 59
    # with the natural K alive while int32 tags carry its entries into
    # K[q][:, q] and slots only for the entries that change, 67 with
    # float64 tags, 86 with the pattern in int64 and a slot for every entry
    _force_path(monkeypatch, "sparse")
    prog = _banded_socp(600, 4, 8)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        ws = _Workspace(prog)
        for _ in range(2):
            ws.kkt.factor(_NtScaling(ws, _interior(rng, ws), _interior(rng, ws)), 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nnz = ws.kkt._ordered.nnz
    assert 50_000 <= nnz <= 55_000
    assert peak <= 70 * nnz


# every solve test of this module, run on each path through a recording solve
SOLVE_TESTS = [
    test_lp_unique_vertex,
    test_soc_projection_with_equality,
    test_soc_anchored_distance,
    test_primal_infeasible_certificate,
    test_dual_infeasible_certificate,
    test_pow3_epigraph_of_tau_power,
    test_pow3_general_exponent,
    test_pow3_sqrt_case,
    test_penalty_shaped_composite,
    test_solver_deterministic,
    test_capped_solve_reports_the_residuals_of_the_iterate_it_returns,
    test_variable_with_only_equality_rows_still_solves,
    test_unbounded_free_column_is_not_reported_optimal,
    test_zero_cost_column_in_no_row_solves,
]


@pytest.mark.parametrize("check", SOLVE_TESTS, ids=lambda f: f.__name__[5:])
def test_sparse_path_keeps_each_solve_tests_status_and_objective(monkeypatch, check):
    results = {}
    for path in ("dense", "sparse"):
        _force_path(monkeypatch, path)
        seen = results[path] = []

        def recording(prog, *args, seen=seen, **kwargs):
            seen.append(solver.solve(prog, *args, **kwargs))
            return seen[-1]

        monkeypatch.setitem(globals(), "solve", recording)
        check()
    dense, sparse = results["dense"], results["sparse"]
    assert dense and [r.status for r in sparse] == [r.status for r in dense]
    for a, b in zip(dense, sparse):
        assert (a.obj is None) == (b.obj is None)
        if a.obj is not None:
            assert abs(a.obj - b.obj) <= 1e-8


def _spy_splu(monkeypatch, fail=()):
    """Wrap splu to record the diagonal of each matrix it factors.

    The k-th call (counting from 1) raises RuntimeError, as SuperLU does on
    a zero pivot, instead of factoring when k is in ``fail``.
    """
    splu = spla.splu
    seen = []

    def spy(K, *args, **kwargs):
        seen.append(K.diagonal().copy())
        if len(seen) in fail:
            raise RuntimeError("injected")
        return splu(K, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return seen


def test_kkt_factor_retry_scales_the_diagonal(monkeypatch):
    _force_path(monkeypatch, "sparse")
    seen = _spy_splu(monkeypatch, fail=(4,))
    res = solve(_small_socp())
    assert res.status == "optimal"
    np.testing.assert_array_equal(seen[4], seen[3] * (1.0 + 1e4 * solver.STATIC_REG))


def test_kkt_factor_that_fails_every_retry_ends_numerical_error(monkeypatch):
    _force_path(monkeypatch, "sparse")
    seen = _spy_splu(monkeypatch, fail=(4, 5, 6))
    res = solve(_small_socp())
    assert res.status == "numerical_error"
    assert len(seen) == 6 and res.iterations == 3


@pytest.mark.parametrize("seed", range(10))
def test_solve_survives_last_bit_changes_of_the_kkt(monkeypatch, seed):
    # the sparse path's counterpart of the last-bit test above: a symmetric
    # one-ulp perturbation of every K that SuperLU factors
    _force_path(monkeypatch, "sparse")
    prog = _small_socp()
    plain = solve(prog)
    rng = np.random.default_rng(seed)
    splu, eps = spla.splu, np.finfo(float).eps

    def perturbed(K, *args, **kwargs):
        upper = sp.triu(K, 1).tocoo()
        noise = sp.coo_matrix(
            (rng.choice([-1.0, 1.0], upper.nnz) * eps * np.abs(upper.data), (upper.row, upper.col)),
            shape=K.shape,
        )
        diag = sp.diags(rng.choice([-1.0, 1.0], K.shape[0]) * eps * np.abs(K.diagonal()))
        return splu((K + noise + noise.T + diag).tocsc(), *args, **kwargs)

    monkeypatch.setattr(spla, "splu", perturbed)
    res = solve(prog)
    assert plain.status == res.status == "optimal"
    assert res.iterations == plain.iterations


def _box_lp(n, k):
    """min c'x over 0 <= x <= 1 with sum x = k: x picks the k smallest costs."""
    rng = np.random.default_rng(8)
    c = rng.standard_normal(n)
    pb = ProgramBuilder("box")
    x = pb.var_block("x", n)
    pb.cost(x, c)
    ones = np.ones(n)
    pb.cone("zero", [float(k)], np.zeros(n, dtype=int), x, ones)
    pb.cone("nonneg", np.zeros(n), np.arange(n), x, -ones)
    pb.cone("nonneg", ones, np.arange(n), x, ones)
    return pb.build(), np.sort(c)[:k].sum()


def test_the_rule_sends_each_program_to_one_factorization(monkeypatch):
    # no patched constant: the rule alone picks the path. The small SOCP
    # stays dense; the 600-column box LP has n^3/3 = 7.2e7 against a KKT of
    # 4,200 nonzeros and goes sparse
    splu, cho_factor = spla.splu, solver.sla.cho_factor
    splu_calls, factored = [], []

    def splu_spy(K, *args, **kwargs):
        splu_calls.append(K.shape)
        return splu(K, *args, **kwargs)

    def factor_spy(a, *args, **kwargs):
        factored.append(a.shape)
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu_spy)
    monkeypatch.setattr(solver.sla, "cho_factor", factor_spy)

    small = _small_socp()
    assert solve(small).status == "optimal"
    n = small.n_vars
    assert not splu_calls and (n, n) in factored

    factored.clear()
    box, best = _box_lp(600, 150)
    res = solve(box)
    assert res.status == "optimal"
    assert res.obj == pytest.approx(best, abs=1e-6)
    assert splu_calls and factored and set(factored) == {(1, 1)}


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_solve_leaves_no_reference_cycle(monkeypatch, path):
    # the workspace, and on the sparse path its KKT and factor, go with the
    # solve's last reference; a cycle among them held an N=24 solve's 21 MB
    # until a cyclic collection, so repeated solves piled up. A held
    # structure's second solve, which reuses its maps, leaves none either
    _force_path(monkeypatch, path)
    prog = _small_socp()
    for structure in (None, solver.SolveStructure()):
        solve(prog, structure=structure)
        gc.collect()
        gc.disable()
        try:
            solve(prog, structure=structure)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _same_answer(a, b):
    """Two solve results equal bit for bit."""
    x = (a.x is None and b.x is None) or (
        a.x is not None and b.x is not None and a.x.tobytes() == b.x.tobytes()
    )
    fields = ("status", "obj", "iterations", "pres", "dres", "gap")
    return x and all(getattr(a, f) == getattr(b, f) for f in fields)


@pytest.mark.parametrize("lowered", [True, False], ids=["lowered", "canonical"])
@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_structure_answers_as_a_fresh_solve_when_the_pattern_changes(monkeypatch, path, lowered):
    # one structure solves a program, the same pattern with other values,
    # the pattern with one entry dropped, the first program again, and A's
    # pattern under other cones: each answer is a fresh solve's, bit for
    # bit. The analysis is reused only while A's pattern and the cones
    # hold, and it keeps no program alive. The first program is the
    # builder's, its power cone lowered to a soc tower, or that program
    # read back from its text dump, canonical from the start
    _force_path(monkeypatch, path)
    first = _interleaved_program(["zero0", "nonneg", "soc", "quad", "power", "zero1"])
    if not lowered:
        first = ConicProgram.load(first.dump())
    rescaled = ConicProgram(
        c=first.c, A=first.A * 1.25, b=first.b, cones=first.cones, var_blocks=first.var_blocks
    )
    A = first.A.copy()
    A.data[np.flatnonzero(A.indices == 3)[-1]] = 0.0  # the soc cone's x3 entry
    A.eliminate_zeros()
    dropped = ConicProgram(c=first.c, A=A, b=first.b, cones=first.cones, var_blocks=first.var_blocks)
    assert dropped.A.nnz == first.A.nnz - 1

    # the 5-row soc cone split into a nonneg row and a 4-row soc cone
    assert first.cones[3] == Cone("soc", 5)
    recut = ConicProgram(
        c=first.c, A=first.A, b=first.b, var_blocks=first.var_blocks,
        cones=(*first.cones[:3], Cone("nonneg", 1), Cone("soc", 4), *first.cones[4:]),
    )

    structure = solver.SolveStructure()
    analyses = []
    for prog in (first, rescaled, dropped, first, recut):
        held = solve(prog, structure=structure)
        assert _same_answer(held, solve(prog))
        if prog is first:
            assert held.status == "optimal"
        analyses.append(structure.pattern(prog))
    assert analyses[1] is analyses[0]
    assert all(analyses[k] is not analyses[k - 1] for k in (2, 3, 4))

    gone = ConicProgram(c=first.c, A=first.A.copy(), b=first.b, cones=first.cones)
    ref = weakref.ref(gone)
    solve(gone, structure=structure)
    del gone
    assert ref() is None


def test_held_sparse_structure_orders_k_once_per_solve(monkeypatch):
    # a solve through a held structure still factors K under the
    # minimum-degree order once, since no other order gives that
    # factorization bit for bit, and then only in the order it found
    _force_path(monkeypatch, "sparse")
    prog = _interleaved_program(["zero0", "nonneg", "soc", "quad", "power", "zero1"])
    specs, splu = [], spla.splu

    def spy(K, *args, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(K, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    structure = solver.SolveStructure()
    for _ in range(2):
        specs.clear()
        assert solve(prog, structure=structure).status == "optimal"
        assert specs[0] == "MMD_AT_PLUS_A" and len(specs) > 2
        assert set(specs[1:]) == {"NATURAL"}


# ------------------------------------------------ numerical_error exits
def _blow_up_dx(monkeypatch, k):
    """Scale the combined direction's dx of iteration k by 1e10, so the
    iterate measured next has a merit far above the best one."""
    polish = solver._polish
    calls = []

    def blown(d, *args):
        out = polish(d, *args)
        if args[-1] == solver.POLISH_PASSES:
            calls.append(1)
            if len(calls) == k:
                return (out[0] * 1e10,) + out[1:]
        return out

    monkeypatch.setattr(solver, "_polish", blown)


def _vanish_step(monkeypatch, k):
    """Make iteration k's combined step length zero."""
    max_step = _Workspace.max_step
    calls = []

    def zero(self, u, d):
        calls.append(1)
        return 0.0 if len(calls) == 2 * k else max_step(self, u, d)

    monkeypatch.setattr(_Workspace, "max_step", zero)


@pytest.mark.parametrize("path", ["dense", "sparse"])
@pytest.mark.parametrize("exit_, measured", [(_blow_up_dx, 1), (_vanish_step, 0)],
                         ids=["merit_blow_up", "vanishing_step"])
@pytest.mark.parametrize("late", [False, True])
def test_numerical_error_exits_report_the_best_measured_iterate(monkeypatch, path, exit_, measured, late):
    # an exit after iteration k's step has measured the iterates 1..k (and
    # k + 1, whose merit blew up), so it returns what a solve capped at k
    # iterations returns: the same best iterate with its own residuals. Early
    # that iterate is not within 1e2 * tol; late it is, and x comes with it
    _force_path(monkeypatch, path)
    prog = _small_socp()
    k = solve(prog).iterations - 1 if late else 3
    capped = solve(prog, max_iters=k)
    exit_(monkeypatch, k)
    res = solve(prog)
    assert res.iterations == k + measured
    assert res.status == ("optimal_inaccurate" if late else "numerical_error")
    assert capped.status == ("optimal_inaccurate" if late else "max_iterations")
    assert (res.pres, res.dres, res.gap) == (capped.pres, capped.dres, capped.gap)
    assert (res.x is None) == (not late) and (capped.x is None) == (not late)
    if late:
        assert np.array_equal(res.x, capped.x) and res.obj == capped.obj


# ------------------------------------------------ the start
def _spy_into_cone(monkeypatch):
    """Record (ws, u, moved) of each point the solve moves into its cone."""
    into_cone, seen = solver._into_cone, []

    def spy(ws, u):
        moved = into_cone(ws, u)
        seen.append((ws, u.copy(), moved.copy()))
        return moved

    monkeypatch.setattr(solver, "_into_cone", spy)
    return seen


def _margins(ws, u):
    """head - |tail| of every inequality cone at u."""
    return u[ws.heads] - np.sqrt(ws.tail_dot(u, u))


START_PROGRAMS = {
    "small_socp": _small_socp,
    "interleaved": lambda: _interleaved_program(["zero0", "nonneg", "soc", "quad", "power", "zero1"]),
    "box_lp": lambda: _box_lp(30, 7)[0],
}


@pytest.mark.parametrize("path", ["dense", "sparse"])
@pytest.mark.parametrize("make", START_PROGRAMS.values(), ids=START_PROGRAMS.keys())
def test_start_is_strictly_inside_every_cone(monkeypatch, path, make):
    # s, then z: each least-norm point is kept when it is strictly interior,
    # or moved along e until its worst cone's head is 1 above its tail's norm
    _force_path(monkeypatch, path)
    seen = _spy_into_cone(monkeypatch)
    assert solve(make()).status == "optimal"
    assert len(seen) == 2
    for ws, u, moved in seen:
        assert _margins(ws, moved).min() > 0.0
        shift = moved - u
        if _margins(ws, u).min() > 0.0:
            assert not shift.any()
        else:
            t = shift[ws.heads[0]]
            assert t >= 1.0 and np.array_equal(shift, t * ws.e)
            assert _margins(ws, moved).min() == pytest.approx(1.0, rel=1e-12)


def test_interior_least_norm_slack_is_kept_unshifted(monkeypatch):
    # min x s.t. -1 <= x <= 1: the least-norm slack of x + s1 = 1, -x + s2 =
    # 1 is s = (1, 1) at x = 0, already interior, so it is the start as it
    # stands; the least-norm z of z1 - z2 = -1 is (-1/2, 1/2), which moves
    seen = _spy_into_cone(monkeypatch)
    pb = ProgramBuilder("interval")
    x = pb.var_block("x", 1)[0]
    pb.cost(x, 1.0)
    _var_cone(pb, "nonneg", [(0, x, 1.0), (1, x, -1.0)], [1.0, 1.0])
    res = solve(pb.build())
    assert res.status == "optimal" and res.x[0] == pytest.approx(-1.0, abs=1e-7)
    (_, s, s_start), (ws, z, z_start) = seen
    # both up to the regularization's bias, about 1e-12 here
    np.testing.assert_allclose(s, [1.0, 1.0], rtol=1e-9)
    assert np.array_equal(s_start, s)
    np.testing.assert_allclose(z, [-0.5, 0.5], rtol=1e-9)
    np.testing.assert_allclose(z_start, z + 1.5 * ws.e, rtol=1e-12)


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_start_whose_factorization_fails_ends_numerical_error(monkeypatch, path):
    # the start goes through the bump ladder of an iteration's factorization;
    # when all three attempts fail, no iteration runs and nothing is returned
    _force_path(monkeypatch, path)
    prog = _small_socp()
    if path == "dense":
        seen = _spy_cho_factor(monkeypatch, prog.n_vars, fail=(1, 2, 3))
    else:
        seen = _spy_splu(monkeypatch, fail=(1, 2, 3))
    res = solve(prog)
    assert res.status == "numerical_error" and res.iterations == 0
    assert len(seen) == 3 and res.x is None and res.obj is None


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_programs_without_inequality_or_equality_rows_solve(monkeypatch, path):
    _force_path(monkeypatch, path)
    # no inequality rows: min x0 + x1 s.t. x0 + x1 = 2, x0 - x1 = 0
    pb = ProgramBuilder("equalities")
    x = pb.var_block("x", 2)
    pb.cost(x, [1.0, 1.0])
    _var_cone(pb, "zero", [(0, x[0], 1.0), (0, x[1], 1.0), (1, x[0], 1.0), (1, x[1], -1.0)],
              [2.0, 0.0])
    res = solve(pb.build())
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-7)
    # no equality rows: min t s.t. t >= |x - (1, 1)|, x <= 0.5 componentwise
    pb = ProgramBuilder("inequalities")
    x = pb.var_block("x", 2)
    t = pb.var_block("t", 1)[0]
    pb.cost(t, 1.0)
    _var_cone(pb, "nonneg", [(0, x[0], 1.0), (1, x[1], 1.0)], [0.5, 0.5])
    _var_cone(pb, "soc", [(0, t, -1.0), (1, x[0], -1.0), (2, x[1], -1.0)], [0.0, -1.0, -1.0])
    prog = pb.build()
    assert not any(c.kind == "zero" for c in prog.cones)
    res = solve(prog)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [0.5, 0.5, np.sqrt(0.5)], atol=1e-7)


@pytest.mark.parametrize(
    "rows, a_shape, n_c, match",
    [
        (4, (5, 3), 3, "cones hold 4 rows, b has 5"),  # cones sum to fewer rows than b
        (6, (5, 3), 3, "cones hold 6 rows, b has 5"),  # ... to more rows than b
        (5, (5, 3), 2, r"A is \(5, 3\)"),  # c shorter than A has columns
        (5, (4, 3), 3, r"A is \(4, 3\)"),  # A shorter than b
        (0, (0, 3), 3, "at least one row"),  # no rows at all
    ],
)
def test_program_rejects_inconsistent_shapes(rows, a_shape, n_c, match):
    cones = (Cone("nonneg", rows),) if rows else ()
    m = 5 if rows else 0
    with pytest.raises(ValueError, match=match):
        ConicProgram(c=np.zeros(n_c), A=sp.csr_matrix(a_shape), b=np.zeros(m), cones=cones)

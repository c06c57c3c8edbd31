"""Conic layer: analytic-solution problems, lowering, certificates, dumps."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import arrow_matrix, nt_scaling_matrix

from covtraj.conic import Cone, ConicProgram, ProgramBuilder, lower_program, solve
from covtraj.conic.solver import _NtScaling, _Workspace
from covtraj.errors import NumericalError


def _var_cone(pb, kind, entries, b, alpha=None):
    """Cone rows from (local_row, col, val) triplets."""
    rows = np.array([e[0] for e in entries], dtype=int)
    cols = np.array([e[1] for e in entries], dtype=int)
    vals = np.array([e[2] for e in entries], dtype=float)
    return pb.cone(kind, np.asarray(b, dtype=float), rows, cols, vals, alpha=alpha)


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


def test_rsoc_direct():
    # min x s.t. 2 x y >= z^2 with y = 1, z = 3 -> x = 4.5
    pb = ProgramBuilder()
    x = pb.var_block("x", 1)[0]
    pb.cost(x, 1.0)
    _var_cone(
        pb, "rsoc",
        [(0, x, -1.0)],
        [0.0, 1.0, 3.0],
    )
    res = solve(pb.build())
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(4.5, abs=1e-6)


def test_pow3_epigraph_of_tau_power():
    # min a s.t. a^(10/11) >= |z|, z = 2  ->  a = 2^(11/10)
    pb = ProgramBuilder()
    a = pb.var_block("a", 1)[0]
    pb.cost(a, 1.0)
    _var_cone(
        pb, "pow3",
        [(0, a, -1.0)],
        [0.0, 1.0, 2.0],
        alpha=10.0 / 11.0,
    )
    res = solve(pb.build())
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0 ** 1.1, abs=1e-6)


def test_pow3_general_exponent():
    # min x s.t. x^(2/3) y^(1/3) >= |z|, y = 8, z = 3 -> x = (3/2)^(3/2)
    pb = ProgramBuilder()
    x = pb.var_block("x", 1)[0]
    pb.cost(x, 1.0)
    _var_cone(
        pb, "pow3",
        [(0, x, -1.0)],
        [0.0, 8.0, 3.0],
        alpha=2.0 / 3.0,
    )
    res = solve(pb.build())
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.5 ** 1.5, abs=1e-6)


def test_pow3_sqrt_case():
    # alpha = 1/2: min x s.t. sqrt(x y) >= |z|, y = 4, z = 3 -> x = 9/4
    pb = ProgramBuilder()
    x = pb.var_block("x", 1)[0]
    pb.cost(x, 1.0)
    _var_cone(pb, "pow3", [(0, x, -1.0)], [0.0, 4.0, 3.0], alpha=0.5)
    res = solve(pb.build())
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.25, abs=1e-6)


def test_penalty_shaped_composite():
    # min a + q s.t. a >= |xi|^1.1, q >= xi^2, xi = 0.7
    pb = ProgramBuilder()
    xi = pb.var_block("xi", 1)[0]
    a = pb.var_block("a", 1)[0]
    q = pb.var_block("q", 1)[0]
    pb.cost([a, q], [1.0, 1.0])
    _var_cone(pb, "zero", [(0, xi, 1.0)], [0.7])
    _var_cone(pb, "pow3", [(0, a, -1.0), (2, xi, -1.0)], [0.0, 1.0, 0.0],
              alpha=10.0 / 11.0)
    _var_cone(pb, "rsoc", [(0, q, -1.0), (2, xi, -1.0)], [0.0, 0.5, 0.0])
    res = solve(pb.build())
    assert res.status == "optimal"
    assert res.x[1] == pytest.approx(0.7 ** 1.1, abs=1e-6)
    assert res.x[2] == pytest.approx(0.49, abs=1e-6)


def test_lowering_preserves_soc_only_program():
    pb = ProgramBuilder()
    x = pb.var_block("x", 2)
    pb.cost(x, [1.0, 1.0])
    _var_cone(pb, "soc", [(1, x[0], -1.0), (2, x[1], -1.0)], [1.0, 0.0, 0.0])
    prog = pb.build()
    low = lower_program(prog)
    assert low.program is prog
    assert low.n_orig == 2


def test_lowering_rsoc_row_transform():
    pb = ProgramBuilder()
    x = pb.var_block("x", 3)
    _var_cone(
        pb, "rsoc",
        [(0, x[0], -1.0), (1, x[1], -1.0), (2, x[2], -1.0)],
        [0.0, 0.0, 0.0],
    )
    low = lower_program(pb.build())
    prog = low.program
    assert [c.kind for c in prog.cones] == ["soc"]
    # rows: (x0+x1, x0-x1, sqrt2 x2)
    A = prog.A.toarray()
    np.testing.assert_allclose(A[0], [-1.0, -1.0, 0.0])
    np.testing.assert_allclose(A[1], [-1.0, 1.0, 0.0])
    np.testing.assert_allclose(A[2], [0.0, 0.0, -np.sqrt(2.0)])


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
    _var_cone(pb, "pow3", [(0, t, -1.0)], [0.0, 1.0, 0.5], alpha=10.0 / 11.0)
    prog = pb.build()
    text = prog.dump()
    prog2 = ConicProgram.load(text)
    assert prog2.dump() == text
    r1, r2 = solve(prog), solve(prog2)
    assert r1.status == r2.status
    np.testing.assert_array_equal(r1.x, r2.x)


def test_solver_deterministic():
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
    prog = pb.build()
    r1 = solve(prog)
    r2 = solve(prog)
    assert r1.status == r2.status == "optimal"
    assert r1.x.tobytes() == r2.x.tobytes()
    assert r1.obj == r2.obj


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


def _interior(rng, ws, sizes):
    """A random point strictly inside every inequality cone."""
    u = np.empty(ws.m_in)
    u[ws.nn] = rng.uniform(0.1, 3.0, ws.n_nn)
    at = ws.n_nn
    for k in sizes:
        tail = rng.standard_normal(k - 1)
        u[at + 1: at + k] = tail
        u[at] = np.linalg.norm(tail) * rng.uniform(1.05, 3.0) + rng.uniform(0.05, 1.0)
        at += k
    return u


def _per_cone(sizes, v):
    """Split a vector over the SOC region into one array per cone."""
    return np.split(v, np.cumsum(sizes)[:-1])


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
    s, z = _interior(rng, ws, sizes), _interior(rng, ws, sizes)
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

    # each cone against its explicit W and arrow matrices
    blocks = [
        _per_cone(sizes, v[ws.soc])
        for v in (s, z, u, sc.lam, sc.mul_w(u), sc.mul_winv2(u), ws.jmul(sc.lam, u))
    ]
    for k, (wbar, sk, zk, uk, lk, wu, w2u, ju) in enumerate(
        zip(_per_cone(sizes, sc.wbar), *blocks)
    ):
        W = nt_scaling_matrix(sc.eta[k], wbar)
        assert _rel(W @ zk, lk) <= tol
        assert _rel(np.linalg.solve(W, sk), lk) <= tol
        assert _rel(W @ uk, wu) <= tol
        assert _rel(np.linalg.solve(W @ W, uk), w2u) <= tol
        assert _rel(arrow_matrix(lk) @ uk, ju) <= tol

    # max step: on the boundary of each cone, or inf when d lies in the cone
    d = rng.standard_normal(ws.m_in)
    inside = np.repeat(rng.random(len(sizes)) < 0.3, sizes)
    d[ws.soc] = np.where(inside, _interior(rng, ws, sizes)[ws.soc], d[ws.soc])
    steps = ws.soc_steps(s[ws.soc], d[ws.soc])
    for k, (sk, dk) in enumerate(zip(_per_cone(sizes, s[ws.soc]), _per_cone(sizes, d[ws.soc]))):
        in_cone = dk[0] >= np.linalg.norm(dk[1:])
        if in_cone:
            assert steps[k] == np.inf
            continue
        assert 0.0 < steps[k] < np.inf
        p = sk + steps[k] * dk
        scale = np.linalg.norm(sk) + steps[k] * np.linalg.norm(dk)
        assert abs(p[0] - np.linalg.norm(p[1:])) <= tol * scale
    neg = d[ws.nn] < 0.0
    nn_steps = -s[ws.nn][neg] / d[ws.nn][neg]
    assert ws.max_step(s, d) == min(steps.min(initial=np.inf), nn_steps.min(initial=np.inf))


def test_scaling_rejects_a_point_outside_one_cone():
    sizes = [3, 4, 2]
    ws = _cone_workspace(sizes, n_nonneg=2)
    rng = np.random.default_rng(5)
    s, z = _interior(rng, ws, sizes), _interior(rng, ws, sizes)
    _NtScaling(ws, s, z)
    rows = slice(ws.n_nn + ws.heads[1], ws.n_nn + ws.heads[1] + 4)
    outside = s.copy()
    outside[rows.start] = 0.5 * np.linalg.norm(s[rows][1:])  # head below the tail norm
    mirrored = s.copy()
    mirrored[rows] = -s[rows]  # inside -K: the Lorentz form alone is positive
    for bad in (outside, mirrored):
        with pytest.raises(NumericalError):
            _NtScaling(ws, bad, z)
        with pytest.raises(NumericalError):
            _NtScaling(ws, z, bad)


def test_max_step_is_zero_from_the_cone_boundary():
    sizes = [3, 2, 4]
    ws = _cone_workspace(sizes)
    rng = np.random.default_rng(6)
    u = _interior(rng, ws, sizes)
    u[3:5] = [2.0, -2.0]  # the 2-row cone: u0 = |u1|, c = 0
    d = rng.standard_normal(ws.m_in)
    steps = ws.soc_steps(u, d)
    assert steps[1] == 0.0
    assert steps[0] > 0.0 and steps[2] > 0.0
    assert ws.max_step(u, d) == 0.0

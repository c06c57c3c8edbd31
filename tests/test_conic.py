"""Conic layer: analytic-solution problems, lowering, certificates, dumps."""

import numpy as np
import pytest

from covtraj.conic import ConicProgram, ProgramBuilder, lower_program, solve


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

"""Where the traced run wraps covtraj, and the per-layer metrics it derives.

Each target is a module-level name that a layer's caller looks up at call
time, so replacing it from outside times exactly the calls that caller makes.
The layer of a span is the prefix of its name (``conic.solve`` is in
``conic``); spans named ``bench.*`` are the benchmark's own call sites and
carry the case attributes (``N``, ``mc``) the metrics are split by.
"""

from __future__ import annotations

import math

from tracer import Target, Tracer


def _solve_attrs(result, args, kwargs):
    return {"iterations": result.iterations}


def _lower_attrs(result, args, kwargs):
    return {"n": result.program.n_vars}


def _build_attrs(layout, args, kwargs):
    return {
        "N": layout.grid.n_segments,
        "n_vars": layout.program.n_vars,
        "nnz": int(layout.program.A.nnz),
    }


def _factor_attrs(result, args, kwargs):
    n = args[0].shape[0]
    return {"gflop": n**3 / 3.0 / 1e9}


def _run_attrs(result, args, kwargs):
    return {
        "iterations": result.iterations,
        "accepted": sum(r.accepted for r in result.records),
    }


TARGETS = (
    Target("covtraj.scp", "run", "scp.run", annotate=_run_attrs),
    Target("covtraj.scp", "evaluate_point", "scp.evaluate_point"),
    Target("covtraj.scp", "linearize_segment", "dynamics.linearize_segment", aggregate=True),
    Target("covtraj.scp", "kalman_precompute", "covsteer.kalman_precompute"),
    Target("covtraj.scp", "build_block_system", "covsteer.build_block_system"),
    Target("covtraj.scp", "build_subproblem", "subproblem.build", annotate=_build_attrs),
    Target("covtraj.subproblem", "build_subproblem", "subproblem.build", annotate=_build_attrs),
    Target("covtraj.scp", "solve_subproblem", "subproblem.solve"),
    Target("covtraj.subproblem", "solve_subproblem", "subproblem.solve"),
    Target("covtraj.subproblem", "solve", "conic.solve", annotate=_solve_attrs),
    Target("covtraj.conic.solver", "lower_program", "conic.lower", annotate=_lower_attrs),
    Target(
        "covtraj.conic.solver",
        "sla",
        methods=(
            ("cho_factor", "conic.factor", _factor_attrs),
            ("cho_solve", "conic.tri_solve", None),
        ),
    ),
    Target("covtraj.montecarlo", "run_campaign", "montecarlo.campaign"),
    Target("covtraj.montecarlo", "_simulate", "montecarlo.simulate", aggregate=True),
    Target("covtraj.montecarlo", "_quantile_ci_half", "montecarlo.bootstrap"),
    Target("covtraj.montecarlo", "propagate", "dynamics.propagate", aggregate=True),
    Target("covtraj.montecarlo", "linearize_segment", "dynamics.linearize_segment", aggregate=True),
)

HORIZONS = (6, 12, 24)
MC_CASES = ("linear", "ekf", "flyby")

#: Per-layer metrics in report order: name, unit, and the spans that feed
#: it. Every one is reported on every workload (a layer that did no work
#: there reads 0), except that a metric fed by a target the tracer could not
#: wrap is left out.
PER_LAYER = (
    ("conic.solve.s", "s", ("conic.solve",)),
    ("conic.solve.calls", "count", ("conic.solve",)),
    ("conic.lower.s", "s", ("conic.lower",)),
    ("conic.factor.s", "s", ("conic.factor",)),
    ("conic.factor.calls", "count", ("conic.factor",)),
    ("conic.tri_solve.s", "s", ("conic.tri_solve",)),
    ("conic.tri_solve.calls", "count", ("conic.tri_solve",)),
    ("conic.other.s", "s", ("conic.solve", "conic.lower", "conic.factor", "conic.tri_solve")),
    ("conic.ipm_iterations", "count", ("conic.solve",)),
    ("conic.ipm_iter_ms", "ms", ("conic.solve",)),
    *((f"conic.ipm_iter_ms.n{n}", "ms", ("conic.solve",)) for n in HORIZONS),
    ("conic.normal_matrix_mb", "MB", ("conic.lower",)),
    ("conic.factor_gflop", "Gflop", ("conic.factor",)),
    ("conic.solve_exponent", "ratio", ("conic.solve",)),
    ("subproblem.build.s", "s", ("subproblem.build",)),
    ("subproblem.build.calls", "count", ("subproblem.build",)),
    *((f"subproblem.n_vars.n{n}", "count", ("subproblem.build",)) for n in HORIZONS),
    *((f"subproblem.nnz.n{n}", "count", ("subproblem.build",)) for n in HORIZONS),
    ("scp.iterations", "count", ("scp.run",)),
    ("scp.accept_ratio", "ratio", ("scp.run",)),
    ("scp.evaluate_point.s", "s", ("scp.evaluate_point",)),
    ("covsteer.kalman_precompute.s", "s", ("covsteer.kalman_precompute",)),
    ("covsteer.build_block_system.s", "s", ("covsteer.build_block_system",)),
    ("dynamics.linearize_segment.s", "s", ("dynamics.linearize_segment",)),
    ("dynamics.linearize_segment.calls", "count", ("dynamics.linearize_segment",)),
    ("dynamics.propagate.s", "s", ("dynamics.propagate",)),
    ("dynamics.propagate.calls", "count", ("dynamics.propagate",)),
    ("montecarlo.simulate.s", "s", ("montecarlo.simulate",)),
    ("montecarlo.simulate.calls", "count", ("montecarlo.simulate",)),
    *((f"montecarlo.sample_ms.{c}", "ms", ("montecarlo.simulate",)) for c in MC_CASES),
    ("montecarlo.bootstrap.s", "s", ("montecarlo.bootstrap",)),
    ("montecarlo.reduce.s", "s", ("montecarlo.campaign",)),
    ("trace.coverage", "ratio", ()),
    ("trace.overhead_frac", "ratio", ()),
)


def per_layer_metrics(tracer: Tracer, rounds: int, traced_wall: float, overhead: float) -> dict:
    """Per-layer values per traced round, from the spans and counters.

    Times are totals over the traced rounds divided by ``rounds``; so are
    call and iteration counts. Metrics fed by a target that could not be
    wrapped are left out.
    """
    spans = {s.id: s for s in tracer.spans}

    def ancestor_attr(span_id, key):
        while span_id is not None:
            s = spans[span_id]
            if key in s.attrs:
                return s.attrs[key]
            span_id = s.parent
        return None

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    for s in tracer.spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        self_time[s.name] = self_time.get(s.name, 0.0) + s.self_time
    for (_, name), c in tracer.counters.items():
        total[name] = total.get(name, 0.0) + c.total
        calls[name] = calls.get(name, 0) + c.calls
        self_time[name] = self_time.get(name, 0.0) + c.self_time

    def t(name):
        return total.get(name, 0.0)

    solves = [s for s in tracer.spans if s.name == "conic.solve"]
    iterations = sum(s.attrs.get("iterations", 0) for s in solves)
    m: dict[str, float] = {}
    for name in ("conic.solve", "conic.factor", "conic.tri_solve", "subproblem.build",
                 "dynamics.linearize_segment", "dynamics.propagate", "montecarlo.simulate"):
        m[f"{name}.s"] = t(name) / rounds
        m[f"{name}.calls"] = calls.get(name, 0) / rounds
    for name in ("conic.lower", "scp.evaluate_point", "covsteer.kalman_precompute",
                 "covsteer.build_block_system", "montecarlo.bootstrap"):
        m[f"{name}.s"] = t(name) / rounds
    m["conic.other.s"] = (
        t("conic.solve") - t("conic.lower") - t("conic.factor") - t("conic.tri_solve")
    ) / rounds
    m["conic.ipm_iterations"] = iterations / rounds
    m["conic.ipm_iter_ms"] = 1e3 * t("conic.solve") / iterations if iterations else 0.0

    per_n_solve = {}
    for n in HORIZONS:
        mine = [s for s in solves if ancestor_attr(s.id, "N") == n]
        its = sum(s.attrs.get("iterations", 0) for s in mine)
        secs = sum(s.duration for s in mine)
        m[f"conic.ipm_iter_ms.n{n}"] = 1e3 * secs / its if its else 0.0
        per_n_solve[n] = secs / len(mine) if mine else 0.0
    lowered = [s.attrs["n"] for s in tracer.spans if s.name == "conic.lower"]
    m["conic.normal_matrix_mb"] = 8.0 * max(lowered) ** 2 / 1e6 if lowered else 0.0
    m["conic.factor_gflop"] = sum(
        c.attrs.get("gflop", 0.0) for (_, name), c in tracer.counters.items() if name == "conic.factor"
    ) / rounds
    m["conic.solve_exponent"] = (
        math.log(per_n_solve[24] / per_n_solve[12]) / math.log(2.0)
        if per_n_solve[12] and per_n_solve[24] else 0.0
    )

    builds = [s for s in tracer.spans if s.name == "subproblem.build"]
    for n in HORIZONS:
        mine = [s for s in builds if s.attrs.get("N") == n]
        m[f"subproblem.n_vars.n{n}"] = max((s.attrs["n_vars"] for s in mine), default=0)
        m[f"subproblem.nnz.n{n}"] = max((s.attrs["nnz"] for s in mine), default=0)

    runs = [s for s in tracer.spans if s.name == "scp.run"]
    scp_its = sum(s.attrs.get("iterations", 0) for s in runs)
    m["scp.iterations"] = scp_its / rounds
    m["scp.accept_ratio"] = sum(s.attrs.get("accepted", 0) for s in runs) / scp_its if scp_its else 0.0

    for case in MC_CASES:
        secs = n_calls = 0
        for (parent, name), c in tracer.counters.items():
            if name == "montecarlo.simulate" and ancestor_attr(parent, "mc") == case:
                secs += c.total
                n_calls += c.calls
        m[f"montecarlo.sample_ms.{case}"] = 1e3 * secs / n_calls if n_calls else 0.0
    m["montecarlo.reduce.s"] = self_time.get("montecarlo.campaign", 0.0) / rounds

    layer_self = sum(v for name, v in self_time.items() if not name.startswith("bench."))
    m["trace.coverage"] = layer_self / traced_wall if traced_wall > 0 else 0.0
    m["trace.overhead_frac"] = overhead

    return {
        name: {"value": m[name], "unit": unit}
        for name, unit, sources in PER_LAYER
        if not any(src in tracer.missing for src in sources)
    }

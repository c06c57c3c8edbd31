"""Benchmark for covtraj: robust design, horizon sweep and Monte Carlo playback.

Usage (from the repository root):

    python3 covbench/run.py [--workload design_n6|horizon_sweep|mc_playback|all]
                            [--seed N] [--seconds S] [--trace 0|1]

One closed-loop caller runs the workload's round again and again for about
``--seconds`` seconds after set-up; every round's outputs are checked, and
the last line of standard output is one JSON object with the metrics. With
``--trace 0`` no wrapper is installed and the end-to-end metrics are
reported; with ``--trace 1`` rounds alternate untraced and traced, and the
per-layer metrics come from the traced ones. ``--workload all`` (the
default) runs each workload in a fresh process of its own, so one workload's
peak memory cannot leak into another's. Every timed piece of work is scaled
to a reference machine speed by a ``workloads.Gauge``, which times a fixed
reference task after each piece; ``METRICS.md`` says why.

The package is imported from ``src/`` next to this directory and nowhere
else: without it the run fails.
"""

import os
import time

T0 = time.perf_counter()

# One BLAS/OpenMP thread, set before numpy loads: the plain single-threaded
# baseline, and results only reproduce bit-for-bit at a fixed thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".covbench"
WORKLOAD_NAMES = ("design_n6", "horizon_sweep", "mc_playback")
#: Set-up is imports, one-time preparation (the design solve on
#: mc_playback) and the instance build with first-call warm-up. Imports are
#: timed in this many fresh interpreters and the build is repeated this many
#: times; each reports its median.
IMPORT_REPS = 5
SETUP_REPS = 5
#: Share of the traced work that layer spans should cover (ROADMAP item 1).
COVERAGE_FLOOR = 0.95
#: Import time is timed in a fresh interpreter from the point where this
#: process's own clock starts. BENCH_MODULES is what run.py imports before
#: the first timed call; REFERENCE_MODULES is the import gauge's task, a
#: fixed set of standard-library modules whose import takes about
#: IMPORT_REFERENCE_S on the VM the benchmark was built on. Import time is
#: file-system and unmarshalling work that follows that gauge, not the
#: speed kernel.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sys; sys.path[:0] = {paths!r}; "
    "import {modules}; print(time.perf_counter() - t)"
)
BENCH_MODULES = "layers, tracer, workloads"
REFERENCE_MODULES = (
    "asyncio, calendar, concurrent.futures, csv, ctypes, decimal, difflib, "
    "email.mime.multipart, fractions, glob, http.server, logging, multiprocessing, "
    "pickle, pydoc, shutil, sqlite3, ssl, statistics, tarfile, tempfile, tomllib, "
    "unittest, urllib.request, xml.etree.ElementTree, zipfile"
)
IMPORT_REFERENCE_S = 0.1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return p.parse_args(argv)


def git_sha() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_sha256() -> str:
    """Digest of the Python sources under src/: names the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def import_seconds(modules: str) -> float:
    """Time to import ``modules`` in a fresh interpreter."""
    code = IMPORT_PROBE.format(paths=[str(SRC), str(HERE)], modules=modules)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


def run_all(args) -> int:
    """Each workload in a fresh process; non-zero if any of them failed."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = subprocess.run(cmd, check=False).returncode
        if code:
            print(f"covbench: {name} failed with exit code {code}", file=sys.stderr)
            status = 1
    return status


def run_one(args) -> int:
    if not (SRC / "covtraj" / "__init__.py").is_file():
        print(f"covbench: no covtraj package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import covtraj

    if Path(covtraj.__file__).resolve().parent.parent != SRC:
        print(f"covbench: covtraj imported from {covtraj.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracer import NullTracer, Tracer

    clock = workloads.clock
    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    plain, traced = [], []  # RoundResult of untraced and traced rounds
    first_digest = None
    try:
        # every set-up step is scaled by a gauge read right after it: the
        # imports by a fixed import of standard-library modules, the rest by
        # the speed kernel. Repeated steps report their median.
        import_gauge = workloads.Gauge(lambda: import_seconds(REFERENCE_MODULES),
                                       IMPORT_REFERENCE_S)
        imports = [import_gauge.timed(import_seconds, BENCH_MODULES) for _ in range(IMPORT_REPS)]
        import_s = statistics.median(import_gauge.scale(s, *span[1:]) for s, span in imports)
        gauge = workloads.speed_gauge()
        prepared, prepare = gauge.timed(wl.prepare, args.seed)
        builds = [gauge.timed(wl.setup, args.seed, prepared) for _ in range(SETUP_REPS)]
        state = builds[-1][0]

        start = clock()
        while True:
            if tracer is not None and len(plain) > len(traced):
                with tracer.installed(layers.TARGETS):
                    result = wl.round(state, tracer, gauge)
                traced.append(result)
            else:
                result = wl.round(state, NullTracer(), gauge)
                plain.append(result)
            wl.check(result)
            if result.failed:
                raise workloads.CheckFailed(f"{result.failed} of {result.attempted} operations failed")
            d = workloads.digest(result.outputs)
            if first_digest is None:
                first_digest = d
            elif d != first_digest:
                raise workloads.CheckFailed("outputs differ between rounds of the same run")
            # stop before a round that would end more than a quarter of a
            # round past the deadline, so runs last about --seconds
            elapsed = clock() - start
            if (tracer is None or traced) and (
                elapsed * (1.0 + 0.75 / len(plain + traced)) > args.seconds
            ):
                break
    except workloads.CheckFailed as exc:
        print(f"covbench: {args.workload}: output check failed: {exc}", file=sys.stderr)
        return 1

    setup_s = (import_s + gauge.scale(*prepare)
               + statistics.median(gauge.scale(*sample) for _, sample in builds))
    raw_setup_s = (statistics.median(s for s, _ in imports) + prepare[0]
                   + statistics.median(sample[0] for _, sample in builds))
    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    cases = workloads.median_cases(plain)
    raw_cases = workloads.median_cases(plain, scaled=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "round_s": (wl.round_seconds(cases), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    print(f"env {json.dumps(environment(args), sort_keys=True)}")
    print(f"digest {first_digest}")
    print(f"workload {args.workload}: {len(plain)} untraced + {len(traced)} traced rounds, "
          f"{attempted} operations, {IMPORT_REPS} import probes, {SETUP_REPS} set-ups, "
          f"{len(gauge.readings)} speed-kernel runs")
    named = {name: (value, unit) for name, value, unit in wl.named_metrics(raw_cases)}
    named["raw_setup_s"] = (raw_setup_s, "s")
    named["raw_round_s"] = (wl.round_seconds(raw_cases), "s")
    named["import_s"] = (import_s, "s")
    named["kernel_s"] = (statistics.median(gauge.times()), "s")
    named["import_reference_s"] = (statistics.median(import_gauge.times()), "s")
    named["failed_frac"] = (failed / attempted, "ratio")
    for name, (value, unit) in {**end_to_end, **named}.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for case, seconds in cases.items():
        print(f"  {'case.' + case:34s} {seconds:14.6g} s")
        print(f"  {'raw_case.' + case:34s} {raw_cases[case]:14.6g} s")

    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    else:
        # the timed work of the traced rounds, and its cost against the
        # untraced rounds at the same reference speed
        traced_wall = sum(s[0] for r in traced for samples in r.samples.values() for s in samples)
        overhead = (
            wl.round_seconds(workloads.median_cases(traced)) / end_to_end["round_s"][0] - 1.0
        )
        metrics = layers.per_layer_metrics(tracer, len(traced), traced_wall, overhead)
        if metrics.get("trace.coverage", {"value": 1.0})["value"] < COVERAGE_FLOOR:
            # reported, not enforced: a renamed outer target must leave its
            # metrics absent, not fail the run
            print(f"covbench: trace coverage {metrics['trace.coverage']['value']:.3f} "
                  f"is below {COVERAGE_FLOOR}", file=sys.stderr)
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

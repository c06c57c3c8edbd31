"""Run the benchmark repeatedly and report how steady each metric is.

Usage (from the repository root):

    python3 covbench/steadiness.py [--workloads a,b] [--runs 10] [--trace 0|1]
                                   [--out FILE]

Each run is ``covbench/run.py --workload W --seed S`` in a fresh process,
with seeds 1 to ``--runs`` and ``run_seconds`` from BENCHMARK.json. For
every metric it prints the median and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound. Runs are sequential so that no
two share the machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10, help="at least 2")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", default=None,
                   help="write the values, spreads and every run's printed figures here as JSON")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        figures: list[dict[str, float]] = []
        for seed in range(1, args.runs + 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # the printed figures ("  name value unit"), raw times included
            fields = [line.split() for line in lines[:-1] if line.startswith("  ")]
            figures.append({f[0]: float(f[1]) for f in fields if len(f) == 3})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"median": med, "spread": spread, "bound": bounds.get(name), "values": vals}
            print(f"  {workload:14s} {name:34s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds.get(name)}", flush=True)
        report[workload] = {"metrics": rows, "printed": figures}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

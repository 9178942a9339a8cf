"""Repeat benchmark runs and summarize them into a BENCH file.

    python3 perfbench/baseline.py --label seed-08dad1d --seeds 1-10
    python3 perfbench/baseline.py --label try --seeds 1-5 --workloads type-roundtrip --no-trace

Runs `perfbench/run.py` once per workload and seed, one process at a time,
each for BENCHMARK.json's `run_seconds`.  For every end-to-end metric it
reports the median, the quartiles (`statistics.quantiles(values, n=4)`)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound.  Unless `--no-trace` is given it adds
one traced run per workload for the per-layer metrics.  The summary goes
to `perfbench/baselines/BENCH_<label>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[2:]) for line in lines if line.startswith("# {"))
    return env, json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {"label": args.label, "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            env, result = run(w, seed, seconds, 0)
            runs.append({"env": env, "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(w, seed, json.dumps(runs[-1]["metrics"]), f"failed {result['failed']}", flush=True)
        stats = {}
        for name, m in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            stats[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "bound": m["bound"], "values": values}
            print(f"  {w} {name}: median {med:.6g} {m['unit']} spread {(q3 - q1) / med:.4f}"
                  f" (bound {m['bound']})", flush=True)
        entry = {"end_to_end": stats, "runs": runs}
        if not args.no_trace:
            env, result = run(w, args.seeds[0], seconds, 1)
            entry["per_layer"] = {"seed": args.seeds[0], "env": env,
                                  "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        summary["workloads"][w] = entry
    out = HERE / "baselines"
    out.mkdir(exist_ok=True)
    path = out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print("wrote", path.relative_to(ROOT))


if __name__ == "__main__":
    main()

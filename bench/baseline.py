"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/baseline.py --seeds 1-10 [--out bench/baseline.json]

For every workload of BENCHMARK.json it runs `bench/run.py` once per seed
with the run_seconds of BENCHMARK.json, then one traced run with seed 1, and
records for each metric the median, the quartiles (statistics.quantiles,
n=4) and the quartile spread as a share of the median.  The output, together with the
environment of the first run, is the perf baseline that later changes
compare against with the same command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARED_ENV = ("nproc", "cpu_model", "python", "numpy", "scipy", "blas_threads", "git_sha")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(x) for x in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result line and its result file."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads((ROOT / ".bench_out" / workload / f"result_trace{trace}.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=str(ROOT / "bench" / "baseline.json"))
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"run_seconds": seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run(name, seed, seconds, 0) for seed in out["seeds"]]
        results = [result for result, _ in runs]
        metrics = {m: summary([r["metrics"][m]["value"] for r in results])
                   for m in results[0]["metrics"]}
        unscaled = {m: summary([statistics.median(rep[f"raw_{m}"] for rep in rec["repetitions"])
                                for _, rec in runs])
                    for m in ("solve_s", "run_s")}
        for m, s in metrics.items():
            flag = "" if s["spread"] <= bounds[m] / 3 else "  (above a third of its bound)"
            print(f"{name:14s} {m:12s} median {s['median']:10.4f}  spread "
                  f"{s['spread']:.4f}  bound {bounds[m]}{flag}", flush=True)
        for m, s in unscaled.items():
            print(f"{name:14s} {m:12s} unscaled median {s['median']:.4f}  spread "
                  f"{s['spread']:.4f}", flush=True)
        traced, record = run(name, 1, seconds, 1)
        out.setdefault("environment", {k: record[k] for k in SHARED_ENV})
        out["workloads"][name] = {
            "parameters": record["parameters"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
            "unscaled": unscaled,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

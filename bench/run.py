"""magdot benchmark: time to a verified P(m,t) on four solver workloads.

Run from the repository root:

    python3 bench/run.py --workload registration --seed 1 --seconds 25 --trace 0

Each repetition runs the workload in a fresh Python process, so set-up time
and peak memory are what one user run sees.  Repetitions go on while the
next one, and the set-up-only children still needed, fit in --seconds (at
least one repetition runs).  End-to-end metrics are medians over
repetitions; setup_s is the median over at least five set-ups, topped up by
children that only set up and exit.

Times are CPU seconds of the child process, so that time the host takes
the VM's cores away (steal time) does not count.  They are scaled to a
reference machine speed: each child runs the probe of calibrate.py before
and after its timed work, and a time t is reported as
t * REFERENCE_S / (mean probe time).  The unscaled times go to the result
file.

With --trace 1, untraced and traced repetitions alternate: per-layer
metrics come from the traced ones, and the tracing overhead is the
difference of the two medians of run_s.

Before timing, the gate self-test checks that every gate of the workload
rejects a corrupted result; if one does not, the run stops with exit code 3.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Snapshot files, spans and the environment
record go to .bench_out/<workload>/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 170.0    # a run must end within 180 s
SETUP_SAMPLES = 5       # set-up is timed at least this often per run
BLAS_THREADS = "1"      # the solvers are elementwise numpy; one thread is steadiest
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# metric names and units, as BENCHMARK.json lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])


# -- child: one repetition in a fresh process -------------------------------


def layer_metrics(tracer, table: dict, diag: dict) -> dict:
    """Per-layer values of one traced repetition; 0 where a layer did no work."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    for span, row in table.items():
        for key in ("calls", "s", "self_s"):
            if f"{span}.{key}" in values:
                values[f"{span}.{key}"] = row[key]
    values.update({k: v for k, v in tracer.counters.items() if k in values})
    steps, rejected = values["master.evolve.steps"], values["master.evolve.rejected"]
    if steps:
        values["master.evolve.accept_ratio"] = steps / (steps + rejected)
        values["master.evolve.us_per_step"] = 1e6 * values["master.evolve.self_s"] / steps
    ws = table.get("bath.windowed_spectral")
    if ws:
        values["bath.windowed_spectral.us_per_call"] = 1e6 * ws["s"] / ws["calls"]
    if values["kmc.sample_trajectories.s"]:
        values["kmc.walkers_per_s"] = (tracer.counters["kmc.walkers"]
                                       / values["kmc.sample_trajectories.s"])
    values.update({k: v for k, v in diag.items() if k in values})
    values["trace.spans"] = len(tracer.spans)
    return values


def module_self_times(table: dict) -> dict:
    out: dict[str, float] = {}
    for span, row in table.items():
        module = span.split(".")[0]
        out[module] = out.get(module, 0.0) + row["self_s"]
    return out


def child(args) -> int:
    import calibrate
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.out)
    setup_cpu_s = time.process_time()   # CPU time since the process started
    probe_before = calibrate.probe()
    ready = time.monotonic()            # where a set-up-only child exits
    if args.setup_only:
        print(json.dumps({"setup_cpu_s": setup_cpu_s, "ready": ready,
                          "probes": [probe_before]}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.process_time()
    outcome = wl.solve(state)
    t1 = time.process_time()
    wl.write(state, outcome)
    t2 = time.process_time()

    record = {
        "setup_cpu_s": setup_cpu_s,
        "ready": ready,
        "probes": [probe_before, calibrate.probe()],
        "solve_s": t1 - t0,
        "write_s": t2 - t1,
        "ops": outcome.ops,
        "diag": outcome.diag,
    }
    if tracer is not None:
        table = tracer.table()
        record["layers"] = layer_metrics(tracer, table, outcome.diag)
        record["layers"]["arrays.peak_bytes"] = (
            tracing.array_bytes(state) + tracer.counters["arrays.result_bytes"])
        record["modules"] = module_self_times(table)
        record["spans_top_s"] = tracer.top_level_s()
        record["table"] = table
        tracer.write(os.path.join(args.out, f"spans_{args.rep:03d}.json"), t0)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


# -- parent: self-test, repetitions, aggregation ----------------------------


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, wl) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": wl.name,
        "parameters": wl.parameters(),
    }


def spawn(args, env: dict, deadline: float, *extra: str) -> dict:
    """One fresh child process: its record, its CPU and elapsed times, and the scaled times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", args.out, *extra]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"child {' '.join(extra)} did not end within {HARD_LIMIT_S:.0f} s "
                         "of the start of the run") from None
    elapsed = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"child {' '.join(extra)} exited with code {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    # CPU times scaled to the reference machine speed; the raw ones are kept too
    scale = REFERENCE_S / statistics.mean(rec["probes"])
    rec.update(elapsed_s=elapsed, ready_s=rec["ready"] - start, raw_run_s=cpu,
               raw_setup_s=rec["setup_cpu_s"], scale=scale)
    rec.update(setup_s=rec["raw_setup_s"] * scale, run_s=(cpu - sum(rec["probes"])) * scale)
    if "solve_s" in rec:
        rec.update(raw_solve_s=rec["solve_s"], solve_s=rec["solve_s"] * scale)
    return rec


def print_table(traced: list) -> None:
    """Self times of the last traced repetition, as shares of its solve and write phases."""
    last = traced[-1]
    timed = last["raw_solve_s"] + last["write_s"]
    print(f"traced self-time table (last traced repetition: solve {last['raw_solve_s']:.3f} s"
          f" + write {last['write_s']:.3f} s)")
    print(f"  {'span':34s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s} {'share':>7s}")
    for name, row in sorted(last["table"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:34s} {row['calls']:8d} {row['s']:9.4f} {row['self_s']:9.4f} "
              f"{row['self_s'] / timed:7.1%}")
    print("  per module:")
    for module, s in sorted(last["modules"].items(), key=lambda kv: -kv[1]):
        print(f"    {module:16s} {s:9.4f} s {s / timed:7.1%}")
    glue = timed - last["spans_top_s"]
    print(f"    {'(gates, glue)':16s} {glue:9.4f} s {glue / timed:7.1%}")


def parent(args) -> int:
    import workloads

    deadline = time.monotonic() + HARD_LIMIT_S
    wl = workloads.WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    args.out = str(out)

    checks = wl.selftest()
    for desc, passed in checks:
        print(f"gate self-test: {'ok  ' if passed else 'FAIL'} {desc}")
    if not all(passed for _, passed in checks):
        print("gate self-test failed: a gate accepted a corrupted result", file=sys.stderr)
        return 3

    env = {**os.environ, **{var: BLAS_THREADS for var in BLAS_VARS}}
    record = environment(args, wl)
    print("environment: " + json.dumps(record))

    # The budget is kept in elapsed seconds, probe runs included.
    reps: list[dict] = []
    loop_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rec = spawn(args, env, deadline, "--trace", str(int(traced)), "--rep", str(len(reps)))
        reps.append({**rec, "traced": traced})
        traced = bool(args.trace) and len(reps) % 2 == 1
        alike = [r for r in reps if r["traced"] == traced] or reps
        predicted = statistics.median(r["elapsed_s"] for r in alike)
        if not args.trace:
            setup_child_s = statistics.median(r["ready_s"] for r in reps)
            predicted += max(0, SETUP_SAMPLES - len(reps) - 1) * setup_child_s
        now = time.monotonic()
        if now + predicted > deadline:
            break
        if not (args.trace and len(reps) < 2) and now - loop_start + predicted > args.seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, env, deadline, "--setup-only")["setup_s"])

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(1 for r in reps for _, ok in r["ops"] if not ok)
    for i, r in enumerate(reps):
        bad = [op for op, ok in r["ops"] if not ok]
        print(f"rep {i}{' traced' if r['traced'] else ''}: setup {r['setup_s']:.3f} s, "
              f"solve {r['solve_s']:.3f} s, run {r['run_s']:.3f} s "
              f"(unscaled {r['raw_solve_s']:.3f}, {r['raw_run_s']:.3f}; scale {r['scale']:.3f}; "
              f"elapsed {r['elapsed_s']:.3f} s), "
              f"rss {r['peak_rss_mb']:.1f} MB, gates {json.dumps(r['diag'])}"
              + (f", FAILED {bad}" if bad else ""))

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name, _ in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - statistics.median(r["run_s"] for r in plain))
        print_table(traced)
        print(f"tracing overhead: {layers['trace.overhead_s']:+.4f} s of run_s "
              f"(median traced minus median untraced)")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        samples = {name: [r[name] for r in plain] for name, _ in END_TO_END}
        samples["setup_s"] = setups
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(result=result, setup_samples=setups, repetitions=[
        {k: v for k, v in r.items() if k != "table"} for r in reps])
    with open(out / f"result_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    if not (SRC / "magdot" / "__init__.py").is_file():
        print(f"magdot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it keys the Philox sampler)")
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())

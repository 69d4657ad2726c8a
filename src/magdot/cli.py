"""Command-line surface: simulation, analysis, comparison and figure runs.

Each run command takes its parameters and output times from one run plan,
which refuses a config key that the chosen engine cannot honour.  Exit codes:
0 success, 1 usage/config error, 2 numerical failure (a float overflow
included), 3 comparison assertion failure (`compare --assert-l1`).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .analytic import CharacteristicsError, closed_form_P
from .bath import KernelConvergenceError
from .config import (ConfigError, RunConfig, parse_config, parse_sweep, set_key,
                     sweep_configs)
from .fokker_planck import MAX_CELLS, FPConfig, initial_field, solve_fp
from .kmc import sample_trajectories
from .master import (
    NumericalError,
    StiffnessError,
    evolve,
    initial_distribution,
    start_params,
)
from .measurement import SpinState, run_measurement
from .model import ModelParams, ParameterError, derived_scales, fixed_points
from .snapshots import FMT, compare_dirs, write_long_csv, write_rows
from .svgplot import line_plot_svg

__all__ = ["command_surface", "main"]


class UsageError(Exception):
    pass


# During a command a float overflow, invalid operation or division by zero
# raises (an ArithmeticError) and exits 2; underflow to 0 is benign.
_FLOAT_ERRORS = dict(over="raise", invalid="raise", divide="raise")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise UsageError(message)


def _read_config(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc


def _load_config(path: str) -> RunConfig:
    return parse_config(_read_config(path))


def _out_dir(cfg_dir: str, override: str | None) -> str:
    out = override or cfg_dir or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {out}: {exc}") from exc
    return out


def _override(cfg: RunConfig, **options) -> None:
    """Set each command-line option that was given (not None) as its config
    line would be set, with that line's parser, domain check and message.
    An option for one kind of output times drops the config's other kind."""
    for key, raw in options.items():
        if raw is not None:
            set_key(cfg, key, raw, None)
            if key in ("times", "times_theta"):
                setattr(cfg, "times_theta" if key == "times" else "times", [])


def _plan(cfg: RunConfig, command: str) -> tuple[ModelParams, list]:
    """The parameters of the start that cfg's `init` names
    (`master.start_params`) and the output times of one run of `command` on
    cfg, and the one place that refuses what the chosen engine cannot
    run: only the master engine of `simulate` has full-memory rates,
    `sample` draws the master chain's jumps, and the master engine holds at
    most MAX_CELLS levels, N + 1.  Every engine honours `init`.  times_theta
    needs theta, read at g >= 0 and rejected by derived_scales for T >= J.
    """
    if cfg.mode != "short-memory" and (command, cfg.engine) != ("simulate", "master"):
        who = "engine = fp" if command == "simulate" else command
        raise UsageError(f"{who} runs short-memory rates only; "
                         f"mode = {cfg.mode} is for simulate on the master engine")
    if command == "sample" and cfg.engine != "master":
        raise UsageError(f"sample draws the master chain's jumps; engine = {cfg.engine} "
                         "is for simulate, measure and sweep")
    if command != "analytic" and cfg.engine == "master" and cfg.n_spins + 1 > MAX_CELLS:
        raise UsageError(f"N = {cfg.n_spins} has more than the {MAX_CELLS} levels "
                         "that the master engine holds; engine = fp runs it on cells")
    params = start_params(cfg.model_params(), cfg.init)
    frame = replace(params, coupling_g=abs(params.coupling_g))
    theta = derived_scales(frame).theta if cfg.times_theta else None
    times = list(cfg.times) or [x * theta for x in cfg.times_theta]
    if not times:
        raise UsageError(f"{command} needs output times (times or times_theta)")
    return params, times


# -- subcommands ----------------------------------------------------------


def _cmd_fixed_points(args) -> int:
    cfg = _load_config(args.config)
    params = start_params(cfg.model_params(), cfg.init)
    print("m,stability")
    for fp in fixed_points(params):
        print(f"{FMT % fp.m},{'stable' if fp.stable else 'unstable'}")
    if params.temp_bath < params.coupling_j:
        ds = derived_scales(params)
        print(f"# theta={FMT % ds.theta} m_F={FMT % ds.m_ferro} "
              f"m_P={FMT % ds.m_repel} delta_F={FMT % ds.delta_ferro} "
              f"delta={FMT % ds.delta_total} b={FMT % ds.bias_b} "
              f"lambda={FMT % ds.lam}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _override(cfg, engine=args.engine, times=args.times, times_theta=args.times_theta)
    params, times = _plan(cfg, "simulate")
    out = _out_dir(cfg.out_dir, args.snapshot_dir)

    if cfg.engine == "master":
        init = initial_distribution(params, cfg.init)
        res = evolve(init, params, times[-1], mode=cfg.mode, tol=cfg.tol,
                     snapshot_times=times, kernel_tol=cfg.kernel_tol)
        states = res.snapshots
    else:
        fpc = FPConfig(cells=cfg.cells)
        states = solve_fp(params, initial_field(params, cfg.init, fpc), times, fpc, cfg.tol)
    path = os.path.join(out, "snapshots.csv")
    write_long_csv(path, states)
    print(path)
    if cfg.engine == "master":
        print(f"steps={res.n_steps} terms={res.n_terms} "
              f"uniform_rate={FMT % res.uniform_rate}")
    return 0


def _cmd_analytic(args) -> int:
    cfg = _load_config(args.config)
    _override(cfg, times_theta=args.times_theta)
    params, times = _plan(cfg, "analytic")
    ds = derived_scales(params)  # rejects T >= J before the output directory is made
    model = args.model
    if model == "gaussian-cubic":
        # stay off the attractor skin, where the transport Jacobian diverges
        span = ds.m_ferro * (1.0 - 1e-4)
        mesh = np.linspace(-span, span, args.points)
    else:
        mesh = np.linspace(-0.999999, 0.999999, args.points)
    out = _out_dir(cfg.out_dir, args.out_dir)
    path = os.path.join(out, f"analytic_{model}.csv")
    write_rows(path, [(t, mesh, closed_form_P(params, mesh, t, model)) for t in times])
    print(path)
    return 0


def _cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    _override(cfg, trajectories=args.trajectories, seed=args.seed)
    params, times = _plan(cfg, "sample")
    ens = sample_trajectories(params, cfg.trajectories, times[-1], seed=cfg.seed,
                              init=initial_distribution(params, cfg.init))
    out = _out_dir(cfg.out_dir, args.out_dir)
    path = os.path.join(out, "sample_histogram.csv")
    write_long_csv(path, [ens.histogram])
    print(path)
    print(f"trajectories={ens.n_traj} seed={ens.seed} "
          f"up_fraction={FMT % ens.up_fraction} steps={ens.n_steps} "
          f"uniform_rate={FMT % ens.uniform_rate}")
    return 0


def _measure(cfg: RunConfig, params: ModelParams, times: list):
    """run_measurement on one config and its run plan."""
    spin = SpinState(r_up=cfg.r_up)
    return run_measurement(
        spin, params, times[-1], engine=cfg.engine, tol=cfg.tol,
        fp_config=FPConfig(cells=cfg.cells),
        p_wrong_bound=cfg.p_wrong_bound, g0=cfg.g0, init=cfg.init,
    )


def _time(t: float) -> str:
    """A time, or an empty field for one that never comes (as at g = 0)."""
    return FMT % t if np.isfinite(t) else ""


def _cmd_measure(args) -> int:
    cfg = _load_config(args.config)
    report = _measure(cfg, *_plan(cfg, "measure"))
    out = _out_dir(cfg.out_dir, args.out_dir)
    path = os.path.join(out, "measure_summary.csv")
    offd = report.offdiag
    with open(path, "w") as fh:
        fh.write("sector,p_correct,p_wrong,peak_m,tau_red,tau_reg,lambda,faithful\n")
        for name, sec in report.sectors.items():
            fh.write(
                f"{name},{FMT % sec.p_correct},{FMT % sec.p_wrong},"
                f"{FMT % sec.peak_m},{_time(offd.tau_red if offd else np.inf)},"
                f"{_time(report.regime.tau_reg)},"
                f"{FMT % report.regime.lam},{report.faithful}\n")
    print(path)
    print(f"regime={report.regime.classification} lambda={FMT % report.regime.lam}")
    for name, sec in report.sectors.items():
        print(f"sector {name}: weight={sec.born_weight:g} "
              f"p_correct={sec.p_correct:.6f} p_wrong={sec.p_wrong:.6f} "
              f"peak_m={sec.peak_m:.6f}")
    print(f"born_drift={report.born_check:.3e} conclusive={report.conclusive} "
          f"faithful={report.faithful} steps={report.n_steps} terms={report.n_terms}")
    return 0


def _sweep_row(cfg: RunConfig, plan: tuple, value: float) -> str:
    with np.errstate(**_FLOAT_ERRORS):  # a worker process starts without it
        report = _measure(cfg, *plan)
    up = report.sectors["up"]
    return (f"{FMT % value},{FMT % report.regime.lam},"
            f"{FMT % up.p_correct},{FMT % up.p_wrong},{FMT % up.peak_m},"
            f"{report.regime.classification},{report.faithful}")


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    _override(cfg, workers=args.workers)
    axis, values = cfg.sweep_axis, cfg.sweep_values
    if args.axis:
        axis, values = parse_sweep(args.axis, None)  # not a line of the config
    if not axis or not values:
        raise UsageError("sweep needs an axis: --axis key=v1,v2,... or a "
                         "`sweep = key=v1,v2` config line")
    cfgs = sweep_configs(cfg, axis, values, None)  # parse_config checked a sweep line
    plans = [_plan(c, "sweep") for c in cfgs]  # refuse any value before a run starts
    out = _out_dir(cfg.out_dir, args.out_dir)
    if cfg.workers > 1:
        import concurrent.futures  # with logging, 9-15 ms that a serial run never needs

        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_sweep_row, cfgs, plans, values))
    else:
        rows = list(map(_sweep_row, cfgs, plans, values))
    path = os.path.join(out, "sweep.csv")
    with open(path, "w") as fh:
        fh.write(f"{axis},lambda,p_correct,p_wrong,peak_m,classification,faithful\n")
        for row in rows:
            fh.write(row + "\n")
    print(path)
    return 0


def _resolve_snapshot_file(path: str) -> str:
    if os.path.isdir(path):
        return os.path.join(path, "snapshots.csv")
    return path


def _cmd_compare(args) -> int:
    file_a = _resolve_snapshot_file(args.run)
    file_b = _resolve_snapshot_file(args.against)
    try:
        results = compare_dirs(file_a, file_b)
    except OSError as exc:
        raise UsageError(f"cannot read snapshots: {exc}") from exc
    if not results:
        raise UsageError("no matching snapshot times between the two runs")
    print("t,L1")
    worst = 0.0
    for t, l1 in results:
        print(f"{FMT % t},{FMT % l1}")
        worst = max(worst, l1)
    if args.assert_l1 is not None and worst > args.assert_l1:
        print(f"comparison failed: max L1 {worst:.6g} > {args.assert_l1:.6g}",
              file=sys.stderr)
        return 3
    return 0


_FIGURES = {
    "1": {"g": 0.05, "times_theta": (0.0, 0.5, 1.0, 2.25, 3.0, 4.0, 5.0)},
    "2": {"g": 0.0, "times_theta": (0.0, 0.5, 1.0, 2.25, 3.0, 4.0, 5.0, 10.0)},
}


def _cmd_figure(args) -> int:
    spec = _FIGURES[args.which]
    params = ModelParams(n_spins=1000, temp_bath=0.65, coupling_g=spec["g"])
    theta = derived_scales(params).theta
    times = [x * theta for x in spec["times_theta"]]
    init = initial_distribution(params, "exact-paramagnet")
    res = evolve(init, params, times[-1], snapshot_times=times)
    out = _out_dir(".", args.out_dir)
    csv_path = os.path.join(out, f"figure{args.which}.csv")
    write_long_csv(csv_path, res.snapshots)
    curves = []
    for frac, snap in zip(spec["times_theta"], res.snapshots):
        label = f"t/theta={frac:g}"
        curves.append((label, snap.grid, snap.density()))
    svg_path = os.path.join(out, f"figure{args.which}.svg")
    line_plot_svg(svg_path, curves,
                  title=f"Pointer distribution, g={spec['g']:g}J, N=1000, T=0.65J",
                  xlabel="m", ylabel="P(m,t)")
    print(csv_path)
    print(svg_path)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="magdot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixed-points", help="magnetization fixed points")
    p.add_argument("-c", "--config", required=True)

    p = sub.add_parser("simulate", help="master-equation or Fokker-Planck run")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--engine", help="master or fp (default: the config's)")
    times = p.add_mutually_exclusive_group()
    times.add_argument("--times")
    times.add_argument("--times-theta", dest="times_theta")
    p.add_argument("--snapshot-dir", dest="snapshot_dir")

    p = sub.add_parser("analytic", help="closed-form density profiles")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--model", default="gaussian-cubic",
                   choices=("drift-only", "gaussian-linear", "gaussian-cubic"))
    p.add_argument("--times-theta", dest="times_theta")
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("sample", help="kinetic Monte Carlo trajectories")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--trajectories")
    p.add_argument("--seed")
    p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("measure", help="measurement run of both spin states")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("sweep", help="parameter sweep of measurement runs")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--axis", help="key=v1,v2,...")
    p.add_argument("--workers", help="worker processes, >= 1 (default: the config's)")
    p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("compare", help="L1 comparison of snapshot runs")
    p.add_argument("run", help="snapshot file or directory")
    p.add_argument("--against", required=True)
    p.add_argument("--assert-l1", dest="assert_l1", type=float)

    p = sub.add_parser("figure", help="reproduce a reference figure")
    p.add_argument("--which", required=True, choices=("1", "2"))
    p.add_argument("--out-dir", dest="out_dir")
    return parser


_COMMANDS = {
    "fixed-points": _cmd_fixed_points,
    "simulate": _cmd_simulate,
    "analytic": _cmd_analytic,
    "sample": _cmd_sample,
    "measure": _cmd_measure,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "figure": _cmd_figure,
}


def command_surface(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(**_FLOAT_ERRORS):
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StiffnessError, NumericalError, KernelConvergenceError,
            CharacteristicsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(command_surface(sys.argv[1:]))


if __name__ == "__main__":
    main()

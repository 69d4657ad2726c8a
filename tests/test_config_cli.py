import math
import os
import re

import numpy as np
import pytest

from magdot import bath
from magdot.cli import UsageError, _plan, command_surface
from magdot.config import _KEY_MAP, ConfigError, parse_config
from magdot.fokker_planck import MAX_CELLS, FPConfig, generator
from magdot.kmc import sample_trajectories
from magdot.master import initial_distribution
from magdot.snapshots import FMT, read_long_csv

FIG1_MINIMAL = "N = 1000\nT = 0.65\ng = 0.05\n"


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(FIG1_MINIMAL)
        assert cfg.n_spins == 1000
        assert cfg.temp_bath == 0.65
        assert cfg.coupling_g == 0.05
        assert cfg.coupling_j == 1.0
        assert cfg.gamma == 1e-3
        assert cfg.debye_cutoff == 100.0
        assert math.isinf(cfg.temp_init)
        assert cfg.cells == 2000
        assert cfg.tol == 1e-9
        assert cfg.p_wrong_bound == 1e-3
        cfg.model_params()  # constructs cleanly

    def test_empty_rejected_for_missing_n(self):
        with pytest.raises(ConfigError, match="missing required key 'N'"):
            parse_config("")

    def test_invariant_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("N = -5\nT = 0.65\ng = 0\n")

    def test_unknown_key_with_line_number(self):
        for key in ("frobnicate", "lambda_threshold", "hbar", "g_spread"):
            with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
                parse_config(f"N = 10\n{key} = 3\nT = 0.65\ng = 0\n")

    def test_readme_lists_every_config_key(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path) as fh:
            text = fh.read()
        listed = text.split("Config keys and defaults:", 1)[1].split("Output times", 1)[0]
        keys = {item.split("=", 1)[0].strip() for item in re.findall(r"`([^`]+)`", listed)}
        assert keys == set(_KEY_MAP)

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("N = ten\nT = 0.65\ng = 0\n")

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nN = 10  # inline\nT = 0.65\ng = 0\n")
        assert cfg.n_spins == 10

    def test_times_must_ascend(self):
        with pytest.raises(ConfigError, match="ascend"):
            parse_config(FIG1_MINIMAL + "times = 3,1\n")

    def test_nonfinite_or_negative_times_rejected(self):
        for line in ("times = inf", "times = -5", "times = 1,nan",
                     "times_theta = 1,inf", "times_theta = -0.5"):
            with pytest.raises(ConfigError, match="line 4: .*finite and >= 0"):
                parse_config(FIG1_MINIMAL + line + "\n")
        assert parse_config(FIG1_MINIMAL + "times = 0,1\n").times == [0.0, 1.0]

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="line 4: .*seed >= 0"):
            parse_config(FIG1_MINIMAL + "seed = -1\n")

    @pytest.mark.parametrize("line, invariant", [
        ("T = 0", "T > 0"), ("gamma = 0", "gamma > 0"), ("Gamma = -1", "Gamma > 0"),
        ("cells = 99", "cells >= 100"), ("tol = 0", "tol > 0"),
        ("workers = 0", "workers >= 1"), ("N = 1", "N >= 2"), ("m0 = 1.5", "-1 <= m0 <= 1"),
        ("kernel_tol = 0.1", "0 < kernel_tol <= 1e-2"), ("seed = -1", "seed >= 0"),
        ("p_wrong_bound = 0", "p_wrong_bound > 0"),
        ("r_up = 1.5", "0 <= r_up <= 1"), ("trajectories = 0", "trajectories >= 1"),
        ("trajectories = 9223372036854775808", "trajectories >= 1 and < 2**63"),
        ("seed = 18446744073709551616", "seed >= 0 and < 2**64")])
    def test_invariant_names_its_line(self, line, invariant):
        with pytest.raises(ConfigError,
                           match=re.escape(f"line 4: invariant violated: {invariant}")):
            parse_config(FIG1_MINIMAL + line + "\n")

    def test_both_time_forms_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(FIG1_MINIMAL + "times = 1\ntimes_theta = 1\n")

    def test_finite_t0_below_j_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(FIG1_MINIMAL + "T0 = 0.9\n")

    def test_inf_literal(self):
        cfg = parse_config(FIG1_MINIMAL + "T0 = inf\n")
        assert math.isinf(cfg.temp_init)
        for spelling in ("+inf", "Infinity", " INF "):
            assert parse_config(FIG1_MINIMAL + f"T0 = {spelling}\n").temp_init == math.inf

    def test_choice_validation(self):
        with pytest.raises(ConfigError, match="engine"):
            parse_config(FIG1_MINIMAL + "engine = warp\n")
        for key, words in (("init", "('exact-paramagnet', 'gaussian')"),
                           ("mode", "('short-memory', 'full-memory')")):
            with pytest.raises(ConfigError, match=re.escape(
                    f"line 4: {key} must be one of {words}, got 'warp'")):
                parse_config(FIG1_MINIMAL + f"{key} = warp\n")

    def test_sector_is_no_key(self):
        # the sign of g is the spin's state; no second key flips it
        with pytest.raises(ConfigError, match="line 4: unknown key 'sector'"):
            parse_config(FIG1_MINIMAL + "sector = down\n")

    def test_sweep_line(self):
        cfg = parse_config(FIG1_MINIMAL + "sweep = g=0.01,0.02\n")
        assert cfg.sweep_axis == "g"
        assert cfg.sweep_values == [0.01, 0.02]


SMALL = ("N = 120\nT = 0.65\ng = 0.08\nGamma = 1e6\n"
         "times_theta = 0.5,1.5\ncells = 400\ntrajectories = 400\n")

FULL_MEMORY = ("N = 16\nT = 0.65\ng = 0.05\nGamma = 1e6\n"
               "mode = full-memory\ntimes = 1\n")


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL)
    return str(path)


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert command_surface(["simulate"]) == 1
        assert command_surface(["no-such-command"]) == 1
        capsys.readouterr()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("N = 1\nT = 0.65\ng = 0\n")
        assert command_surface(["fixed-points", "-c", str(bad)]) == 1
        capsys.readouterr()

    def test_fixed_points_output(self, small_cfg, capsys):
        assert command_surface(["fixed-points", "-c", small_cfg]) == 0
        out = capsys.readouterr().out
        assert "stable" in out and "lambda=" in out

    def test_simulate_compare_round_trip(self, small_cfg, tmp_path, capsys):
        run_a = str(tmp_path / "a")
        run_b = str(tmp_path / "b")
        assert command_surface(["simulate", "-c", small_cfg,
                                "--snapshot-dir", run_a]) == 0
        assert command_surface(["simulate", "-c", small_cfg, "--engine", "fp",
                                "--snapshot-dir", run_b]) == 0
        assert os.listdir(run_a) == ["snapshots.csv"]
        assert command_surface(["compare", run_a, "--against", run_b,
                                "--assert-l1", "0.05"]) == 0
        assert command_surface(["compare", run_a, "--against", run_b,
                                "--assert-l1", "1e-9"]) == 3
        capsys.readouterr()

    def test_snapshot_csv_schema(self, small_cfg, tmp_path, capsys):
        run_dir = str(tmp_path / "s")
        command_surface(["simulate", "-c", small_cfg, "--snapshot-dir", run_dir])
        capsys.readouterr()
        path = os.path.join(run_dir, "snapshots.csv")
        with open(path) as fh:
            assert fh.readline().strip() == "t,m,P"
        snaps = read_long_csv(path)
        assert len(snaps) == 2  # one block per requested time
        for m, dens in snaps.values():
            assert len(m) == 121
            # trapezoid loses half the (tiny) endpoint weights
            assert np.trapezoid(dens, m) == pytest.approx(1.0, abs=1e-3)

    def test_sample_determinism(self, small_cfg, tmp_path, capsys):
        d1, d2, d3 = (str(tmp_path / x) for x in "xyz")
        command_surface(["sample", "-c", small_cfg, "--out-dir", d1, "--seed", "5"])
        command_surface(["sample", "-c", small_cfg, "--out-dir", d2, "--seed", "5"])
        command_surface(["sample", "-c", small_cfg, "--out-dir", d3, "--seed", "6"])
        capsys.readouterr()
        read = lambda d: open(os.path.join(d, "sample_histogram.csv")).read()
        assert read(d1) == read(d2)
        assert read(d1) != read(d3)

    def test_sample_is_determined_by_seed_and_trajectories(self, small_cfg, tmp_path,
                                                           capsys):
        # one count vector per (seed, trajectories): the same pair writes the
        # same bytes and summary, and another walker count draws other counts
        runs = []
        for name, n in (("a", "1000"), ("b", "1000"), ("c", "1001")):
            out = str(tmp_path / name)
            assert command_surface(["sample", "-c", small_cfg, "--seed", "5",
                                    "--trajectories", n, "--out-dir", out]) == 0
            summary = capsys.readouterr().out.splitlines()[-1]
            runs.append((open(os.path.join(out, "sample_histogram.csv")).read(),
                         summary))
        assert runs[0] == runs[1]
        assert runs[0][1].startswith("trajectories=1000 seed=5 ")
        assert runs[2][0] != runs[0][0]

    def test_sample_starts_from_the_config_init(self, tmp_path, capsys):
        # `init = gaussian` with m0 = 0.5 starts the walkers off the origin,
        # so the up fraction is the sampler's from that start
        base = "N = 40\nT = 0.65\ng = 0.05\ntimes = 50\n"
        gauss = base + "init = gaussian\nm0 = 0.5\n"
        up = []
        for i, text in enumerate((base, gauss)):
            cfg = tmp_path / f"{i}.cfg"
            cfg.write_text(text)
            assert command_surface(["sample", "-c", str(cfg),
                                    "--out-dir", str(tmp_path / str(i))]) == 0
            summary = capsys.readouterr().out.splitlines()[-1]
            up.append(float(dict(kv.split("=") for kv in summary.split())["up_fraction"]))
        p = parse_config(gauss).model_params()
        want = sample_trajectories(p, 10000, 50.0, seed=0,
                                   init=initial_distribution(p, "gaussian"))
        assert up[1] == want.up_fraction
        assert up[1] > up[0]

    def test_simulate_reports_steps_terms_and_uniform_rate(self, small_cfg, tmp_path,
                                                           capsys):
        for engine in ("master", "fp"):
            assert command_surface(["simulate", "-c", small_cfg, "--engine", engine,
                                    "--snapshot-dir", str(tmp_path / engine)]) == 0
            path, summary = capsys.readouterr().out.splitlines()
            assert os.path.exists(path)
            fields = dict(kv.split("=") for kv in summary.split())
            assert sorted(fields) == ["steps", "terms", "uniform_rate"]
            assert 0 < int(fields["steps"]) <= int(fields["terms"])
            assert float(fields["uniform_rate"]) > 0.0
        # the FP engine's uniformization rate is that of its cell generator
        cfg = parse_config(open(small_cfg).read())
        params, _ = _plan(cfg, "simulate")
        assert fields["uniform_rate"] == FMT % generator(params, FPConfig(cells=cfg.cells)).rate

    def test_measure_reports_steps_and_terms(self, tmp_path, capsys):
        for engine in ("master", "fp"):
            cfg = tmp_path / f"{engine}.cfg"
            cfg.write_text(SMALL + f"engine = {engine}\n")
            assert command_surface(["measure", "-c", str(cfg),
                                    "--out-dir", str(tmp_path / engine)]) == 0
            summary = capsys.readouterr().out.splitlines()[-1]
            fields = dict(kv.split("=") for kv in summary.split())
            assert sorted(fields) == ["born_drift", "conclusive", "faithful",
                                      "steps", "terms"]
            # the one run that serves both sectors from the symmetric start:
            # its report points and products
            assert 0 < int(fields["steps"]) <= int(fields["terms"])

    def test_sample_reports_steps_and_uniform_rate(self, small_cfg, tmp_path, capsys):
        assert command_surface(["sample", "-c", small_cfg,
                                "--out-dir", str(tmp_path / "o")]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        fields = dict(kv.split("=") for kv in summary.split())
        assert int(fields["steps"]) > 0 and float(fields["uniform_rate"]) > 0.0

    def test_negative_seed_is_config_error(self, small_cfg, tmp_path, capsys):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(SMALL + "seed = -1\n")
        out = ["--out-dir", str(tmp_path / "o")]
        assert command_surface(["sample", "-c", str(cfg)] + out) == 1
        err = capsys.readouterr().err
        assert "seed >= 0" in err and "Traceback" not in err
        # the --seed option is read as a config line, with that line's message
        assert command_surface(["sample", "-c", small_cfg, "--seed", "-3"] + out) == 1
        err = capsys.readouterr().err
        assert "invariant violated: seed >= 0 and < 2**64 (got -3)" in err
        assert "Traceback" not in err

    def test_seed_beyond_64_bits_is_error(self, small_cfg, tmp_path, capsys):
        out = ["--out-dir", str(tmp_path / "o")]
        assert command_surface(["sample", "-c", small_cfg,
                                "--seed", str(2**64)] + out) == 1
        err = capsys.readouterr().err
        assert "invariant violated: seed >= 0 and < 2**64" in err and "Traceback" not in err

    def test_zero_trajectories_is_not_replaced_by_config(self, small_cfg, tmp_path,
                                                          capsys):
        assert command_surface(["sample", "-c", small_cfg, "--trajectories", "0",
                                "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "invariant violated: trajectories >= 1" in err and "Traceback" not in err

    def test_nonfinite_or_negative_times_are_config_errors(self, small_cfg, tmp_path,
                                                           capsys):
        out = str(tmp_path / "o")
        for times in ("times = inf", "times = -5", "times_theta = inf"):
            cfg = tmp_path / "t.cfg"
            cfg.write_text(SMALL.replace("times_theta = 0.5,1.5", times))
            for argv in (["simulate", "-c", str(cfg), "--snapshot-dir", out],
                         ["sample", "-c", str(cfg), "--out-dir", out]):
                assert command_surface(argv) == 1
                err = capsys.readouterr().err
                assert "finite and >= 0" in err and "Traceback" not in err
        for flag, value in (("--times", "1,inf"), ("--times-theta", "-1")):
            assert command_surface(["simulate", "-c", small_cfg, flag, value,
                                    "--snapshot-dir", out]) == 1
            err = capsys.readouterr().err
            assert "finite and >= 0" in err and "Traceback" not in err
        for value in ("inf", "-1"):
            assert command_surface(["analytic", "-c", small_cfg, "--times-theta",
                                    value, "--out-dir", out]) == 1
            err = capsys.readouterr().err
            assert "finite and >= 0" in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_measure_summary_schema(self, small_cfg, tmp_path, capsys):
        out = str(tmp_path / "m")
        assert command_surface(["measure", "-c", small_cfg,
                                "--out-dir", out]) == 0
        capsys.readouterr()
        lines = open(os.path.join(out, "measure_summary.csv")).read().splitlines()
        assert lines[0] == \
            "sector,p_correct,p_wrong,peak_m,tau_red,tau_reg,lambda,faithful"
        assert len(lines) == 3
        assert lines[1].startswith("up,") and lines[2].startswith("down,")

    def test_sweep_rows_in_order(self, small_cfg, tmp_path, capsys):
        out = str(tmp_path / "sw")
        assert command_surface(["sweep", "-c", small_cfg,
                                "--axis", "g=0.06,0.1,0.08",
                                "--out-dir", out]) == 0
        capsys.readouterr()
        lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert len(lines) == 4
        values = [float(row.split(",")[0]) for row in lines[1:]]
        assert values == [0.06, 0.1, 0.08]  # input order, not sorted
        assert os.listdir(out) == ["sweep.csv"]

    @pytest.mark.parametrize("axis, message", [
        ("foo=1,2", "unknown sweep axis 'foo'"),
        ("sweep=1", "unknown sweep axis 'sweep'"),
        ("g=0.1,x", "cannot parse value"),
    ])
    def test_bad_sweep_axis_names_no_line(self, small_cfg, tmp_path, capsys,
                                          axis, message):
        # --axis is not a line of the config, so its errors name none
        out = tmp_path / "sw"
        assert command_surface(["sweep", "-c", small_cfg, "--axis", axis,
                                "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "line" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("axis, message", [
        ("N=1", "sweep value N=1: invariant violated: N >= 2 (got 1)"),
        ("T=-1", "sweep value T=-1: invariant violated: T > 0"),
        ("N=2.5", "sweep value N=2.5: cannot parse value '2.5' for key 'N'"),
    ])
    def test_bad_sweep_value_names_the_value_not_a_line(self, small_cfg, tmp_path,
                                                        capsys, axis, message):
        # --axis is not a line of the config: an error names the value instead
        out = tmp_path / "sw"
        assert command_surface(["sweep", "-c", small_cfg, "--axis", axis,
                                "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "line" not in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_sweep_line_value_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SMALL.replace("cells = 400\n", "sweep = N=1,200\n"))
        for argv in (["sweep", "-c", str(cfg)],
                     ["sweep", "-c", str(cfg), "--axis", "g=0.06"]):
            assert command_surface(argv + ["--out-dir", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert "line 6: sweep value N=1: invariant violated: N >= 2" in err
            assert "Traceback" not in err
        # a value is checked against keys set below the sweep line too
        with pytest.raises(ConfigError, match="line 4: sweep value J=2: .*T0"):
            parse_config(FIG1_MINIMAL + "sweep = J=0.9,2\nT0 = 1.5\n")

    def test_analytic_csv(self, small_cfg, tmp_path, capsys):
        out = str(tmp_path / "an")
        assert command_surface(["analytic", "-c", small_cfg, "--model",
                                "gaussian-cubic", "--points", "301",
                                "--out-dir", out]) == 0
        capsys.readouterr()
        snaps = read_long_csv(os.path.join(out, "analytic_gaussian-cubic.csv"))
        assert len(snaps) == 2
        for m, dens in snaps.values():
            assert len(m) == 301
            assert np.all(dens >= 0.0)

    def test_analytic_drift_only_model(self, small_cfg, tmp_path, capsys):
        out = str(tmp_path / "ado")
        assert command_surface(["analytic", "-c", small_cfg, "--model",
                                "drift-only", "--points", "201",
                                "--out-dir", out]) == 0
        capsys.readouterr()
        snaps = read_long_csv(os.path.join(out, "analytic_drift-only.csv"))
        for m, dens in snaps.values():
            assert np.all(np.isfinite(dens))

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # an impossible step tolerance starves the step controller
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(SMALL + "tol = 1e-30\n")
        assert command_surface(["simulate", "-c", str(cfg),
                                "--snapshot-dir", str(tmp_path / "o")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_full_memory_at_large_cutoff(self, tmp_path, capsys):
        # Gamma * t = 1e6 exhausted the frequency-panel kernel quadrature
        cfg = tmp_path / "memory.cfg"
        cfg.write_text(FULL_MEMORY)
        assert command_surface(["simulate", "-c", str(cfg),
                                "--snapshot-dir", str(tmp_path / "o")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("line", [
        "gamma = inf", "r_up = nan", "T0 = nan", "T0 = -inf", "m0 = nan", "T = inf",
        "g = nan", "J = inf", "Gamma = nan", "tol = inf", "kernel_tol = nan",
        "p_wrong_bound = nan", "g0 = inf", "r_up = 1.5",
        "r_up = -0.1", "m0 = 1.5", "kernel_tol = 0", "kernel_tol = 0.5",
        "p_wrong_bound = -1", "p_wrong_bound = 0",
        "cells = 1000000000000"])
    def test_value_out_of_its_domain_names_its_line(self, line, tmp_path, capsys):
        # each of these ran to a traceback or to nan in the output, or was
        # refused only later, by a solver and with no line number
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL + line + "\n")
        assert command_surface(["fixed-points", "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "error: line 8: " in err and line.split()[0] in err
        assert "Traceback" not in err

    def test_huge_debye_cutoff_measures_without_overflow(self, tmp_path, capsys):
        # the bath ratio gamma N Gamma^2 / g^2 overflowed a float power
        cfg = tmp_path / "cutoff.cfg"
        cfg.write_text(SMALL.replace("Gamma = 1e6", "Gamma = 1e300"))
        assert command_surface(["measure", "-c", str(cfg),
                                "--out-dir", str(tmp_path / "o")]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample", "measure", "sweep"])
    def test_full_memory_is_refused_where_only_short_memory_runs(self, command,
                                                                  tmp_path, capsys):
        # neither the sampler nor run_measurement takes time-dependent rates
        cfg = tmp_path / "memory.cfg"
        cfg.write_text(FULL_MEMORY)
        out = tmp_path / "o"
        axis = ["--axis", "g=0.05"] if command == "sweep" else []
        assert command_surface([command, "-c", str(cfg), "--out-dir", str(out)]
                               + axis) == 1
        err = capsys.readouterr().err
        assert f"{command} runs short-memory rates only; mode = full-memory" in err
        assert "Traceback" not in err and not out.exists()

    def test_kernel_tol_below_rounding_floor_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "memory.cfg"
        cfg.write_text(FULL_MEMORY.replace("T = 0.65", "T = 1.42")
                       .replace("Gamma = 1e6", "Gamma = 9.53e5") + "kernel_tol = 1e-12\n")
        assert command_surface(["simulate", "-c", str(cfg),
                                "--snapshot-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "rounding floor" in err and "Traceback" not in err

    def test_kernel_budget_exhausted_is_numerical_failure(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bath, "_MAX_NODES", 16)
        cfg = tmp_path / "memory.cfg"
        cfg.write_text(FULL_MEMORY)
        assert command_surface(["simulate", "-c", str(cfg),
                                "--snapshot-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err

    def test_simulate_at_critical_temperature_is_config_error(self, tmp_path, capsys):
        # theta = hbar / (gamma (J - T)) is undefined at T = J
        cfg = tmp_path / "critical.cfg"
        cfg.write_text(SMALL.replace("T = 0.65", "T = 1.0"))
        assert command_surface(["simulate", "-c", str(cfg),
                                "--snapshot-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "T < J" in err

    def test_times_theta_above_critical_temperature_is_config_error(
            self, tmp_path, capsys):
        cfg = tmp_path / "para.cfg"
        cfg.write_text(SMALL.replace("T = 0.65", "T = 1.3"))
        for command in ("simulate", "sample", "measure"):
            assert command_surface([command, "-c", str(cfg),
                                    "--out-dir" if command != "simulate"
                                    else "--snapshot-dir", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert "T < J" in err and "t_end" not in err

    @pytest.mark.parametrize("command", ["simulate", "sample", "measure", "analytic"])
    def test_run_without_times_is_usage_error(self, command, tmp_path, capsys):
        cfg = tmp_path / "notimes.cfg"
        cfg.write_text(SMALL.replace("times_theta = 0.5,1.5\n", ""))
        out = tmp_path / "o"
        assert command_surface([command, "-c", str(cfg),
                                "--snapshot-dir" if command == "simulate"
                                else "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{command} needs output times" in err and "Traceback" not in err
        assert not out.exists()

    def test_sweep_without_times_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "notimes.cfg"
        cfg.write_text(SMALL.replace("times_theta = 0.5,1.5\n", ""))
        out = tmp_path / "sw"
        assert command_surface(["sweep", "-c", str(cfg), "--axis", "g=0.06,0.1",
                                "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "needs output times" in err
        assert not out.exists()

    def test_sweep_missing_config_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        assert command_surface(["sweep", "-c", missing, "--axis", "g=0.1"]) == 1
        err = capsys.readouterr().err
        assert "cannot read config" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [("simulate", "--snapshot-dir"),
                                               ("measure", "--out-dir")])
    def test_out_dir_naming_a_file_is_usage_error(self, small_cfg, tmp_path, capsys,
                                                  command, flag):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert command_surface([command, "-c", small_cfg, flag, str(taken)]) == 1
        err = capsys.readouterr().err
        assert "cannot make output directory" in err and "Traceback" not in err

    def test_both_time_flags_are_usage_error(self, small_cfg, capsys):
        argv = ["simulate", "-c", small_cfg, "--times", "1,2", "--times-theta", "1"]
        assert command_surface(argv) == 1
        err = capsys.readouterr().err
        assert "not allowed with argument" in err and "Traceback" not in err

    def test_compare_missing_file_is_usage_error(self, tmp_path, capsys):
        assert command_surface(["compare", str(tmp_path / "none"),
                                "--against", str(tmp_path / "other")]) == 1
        capsys.readouterr()

    def test_out_dir_env_default(self, small_cfg, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("MAGDOT_OUTDIR", str(env_dir))
        assert command_surface(["sample", "-c", small_cfg, "--seed", "1"]) == 0
        capsys.readouterr()
        assert (env_dir / "sample_histogram.csv").exists()

    def test_workers_below_one_is_config_error(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "sw"
        cfg = tmp_path / "w.cfg"
        cfg.write_text(SMALL + "workers = 0\n")
        for argv in (["-c", str(cfg)], ["-c", small_cfg, "--workers", "-3"],
                     ["-c", small_cfg, "--workers", "0"]):
            assert command_surface(["sweep", "--axis", "g=0.06", "--out-dir", str(out)]
                                   + argv) == 1
            err = capsys.readouterr().err
            assert "invariant violated: workers >= 1" in err and "Traceback" not in err
        assert not out.exists()

    def test_sweep_worker_pool_matches_serial(self, small_cfg, tmp_path, capsys):
        serial = str(tmp_path / "s1")
        pooled = str(tmp_path / "s2")
        assert command_surface(["sweep", "-c", small_cfg,
                                "--axis", "g=0.06,0.1", "--out-dir", serial]) == 0
        assert command_surface(["sweep", "-c", small_cfg,
                                "--axis", "g=0.06,0.1", "--workers", "2",
                                "--out-dir", pooled]) == 0
        capsys.readouterr()
        read = lambda d: open(os.path.join(d, "sweep.csv")).read()
        assert read(serial) == read(pooled)

    def test_sweep_asks_for_no_more_workers_than_values(self, tmp_path, capsys,
                                                        monkeypatch):
        # a fork pool starts all of its max_workers processes on its first
        # submit; this fake one records the count and maps in-process
        import concurrent.futures

        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        csv = {}
        for workers, axis in (("1", "g=0.06,0.1"), ("1000000", "g=0.06,0.1"),
                              ("1000000", "g=0.06")):
            cfg = tmp_path / f"{workers}-{axis}.cfg"
            cfg.write_text(SMALL + f"workers = {workers}\n")
            out = tmp_path / f"{workers}-{axis}"
            asked.clear()
            assert command_surface(["sweep", "-c", str(cfg), "--axis", axis,
                                    "--out-dir", str(out)]) == 0
            csv[workers, axis] = (out / "sweep.csv").read_text()
            assert asked == ([2] if (workers, axis) == ("1000000", "g=0.06,0.1") else [])
        capsys.readouterr()
        assert csv["1000000", "g=0.06,0.1"] == csv["1", "g=0.06,0.1"]


RUN_BASE = ("N = 24\nT = 0.65\ng = 0.05\ngamma = 0.01\nm0 = 0.3\n"
            "times_theta = 0.25\ncells = 200\ntrajectories = 500\n")


def run_outputs(tmp_path, command, text):
    """Exit code and {name: bytes} of the files that `command` writes from a
    config of `text`."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    if out.exists():
        for f in out.iterdir():
            f.unlink()
    argv = [command, "-c", str(cfg),
            "--snapshot-dir" if command == "simulate" else "--out-dir", str(out)]
    if command == "sweep":
        argv += ["--axis", "g=0.04,0.06"]
    code = command_surface(argv)
    files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
    return code, files


@pytest.mark.parametrize("command, both, changed, refused", [
    ("simulate", "", "engine = fp", False),
    ("simulate", "", "mode = full-memory", False),
    ("simulate", "", "init = gaussian", False),
    ("simulate", "engine = fp", "mode = full-memory", True),
    ("simulate", "engine = fp", "init = gaussian", False),
    ("sample", "", "engine = fp", True),
    ("sample", "", "mode = full-memory", True),
    ("sample", "", "init = gaussian", False),
    ("measure", "", "engine = fp", False),
    ("measure", "", "mode = full-memory", True),
    ("measure", "", "init = gaussian", False),
    ("measure", "engine = fp", "init = gaussian", False),
    ("sweep", "", "engine = fp", False),
    ("sweep", "", "mode = full-memory", True),
    ("sweep", "", "init = gaussian", False),
    ("sweep", "engine = fp", "init = gaussian", False),
])
def test_each_run_key_is_honoured_or_refused(tmp_path, capsys, command, both, changed,
                                             refused):
    # a run key set away from its default either moves the output bytes or
    # exits 1 naming it: none is ignored (m0 = 0.3 tells the two starts apart)
    base = RUN_BASE + both + "\n"
    code, before = run_outputs(tmp_path, command, base)
    assert code == 0 and before
    code, after = run_outputs(tmp_path, command, base + changed + "\n")
    err = capsys.readouterr().err
    if refused:
        assert code == 1 and not after
        assert changed in err and "Traceback" not in err
    else:
        assert code == 0 and after.keys() == before.keys() and after != before


def test_exact_paramagnet_start_ignores_m0_and_t0(tmp_path, capsys):
    # the exact paramagnet is m0 = 0 at T0 = inf: an m0 or T0 that the run
    # ignores moves no output of measure, analytic or fixed-points, not even
    # lambda, and under init = gaussian each of them moves it
    base = "N = 40\nT = 0.65\ng = 0.05\ngamma = 0.01\ntimes_theta = 0.5,3\n"
    gaussian = base + "init = gaussian\n"

    def fixed_points(text):
        cfg = tmp_path / "fp.cfg"
        cfg.write_text(text)
        capsys.readouterr()
        code = command_surface(["fixed-points", "-c", str(cfg)])
        return code, capsys.readouterr().out

    for command in ("measure", "analytic", "fixed-points"):
        outputs = (fixed_points if command == "fixed-points"
                   else lambda text: run_outputs(tmp_path, command, text))
        code, plain = outputs(base)
        assert code == 0 and plain
        code, gauss = outputs(gaussian)
        assert code == 0 and gauss
        for extra in ("m0 = 0.3\n", "T0 = 2\n"):
            assert outputs(base + extra) == (0, plain)
            code, moved = outputs(gaussian + extra)
            assert code == 0 and moved != gauss
    capsys.readouterr()


def test_measure_reads_its_scales_at_g_of_either_sign(tmp_path, capsys):
    # the sign of g picks the spin state; lambda, the regime and the times
    # are read in the frame of g >= 0, so -g reports what +g does
    seen = {}
    for g in ("0.05", "-0.05"):
        code, files = run_outputs(tmp_path, "measure", f"N = 40\nT = 0.65\ng = {g}\n"
                                  "gamma = 0.01\ntimes_theta = 4\n")
        assert code == 0
        rows = files["measure_summary.csv"].decode().splitlines()[1:]
        regime = capsys.readouterr().out.splitlines()[1]
        seen[g] = ([row.split(",")[4:] for row in rows], regime)
    assert seen["0.05"] == seen["-0.05"]
    (tau_red, tau_reg, lam, _), regime = seen["-0.05"][0][0], seen["-0.05"][1]
    assert float(lam) > 0 and float(tau_reg) > 0 and float(tau_red) > 0
    assert regime == f"regime=active-bifurcation lambda={lam}"


def test_one_well_negative_g_runs_on_times_theta(tmp_path, capsys):
    # at T = 0.65, g = -0.3 leaves only the well at m < 0, yet theta =
    # 1/(gamma (J - T)) does not depend on g: simulate and measure run at
    # either sign, and each sector's measure row at -g is its row at +g
    # seen in the mirror m -> -m
    rows = {}
    for g in ("0.3", "-0.3"):
        text = f"N = 100\nT = 0.65\ng = {g}\ntimes_theta = 3\n"
        assert run_outputs(tmp_path, "simulate", text)[0] == 0
        code, files = run_outputs(tmp_path, "measure", text)
        assert code == 0
        lines = files["measure_summary.csv"].decode().splitlines()[1:]
        rows[g] = {line.split(",")[0]: line.split(",")[1:] for line in lines}
    capsys.readouterr()
    for name in ("up", "down"):
        plus, minus = rows["0.3"][name], rows["-0.3"][name]
        p_correct, p_wrong, peak_m = (float(x) for x in plus[:3])
        assert float(minus[0]) == pytest.approx(p_correct, abs=1e-15)
        # p_wrong ~ 1.4e-11, summed directly on either side of the repeller
        assert float(minus[1]) == pytest.approx(p_wrong, rel=1e-12, abs=0.0)
        assert float(minus[2]) == pytest.approx(-peak_m, abs=1e-12)
        assert minus[3:] == plus[3:]  # tau_red, tau_reg, lambda, faithful


# at T = 0.65, g = -0.2 leaves only the well at m < 0 and g = -0.02 keeps both
MIRROR_G = ["0.2", "0.02"]


@pytest.mark.parametrize("g", MIRROR_G)
def test_fixed_points_at_negative_g_is_the_mirror_image(g, tmp_path, capsys):
    # the roots negated in reverse order, each with its stability, and the
    # scales that carry a sign (m_F, m_P, b, lambda) negated
    lines = {}
    for sign in ("", "-"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"N = 200\nT = 0.65\ng = {sign}{g}\n")
        assert command_surface(["fixed-points", "-c", str(cfg)]) == 0
        lines[sign] = capsys.readouterr().out.splitlines()
    plus, minus = lines[""], lines["-"]
    assert plus[0] == minus[0] == "m,stability"

    def roots(out):
        return [(float(m), s) for m, s in (line.split(",") for line in out[1:-1])]

    def scales(out):
        return {k: float(v) for k, v in (kv.split("=") for kv in out[-1][2:].split())}

    assert roots(minus) == [(-m, s) for m, s in reversed(roots(plus))]
    signed = {"m_F", "m_P", "b", "lambda"}
    assert scales(minus) == {k: -v if k in signed else v for k, v in scales(plus).items()}


@pytest.mark.parametrize("model", ["drift-only", "gaussian-linear", "gaussian-cubic"])
@pytest.mark.parametrize("g", MIRROR_G)
def test_analytic_at_negative_g_is_the_mirror_image(g, model, tmp_path, capsys):
    # the same mesh, symmetric about 0, and each profile read backwards
    snaps = {}
    for sign in ("", "-"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"N = 200\nT = 0.65\ng = {sign}{g}\ntimes_theta = 0.5,2\n")
        out = str(tmp_path / f"an{sign}")
        assert command_surface(["analytic", "-c", str(cfg), "--model", model,
                                "--points", "41", "--out-dir", out]) == 0
        snaps[sign] = read_long_csv(os.path.join(out, f"analytic_{model}.csv"))
    capsys.readouterr()
    plus, minus = snaps[""], snaps["-"]
    assert list(minus) == list(plus) and len(plus) == 2
    for t, (mesh, dens) in plus.items():
        assert np.array_equal(mesh, -mesh[::-1])
        assert np.array_equal(minus[t][0], mesh)
        assert np.array_equal(minus[t][1], dens[::-1])


def test_master_engine_refuses_more_levels_than_it_holds(tmp_path, capsys):
    # N + 1 levels beyond MAX_CELLS exit 1 naming N before anything is
    # allocated; the FP engine runs the same N on its cells
    huge = "N = 1000000000\nT = 0.65\ng = 0.05\ntimes = 1\ncells = 200\n"
    for command in ("simulate", "sample", "measure", "sweep"):
        code, files = run_outputs(tmp_path, command, huge)
        err = capsys.readouterr().err
        assert code == 1 and not files
        assert "N = 1000000000" in err and "Traceback" not in err
    code, files = run_outputs(tmp_path, "simulate", huge + "engine = fp\n")
    assert code == 0 and files
    capsys.readouterr()
    fit = f"N = {MAX_CELLS - 1}\nT = 0.65\ng = 0.05\ntimes = 1\n"
    assert _plan(parse_config(fit), "simulate")[1] == [1.0]
    with pytest.raises(UsageError, match=f"N = {MAX_CELLS}"):
        _plan(parse_config(fit.replace(str(MAX_CELLS - 1), str(MAX_CELLS))), "simulate")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--engine", "warp"], "engine must be one of ('master', 'fp')"),
    (["simulate", "--times", "1,x"], "cannot parse value '1,x' for key 'times'"),
    (["sample", "--trajectories", "1e3"], "cannot parse value '1e3' for key"),
    (["sample", "--seed", "x"], "cannot parse value 'x' for key 'seed'"),
])
def test_option_is_read_as_its_config_line(small_cfg, tmp_path, capsys, argv, message):
    out = str(tmp_path / "o")
    assert command_surface(argv + ["-c", small_cfg, "--out-dir" if argv[0] != "simulate"
                                   else "--snapshot-dir", out]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not os.path.exists(out)

@pytest.mark.slow
class TestFigureCommand:
    def test_figure_curve_counts(self, tmp_path, capsys):
        out = str(tmp_path / "fig")
        assert command_surface(["figure", "--which", "1",
                                "--out-dir", out]) == 0
        capsys.readouterr()
        snaps = read_long_csv(os.path.join(out, "figure1.csv"))
        assert len(snaps) == 7
        svg = open(os.path.join(out, "figure1.svg")).read()
        assert svg.count("<polyline") == 7
        assert svg.count("t/theta=") == 7  # one legend entry per curve

    def test_figure_two_curve_count(self, tmp_path, capsys):
        out = str(tmp_path / "fig2")
        assert command_surface(["figure", "--which", "2",
                                "--out-dir", out]) == 0
        capsys.readouterr()
        snaps = read_long_csv(os.path.join(out, "figure2.csv"))
        assert len(snaps) == 8
        svg = open(os.path.join(out, "figure2.svg")).read()
        assert svg.count("<polyline") == 8

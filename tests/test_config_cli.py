import math
import os
import re

import numpy as np
import pytest

from magdot import bath
from magdot.cli import command_surface
from magdot.config import _KEY_MAP, ConfigError, parse_config
from magdot.snapshots import read_long_csv

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
        for key in ("frobnicate", "lambda_threshold", "hbar"):
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
        ("cells = 99", "cells >= 100"), ("tol = 0", "tol > 0")])
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

    def test_choice_validation(self):
        with pytest.raises(ConfigError, match="engine"):
            parse_config(FIG1_MINIMAL + "engine = warp\n")

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
                                "--snapshot-dir", run_a, "--split"]) == 0
        assert command_surface(["simulate", "-c", small_cfg, "--engine", "fp",
                                "--snapshot-dir", run_b]) == 0
        assert os.path.exists(os.path.join(run_a, "snapshot_0000.csv"))
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

    def test_simulate_reports_steps_terms_and_uniform_rate(self, small_cfg, tmp_path,
                                                           capsys):
        assert command_surface(["simulate", "-c", small_cfg,
                                "--snapshot-dir", str(tmp_path / "m")]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        fields = dict(kv.split("=") for kv in summary.split())
        assert sorted(fields) == ["steps", "terms", "uniform_rate"]
        assert 0 < int(fields["steps"]) <= int(fields["terms"])
        assert float(fields["uniform_rate"]) > 0.0
        # the FP engine prints only its paths
        assert command_surface(["simulate", "-c", small_cfg, "--engine", "fp",
                                "--snapshot-dir", str(tmp_path / "f")]) == 0
        assert all(os.path.exists(line) for line in capsys.readouterr().out.splitlines())

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
            # one joint run of both sectors: its report points and products
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
        assert command_surface(["sample", "-c", small_cfg, "--seed", "-3"] + out) == 1
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err

    def test_seed_beyond_64_bits_is_error(self, small_cfg, tmp_path, capsys):
        out = ["--out-dir", str(tmp_path / "o")]
        assert command_surface(["sample", "-c", small_cfg,
                                "--seed", str(2**64)] + out) == 1
        err = capsys.readouterr().err
        assert "seed must be >= 0 and < 2**64" in err and "Traceback" not in err

    def test_zero_trajectories_is_not_replaced_by_config(self, small_cfg, tmp_path,
                                                          capsys):
        assert command_surface(["sample", "-c", small_cfg, "--trajectories", "0",
                                "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "n_traj must be >= 1" in err and "Traceback" not in err

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

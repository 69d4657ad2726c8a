import math
import os

import numpy as np
import pytest

from magdot import bath
from magdot.cli import command_surface
from magdot.config import ConfigError, parse_config
from magdot.snapshots import read_long_csv

FIG1_MINIMAL = "N = 1000\nT = 0.65\ng = 0.05\n"


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(FIG1_MINIMAL)
        assert cfg.n_spins == 1000
        assert cfg.temp_bath == 0.65
        assert cfg.coupling_g == 0.05
        assert cfg.coupling_j == 1.0
        assert cfg.hbar == 1.0
        assert cfg.gamma == 1e-3
        assert cfg.debye_cutoff == 100.0
        assert math.isinf(cfg.temp_init)
        assert cfg.cells == 2000
        assert cfg.tol == 1e-9
        assert cfg.lambda_threshold == 3.0
        assert cfg.p_wrong_bound == 1e-3
        cfg.model_params()  # constructs cleanly

    def test_empty_rejected_for_missing_n(self):
        with pytest.raises(ConfigError, match="missing required key 'N'"):
            parse_config("")

    def test_invariant_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("N = -5\nT = 0.65\ng = 0\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*frobnicate"):
            parse_config("N = 10\nfrobnicate = 3\nT = 0.65\ng = 0\n")

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("N = ten\nT = 0.65\ng = 0\n")

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nN = 10  # inline\nT = 0.65\ng = 0\n")
        assert cfg.n_spins == 10

    def test_times_must_ascend(self):
        with pytest.raises(ConfigError, match="ascend"):
            parse_config(FIG1_MINIMAL + "times = 3,1\n")

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

    def test_sweep_without_times_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "notimes.cfg"
        cfg.write_text(SMALL.replace("times_theta = 0.5,1.5\n", ""))
        out = tmp_path / "sw"
        assert command_surface(["sweep", "-c", str(cfg), "--axis", "g=0.06,0.1",
                                "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "needs output times" in err
        assert not out.exists()

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

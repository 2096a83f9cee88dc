"""CLI tests: config parsing, flag precedence, exit codes, output formats."""
import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boundaryvote
from boundaryvote import harness
from boundaryvote.cli import main, make_parser
from boundaryvote.harness import CSV_COLUMNS


FIG1_CFG = """\
# Fig.1-style configuration
lambda = 600
p = 0.15
r = 0.05
seed = 1
trials = 3
mode = single
region.type = rounded_rect
region.cx = 0.5
region.cy = 0.5
region.width = 0.4
region.height = 0.4
region.corner_radius = 0.1
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "fig1.cfg"
    path.write_text(FIG1_CFG)
    return str(path)


class TestSimulate:
    def test_runs_from_config(self, cfg_file, capsys):
        assert main(["simulate", "--config", cfg_file]) == 0
        out = capsys.readouterr().out
        assert "lambda=600" in out and "p=0.15" in out and "trials=3" in out
        assert "final_errors_mean=" in out and "correction_rate_mean=" in out

    def test_flags_override_config(self, cfg_file, capsys):
        assert main(["simulate", "--config", cfg_file, "--p", "0.3", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "p=0.3" in out and "trials=1" in out

    def test_dump_field(self, cfg_file, tmp_path, capsys):
        dump = tmp_path / "field.csv"
        assert main(["simulate", "--config", cfg_file, "--dump-field", str(dump)]) == 0
        capsys.readouterr()
        assert dump.read_text().splitlines()[0] == "id,x,y,truth,measured"

    def test_multi_mode_reports_rounds(self, capsys):
        assert main(["simulate", "--lambda", "500", "--p", "0.3", "--r", "0.03",
                     "--mode", "multi", "--trials", "1"]) == 0
        assert "rounds=5" in capsys.readouterr().out

    def test_bound_only_rules_stay_out_of_its_check(self, capsys):
        # 4*pi*r^2 underflows at r = 1e-200, which only the bound table rejects; no sensor
        # has a neighbor there, so every sensor keeps its own reading
        assert main(["simulate", "--r", "1e-200", "--lambda", "200", "--trials", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        means = dict(line.split()[0].split("=") for line in lines)
        assert means["final_errors_mean"] == means["initial_errors_mean"]


class TestExitCodes:
    def test_bad_p_returns_2(self, capsys):
        assert main(["simulate", "--p", "0.9", "--trials", "1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_line_returns_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("lambda 600\n")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_unknown_config_key_returns_2(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text("lambda = 200\ntrails = 50\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {path}:2: unknown key 'trails'\n"

    def test_keys_another_command_reads_are_allowed(self, capsys):
        # fig1.cfg carries lambda and p, which sweep does not read
        fig1 = str(Path(__file__).resolve().parents[1] / "configs" / "fig1.cfg")
        assert main(["simulate", "--config", fig1]) == 0
        assert "region=rounded_rect_0.5_0.5_0.4x0.4_rho0.1 lambda=600" in capsys.readouterr().out
        assert main(["sweep", "--config", fig1, "--lambda-values", "100", "--p-values", "0.1",
                     "--r-values", "0.05", "--regions", "xs"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("XS,100,0.1,0.05,single,1,")

    def test_missing_config_returns_2(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/x.cfg"]) == 2

    def test_unknown_region_returns_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("region.type = blob\n")
        assert main(["simulate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--mode", "multi", "--c", "0"],
        ["simulate", "--seed", "-1"],
        ["render", "--trial", "-1", "--out", "unused.svg"],
        ["worstcase", "--shape", "comb", "--ell", "0.3", "--trials", "1"],
        ["worstcase", "--shape", "thin", "--r", "0.4", "--trials", "1"],
        ["sweep", "--lambda-values", "0", "--trials", "1"],
        ["bounds", "--p-values", "0.7"],
        ["simulate", "--region-type", "rounded_rect", "--region-cx", "0.9",
         "--region-width", "0.4", "--trials", "1"],
        ["bounds", "--region-type", "rounded_rect", "--region-cx", "0.9",
         "--region-width", "0.4"],
        ["sweep", "--trials", "0"],
        ["sweep", "--seed", "-1", "--trials", "1"],
        ["worstcase", "--shape", "thin", "--r", "nan", "--trials", "2"],
        ["worstcase", "--shape", "comb", "--lambda", "inf", "--trials", "1"],
        ["simulate", "--lambda", "inf", "--trials", "1"],
        ["simulate", "--c", "nan", "--mode", "multi", "--trials", "1"],
        ["sweep", "--lambda-values", "2500,inf", "--trials", "1"],
        ["bounds", "--r-values", "1e-160", "--p-values", "0.1", "--lambda-values", "100"],
        ["bounds", "--r-values", "1e-200", "--p-values", "0.1", "--lambda-values", "100"],
        ["sweep", "--r-values", "1e-200", "--p-values", "0.1", "--lambda-values", "100",
         "--trials", "1"],
        ["worstcase", "--shape", "comb", "--r", "1e-9", "--ell", "0.4", "--trials", "1"],
        ["bounds", "--region-type", "comb", "--r", "1e-9", "--region-ell", "0.4"],
    ])
    def test_bad_inputs_return_2(self, argv, capsys):
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "worstcase", "render", "sweep"])
    @pytest.mark.parametrize("option, value, message", [
        ("p", "0.9", "p=0.9 must lie in [0, 1/2]"),
        ("lambda", "0", "lambda=0.0 must be positive"),
        ("seed", "-1", "seed must be nonnegative"),
        ("trials", "0", "trials must be at least 1"),
    ], ids=["p", "lambda", "seed", "trials"])
    def test_every_command_checks_inputs_alike(self, command, option, value, message,
                                               monkeypatch, tmp_path, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a field before checking the inputs")

        monkeypatch.setattr(harness, "sample_field", no_sampling)
        argv = {"simulate": ["simulate"], "worstcase": ["worstcase", "--shape", "comb"],
                "render": ["render", "--out", str(tmp_path / "trial.svg")],
                "sweep": ["sweep"]}[command]
        grid = command == "sweep" and option in ("p", "lambda")
        argv += [f"--{option}-values" if grid else f"--{option}", value]
        if option != "trials":
            argv += ["--trials", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["sweep", "bounds"])
    def test_band_covering_the_square_names_region_and_radius(self, command, monkeypatch, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a field before checking the bounds")

        monkeypatch.setattr(harness, "sample_field", no_sampling)
        trials = ["--trials", "1"] if command == "sweep" else []
        assert main([command, "--r-values", "0.05,0.9,2.0", *trials]) == 2
        err = capsys.readouterr().err
        assert "config error: Z_r of region XS at r=0.9 covers Y\n" in err

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("fault inside the numeric code")

        monkeypatch.setattr(harness, "compute_metrics", broken)
        with pytest.raises(ValueError, match="fault inside the numeric code"):
            main(["simulate", "--lambda", "200", "--trials", "1"])
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_return_2(self, workers, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("made a process pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(harness, "sample_field", no_pool)
        argv = ["sweep", "--lambda-values", "100", "--p-values", "0.1", "--r-values", "0.05",
                "--trials", "2", "--workers", workers]
        assert main(argv) == 2
        assert "config error: workers must be at least 1\n" in capsys.readouterr().err

    def test_unwritable_output_returns_3(self, capsys):
        rc = main(["sweep", "--lambda-values", "500", "--p-values", "0.1",
                   "--r-values", "0.05", "--regions", "xs", "--trials", "1",
                   "--out", "/nonexistent-dir/out.csv"])
        assert rc == 3
        assert "i/o error" in capsys.readouterr().err


class TestSweepCommand:
    def test_csv_to_stdout(self, capsys):
        rc = main(["sweep", "--lambda-values", "500,900", "--p-values", "0.1,0.2",
                   "--r-values", "0.04,0.08", "--regions", "xs", "--trials", "2",
                   "--seed", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 8

    def test_byte_identical_reruns_with_workers(self, capsys):
        args = ["sweep", "--lambda-values", "800", "--p-values", "0.15",
                "--r-values", "0.03,0.06", "--regions", "xs,xl",
                "--trials", "3", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("command, unread", [
        (["sweep"], ["--region-type", "comb", "--r", "0.2", "--p", "0.3", "--lambda", "600"]),
        (["bounds", "--region-type", "xl"],
         ["--p", "0.9", "--trials", "0", "--lambda", "0", "--seed", "-1", "--mode", "multi",
          "--c", "-1"]),
    ], ids=["sweep", "bounds"])
    def test_rejects_options_it_does_not_read(self, command, unread, monkeypatch, capsys):
        # with abbreviations on, sweep would read --p and --lambda as --p-values and --lambda-values
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a field for an unknown option")

        monkeypatch.setattr(harness, "sample_field", no_sampling)
        args = command + ["--lambda-values", "100", "--r-values", "0.05", "--p-values", "0.1"]
        for option, value in zip(unread[::2], unread[1::2]):
            with pytest.raises(SystemExit) as exc:
                main(args + [option, value])
            assert exc.value.code == 2, option
            assert f"unrecognized arguments: {option} {value}\n" in capsys.readouterr().err

    def test_best_radius_flag(self, capsys):
        rc = main(["sweep", "--lambda-values", "2000", "--p-values", "0.15",
                   "--r-values", "0.02,0.05,0.09", "--regions", "xs",
                   "--trials", "3", "--best-radius"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "best_radius p=0.15" in err


ONE_CELL = ["--config", "--lambda", "--p", "--r", "--seed", "--trials", "--mode", "--c",
            "--region-type", "--region-cx", "--region-cy", "--region-width", "--region-height",
            "--region-corner-radius", "--region-r", "--region-ell"]


class TestOptions:
    def test_each_command_takes_the_options_it_reads(self):
        commands = next(action.choices for action in make_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        options = {name: [flag for action in cmd._actions for flag in action.option_strings
                          if flag not in ("-h", "--help")]
                   for name, cmd in commands.items()}
        grids = ["--r-values", "--p-values", "--lambda-values"]
        assert options == {
            "simulate": ONE_CELL + ["--dump-field"],
            "sweep": ["--config", "--seed", "--trials", "--mode", "--c", *grids, "--regions",
                      "--workers", "--out", "--best-radius"],
            "bounds": ["--config", "--r", *ONE_CELL[8:], *grids, "--out"],
            "worstcase": ["--lambda", "--p", "--r", "--seed", "--trials", "--shape", "--ell",
                          "--out"],
            "render": ONE_CELL + ["--trial", "--out"],
        }
        assert sum(map(len, options.values())) == 69

    @pytest.mark.parametrize("argv", [
        ["sweep", "--lambda-values", "100", "--r-values", "0.05", "--p-values", "0.1",
         "--trials", "1", "--work", "1"],
        ["simulate", "--trials", "1", "--region-t", "xl"],
    ], ids=["sweep", "simulate"])
    def test_no_option_is_abbreviated(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}\n" in capsys.readouterr().err


class TestPaperGrids:
    def test_default_grid_has_1120_cells(self):
        from boundaryvote.cli import PAPER_LAM_GRID, PAPER_P_GRID, PAPER_R_GRID

        assert len(PAPER_R_GRID) == 20
        assert PAPER_R_GRID[0] == 0.005 and PAPER_R_GRID[-1] == 0.1
        assert len(PAPER_P_GRID) == 7
        assert PAPER_P_GRID[0] == 0.05 and PAPER_P_GRID[-1] == 0.35
        assert len(PAPER_LAM_GRID) == 4
        assert len(PAPER_R_GRID) * len(PAPER_P_GRID) * len(PAPER_LAM_GRID) * 2 == 1120


class TestBoundsCommand:
    def test_bound_table(self, capsys):
        rc = main(["bounds", "--region-type", "xs", "--lambda-values", "10000",
                   "--p-values", "0.15", "--r-values", "0.05"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("region,lambda,p,r,zr_area")
        cells = lines[1].split(",")
        assert cells[0] == "XS"
        # thm2 at this point is ~1506.86
        assert float(cells[8]) == pytest.approx(1506.86, abs=0.01)

    def test_nan_for_nonconvex(self, capsys):
        rc = main(["bounds", "--region-type", "comb", "--region-r", "0.05",
                   "--region-ell", "0.4", "--lambda-values", "10000",
                   "--p-values", "0.15", "--r-values", "0.05"])
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[9] == "nan"

    def test_line_matches_sweep_row(self, capsys):
        grid = ["--lambda-values", "2500", "--p-values", "0.15", "--r-values", "0.05,0.1"]
        assert main(["bounds", "--region-type", "xl", *grid]) == 0
        bounds_lines = capsys.readouterr().out.splitlines()
        assert main(["sweep", "--regions", "xl", *grid]) == 0
        sweep_lines = capsys.readouterr().out.splitlines()
        assert len(bounds_lines) == len(sweep_lines) == 3
        for b_line, s_line in zip(bounds_lines[1:], sweep_lines[1:]):
            b_cells, s_cells = b_line.split(","), s_line.split(",")
            assert b_cells[:4] == s_cells[:4]  # region, lambda, p, r
            assert b_cells[6:] == s_cells[-5:]  # thm1 upper/lower, thm2, thm3, combined

    GRID = ["--lambda-values", "2500", "--p-values", "0.1", "--r-values", "0.05"]

    @pytest.mark.parametrize("region", ["xs", "xl", "rounded_rect"])
    def test_ignores_r_where_the_region_does_not_use_it(self, region, tmp_path, capsys):
        args = ["bounds", "--region-type", region, *self.GRID]
        assert main(args) == 0
        plain = capsys.readouterr().out
        bad = tmp_path / "bad_r.cfg"
        bad.write_text("r = abc\n")
        for extra in (["--r", "nan"], ["--config", str(bad)]):
            assert main(args + extra) == 0, extra
            assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("region", ["thin_rect", "comb"])
    def test_validates_r_where_it_is_the_region_radius(self, region, tmp_path, capsys):
        args = ["bounds", "--region-type", region, *self.GRID]
        bad = tmp_path / "bad_r.cfg"
        bad.write_text("r = abc\n")
        assert main(args + ["--r", "nan"]) == 2
        assert "config error: r=nan must be finite" in capsys.readouterr().err
        assert main(args + ["--config", str(bad)]) == 2
        assert "config error: bad value for r: abc" in capsys.readouterr().err
        assert main(args + ["--region-r", "0.05"]) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--region-r", "0.05", "--r", "nan"]) == 0  # r is then unread
        assert capsys.readouterr().out == plain


class TestWorstcaseCommand:
    def test_thin_rectangle(self, capsys):
        rc = main(["worstcase", "--shape", "thin", "--lambda", "4000",
                   "--p", "0.25", "--r", "0.05", "--trials", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("shape,lambda,p,r,ell")
        cells = lines[1].split(",")
        assert cells[0] == "thin"
        assert float(cells[7]) > 0  # errors_in_zr_mean

    def test_comb(self, capsys):
        rc = main(["worstcase", "--shape", "comb", "--lambda", "4000",
                   "--p", "0.25", "--r", "0.05", "--ell", "0.4", "--trials", "3"])
        assert rc == 0
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        assert cells[0] == "comb" and float(cells[4]) == 0.4


class TestRenderCommand:
    def test_writes_svg(self, cfg_file, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(["render", "--config", cfg_file, "--out", str(out)]) == 0
        text = out.read_text()
        assert "<svg" in text and 'class="corrected"' in text


def test_cli_import_leaves_out_scipy_spatial():
    # the pair listing is the package's own sweep, so no process pays for a k-d tree import
    src = str(Path(boundaryvote.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, boundaryvote.cli; print('scipy.spatial' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout == "False\n"

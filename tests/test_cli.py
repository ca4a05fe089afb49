import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

RUN = [sys.executable, "-m", "betaplane"]


def run_cli(*args, expect=0):
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return proc


class TestEigenCommand:
    def test_singular_baseline_value(self):
        out = run_cli("eigen", "--beta", "0", "--c", "-1", "--n", "1").stdout
        lam = float(out.strip().splitlines()[-1].split(",")[3])
        assert lam == pytest.approx(2.467401, abs=1e-5)

    def test_symmetric_pair_identical(self):
        a = run_cli("eigen", "--beta", "1", "--c", "-1.0", "--n", "1").stdout
        b = run_cli("eigen", "--beta", "-1", "--c", "1.0", "--n", "1").stdout
        lam_a = a.strip().splitlines()[-1].split(",")[3]
        lam_b = b.strip().splitlines()[-1].split(",")[3]
        assert lam_a == lam_b

    def test_essential_spectrum_rejection(self):
        proc = run_cli("eigen", "--beta", "1", "--c", "0.5", expect=2)
        assert "essential spectrum" in proc.stderr

    def test_json_format(self):
        out = run_cli("eigen", "--beta", "0.5", "--c", "-2", "--format", "json").stdout
        payload = json.loads(out)
        assert payload["columns"][3] == "lambda"

    def test_repeat_invocations_byte_identical(self):
        a = run_cli("eigen", "--beta", "2", "--c", "-3", "--n", "2").stdout
        b = run_cli("eigen", "--beta", "2", "--c", "-3", "--n", "2").stdout
        assert a == b


class TestAtlasCurveCommand:
    def test_monotone_alpha_column(self):
        out = run_cli(
            "atlas", "curve", "--beta-min", "3", "--beta-max", "6", "--steps", "3",
        ).stdout
        rows = [l.split(",") for l in out.strip().splitlines() if not l.startswith("#")][1:]
        alphas = [float(r[1]) for r in rows]
        assert len(alphas) == 3
        assert alphas == sorted(alphas)

    def test_default_beta_min_is_beta_star(self, capsys):
        from betaplane import atlas
        from betaplane.cli import main

        assert main(["atlas", "curve", "--beta-max", "3", "--steps", "2"]) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1:]
        assert [float(r[0]) for r in rows] == [atlas.find_beta_star(), 3.0]


class TestAtlasRootBars:
    """beta-star and beta-T print the answer's own error estimate, the one --tol bounds."""

    @pytest.mark.parametrize("argv, alpha", [
        (["atlas", "beta-star"], 0.0),
        (["atlas", "beta-T", "--period", "6"], 2.0 * np.pi / 6.0),
    ], ids=["beta-star", "beta-T"])
    def test_tol_bounds_the_printed_bar(self, argv, alpha, capsys):
        from betaplane.cli import main
        from betaplane.rayleigh_kuo import wall_beta

        assert main(argv) == 0
        bar = float(capsys.readouterr().out.splitlines()[-1].split(",")[-1])
        assert bar == wall_beta(alpha)[1]
        assert main([*argv, "--tol", repr(float(np.nextafter(bar, np.inf)))]) == 0
        assert float(capsys.readouterr().out.splitlines()[-1].split(",")[-1]) == bar
        assert main([*argv, "--tol", repr(float(np.nextafter(bar, 0.0)))]) == 3
        captured = capsys.readouterr()
        assert f"error estimate {bar:.3g} exceeds tol" in captured.err
        assert captured.out == ""


class TestModifiedFlowCommand:
    def test_positive_principal_eigenvalue_in_output(self):
        out = run_cli(
            "modified-flow", "--beta", "0.5", "--gamma", "0.01", "--a", "0", "--n-max", "1"
        ).stdout
        lam1 = float(out.strip().splitlines()[-1].split(",")[1])
        assert lam1 > 0

    def test_resolution_flag_honoured(self):
        args = ("modified-flow", "--beta", "2", "--gamma", "0.02", "--a", "0", "--n-max", "1")
        fine = float(run_cli(*args, "--resolution", "4096").stdout.strip().splitlines()[-1].split(",")[1])
        assert fine == pytest.approx(-2.9251364, abs=1e-6)
        default = run_cli(*args).stdout.strip().splitlines()[-1].split(",")[1]
        assert default.startswith("-2.93085692")

    def test_invariant_violation_named(self):
        proc = run_cli("modified-flow", "--beta", "4", "--gamma", "0.2", "--a", "0", expect=2)
        assert "gamma < min" in proc.stderr

    def test_profile_emission(self):
        out = run_cli(
            "modified-flow", "--beta", "0.5", "--gamma", "0.01", "--a", "1",
            "--emit", "profile", "--samples", "11",
        ).stdout
        rows = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 11

    def test_gamma_sweep_one_row_per_gamma(self, capsys):
        from betaplane import modified_flow
        from betaplane.cli import RunConfig, main

        argv = ["modified-flow", "--beta", "0.5", "--gamma", "0.02", "--a", "0",
                "--emit", "sweep", "--gamma-sweep", "0.02,0.01"]
        assert main(argv) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert rows[0] == ["gamma", "lambda_1", "error_estimate", "asymptote_bound"]
        assert [float(r[0]) for r in rows[1:]] == [0.02, 0.01]
        for row in rows[1:]:
            g = float(row[0])
            pair = modified_flow.lambda_n_modified(
                modified_flow.ModifiedFlowParams(0.5, g, 0.0), 1, RunConfig().modified_resolution(g)
            )
            assert [float(row[1]), float(row[2])] == [pair.value, pair.error_estimate]


    def test_profile_bytes_pinned(self):
        # 129 rows of (y, u, u', u''): any reordering of the profile's arithmetic moves a byte
        out = run_cli(
            "modified-flow", "--beta", "0.7", "--gamma", "0.02", "--a", "0.8",
            "--emit", "profile", "--samples", "129", "--format", "json",
        ).stdout.encode()
        assert len(out) == 10591
        assert hashlib.sha256(out).hexdigest() == (
            "90263c3d76d1799eaaa0e262befe13e71012d91dd081214286fe07a24da5cc22"
        )

    def test_eigenvalue_bytes_pinned(self):
        # each value lies within twice the floors carried through the tableau (2.3e-8)
        # of the ladder that bisects the whole spectrum on every grid
        out = run_cli("modified-flow", "--beta", "2", "--gamma", "0.02", "--a", "1.3", "--n-max", "3").stdout
        assert out == (
            "# table: modified-flow-eigenvalues\n"
            "# a: 1.3\n"
            "# asymptote_bound: 2.9593614388262299\n"
            "# b0: -0.020840287781420455\n"
            "# beta: 2\n"
            "# gamma: 0.02\n"
            "n,lambda_n,error_estimate\n"
            "1,-2.962855557959061,0.0048306334770031453\n"
            "2,12.452872764061093,6.9031763337791817e-05\n"
            "3,19.425150961648896,0.0032619188837312422\n"
        )


class TestBifurcateCommand:
    def test_slope_in_band_with_control(self):
        out = run_cli(
            "bifurcate", "--beta", "2", "--gamma", "0.02",
            "--kappas", "1e-2,5e-3,2.5e-3", "--control", "--resolution", "256",
        ).stdout
        meta = dict(
            line[2:].split(": ", 1) for line in out.splitlines() if line.startswith("# ")
        )
        assert 1.8 <= float(meta["slope"]) <= 2.2
        assert 0.8 <= float(meta["control_slope"]) <= 1.2

    def test_one_eigen_solve_per_ladder(self, monkeypatch, capsys):
        from betaplane import bifurcation, cli

        calls = []
        solve = bifurcation.lambda_n_general

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(bifurcation, "lambda_n_general", counting)
        assert cli.main(["bifurcate", "--beta", "2", "--gamma", "0.02", "--control"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("kappas, message", [
        ("1e-2,0.5", "|kappa| <= 0.1 required, got 0.5"),
        ("", "need at least two positive residuals to fit a slope"),
        ("nan,1e-2,5e-3", "|kappa| <= 0.1 required, got nan"),
        ("0,0", "need at least two positive residuals to fit a slope"),
        ("0,1e-2", "need at least two positive residuals to fit a slope"),
        ("1e-2,1e-2", "need residuals at two distinct |kappa| to fit a slope"),
        ("1e-2,-1e-2", "need residuals at two distinct |kappa| to fit a slope"),
    ], ids=["kappa-too-large", "empty", "nan", "zeros", "one-nonzero", "repeated",
            "mirrored"])
    def test_ladder_rejected_before_any_solve(self, kappas, message, monkeypatch, capsys):
        from betaplane import bifurcation, cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting the ladder")

        monkeypatch.setattr(bifurcation, "lambda_n_general", no_solve)
        argv = ["bifurcate", "--beta", "2", "--gamma", "0.02", "--control", "--kappas", kappas]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--beta", "0.5", "--gamma", "0.02", "--kappas", "0,0"],
         "need at least two positive residuals to fit a slope"),
        (["--base", "scaled-couette", "--beta", "3", "--c", "0.3001", "--kappas", "1e-2,1e-2"],
         "need residuals at two distinct |kappa| to fit a slope"),
    ], ids=["over-positive-eigenvalue", "over-singular-speed"])
    def test_ladder_fault_reported_before_solve_fault(self, argv, message, capsys):
        """A ladder that cannot fit a slope is reported even where the solve would also fail."""
        from betaplane.cli import main

        assert main(["bifurcate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_negative_kappa_ladder(self, capsys):
        from betaplane.cli import main

        assert main(["bifurcate", "--beta", "2", "--gamma", "0.02", "--kappas=-1e-2,5e-3,2.5e-3"]) == 0
        meta = dict(
            line[2:].split(": ", 1) for line in capsys.readouterr().out.splitlines()
            if line.startswith("# ")
        )
        assert 1.8 <= float(meta["slope"]) <= 2.2

    def test_scaled_couette_requires_c(self, capsys):
        from betaplane.cli import main

        assert main(["bifurcate", "--base", "scaled-couette", "--beta", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --base scaled-couette requires --c (the wave speed)\n"
        assert captured.out == ""

    def test_speed_inside_flow_range_exit_2(self, capsys):
        from betaplane.cli import main

        argv = ["bifurcate", "--base", "scaled-couette", "--beta", "3", "--c", "0.3001"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: singular-speed: c=0.3001 lies inside")
        assert captured.out == ""


class TestDampingCommand:
    def test_exponent_fields(self):
        out = run_cli(
            "damping", "--beta", "1", "--t-end", "100", "--dt", "0.01",
            "--samples", "0,10,30,60,100",
        ).stdout
        meta = dict(
            line[2:].split(": ", 1) for line in out.splitlines() if line.startswith("# ")
        )
        assert -1.3 <= float(meta["fit_exponent_ux_nonzero"]) <= -0.7
        assert -2.3 <= float(meta["fit_exponent_uy"]) <= -1.7

    @pytest.mark.parametrize("argv", [
        ["--beta", "1", "--t-end", "2", "--dt", "nan", "--samples", "0,1"],
        ["--beta", "1", "--t-end", "nan", "--samples", "0,1"],
        ["--beta", "1", "--t-end", "2", "--samples=-5,0,1"],
        ["--beta", "1", "--t-end", "-5"],
    ])
    def test_bad_times_exit_2(self, argv, capsys):
        from betaplane.cli import main

        assert main(["damping", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


    def test_overflowing_run_exit_3(self, capsys):
        # dt beta = 10 is far past RK4's stability bound 2 sqrt(2): the products overflow by t = 5
        from betaplane.cli import main

        assert main(["damping", "--beta", "1000", "--t-end", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no-convergence: an RK4 amplitude is not finite at sample time t=5.0; "
            "steps with dt |beta/k| > 2 sqrt(2) leave RK4's stability interval\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norms_exit_3(self, capsys):
        # the amplitudes stay finite (about 5.6e293 by t = 5), their squares do not
        from betaplane.cli import main

        assert main(["damping", "--beta", "700", "--t-end", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no-convergence: the velocity norms overflow at sample time t=5.0; "
            "RK4 amplitudes reach modulus 5.63e+293\n"
        )

    def test_unstable_finite_run_kept(self, capsys):
        from betaplane.cli import main

        assert main(["damping", "--beta", "300", "--t-end", "100"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1].endswith(",0.36787944028793779")


class TestNonFiniteParameters:
    @pytest.mark.parametrize("argv, message", [
        (["atlas", "region", "--alpha", "nan", "--beta", "5"], "alpha must be finite and positive, got nan"),
        (["atlas", "region", "--alpha", "inf", "--beta", "5"], "alpha must be finite and positive, got inf"),
        (["atlas", "region", "--alpha", "1", "--beta", "nan"], "beta must be finite, got nan"),
        (["atlas", "region", "--alpha", "1", "--beta=-inf"], "beta must be finite, got -inf"),
        (["modified-flow", "--beta", "nan", "--gamma", "0.01", "--emit", "profile", "--samples", "3"],
         "beta, gamma and a must be finite"),
        (["modified-flow", "--beta", "0.5", "--gamma", "0.01", "--a", "nan", "--n-max", "1"],
         "beta, gamma and a must be finite"),
        (["bifurcate", "--beta", "2", "--gamma", "nan", "--kappas", "1e-2,5e-3"],
         "beta, gamma and a must be finite"),
        (["eigen", "--beta", "nan", "--c", "2"], "beta must be finite, got nan"),
        (["eigen", "--beta", "nan", "--c", "-1"], "beta must be finite, got nan"),
        (["eigen", "--beta", "1", "--c", "nan"], "c must be finite, got nan"),
        (["atlas", "speed", "--beta", "nan", "--lambda0", "-1"], "beta must be finite, got nan"),
        (["atlas", "curve", "--beta-max", "nan"], "--beta-max must be finite, got nan"),
        (["atlas", "curve", "--beta-min", "nan", "--beta-max", "6"], "--beta-min must be finite, got nan"),
        (["atlas", "curve", "--beta-min", "inf", "--beta-max", "6"], "--beta-min must be finite, got inf"),
        (["bifurcate", "--base", "scaled-couette", "--beta", "1", "--scale", "nan", "--c", "2"],
         "scale a must be finite and positive, got nan"),
        (["bifurcate", "--base", "scaled-couette", "--beta", "nan", "--c", "2"], "beta must be finite, got nan"),
        (["bifurcate", "--base", "scaled-couette", "--beta", "1", "--c", "nan"], "c must be finite, got nan"),
        (["atlas", "beta-T", "--period", "1e-200"], "period T=1e-200 is too small: (2 pi / T)^2 overflows"),
        (["atlas", "beta-T", "--period", "1e-320"], "period T=1e-320 is too small: (2 pi / T)^2 overflows"),
    ], ids=["alpha-nan", "alpha-inf", "beta-nan", "beta-inf", "mf-beta-nan", "mf-a-nan", "bif-gamma-nan",
            "eigen-beta-nan", "eigen-wall-beta-nan", "eigen-c-nan", "speed-beta-nan", "curve-beta-max-nan",
            "curve-beta-min-nan", "curve-beta-min-inf", "couette-scale-nan", "couette-beta-nan", "couette-c-nan",
            "beta-T-alpha-squared-overflows", "beta-T-alpha-inf"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exit_2_before_any_solve(self, argv, message, monkeypatch, capsys):
        from betaplane import atlas, cli, modified_flow, rayleigh_kuo

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting a non-finite parameter")

        # every Rayleigh-Kuo solve goes through _solve_extrapolated; beta* is memoized
        monkeypatch.setattr(atlas, "find_beta_star", no_solve)
        monkeypatch.setattr(rayleigh_kuo, "_solve_extrapolated", no_solve)
        monkeypatch.setattr(modified_flow, "profile", no_solve)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""


class TestListFlags:
    @pytest.mark.parametrize("argv, message", [
        (["damping", "--beta", "1", "--t-end", "1", "--samples", "0,abc"], "--samples: 'abc' is not a number"),
        (["damping", "--beta", "1", "--t-end", "1", "--samples", ","], "--samples names no sample time"),
        (["damping", "--beta", "1", "--t-end", "1", "--samples="], "--samples names no sample time"),
        (["bifurcate", "--beta", "2", "--gamma", "0.02", "--kappas", "1e-2,x"], "--kappas: 'x' is not a number"),
        (["modified-flow", "--beta", "0.5", "--gamma", "0.01", "--emit", "sweep", "--gamma-sweep", "0.01,q"],
         "--gamma-sweep: 'q' is not a number"),
        (["modified-flow", "--beta", "0.5", "--gamma", "0.01", "--emit", "sweep", "--gamma-sweep", ","],
         "--emit sweep requires --gamma-sweep g1,g2,..."),
    ], ids=["samples-bad", "samples-empty", "samples-empty-string", "kappas-bad", "gamma-sweep-bad", "gamma-sweep-empty"])
    def test_malformed_list_exit_2_before_any_solve(self, argv, message, monkeypatch, capsys):
        from betaplane import bifurcation, cli, damping, modified_flow

        def no_solve(*args, **kwargs):
            raise AssertionError("stepped or solved before rejecting the list")

        monkeypatch.setattr(damping, "_rk4_multiplier", no_solve)
        monkeypatch.setattr(bifurcation, "lambda_n_general", no_solve)
        monkeypatch.setattr(modified_flow, "lambda_n_modified", no_solve)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestConfigAndOutputs:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("resolution=128\nformat=json\n")
        out = run_cli("eigen", "--beta", "0.5", "--c", "-2", "--config", str(cfg)).stdout
        payload = json.loads(out)
        assert payload["rows"][0][5] == 128
        out2 = run_cli(
            "eigen", "--beta", "0.5", "--c", "-2", "--config", str(cfg), "--resolution", "256"
        ).stdout
        assert json.loads(out2)["rows"][0][5] == 256

    @pytest.mark.parametrize("lines, flags, attr, expected", [
        pytest.param("resolution=128", ["--resolution", "256"], "resolution", 256,
                     id="resolution"),
        pytest.param("format=json", ["--format", "csv"], "format", "csv", id="format"),
        pytest.param("out=cfg.csv", ["--out", "flag.csv"], "out", "flag.csv", id="out"),
        pytest.param("plot=false\nout=cfg.csv", ["--plot"], "plot", True, id="plot"),
    ])
    def test_flag_beats_config(self, lines, flags, attr, expected, tmp_path):
        from betaplane import cli

        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines + "\n")
        args = cli.build_parser().parse_args(
            ["eigen", "--beta", "1", "--c", "2", "--config", str(cfg), *flags]
        )
        assert getattr(cli._config_from(args), attr) == expected

    def test_config_tolerance_by_name_beats_tol_flag(self, tmp_path):
        # --tol sets only the default, which a named config tolerance overrides
        from betaplane import cli

        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol=1e-3\ntol.speed=1e-4\n")
        args = cli.build_parser().parse_args(
            ["atlas", "speed", "--beta", "3", "--lambda0", "-1", "--config", str(cfg),
             "--tol", "1e-9"]
        )
        run = cli._config_from(args)
        assert run.tol("speed") == 1e-4
        assert run.tol("beta-T") == 1e-9
        assert run.tol("region") == 1e-9

    @pytest.mark.parametrize("line, message", [
        pytest.param("resolution 128", "expected key=value, got 'resolution 128'", id="no-equals"),
        pytest.param("format=xml", "unknown output format 'xml'", id="format=xml"),
    ])
    def test_bad_config_line_exit_2(self, line, message, tmp_path, capsys):
        from betaplane.cli import main

        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# comment\n{line}\n")
        assert main(["eigen", "--beta", "0.5", "--c", "-2", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        if "=" not in line:  # a line the parser cannot split names its place
            assert captured.err.startswith(f"error: {cfg}:2: ")
        assert captured.out == ""

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("spam=1\n")
        run_cli("eigen", "--beta", "0.5", "--c", "-2", "--config", str(cfg), expect=2)

    def test_out_file_and_plot(self, tmp_path):
        out_path = tmp_path / "damp.csv"
        run_cli(
            "damping", "--beta", "0", "--t-end", "20", "--dt", "0.02",
            "--samples", "0,10,20", "--out", str(out_path), "--plot",
        )
        assert out_path.exists()
        svg = out_path.with_suffix(".svg")
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_plot_without_out_rejected(self):
        run_cli(
            "damping", "--beta", "0", "--t-end", "10", "--dt", "0.05",
            "--samples", "0,10", "--plot", expect=2,
        )

    def test_version_flag(self):
        proc = run_cli("--version")
        assert "betaplane" in proc.stdout

    def test_plot_without_out_rejected_before_solve(self, monkeypatch, capsys):
        from betaplane import cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting --plot")

        monkeypatch.setattr(cli, "lambda_n_couette", no_solve)
        assert cli.main(["eigen", "--beta", "1", "--c", "2", "--plot"]) == 2
        captured = capsys.readouterr()
        assert "--plot requires --out" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("line, reason", [
        pytest.param("resolution=abc", "bad value for", id="resolution=abc"),
        pytest.param("tol=x", "bad value for", id="tol=x"),
        pytest.param("tol.speed=x", "bad value for", id="tol.speed=x"),
        pytest.param("plot=treu", "bad value for", id="plot=treu"),
        # the eps schedule of the old endpoint route is gone with it
        pytest.param("eps_schedule=a,b", "unknown config key", id="eps_schedule=a,b"),
        # only tol takes a dotted name
        pytest.param("resolution.x=32", "unknown config key", id="resolution.x=32"),
        pytest.param("format.y=xml", "unknown config key", id="format.y=xml"),
    ])
    def test_malformed_config_value_names_line(self, line, reason, tmp_path, capsys):
        from betaplane.cli import main

        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# comment\n{line}\n")
        assert main(["eigen", "--beta", "0.5", "--c", "-2", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        key = line.split("=", 1)[0]
        assert captured.err.startswith(f"error: {cfg}:2: {reason} {key!r}")
        assert captured.out == ""

    def test_unknown_tolerance_name_rejected(self, tmp_path, capsys):
        from betaplane.cli import main

        cfg = tmp_path / "tol.cfg"
        cfg.write_text("tol.speed=1e-6\ntol.sped=1e-9\n")
        argv = ["atlas", "speed", "--beta", "3", "--lambda0", "-1", "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {cfg}:2: unknown tolerance 'tol.sped'")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["atlas", "speed", "--beta", "3", "--lambda0", "-1"],
        ["modified-flow", "--beta", "0.5", "--gamma", "0.01"],
    ])
    def test_level_set_tolerance_rejected(self, argv, tmp_path, capsys):
        # no command reads a level-set tolerance, so the key is unknown
        from betaplane.cli import main

        cfg = tmp_path / "tol.cfg"
        cfg.write_text("tol.region=1e-4\ntol.level-set=1e-9\n")
        assert main([*argv, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {cfg}:2: unknown tolerance 'tol.level-set'")
        assert captured.out == ""


class TestArgumentRanges:
    @pytest.mark.parametrize("argv", [
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--tol=-1e-5"],
        ["--tol", "0"],
    ])
    def test_tolerance_flag_finite_positive(self, argv, capsys):
        from betaplane.cli import main

        assert main(["atlas", "speed", "--beta", "3", "--lambda0", "-1", *argv]) == 2
        captured = capsys.readouterr()
        assert "must be finite and positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("period", ["1e155", "1e300"])
    def test_huge_period_target_rounds_to_minus_zero(self, period, capsys):
        # T^2 overflows, so the target -4 pi^2 / T^2 is -0; the solve itself is unaffected
        from betaplane.cli import main

        assert main(["atlas", "beta-T", "--period", period]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        row = captured.out.splitlines()[-1].split(",")
        assert float(row[0]) == float(period)
        assert row[3] == "-0"
        # beta* = j_(1,1)^2 / 8 = 1.835246330265487 lies 2.4e-13 from the value, within its bar
        assert row[1:3] == ["1.8352463302657318", "4.3342582996745362e-11"]

    def test_resolution_below_64_exit_2(self, capsys):
        from betaplane.cli import main

        assert main(["eigen", "--beta", "1", "--c", "-2", "--resolution", "32"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: resolution must be >= 64, got 32\n"
        assert captured.out == ""

    def test_overflowing_potential_one_error_line(self):
        # beta / (y + 1) overflows at the first node of the 512-row grid
        proc = run_cli("eigen", "--beta", "1e306", "--c", "-1", expect=2)
        assert proc.stderr == "error: non-finite-potential: Q(-0.9961013645224172) is not finite\n"
        assert proc.stdout == ""

    def test_tiny_period_uncertified_exit_3(self, capsys):
        from betaplane.cli import main

        assert main(["atlas", "beta-T", "--period", "1e-100"]) == 3
        assert "exceeds tol" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["160", "-160"])
    def test_region_decided_by_bar_exit_3(self, beta, capsys):
        from betaplane.cli import main

        assert main(["atlas", "region", "--alpha", "79.9985", "--beta", beta]) == 3
        captured = capsys.readouterr()
        assert "alpha_beta's error estimate" in captured.err
        assert captured.out == ""

    def test_speed_negative_beta_exit_2(self, capsys):
        from betaplane.cli import main

        assert main(["atlas", "speed", "--beta", "-3", "--lambda0", "0"]) == 2
        captured = capsys.readouterr()
        assert "wrong-sign-beta" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("line", ["tol=inf", "tol.speed=nan", "tol.speed=-1"])
    def test_tolerance_config_finite_positive(self, line, tmp_path, capsys):
        from betaplane.cli import main

        cfg = tmp_path / "tol.cfg"
        cfg.write_text(line + "\n")
        argv = ["atlas", "speed", "--beta", "3", "--lambda0", "-1", "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "must be finite and positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["modified-flow", "--beta", "0.5", "--gamma", "0.01", "--emit", "profile",
         "--samples", "0"],
        ["modified-flow", "--beta", "0.5", "--gamma", "0.01", "--emit", "profile",
         "--samples=-3"],
        ["atlas", "curve", "--beta-min", "3", "--beta-max", "6", "--steps", "0"],
        ["atlas", "curve", "--beta-max", "6", "--steps=-1"],
        ["modified-flow", "--beta", "0.5", "--gamma", "0.01", "--n-max", "0"],
        ["modified-flow", "--beta", "0.5", "--gamma", "0.01", "--n-max=-2"],
    ])
    def test_counts_at_least_one(self, argv, monkeypatch, capsys):
        from betaplane import atlas, modified_flow
        from betaplane.cli import main

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting the count")

        monkeypatch.setattr(atlas, "find_beta_star", no_solve)
        monkeypatch.setattr(modified_flow, "lambda_n_modified", no_solve)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "must be >= 1" in captured.err
        assert captured.out == ""


class TestOneRowTables:
    @pytest.mark.parametrize("argv, header, keys", [
        (["eigen", "--beta", "1", "--c", "2"],
         "beta,c,n,lambda,error_estimate,resolution", ["table", "version"]),
        (["atlas", "beta-star"],
         "beta_star,lambda_residual,error_estimate", ["table", "resolution", "tol"]),
        (["atlas", "beta-T", "--period", "6"],
         "period,beta_T,lambda_at_beta_T,target,error_estimate", ["table", "resolution", "tol"]),
        (["atlas", "region", "--alpha", "0.5", "--beta", "5"],
         "alpha,beta,label,beta_star,alpha_beta,tolerance,error_estimate", ["table", "resolution"]),
        (["atlas", "speed", "--beta", "4", "--lambda0", "0"],
         "beta,lambda0,c0,lambda_at_c0,error_estimate", ["table", "resolution", "tol"]),
    ], ids=["eigen", "beta-star", "beta-T", "region", "speed"])
    def test_header_and_metadata_keys(self, argv, header, keys, capsys):
        from betaplane.cli import main

        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line[2:].split(":", 1)[0] for line in lines if line.startswith("# ")] == keys
        body = [line for line in lines if not line.startswith("#")]
        assert body[0] == header
        assert len(body) == 2 and body[1].count(",") == header.count(",")


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        ("ValidationError", 2),
        ("SingularSpeedError", 2),
        ("NoConvergenceError", 3),
        ("BracketFailureError", 4),
        ("NoBracketError", 4),
    ])
    def test_exit_code_per_error_class(self, error, code, monkeypatch, capsys):
        from betaplane import cli, errors

        def fail(*args, **kwargs):
            raise getattr(errors, error)("the solver gave up")

        monkeypatch.setattr(cli, "lambda_n_couette", fail)
        assert cli.main(["eigen", "--beta", "1", "--c", "2"]) == code
        captured = capsys.readouterr()
        assert captured.err == "error: the solver gave up\n"
        assert captured.out == ""


class TestCacheDir:
    SPEED = ["atlas", "speed", "--beta", "4", "--lambda0", "-3", "--cache-dir"]

    @pytest.mark.parametrize("damage", [
        lambda text: "",
        lambda text: text[:text.rindex("\n", 0, -1) + 1],
        lambda text: text.replace(text.split(",")[-2], "abc"),
    ], ids=["empty", "header-only", "non-number"])
    def test_damaged_entry_recomputed(self, damage, tmp_path, capsys):
        from betaplane.cli import main

        cold_dir, cache_dir = tmp_path / "cold", tmp_path / "cache"
        assert main(self.SPEED + [str(cold_dir)]) == 0
        cold_out = capsys.readouterr().out
        cold = {p.name: p.read_bytes() for p in cold_dir.iterdir()}
        cache_dir.mkdir()
        for name, data in cold.items():
            (cache_dir / name).write_text(damage(data.decode()), encoding="utf-8")
        assert main(self.SPEED + [str(cache_dir)]) == 0
        assert capsys.readouterr().out == cold_out
        assert {p.name: p.read_bytes() for p in cache_dir.iterdir()} == cold

    def test_file_as_cache_dir_exit_2_before_any_solve(self, tmp_path, monkeypatch, capsys):
        from betaplane import atlas
        from betaplane.cli import main

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting the cache directory")

        monkeypatch.setattr(atlas, "find_beta_star", no_solve)
        path = tmp_path / "entry"
        path.write_text("x")
        assert main(["atlas", "beta-star", "--cache-dir", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cache directory {str(path)!r} cannot be created: File exists\n"
        assert captured.out == ""
        # a command that builds no cache ignores the flag
        assert main(["eigen", "--beta", "1", "--c", "2", "--cache-dir", str(path)]) == 0

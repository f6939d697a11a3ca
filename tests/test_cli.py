import csv
import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import cfbm.cli as cli
import cfbm.rough_integrals as rough_integrals
from cfbm.cli import ConfigError, ExperimentConfig, load_config_file, main

from helpers import environment_invariants, run_python


def run_cli(args, cwd):
    return run_python(["-m", "cfbm.cli", *args], cwd)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


ALL_COMMANDS = (
    "sample",
    "kernel-check",
    "cov-check",
    "levy-area",
    "levy-volume",
    "converge-series",
    "converge-eps",
    "specfun-test",
)

# the sampling and closed-form commands at small sizes
SAMPLING_COMMANDS = [
    ["sample", "--n-terms", "64", "--grid-n", "16"],
    ["converge-series", "--n-terms", "256", "--n-mc", "4", "--grid-n", "16"],
    ["converge-eps", "--n-terms", "64", "--n-mc", "4", "--grid-n", "16"],
    ["kernel-check"],
    ["cov-check"],
]


class TestParsingAndConfig:
    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_help_exits_zero(self, command, tmp_path):
        res = run_cli([command, "--help"], tmp_path)
        assert res.returncode == 0

    def test_unknown_config_key_names_it(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = 0.4\nbogus_key = 1\n")
        res = run_cli(["sample", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2
        assert "bogus_key" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_bad_value_names_field(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_terms = nope\n")
        res = run_cli(["sample", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2
        assert "n_terms" in res.stderr

    def test_alpha_half_rejected(self, tmp_path):
        res = run_cli(["sample", "--alpha", "0.5"], tmp_path)
        assert res.returncode == 2
        assert "alpha" in res.stderr

    def test_increasing_eps_rejected(self, tmp_path):
        res = run_cli(["levy-area", "--eps", "0.05", "--eps", "0.1"], tmp_path)
        assert res.returncode == 2
        assert "eps" in res.stderr

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["levy-area", "--grid-n", "96"], "grid_n"),
            (["levy-volume", "--grid-n", "96"], "grid_n"),
            (["levy-area", "--n-mc", "1"], "n_mc"),
            (["levy-volume", "--n-mc", "1"], "n_mc"),
            (["converge-series", "--n-terms", "2"], "n_terms"),
            (["sample", "--seed", str(2**64)], "seed"),
        ],
    )
    def test_command_limits_rejected(self, argv, field, tmp_path):
        res = run_cli(argv, tmp_path)
        lines = res.stderr.strip().splitlines()
        assert res.returncode == 2
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert field in lines[0]

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("alpha = 0.3\nn_terms = 64\ngrid_n = 16  # comment\n")
        values = load_config_file(str(cfg))
        assert values == {"alpha": 0.3, "n_terms": 64, "grid_n": 16}
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sample", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(
            ["sample", "--config", str(cfg), "--n-terms", "128", "--out", str(out2)]
        ) == 0
        assert read_rows(out1) != read_rows(out2)

    def test_config_file_eps_list(self, tmp_path):
        # a comma-separated list runs the same shifts as repeated --eps flags
        cfg = tmp_path / "eps.cfg"
        cfg.write_text("eps_list = 0.2, 0.1\n")
        sizes = ["--n-terms", "64", "--n-mc", "4", "--grid-n", "16"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["converge-eps", "--config", str(cfg), *sizes, "--out", str(out1)]) == 0
        assert main(
            ["converge-eps", "--eps", "0.2", "--eps", "0.1", *sizes, "--out", str(out2)]
        ) == 0
        rows = read_rows(out1)
        assert [float(row[0]) for row in rows[1:]] == [0.2, 0.1]
        assert rows == read_rows(out2)

    def test_config_file_empty_eps_list_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "eps.cfg"
        cfg.write_text("eps_list =\n")
        out = tmp_path / "out.csv"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: eps_list: must not be empty"
        ]
        assert not out.exists()

    def test_import_leaves_mpmath_unloaded(self, tmp_path):
        # mpmath backs only specfun-test's reference, and the iterated
        # integrals only the levy-* commands; each is imported on use.
        # cfbm never imports concurrent.futures (--threads starts no pool);
        # scipy.linalg does, through numpy.testing, and only the levy-*
        # commands load that.  So neither the import nor the sampling and
        # closed-form commands load them, and the package resolves its
        # rough_integrals names on first access
        code = (
            "import sys; from cfbm.cli import main\n"
            "def loaded():\n"
            "    return [m for m in ('cfbm.rough_integrals', 'concurrent.futures', 'mpmath')\n"
            "            if m in sys.modules]\n"
            "print(loaded())\n"
            f"print([main([*argv, '--out', 'out.csv']) for argv in {SAMPLING_COMMANDS!r}])\n"
            "print(loaded())\n"
            "from cfbm import LevyAreaSpec, levy_area_variance, levy_const\n"
            "import cfbm.rough_integrals as ri\n"
            "print(LevyAreaSpec is ri.LevyAreaSpec, levy_area_variance is ri.levy_area_variance,\n"
            "      levy_const is ri.levy_const)\n"
        )
        res = run_python(["-c", code], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["[]", "[0, 0, 0, 0, 0]", "[]", "True True True"]

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        # scipy backs only the MC factor and path product (LAPACK dpotrf and
        # BLAS dtrmm, scipy.linalg) and the Gamma function off the real axis
        # (the Gamma coefficients of hyp2f1's connection formulas at complex
        # parameters), which import it on use.  So neither the import nor the sampling and closed-form
        # commands load it, nor the graded Gauss-Legendre rule's callers: the
        # Levy-area variance and its callers, the sign-resolved Levy-area sum
        # and the contour kernel integral.  levy-volume may load scipy.linalg
        # for its Monte Carlo, but no command loads scipy.integrate.  The
        # Gauss-Legendre nodes are built on first use, so the import loads no
        # numpy.polynomial either, and no mpmath
        volume = ["levy-volume", "--n-mc", "4", "--grid-n", "64", "--out", "out.csv"]
        code = (
            "import sys; from cfbm.cli import main\n"
            "import cfbm.rough_integrals as ri\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy_modules(), 'numpy.polynomial' in sys.modules, 'mpmath' in sys.modules)\n"
            f"print([main([*argv, '--out', 'out.csv']) for argv in {SAMPLING_COMMANDS!r}])\n"
            "print(scipy_modules())\n"
            "ri.levy_area_variance(ri.LevyAreaSpec(0.4, 1.0, 1e-3, 2e-3))\n"
            "ri.divergence_slope(0.2, (1e-3, 1e-4), 1.0)\n"
            "ri.levy_volume_w1(0.3, 0.05, 0.05, 0.05, 1.0)\n"
            "ri.levy_area_sign_sum(0.3, 0.05, 0.04, 1.0)\n"
            "from cfbm.eps_approx import contour_kernel_integral\n"
            "from cfbm.gamma_process import ModelParams\n"
            "contour_kernel_integral(0.5, 1.0, ModelParams(0.3))\n"
            "print(scipy_modules())\n"
            f"print(main({volume!r}),\n"
            "      [m for m in scipy_modules() if m.startswith('scipy.integrate')])\n"
        )
        res = run_python(["-c", code], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [
            "[] False False", "[0, 0, 0, 0, 0]", "[]", "[]", "0 []"
        ]

    def test_public_names_are_defined_once(self):
        # every name a module exports exists in it and is listed only once
        for name in ("specfun", "gamma_process", "eps_approx", "rough_integrals", "cli"):
            module = importlib.import_module(f"cfbm.{name}")
            exported = module.__all__
            assert len(set(exported)) == len(exported), name
            assert [n for n in exported if not hasattr(module, n)] == [], name

    def test_specfun_test_without_mpmath_names_the_extra(self, tmp_path):
        # mpmath is the optional `oracle` extra: without it specfun-test
        # stops with one line naming the install, not a traceback
        code = (
            "import sys; sys.modules['mpmath'] = None\n"
            "from cfbm.cli import main\n"
            "sys.exit(main(['specfun-test', '--n-mc', '3', '--out', 'out.csv']))\n"
        )
        res = run_python(["-c", code], tmp_path)
        lines = res.stderr.strip().splitlines()
        assert res.returncode == 2
        assert len(lines) == 1 and "pip install -e .[oracle]" in lines[0]
        assert not (tmp_path / "out.csv").exists()

    def test_validated_catches_bad_fields(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=-1).validated("sample")
        with pytest.raises(ConfigError):
            ExperimentConfig(eps_list=(0.1, 0.1)).validated("sample")


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["cov-check", "--t-max", "inf"], "t_max"),
            (["sample", "--t-max", "nan"], "t_max"),
            (["levy-area", "--t-max", "nan"], "t_max"),
            (["levy-area", "--eps", "nan"], "eps_list"),
            (["levy-area", "--eps", "inf"], "eps_list"),
        ],
    )
    def test_non_finite_flag_is_a_config_error(self, argv, field, capsys, tmp_path):
        # max(0.0, nan) is 0.0 and nan fails every comparison, so a
        # non-finite horizon or shift would pass with empty cells or end in a
        # traceback
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {field}:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "module, name, argv, reason",
        [
            (cli, "kernel_partial_sum", ["kernel-check"], "final-N error nan"),
            (cli, "cov_eps", ["cov-check"], "max deviation nan"),
            # the levy-* commands import their rough_integrals names on use
            (rough_integrals, "levy_area_variance", ["levy-area", "--eps", "0.1"],
             "off analytic nan"),
            (rough_integrals, "levy_area_sign_sum", ["levy-volume", "--eps", "0.1"],
             "sub-term identity"),
            (rough_integrals, "volume_inner_closed", ["levy-volume", "--eps", "0.1"],
             "inner closed form off quadrature by nan"),
        ],
    )
    def test_nan_fails_the_gate(self, module, name, argv, reason, monkeypatch, capsys, tmp_path):
        # a NaN compares false against every bound and max(0.0, nan) is 0.0,
        # so each gate asks that its value be within its bound
        monkeypatch.setattr(module, name, lambda *args: math.nan)
        out = tmp_path / "out.csv"
        assert main([*argv, "--grid-n", "64", "--n-mc", "20", "--out", str(out)]) == 1
        assert reason in capsys.readouterr().err


class TestEnvironmentInvariance:
    def test_blas_kernels_and_simd_dispatch_leave_outputs_unchanged(self, tmp_path):
        # Haswell OpenBLAS kernels and numpy's AVX-512 dispatch off, in a
        # child process; where the variables have no effect this passes
        # trivially
        code = (
            f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from helpers import environment_invariants\n"
            "print(environment_invariants('.'))\n"
        )
        env = {
            "OPENBLAS_CORETYPE": "Haswell",
            "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
        }
        res = run_python(["-c", code], tmp_path, env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == repr(environment_invariants(tmp_path))


class TestSample:
    def test_first_row_is_origin_and_reruns_identical(self, tmp_path):
        args = ["sample", "--alpha", "0.4", "--n-terms", "128", "--grid-n", "32"]
        res = run_cli(args + ["--out", "s1.csv"], tmp_path)
        assert res.returncode == 0
        rows = read_rows(tmp_path / "s1.csv")
        assert rows[0] == ["t", "value"]
        assert rows[1] == ["0", "0"]
        run_cli(args + ["--out", "s2.csv"], tmp_path)
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    def test_doubling_terms_shrinks_coupled_gap(self, tmp_path):
        # paths at N and 2N share their leading coefficients, so successive
        # sup-gaps shrink as the truncation grows
        def path(n):
            out = tmp_path / f"p{n}.csv"
            assert (
                main(
                    [
                        "sample",
                        "--alpha",
                        "0.35",
                        "--n-terms",
                        str(n),
                        "--grid-n",
                        "64",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            return np.array([float(r[1]) for r in read_rows(out)[1:]])

    # sup|B^N - B^(2N)| decreasing in N
        p256, p512, p1024 = path(256), path(512), path(1024)
        gap1 = np.max(np.abs(p256 - p512))
        gap2 = np.max(np.abs(p512 - p1024))
        assert gap2 < gap1


class TestKernelCheck:
    def test_passes_and_contains_exact_row(self, tmp_path):
        out = tmp_path / "k.csv"
        assert main(["kernel-check", "--alpha", "0.3", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == ["z", "w", "N", "abs_error"]
        first = [r for r in rows[1:] if r[0] == "0+1j" and r[1] == "0+1j" and r[2] == "1"]
        assert first and float(first[0][3]) < 1e-15

    def test_errors_monotone_per_pair_after_transient(self, tmp_path):
        out = tmp_path / "k.csv"
        main(["kernel-check", "--alpha", "0.45", "--out", str(out)])
        rows = read_rows(out)[1:]
        by_pair = {}
        for z, w, n, err in rows:
            by_pair.setdefault((z, w), []).append((int(n), float(err)))
        for seq in by_pair.values():
            seq.sort()
            errs = [e for _, e in seq]
            # monotone from the first sub-tolerance-4 terms onward
            tail = errs[2:]
            assert all(b <= a * (1 + 1e-9) or b < 1e-14 for a, b in zip(tail, tail[1:]))


class TestLevyArea:
    def test_default_alpha_passes_gate(self, tmp_path):
        out = tmp_path / "la.csv"
        code = main(
            [
                "levy-area",
                "--alpha",
                "0.4",
                "--grid-n",
                "512",
                "--n-mc",
                "400",
                "--eps",
                "0.1",
                "--eps",
                "0.05",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["eps", "analytic_V", "mc_mean", "mc_stderr", "levy_const_target"]
        assert len(rows) == 3

    def test_low_alpha_emits_divergence_footer(self, tmp_path):
        out = tmp_path / "la.csv"
        code = main(
            [
                "levy-area",
                "--alpha",
                "0.2",
                "--grid-n",
                "512",
                "--n-mc",
                "300",
                "--eps",
                "0.1",
                "--eps",
                "0.05",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[-1][0] == "divergence_slope"
        assert float(rows[-1][1]) == pytest.approx(-0.2, abs=0.05)
        assert rows[1][4] == ""  # no limit constant below 1/4

    def test_unresolved_eps_flagged(self, tmp_path):
        out = tmp_path / "la.csv"
        code = main(
            [
                "levy-area",
                "--alpha",
                "0.4",
                "--grid-n",
                "64",
                "--n-mc",
                "50",
                "--eps",
                "0.01",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        rows = read_rows(out)
        assert rows[1][2] == ""  # no MC columns for the unresolved row

    def test_four_shifts_last_unresolved(self, tmp_path, capsys):
        # one Monte Carlo run serves the three resolved shifts: the rows keep
        # the schedule's order, each carries its one-shift estimate, and the
        # unresolved last row stays blank and fails the command
        from cfbm.rough_integrals import mc_levy_area_moment

        eps = ["0.25", "0.125", "0.0625", "0.03125"]
        out = tmp_path / "la.csv"
        argv = ["levy-area", "--alpha", "0.4", "--grid-n", "64", "--n-mc", "60", "--seed", "3"]
        code = main([*argv, *(a for e in eps for a in ("--eps", e)), "--out", str(out)])
        assert code == 1
        rows = read_rows(out)[1:]
        assert [r[0] for r in rows] == eps
        for e, row in zip(eps[:3], rows):
            est = mc_levy_area_moment(0.4, float(e), 1.0, 60, 64, seed=3)
            assert row[2:4] == [f"{est.mean:.17g}", f"{est.stderr:.17g}"]
        assert rows[3][2:4] == ["", ""]
        assert capsys.readouterr().err.splitlines()[-1] == (
            "levy-area: eps=0.03125: grid_n=64 too coarse to resolve"
        )

    def test_underflowed_variance_and_slope_fail_their_gates(self, tmp_path, capsys):
        # at t = 1e-300 V underflows to -0 and the footer's fit has no finite
        # slope: each fails with one line, and the rows keep their cells
        out = tmp_path / "la.csv"
        argv = ["levy-area", "--alpha", "0.1", "--t-max", "1e-300", "--eps", "0.5",
                "--n-mc", "4", "--grid-n", "16", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "levy-area: eps=0.5: analytic V -0 is not finite and > 0",
            "levy-area: divergence slope nan is not finite",
        ]
        rows = read_rows(out)[1:]
        assert rows[0][:2] == ["0.5", "-0"]
        assert rows[1] == ["divergence_slope", "", "", "", ""]

    @pytest.mark.parametrize("argv, reason", [
        (["levy-area", "--t-max", "1e300"], "OverflowError: "),
        (["levy-volume", "--t-max", "1e300", "--eps", "1e300"],
         "NonConvergenceError: Levy-area variance: "),
    ])
    def test_library_error_exits_1_on_one_line(self, argv, reason, tmp_path, capsys):
        # the levy_const target t^(4a) overflows, and the sub-term's
        # quadrature fails its guard: each used to end in a traceback
        assert main([*argv, "--n-mc", "2", "--grid-n", "4", "--out", str(tmp_path / "o.csv")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{argv[0]}: {reason}")

    @pytest.mark.parametrize("alpha, t_max", [("0.4", "1e300"), ("0.26", "1e296")])
    def test_levy_area_target_overflow_names_the_target(self, alpha, t_max, tmp_path, capsys):
        # t_max^(4a) itself overflows, or only its product with levy_const(0.26) = 3.6
        argv = ["levy-area", "--alpha", alpha, "--t-max", t_max, "--n-mc", "2", "--grid-n", "4",
                "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "levy-area: OverflowError: the target levy_const * t_max^(4 alpha) overflows double "
            f"precision at t_max={float(t_max)}, alpha={alpha}"
        ]

    def test_volume_unresolved_eps_flagged(self, tmp_path, capsys):
        out = tmp_path / "lv.csv"
        code = main(
            [
                "levy-volume",
                "--alpha",
                "0.3",
                "--grid-n",
                "64",
                "--n-mc",
                "50",
                "--eps",
                "0.05",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "levy-volume: eps=0.05: grid_n=64 too coarse to resolve"
        ]
        rows = {r[0]: r for r in read_rows(out)[1:]}
        assert rows["mc_second_moment"][1:] == ["", "", ""]  # no MC cells


class TestConverge:
    def test_series_gate_and_format(self, tmp_path):
        out = tmp_path / "cs.csv"
        code = main(
            [
                "converge-series",
                "--alpha",
                "0.35",
                "--n-terms",
                "1024",
                "--grid-n",
                "64",
                "--n-mc",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["param", "e_sup_estimate", "fit_slope"]
        slope = float(rows[1][2])
        assert slope <= -(0.35 - 0.1)

    def test_eps_gate(self, tmp_path):
        out = tmp_path / "ce.csv"
        code = main(
            [
                "converge-eps",
                "--alpha",
                "0.35",
                "--n-terms",
                "800",
                "--grid-n",
                "128",
                "--n-mc",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        slope = float(read_rows(out)[1][2])
        assert abs(slope) >= 0.35 - 0.1

    def test_single_param_leaves_slope_empty(self, tmp_path):
        out = tmp_path / "ce1.csv"
        code = main(
            [
                "converge-eps",
                "--alpha",
                "0.35",
                "--n-terms",
                "256",
                "--grid-n",
                "32",
                "--n-mc",
                "5",
                "--eps",
                "0.05",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 2
        assert rows[1][2] == ""


class TestThreadInvariance:
    def test_levy_area_output_independent_of_threads(self, tmp_path):
        base = [
            "levy-area",
            "--alpha",
            "0.4",
            "--grid-n",
            "256",
            "--n-mc",
            "200",
            "--eps",
            "0.1",
        ]
        out1 = tmp_path / "t1.csv"
        out8 = tmp_path / "t8.csv"
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "8", "--out", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["levy-area", "--alpha", "0.4", "--eps", "0.1", "--eps", "0.05"],
            ["levy-volume", "--alpha", "0.3", "--eps", "0.05"],
        ],
        ids=["levy-area", "levy-volume"],
    )
    def test_mc_commands_write_the_same_bytes_at_any_thread_count(self, argv, tmp_path):
        # 300 paths end in a partial batch
        outs = [tmp_path / "t1.csv", tmp_path / "t3.csv"]
        codes = [
            main([*argv, "--grid-n", "128", "--n-mc", "300", "--threads", k, "--out", str(out)])
            for k, out in zip(["1", "3"], outs)
        ]
        assert codes == [0, 0]
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestSpecfunAndVolumeCommands:
    def test_specfun_gate(self, tmp_path):
        out = tmp_path / "sf.csv"
        assert main(["specfun-test", "--n-mc", "24", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0][0] == "region"
        assert {r[0] for r in rows[1:]} >= {"series", "inv", "near_one", "at_one"}

    def test_specfun_default_run_measures_the_engine(self, tmp_path):
        # the reference is mpmath.hyp2f1 at 30 digits, so rel_error is the
        # engine's own error, not that of a quadrature oracle (~1e-9)
        out = tmp_path / "sf.csv"
        assert main(["specfun-test", "--out", str(out)]) == 0
        rows = read_rows(out)[1:]
        assert len(rows) == 210
        assert max(float(r[7]) for r in rows) <= 1e-12

    def test_specfun_at_one_gate_reports_its_own_error(self, monkeypatch, capsys, tmp_path):
        # z = 1 values off by 1e-9 fail the 1e-10 gate of the at_one rows,
        # which reports their real error, not the 1e-8 gate of the others
        import cfbm.cli as cli

        exact = cli.hyp2f1
        monkeypatch.setattr(
            cli, "hyp2f1", lambda a, b, c, z: exact(a, b, c, z) * (1 + 1e-9 * (z == 1))
        )
        out = tmp_path / "sf.csv"
        assert main(["specfun-test", "--n-mc", "3", "--out", str(out)]) == 1
        rows = read_rows(out)[1:]
        worst = max(float(r[7]) for r in rows if r[0] == "at_one")
        assert 0.9e-9 < worst < 1.1e-9
        assert max(float(r[7]) for r in rows if r[0] != "at_one") <= 1e-12
        assert capsys.readouterr().err.splitlines() == [
            f"specfun-test: worst relative error at z = 1 {worst:.3e} exceeds 1e-10"
        ]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_specfun_cases_read_the_philox_stream(self, seed, tmp_path):
        # the random cases come from the one random source, stream (seed, 0)
        from cfbm.gamma_process import _philox

        out = tmp_path / "sf.csv"
        assert main(["specfun-test", "--n-mc", "3", "--seed", str(seed), "--out", str(out)]) == 0
        first = read_rows(out)[1]
        a, b, c, z = cli._random_2f1_case(_philox(seed, 0), "series")
        assert first[:5] == ["series", *(cli._fmt(x) for x in (a, b, c, z))]

    def test_levy_volume_gate(self, tmp_path):
        argv = ["levy-volume", "--alpha", "0.3", "--eps", "0.05", "--grid-n", "512"]
        out, again = tmp_path / "lv.csv", tmp_path / "lv_again.csv"
        assert main(argv + ["--n-mc", "150", "--out", str(out)]) == 0
        rows = {r[0]: r for r in read_rows(out)[1:]}
        assert float(rows["w1_identity_rel_err"][1]) <= 1e-8
        assert float(rows["mc_second_moment"][1]) > 0
        # a second run at the same seed writes the same bytes
        assert main(argv + ["--n-mc", "150", "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_levy_volume_reads_only_the_first_eps(self, tmp_path):
        # every levy-volume check runs at the first shift of the schedule,
        # so a longer schedule writes the same bytes
        outs = [tmp_path / "one.csv", tmp_path / "two.csv"]
        base = ["levy-volume", "--grid-n", "64", "--n-mc", "8"]
        codes = [
            main([*base, *schedule, "--out", str(out)])
            for schedule, out in zip([["--eps", "0.1"], ["--eps", "0.1", "--eps", "0.05"]], outs)
        ]
        assert codes == [0, 0]
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("flags", [["--eps", "1e300"], ["--t-max", "1e-200"]])
    def test_levy_volume_underflowed_sub_term_fails_its_gate(self, flags, capsys, tmp_path):
        # the sign-resolved assembly underflows to 0, and w1 with it: the
        # relative error is undefined, so its cell is blank and the gate
        # fails (it was a ZeroDivisionError, and 0 <= 0 would have passed)
        out = tmp_path / "lv.csv"
        argv = ["levy-volume", *flags, "--n-mc", "4", "--grid-n", "16", "--out", str(out)]
        assert main(argv) == 1
        rows = {r[0]: r for r in read_rows(out)[1:]}
        assert rows["w1_identity_rel_err"][1:] == ["", "0", "0"]
        assert [line for line in capsys.readouterr().err.splitlines() if "sub-term" in line] == [
            "levy-volume: volume sub-term identity untestable: the assembly underflows to 0"
        ]

    def test_levy_volume_inner_check_is_guarded(self, monkeypatch, capsys, tmp_path):
        # the inner check's quadrature raises where its guard rule disagrees,
        # and the command reports that error on one line with exit 1
        import cfbm.specfun as specfun
        from cfbm.specfun import NonConvergenceError

        monkeypatch.setattr(specfun, "_GL_GUARD_ORDER", 2)
        with pytest.raises(NonConvergenceError, match="levy-volume inner integral"):
            rough_integrals._volume_inner_max_error(0.4, 0.1, 20240901)
        assert main(["levy-volume", "--n-mc", "50", "--out", str(tmp_path / "lv.csv")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("levy-volume: NonConvergenceError: levy-volume inner integral: ")

    @pytest.mark.parametrize("alpha, eps", [("0.3", "0.02"), ("0.2", "0.01")])
    def test_levy_volume_inner_check_is_exact(self, alpha, eps, tmp_path):
        # the closed form is exact, so the oracle's own error must stay far below
        # the 1e-4 gate (a 220 x 220 midpoint sum is 1.5e-4 and 7.0e-4 off here)
        out = tmp_path / "lv.csv"
        argv = ["levy-volume", "--alpha", alpha, "--eps", eps, "--grid-n", "512"]
        assert main(argv + ["--n-mc", "50", "--out", str(out)]) == 0
        rows = {r[0]: r for r in read_rows(out)[1:]}
        assert float(rows["inner_integral_max_abs_err"][1]) <= 1e-12


# Small argv at the edges of every command's inputs, fixed in advance: shifts
# and horizons at 1e+-300, alpha near 0, 1/4, 1/2 and 1, the smallest grids,
# path counts and truncations, and the extreme seeds.
_SEED_MAX = str(2 ** 64 - 1)
# near alpha = 1/2 the grid covariance's cancellation error outgrows the
# factor's jitter, so these end in a failed factor
_FACTOR_FAILURES = [
    ["levy-area", "--alpha", "0.4999", "--eps", "0.5", "--n-mc", "4", "--grid-n", "16"],
    ["levy-area", "--alpha", "0.5001", "--eps", "0.1", "--n-mc", "4", "--grid-n", "64"],
    ["levy-volume", "--alpha", "0.4999", "--eps", "0.25", "--n-mc", "4", "--grid-n", "64"],
    ["levy-volume", "--alpha", "0.5001", "--eps", "0.1", "--n-mc", "4", "--grid-n", "64"],
]

ARGV_EDGES = [
    ["sample", "--n-terms", "1", "--grid-n", "2"],
    ["sample", "--n-terms", "3", "--grid-n", "4", "--t-max", "1e300"],
    ["sample", "--n-terms", "3", "--grid-n", "4", "--t-max", "1e-300"],
    ["sample", "--n-terms", "2", "--grid-n", "2", "--alpha", "0.001"],
    ["sample", "--n-terms", "3", "--grid-n", "4", "--alpha", "0.999"],
    ["sample", "--n-terms", "3", "--grid-n", "2", "--alpha", "0.4999999", "--seed", _SEED_MAX],
    ["kernel-check", "--alpha", "0.001"],
    ["kernel-check", "--alpha", "0.25"],
    ["kernel-check", "--alpha", "0.999"],
    ["cov-check", "--t-max", "1e300"],
    ["cov-check", "--t-max", "1e-300"],
    ["cov-check", "--alpha", "0.001"],
    ["cov-check", "--alpha", "0.999"],
    ["levy-area", "--alpha", "0.1", "--t-max", "1e-300", "--eps", "0.5", "--n-mc", "4",
     "--grid-n", "16"],
    ["levy-area", "--eps", "1e300", "--n-mc", "4", "--grid-n", "16"],
    ["levy-area", "--t-max", "1e300", "--n-mc", "2", "--grid-n", "4"],
    ["levy-area", "--eps", "1e-300", "--n-mc", "2", "--grid-n", "4"],
    ["levy-area", "--t-max", "1e-300", "--eps", "1e-300", "--n-mc", "2", "--grid-n", "2"],
    ["levy-area", "--alpha", "0.001", "--eps", "1", "--n-mc", "2", "--grid-n", "4"],
    ["levy-area", "--alpha", "0.25", "--eps", "1", "--n-mc", "2", "--grid-n", "4"],
    ["levy-area", "--alpha", "0.2500001", "--eps", "1", "--n-mc", "2", "--grid-n", "4"],
    ["levy-area", "--alpha", "0.999", "--eps", "1", "--n-mc", "2", "--grid-n", "4",
     "--seed", "0"],
    ["levy-volume", "--eps", "1e300", "--n-mc", "4", "--grid-n", "16"],
    ["levy-volume", "--t-max", "1e300", "--eps", "1e300", "--n-mc", "2", "--grid-n", "4"],
    ["levy-volume", "--t-max", "1e-300", "--eps", "1e-300", "--n-mc", "2", "--grid-n", "2"],
    ["levy-volume", "--eps", "1e-300", "--n-mc", "2", "--grid-n", "4"],
    ["levy-volume", "--alpha", "0.001", "--eps", "1", "--n-mc", "2", "--grid-n", "4"],
    ["levy-volume", "--alpha", "0.25", "--eps", "1", "--n-mc", "2", "--grid-n", "4"],
    ["levy-volume", "--alpha", "0.999", "--eps", "1", "--n-mc", "2", "--grid-n", "4",
     "--seed", _SEED_MAX],
    ["converge-series", "--n-terms", "3", "--n-mc", "2", "--grid-n", "2"],
    ["converge-series", "--n-terms", "3", "--n-mc", "2", "--grid-n", "4", "--t-max", "1e300"],
    ["converge-series", "--n-terms", "3", "--n-mc", "2", "--grid-n", "4", "--t-max", "1e-300"],
    ["converge-series", "--n-terms", "3", "--n-mc", "2", "--grid-n", "4", "--alpha", "0.001"],
    ["converge-series", "--n-terms", "3", "--n-mc", "2", "--grid-n", "4", "--alpha", "0.999"],
    ["converge-eps", "--eps", "1e300", "--n-mc", "4", "--n-terms", "50", "--grid-n", "16"],
    ["converge-eps", "--eps", "1e300", "--eps", "1e-300", "--n-mc", "2", "--n-terms", "2",
     "--grid-n", "2"],
    ["converge-eps", "--n-mc", "2", "--n-terms", "1", "--grid-n", "2", "--t-max", "1e300"],
    ["converge-eps", "--n-mc", "2", "--n-terms", "1", "--grid-n", "2", "--t-max", "1e-300"],
    ["converge-eps", "--n-mc", "2", "--n-terms", "3", "--grid-n", "4", "--alpha", "0.001"],
    ["converge-eps", "--n-mc", "2", "--n-terms", "3", "--grid-n", "4", "--alpha", "0.999",
     "--eps", "1e300"],
    ["specfun-test", "--n-mc", "1"],
    ["specfun-test", "--n-mc", "2", "--seed", _SEED_MAX],
    *_FACTOR_FAILURES,
]


class TestArgvEdges:
    @pytest.mark.parametrize("argv", ARGV_EDGES, ids=" ".join)
    def test_exit_code_and_one_line_reasons_only(self, argv, capsys, tmp_path):
        # the exception contract at the CLI: exit 0, 1 or 2, and stderr holds
        # only config-error or command lines; no traceback (an exception
        # escaping main fails the test) and no numpy RuntimeWarning. The
        # near-1/2 UserWarning of ModelParams is documented and allowed.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(tmp_path / "out.csv")])
        assert code in (0, 1, 2)
        for line in capsys.readouterr().err.splitlines():
            assert line.startswith(("config error: ", f"{argv[0]}: ")), line
        assert [str(w.message) for w in caught if w.category is not UserWarning] == []

    @pytest.mark.parametrize("argv", _FACTOR_FAILURES, ids=" ".join)
    def test_failed_factor_is_one_library_error_line(self, argv, capsys, tmp_path):
        # a covariance that does not factor is a library error: exit 1, one
        # line naming numpy's LinAlgError, and no CSV
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{argv[0]}: LinAlgError: ")
        assert not out.exists()


# The seeded argv fuzz: every command but specfun-test, each flag a small
# valid value or, one time in eight, an edge value (NaN, inf, 0, negatives,
# 1e300, 0.4999, a non-number), one to three --eps, and small sizes only.
_FUZZ_DRAWS = 150
_FUZZ_EDGE = 1 / 8
_FUZZ_FLAGS = {  # flag: (valid values, edge values)
    "--alpha": (("0.1", "0.3", "0.4", "0.7"),
                ("nan", "inf", "-inf", "0", "-0.3", "1", "1e300", "0.4999", "0.5", "0.25", "x")),
    "--t-max": (("1", "0.5", "2"), ("nan", "inf", "0", "-1", "1e300", "1e-300", "x")),
    "--grid-n": (("16", "32", "64"), ("0", "-4", "1", "2", "3", "48", "nan", "1e300", "x")),
    "--n-terms": (("16", "32", "64"), ("0", "-1", "1", "2", "3", "nan", "1e300", "x")),
    "--n-mc": (("2", "4", "8"), ("0", "-1", "1", "nan", "1e300", "x")),
    "--seed": (("0", "7"), ("-1", str(2 ** 64), _SEED_MAX, "nan", "x")),
    "--threads": (("1", "2"), ("0", "-1", "x")),
}
_FUZZ_SIZES = ("--grid-n", "--n-terms", "--n-mc")  # always given: the defaults are large
_FUZZ_EPS = (("0.5", "0.25", "0.1"), ("nan", "inf", "0", "-0.1", "1e300", "1e-300", "x"))


def _fuzz_value(rng, valid, edge):
    return str(rng.choice(edge if rng.random() < _FUZZ_EDGE else valid))


def _fuzz_argv(rng, tmp_path):
    argv = [str(rng.choice([c for c in ALL_COMMANDS if c != "specfun-test"]))]
    for flag, values in _FUZZ_FLAGS.items():
        if flag in _FUZZ_SIZES or rng.random() < 0.5:
            argv += [flag, _fuzz_value(rng, *values)]
    if rng.random() < 0.75:
        # a decreasing schedule of valid shifts, reversed one time in eight
        eps = sorted(rng.choice(_FUZZ_EPS[0], rng.integers(1, 4), replace=False),
                     key=float, reverse=rng.random() >= _FUZZ_EDGE)
        for e in eps:
            argv += ["--eps", str(e) if rng.random() >= _FUZZ_EDGE else str(rng.choice(_FUZZ_EPS[1]))]
    if rng.random() < 1 / 16:
        argv += ["--config", str(tmp_path / "missing.cfg")]
    # a directory as the output path fails the write
    out = tmp_path if rng.random() < 1 / 16 else tmp_path / "out.csv"
    return [*argv, "--out", str(out)]


class TestArgvFuzz:
    def test_exit_code_and_a_message_for_every_failure(self, capsys, tmp_path):
        # the exception contract at the CLI over seeded argv: exit 0, 1 or 2
        # with no exception escaping main, a message on stderr for every exit
        # 1 or 2 and none for exit 0, and no numpy RuntimeWarning
        rng = np.random.default_rng(2024)
        codes = []
        for _ in range(_FUZZ_DRAWS):
            argv = _fuzz_argv(rng, tmp_path)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, code)
            assert bool(err.strip()) == (code != 0), (argv, code, err)
            assert [str(w.message) for w in caught if w.category is not UserWarning] == [], argv
            codes.append(code)
        # the draws reach past the argument checks into the library
        assert sum(code in (0, 1) for code in codes) >= _FUZZ_DRAWS // 3, codes

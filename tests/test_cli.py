"""Tests for the command-line surface."""

import json

import pytest
from mpmath import mp, mpf

from superosc import (Context, FourierCosineSignal, cli, design_spectrum, evaluate, sample,
                      solver, symmetrize_domain, zero_crossings)
from superosc import design as design_module
from superosc.cli import main, render_json


def significant_digits(decimal):
    mantissa = decimal.lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0"))


def run_cli(tmp_path, *argv):
    out = tmp_path / "doc.out"
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestDesign:
    def test_happy_path_json(self, tmp_path):
        code, text = run_cli(
            tmp_path, "design", "-n", "6", "-m", "3", "--interval", "1",
            "--samples", "33",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["config"]["band_limit"] == 6
        assert doc["mode"]["index"] == 5  # N+2-M modes, top is last
        assert len(doc["mode"]["coefficients"]) == 7
        assert len(doc["series"]["full_period"]["t"]) == 33
        lam = mpf(doc["eigenvalue"])
        assert 0 < lam < 1

    def test_csv_to_stdout_samples_nothing(self, tmp_path, capsys, monkeypatch):
        # the table is the one written beside the series files, and no
        # series is sampled for it
        argv = ["design", "-n", "10", "-m", "5", "--interval", "1", "--precision", "30",
                "--format", "csv"]
        code, table = run_cli(tmp_path, *argv)
        assert code == 0 and (tmp_path / "doc.out_series_full_period.csv").exists()
        monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled a series"))
        assert main(argv) == 0
        assert capsys.readouterr().out == table

    def test_full_period_at_working_precision(self, tmp_path):
        # t_k = -pi + 2 pi k / 10 at the working precision, with f(t_k) as an
        # evaluation 60 digits higher gives it
        code, text = run_cli(tmp_path, "design", "-n", "6", "-m", "3", "--interval", "1",
                             "--precision", "30", "--samples", "11")
        assert code == 0
        doc = json.loads(text)
        series = doc["series"]["full_period"]
        assert series["t"][5] == "0.0"
        ctx = Context(90)
        with ctx.workprec():
            signal = FourierCosineSignal(
                band_limit=6, coeffs=tuple(mpf(c) for c in doc["mode"]["coefficients"]))
            scale = mp.fsum(abs(c) for c in signal.coeffs)
            for k, (t, f) in enumerate(zip(series["t"], series["f"])):
                stated = -mp.pi + 2 * mp.pi * k / 10
                assert abs(mpf(t) - stated) <= mpf("1e-30") * mp.pi
                assert abs(mpf(f) - evaluate(signal, stated, ctx)) <= mpf("1e-30") * scale

    def test_too_many_constraints_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "design", "-n", "4", "-m", "6",
                          "--interval", "1")
        assert code == 2
        assert "no solution for M>N+1" in capsys.readouterr().err

    def test_missing_domain_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "design", "-n", "4", "-m", "2")
        assert code == 2

    def test_bad_domain_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "design", "-n", "4", "-m", "2",
                          "--domain", "2,1")
        assert code == 2

    def test_rank_deficiency_message_points_to_precision(self, tmp_path, capsys):
        # the points are distinct; at 15 digits their rows are only nearly
        # dependent, and 100 digits separate them
        argv = ["design", "-n", "10", "-m", "6", "--interval", "0.015625"]
        code, _ = run_cli(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "linearly dependent" in err and "[3, 4, 5]" in err
        assert "tolerance 1.0e-10" in err
        assert "precision" in err and "reduce_rank" in err
        code, text = run_cli(tmp_path, *argv, "--precision", "100")
        assert code == 0
        assert json.loads(text)["mode"]["index"] == 6

    def test_saturated_constraints_single_mode(self, tmp_path):
        code, text = run_cli(tmp_path, "design", "-n", "2", "-m", "3",
                             "--interval", "1")
        assert code == 0
        doc = json.loads(text)
        assert doc["mode"]["index"] == 1

    def test_log_magnitude_dips_inside_domain(self, tmp_path):
        # the exported full-period series must show the signature shape:
        # |f| inside the superoscillation interval orders of magnitude
        # below |f| outside
        code, text = run_cli(
            tmp_path, "design", "-n", "10", "-m", "5", "--interval", "1",
            "--precision", "20", "--samples", "801",
        )
        assert code == 0
        doc = json.loads(text)
        series = doc["series"]["full_period"]
        inside, outside = [], []
        for t, log_mag in zip(series["t"], series["log10_abs_f"]):
            if log_mag == "-inf":
                continue
            (inside if abs(mpf(t)) < 0.8 else outside).append(mpf(log_mag))
        assert max(inside) < max(outside) - 1
        assert sum(inside) / len(inside) < sum(outside) / len(outside) - 1

    @pytest.mark.parametrize("digits", [15, 30, 100])
    def test_log10_is_mpmath_log10_bit_for_bit(self, digits):
        # every sample of both series of design -n 10 -m 5 --interval 1
        ctx = Context(digits)
        result = design_spectrum(10, 5, symmetrize_domain(0, 1), ctx)
        values = [v for lo, hi in ((-mp.pi, mp.pi), (-1, 1))
                  for _, v in sample(result.optimal_signal, lo, hi, 1001, ctx)]
        with ctx.workprec():
            assert all(cli._log10_abs(v) == mp.log10(abs(v)) for v in values)


class TestSpectrum:
    def test_mode_count_and_order(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "-n", "7", "-m", "4",
                             "--interval", "1.2")
        assert code == 0
        doc = json.loads(text)
        assert doc["count"] == 5
        values = [mpf(s) for s in doc["eigenvalues"]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_both_methods_reports_deltas(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "-n", "6", "-m", "3",
                             "--interval", "1", "--method", "both",
                             "--precision", "40")
        assert code == 0
        doc = json.loads(text)
        assert len(doc["method_relative_deltas"]) == 5
        assert all(mpf(d) < mpf("1e-6") for d in doc["method_relative_deltas"])

    def test_both_methods_solve_once(self, tmp_path, monkeypatch):
        calls = []
        design = cli.design_spectrum

        def counting_design(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return design(*args, **kwargs)

        monkeypatch.setattr(cli, "design_spectrum", counting_design)
        code, text = run_cli(tmp_path, "spectrum", "-n", "6", "-m", "3",
                             "--interval", "1", "--method", "both",
                             "--precision", "40")
        assert code == 0
        assert calls == ["secular"]
        assert len(json.loads(text)["jacobi_eigenvalues"]) == 5

    def test_crossings_on_the_library_grid(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "-n", "5", "-m", "3",
                             "--annulus", "0.5", "1")
        assert code == 0
        result = design_spectrum(5, 3, symmetrize_domain("0.5", "1"), Context(15))
        expected = [zero_crossings(sig, result.domain) for sig in result.spectrum.signals]
        assert [mode["crossings"] for mode in json.loads(text)["modes"]] == expected

    def test_negative_domain_needs_equals_form(self, tmp_path, capsys):
        spec = "-2.5,-1.5;0.5,1.7"
        code, _ = run_cli(tmp_path, "spectrum", "-n", "6", "-m", "3", "--domain", spec)
        assert code == 2  # argparse reads a leading minus as an option
        assert "argument --domain: expected one argument" in capsys.readouterr().err
        code, text = run_cli(tmp_path, "spectrum", "-n", "6", "-m", "3",
                             "--domain=" + spec, "--precision", "30")
        assert code == 0
        echo = json.loads(text)["config"]["domain"]
        assert [[float(lo), float(hi)] for lo, hi in echo] == [[-2.5, -1.5], [0.5, 1.7]]

    def test_annulus_flag(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "-n", "5", "-m", "3",
                             "--annulus", "0.5", "1")
        assert code == 0
        doc = json.loads(text)
        assert len(doc["config"]["domain"]) == 2

    @pytest.mark.parametrize("argv, header, rows", [
        ("spectrum -n 7 -m 4 --interval 1.2",
         "index,eigenvalue,yield_quadrature,crossings", 5),  # N+2-M modes
        ("design -n 6 -m 3 --interval 1",
         "index,eigenvalue,yield_quadrature,crossings", 1),  # the top mode
        ("baseline -n 6 -m 3 --interval 1", "which,index,eigenvalue", 8),  # fk + N+1
        ("sweep -n 5 -m 3 --a-values 0.4,0.2 --precision 30",
         "key,index,eigenvalue,normalized", 8),  # two radii x (N+2-M)
    ], ids=["spectrum", "design", "baseline", "sweep"])
    def test_csv_layout(self, tmp_path, argv, header, rows):
        code, text = run_cli(tmp_path, *argv.split(), "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows
        if argv.startswith("baseline"):
            assert [l.split(",")[0] for l in lines[1:]] == ["fk"] + ["slepian"] * 7

    def test_csv_series_files(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "-n", "4", "-m", "2", "--interval", "1",
                     "--format", "csv", "--samples", "17", "--out", str(out)])
        assert code == 0
        series = tmp_path / "spec_series_1.csv"
        assert series.exists()
        assert len(series.read_text().strip().splitlines()) == 18

    def test_solver_failure_prints_json_diagnostics(self, tmp_path, capsys):
        # the true smallest eigenvalue is 2.15e-47, far below 15 digits
        code, _ = run_cli(tmp_path, "spectrum", "-n", "20", "-m", "3",
                          "--interval", "1")
        assert code == 3
        err = capsys.readouterr().err
        assert "raise --precision" in err
        lines = [l for l in err.splitlines() if l.startswith("diagnostics: ")]
        assert len(lines) == 1
        diagnostics = json.loads(lines[0][len("diagnostics: "):])
        assert len(diagnostics["roots"]) == 19  # N+2-M
        # at 100 digits the roots keep every digit, not the ambient 15
        code, _ = run_cli(tmp_path, "spectrum", "-n", "20", "-m", "3",
                          "--interval", "0.015625", "--precision", "100")
        assert code == 3
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("diagnostics: ")]
        roots = json.loads(lines[0][len("diagnostics: "):])["roots"]
        assert len(roots) == 19
        assert all(significant_digits(r) >= 100 for r in roots)

    def test_stalled_jacobi_prints_json_diagnostics(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(solver, "JACOBI_MAX_SWEEPS", 1)
        code, _ = run_cli(tmp_path, "spectrum", "-n", "6", "-m", "3",
                          "--interval", "1", "--method", "jacobi")
        assert code == 3
        err = capsys.readouterr().err
        assert "order 5" in err
        lines = [l for l in err.splitlines() if l.startswith("diagnostics: ")]
        assert len(lines) == 1
        diagnostics = json.loads(lines[0][len("diagnostics: "):])
        assert mpf(diagnostics["largest_off_diagonal"]) > 0

    def test_unconverged_ql_prints_json_diagnostics(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(solver, "QL_MAX_ITERATIONS", 0)
        code, _ = run_cli(tmp_path, "spectrum", "-n", "6", "-m", "3",
                          "--interval", "1")
        assert code == 3
        err = capsys.readouterr().err
        assert "order 5" in err
        lines = [l for l in err.splitlines() if l.startswith("diagnostics: ")]
        assert len(lines) == 1
        diagnostics = json.loads(lines[0][len("diagnostics: "):])
        assert diagnostics["unconverged_index"] == 0

    def test_unconverged_slepian_ql_exits_3(self, tmp_path, capsys, monkeypatch):
        # the bordered solve (order 5) converges, the Slepian one (order 7) stalls
        eigensystem, cap = solver._eigensystem, solver.QL_MAX_ITERATIONS

        def stall(matrix):
            monkeypatch.setattr(solver, "QL_MAX_ITERATIONS", 0 if len(matrix) == 7 else cap)
            return eigensystem(matrix)
        monkeypatch.setattr(solver, "_eigensystem", stall)
        code, text = run_cli(tmp_path, "baseline", "-n", "6", "-m", "3",
                             "--interval", "1")
        assert (code, text) == (3, "")
        err = capsys.readouterr().err
        assert "implicit QL on the symmetric matrix of order 7 did not converge" in err
        lines = [l for l in err.splitlines() if l.startswith("diagnostics: ")]
        assert len(lines) == 1
        assert "unconverged_index" in json.loads(lines[0][len("diagnostics: "):])


class TestArguments:
    def test_invalid_arguments_return_2(self, capsys):
        code = main(["spectrum", "-n", "5", "-m", "3", "--interval", "1",
                     "--method", "polynomial"])
        assert code == 2
        assert "invalid choice: 'polynomial'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, count", [
        ("design", "-5"), ("spectrum", "-3"), ("design", "1"), ("spectrum", "1")])
    def test_bad_sample_count_exits_2_before_solving(self, tmp_path, capsys,
                                                      monkeypatch, command, count):
        monkeypatch.setattr(cli, "design_spectrum",
                            lambda *a, **k: pytest.fail("solved before checking --samples"))
        code, text = run_cli(tmp_path, command, "-n", "5", "-m", "3",
                             "--interval", "1", "--samples", count)
        assert (code, text) == (2, "")
        assert "argument --samples: must be 0 or at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "baseline -n 6 -m 3 --interval 1 --samples 50",
        "sweep -n 5 -m 3 --a-values 0.4,0.2 --samples 9",
        "design -n 6 -m 3 --interval 1 --method both",
        "baseline -n 6 -m 3 --interval 1 --method both",
        "sweep -n 5 -m 3 --a-values 0.4,0.2 --interval 2",
        "sweep -n 5 -m 3 --annulus 0.2 0.5 --m-values 2,3",
        "sweep -n 5 -m 3 --domain=-0.5,0.5 --m-values 2,3",
    ], ids=["baseline-samples", "sweep-samples", "design-both", "baseline-both",
            "radius-sweep-interval", "sweep-annulus", "sweep-domain"])
    def test_flags_that_change_nothing_exit_2_at_parsing(self, tmp_path, capsys,
                                                         monkeypatch, argv):
        # each flag is one the subcommand's document would ignore
        for name in ("design_spectrum", "scaling_sweep", "monotonicity_table"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("solved"))
        out = tmp_path / "doc.out"
        assert main(argv.split() + ["--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: superosc")  # argparse's refusal

    @pytest.mark.parametrize("command", ["design", "spectrum"])
    def test_csv_samples_need_out(self, capsys, monkeypatch, command):
        # CSV writes sample series only to <out>_series_<key>.csv files
        argv = [command, "-n", "6", "-m", "3", "--interval", "1", "--format", "csv"]
        assert main(argv) == 0  # no --samples asks for a series
        assert capsys.readouterr().out.startswith("index,eigenvalue,")
        monkeypatch.setattr(cli, "design_spectrum",
                            lambda *a, **k: pytest.fail("solved before refusing"))
        code = main(argv + ["--samples", "9"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "error: --format csv writes --samples series only beside --out" in captured.err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_csv_refuses_method_both(self, tmp_path, capsys, monkeypatch, to_file):
        # the CSV table has no column for the jacobi eigenvalues
        monkeypatch.setattr(cli, "design_spectrum",
                            lambda *a, **k: pytest.fail("solved before refusing"))
        argv = ["spectrum", "-n", "6", "-m", "3", "--interval", "1",
                "--method", "both", "--format", "csv"]
        code = main(argv + (["--out", str(tmp_path / "spec.csv")] if to_file else []))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert list(tmp_path.iterdir()) == []
        assert "error: --format csv has no column for --method both" in captured.err

    def test_help_returns_0(self, capsys):
        assert main(["spectrum", "--help"]) == 0
        assert "--method" in capsys.readouterr().out


class TestBaseline:
    def test_fields(self, tmp_path):
        code, text = run_cli(tmp_path, "baseline", "-n", "6", "-m", "3",
                             "--interval", "1")
        assert code == 0
        doc = json.loads(text)
        fk = doc["fk_minimum_energy"]
        assert fk["energy"] == fk["mu_tilde_norm_sq"]
        assert doc["slepian"]["count"] == 7
        assert mpf(fk["yield_algebraic"]) <= mpf(doc["spectrum_max_eigenvalue"])
        top_slepian = mpf(doc["slepian"]["eigenvalues"][0])
        assert top_slepian >= mpf(doc["spectrum_max_eigenvalue"])

    def test_jacobi_method_is_honoured(self, tmp_path, monkeypatch):
        calls, solves = [], []
        design = cli.design_spectrum

        def counting_design(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return design(*args, **kwargs)

        for name in ("secular_spectrum", "jacobi_spectrum"):
            monkeypatch.setattr(design_module, name, lambda *args, _solve=getattr(
                design_module, name), _name=name: solves.append(_name) or _solve(*args))
        argv = ["baseline", "-n", "6", "-m", "3", "--interval", "1",
                "--precision", "30"]
        secular = json.loads(run_cli(tmp_path, *argv)[1])
        assert solves == ["secular_spectrum"]
        solves.clear()
        monkeypatch.setattr(cli, "design_spectrum", counting_design)
        code, text = run_cli(tmp_path, *argv, "--method", "jacobi")
        assert code == 0
        assert calls == ["jacobi"]
        assert solves == ["jacobi_spectrum"]
        jacobi = json.loads(text)
        assert jacobi["config"]["method"] == "jacobi"
        # the two solvers may round the top eigenvalue alike, so it may agree
        assert {k for k in secular if secular[k] != jacobi[k]} <= {
            "config", "spectrum_max_eigenvalue"}
        a, b = (mpf(doc["spectrum_max_eigenvalue"]) for doc in (secular, jacobi))
        assert abs(a - b) <= mpf("1e-40") * a


class TestSweep:
    def test_radius_sweep(self, tmp_path):
        code, text = run_cli(tmp_path, "sweep", "-n", "5", "-m", "3",
                             "--a-values", "0.4,0.2", "--precision", "30")
        assert code == 0
        doc = json.loads(text)
        assert doc["grid"]["kind"] == "interval_radius"
        assert len(doc["rows"]) == 8  # two radii x (N+2-M)
        assert set(doc["slopes"]) == {"1", "2", "3", "4"}

    def test_constraint_sweep(self, tmp_path):
        code, text = run_cli(tmp_path, "sweep", "-n", "6", "-m", "3",
                             "--interval", "0.5", "--m-values", "2,3")
        assert code == 0
        doc = json.loads(text)
        assert doc["grid"]["kind"] == "constraint_count"
        assert {r["key"] for r in doc["rows"]} == {2, 3}

    def test_refused_counts_listed_under_errors(self, tmp_path):
        code, text = run_cli(tmp_path, "sweep", "-n", "10", "-m", "1",
                             "--interval", "0.015625", "--m-values", "3,6")
        assert code == 0
        assert set(json.loads(text)["errors"]) == {"3", "6"}

    def test_no_method_option(self, tmp_path, capsys):
        # sweeps always solve with secular: no --method, and none echoed
        code, text = run_cli(tmp_path, "sweep", "-n", "5", "-m", "3",
                             "--a-values", "0.4,0.2", "--precision", "30",
                             "--method", "jacobi")
        assert (code, text) == (2, "")
        assert "unrecognized arguments: --method jacobi" in capsys.readouterr().err
        code, text = run_cli(tmp_path, "sweep", "-n", "5", "-m", "3",
                             "--a-values", "0.4,0.2", "--precision", "30")
        assert code == 0
        assert "method" not in json.loads(text)["config"]

    def test_needs_exactly_one_grid(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "sweep", "-n", "5", "-m", "3")
        assert code == 2
        for grid in (["--interval", "1"], ["--a-values", "0.2,0.4", "--m-values", "2,3"]):
            code, text = run_cli(tmp_path, "sweep", "-n", "5", "-m", "3", *grid)
            assert (code, text) == (2, "")
            assert ("error: sweep takes --a-values alone, or --interval with --m-values"
                    in capsys.readouterr().err)

    def test_repeated_radius_exits_2(self, tmp_path, capsys):
        # a repeated radius would leave the slope fit no spread to divide by
        code, text = run_cli(tmp_path, "sweep", "-n", "4", "-m", "2",
                             "--a-values", "0.5,0.5")
        assert code == 2
        assert text == ""
        assert "error: interval radii must be pairwise distinct" in capsys.readouterr().err

    def test_repeated_constraint_count_exits_2(self, tmp_path, capsys):
        # a repeated count would print its rows twice
        code, text = run_cli(tmp_path, "sweep", "-n", "4", "-m", "2",
                             "--interval", "0.5", "--m-values", "2,2")
        assert code == 2
        assert text == ""
        assert "error: constraint counts must be pairwise distinct" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_documents(self, tmp_path):
        args = ["spectrum", "-n", "5", "-m", "3", "--interval", "1",
                "--seed", "42", "--samples", "9"]
        first = run_cli(tmp_path, *args)
        second = run_cli(tmp_path, *args)
        assert first == second
        assert first[0] == 0

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        argv = ["design", "-n", "4", "-m", "2", "--interval", "0.8"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        code, text = run_cli(tmp_path, *argv)
        assert code == 0
        assert stdout == text

    def test_round_trip_is_lossless(self, tmp_path):
        code, text = run_cli(tmp_path, "design", "-n", "4", "-m", "2",
                             "--interval", "0.8")
        assert code == 0
        doc = json.loads(text)
        assert render_json(doc) == text

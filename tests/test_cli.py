"""Tests for the command-line surface."""

import json

import pytest
from mpmath import mpf

from superosc import Context, cli, design_spectrum, solver, symmetrize_domain, zero_crossings
from superosc.cli import main, parse_document, render_json


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
        doc = parse_document(text)
        assert doc["config"]["band_limit"] == 6
        assert doc["mode"]["index"] == 5  # N+2-M modes, top is last
        assert len(doc["mode"]["coefficients"]) == 7
        assert len(doc["series"]["full_period"]["t"]) == 33
        lam = mpf(doc["eigenvalue"])
        assert 0 < lam < 1

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
        assert parse_document(text)["mode"]["index"] == 6

    def test_saturated_constraints_single_mode(self, tmp_path):
        code, text = run_cli(tmp_path, "design", "-n", "2", "-m", "3",
                             "--interval", "1")
        assert code == 0
        doc = parse_document(text)
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
        doc = parse_document(text)
        series = doc["series"]["full_period"]
        inside, outside = [], []
        for t, log_mag in zip(series["t"], series["log10_abs_f"]):
            if log_mag == "-inf":
                continue
            (inside if abs(mpf(t)) < 0.8 else outside).append(mpf(log_mag))
        assert max(inside) < max(outside) - 1
        assert sum(inside) / len(inside) < sum(outside) / len(outside) - 1


class TestSpectrum:
    def test_mode_count_and_order(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "-n", "7", "-m", "4",
                             "--interval", "1.2")
        assert code == 0
        doc = parse_document(text)
        assert doc["count"] == 5
        values = [mpf(s) for s in doc["eigenvalues"]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_both_methods_reports_deltas(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "-n", "6", "-m", "3",
                             "--interval", "1", "--method", "both",
                             "--precision", "40")
        assert code == 0
        doc = parse_document(text)
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
        assert len(parse_document(text)["jacobi_eigenvalues"]) == 5

    def test_crossings_on_the_library_grid(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "-n", "5", "-m", "3",
                             "--annulus", "0.5", "1")
        assert code == 0
        result = design_spectrum(5, 3, symmetrize_domain("0.5", "1"), Context(15))
        expected = [zero_crossings(sig, result.domain) for sig in result.spectrum.signals]
        assert [mode["crossings"] for mode in parse_document(text)["modes"]] == expected

    def test_negative_domain_needs_equals_form(self, tmp_path, capsys):
        spec = "-2.5,-1.5;0.5,1.7"
        code, _ = run_cli(tmp_path, "spectrum", "-n", "6", "-m", "3", "--domain", spec)
        assert code == 2  # argparse reads a leading minus as an option
        assert "argument --domain: expected one argument" in capsys.readouterr().err
        code, text = run_cli(tmp_path, "spectrum", "-n", "6", "-m", "3",
                             "--domain=" + spec, "--precision", "30")
        assert code == 0
        echo = parse_document(text)["config"]["domain"]
        assert [[float(lo), float(hi)] for lo, hi in echo] == [[-2.5, -1.5], [0.5, 1.7]]

    def test_annulus_flag(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "-n", "5", "-m", "3",
                             "--annulus", "0.5", "1")
        assert code == 0
        doc = parse_document(text)
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
        def stall(*args):
            raise RuntimeError("tridiag_eigen: no convergence to an "
                               "eigenvalue after 230 iterations")
        monkeypatch.setattr(solver, "tridiag_eigen", stall)
        code, _ = run_cli(tmp_path, "spectrum", "-n", "6", "-m", "3",
                          "--interval", "1")
        assert code == 3
        err = capsys.readouterr().err
        assert "order 5" in err
        lines = [l for l in err.splitlines() if l.startswith("diagnostics: ")]
        assert len(lines) == 1
        diagnostics = json.loads(lines[0][len("diagnostics: "):])
        assert diagnostics["unconverged_index"] == 0


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

    def test_help_returns_0(self, capsys):
        assert main(["spectrum", "--help"]) == 0
        assert "--method" in capsys.readouterr().out


class TestBaseline:
    def test_fields(self, tmp_path):
        code, text = run_cli(tmp_path, "baseline", "-n", "6", "-m", "3",
                             "--interval", "1")
        assert code == 0
        doc = parse_document(text)
        fk = doc["fk_minimum_energy"]
        assert fk["energy"] == fk["mu_tilde_norm_sq"]
        assert doc["slepian"]["count"] == 7
        assert mpf(fk["yield_algebraic"]) <= mpf(doc["spectrum_max_eigenvalue"])
        top_slepian = mpf(doc["slepian"]["eigenvalues"][0])
        assert top_slepian >= mpf(doc["spectrum_max_eigenvalue"])

    def test_jacobi_method_is_honoured(self, tmp_path, monkeypatch):
        calls = []
        design = cli.design_spectrum

        def counting_design(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return design(*args, **kwargs)

        argv = ["baseline", "-n", "6", "-m", "3", "--interval", "1",
                "--precision", "30"]
        secular = parse_document(run_cli(tmp_path, *argv)[1])
        monkeypatch.setattr(cli, "design_spectrum", counting_design)
        code, text = run_cli(tmp_path, *argv, "--method", "jacobi")
        assert code == 0
        assert calls == ["jacobi"]
        jacobi = parse_document(text)
        assert jacobi["config"]["method"] == "jacobi"
        assert [k for k in secular if secular[k] != jacobi[k]] == [
            "config", "spectrum_max_eigenvalue"]
        a, b = (mpf(doc["spectrum_max_eigenvalue"]) for doc in (secular, jacobi))
        assert abs(a - b) <= mpf("1e-40") * a


class TestSweep:
    def test_radius_sweep(self, tmp_path):
        code, text = run_cli(tmp_path, "sweep", "-n", "5", "-m", "3",
                             "--a-values", "0.4,0.2", "--precision", "30")
        assert code == 0
        doc = parse_document(text)
        assert doc["grid"]["kind"] == "interval_radius"
        assert len(doc["rows"]) == 8  # two radii x (N+2-M)
        assert set(doc["slopes"]) == {"1", "2", "3", "4"}

    def test_constraint_sweep(self, tmp_path):
        code, text = run_cli(tmp_path, "sweep", "-n", "6", "-m", "3",
                             "--interval", "0.5", "--m-values", "2,3")
        assert code == 0
        doc = parse_document(text)
        assert doc["grid"]["kind"] == "constraint_count"
        assert {r["key"] for r in doc["rows"]} == {2, 3}

    def test_refused_counts_listed_under_errors(self, tmp_path):
        code, text = run_cli(tmp_path, "sweep", "-n", "10", "-m", "1",
                             "--interval", "0.015625", "--m-values", "3,6")
        assert code == 0
        assert set(parse_document(text)["errors"]) == {"3", "6"}

    def test_needs_exactly_one_grid(self, tmp_path):
        code, _ = run_cli(tmp_path, "sweep", "-n", "5", "-m", "3")
        assert code == 2

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
        doc = parse_document(text)
        assert render_json(doc) == text

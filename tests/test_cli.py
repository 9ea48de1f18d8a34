"""End-to-end CLI tests: commands, formats, exit codes, determinism."""

import csv
import io
import json
from dataclasses import astuple

import numpy as np
import pytest

from taildep import (
    MarshallOlkin,
    NumericError,
    default_u_grid,
    reference_table,
    solve_path,
)
from taildep.cli import main
from taildep.serialize import dumps_json

MO_TEXT = "family = marshall_olkin\na = 0.3529\nb = 0.75\n"
MO_FLAGS = ("--family", "marshall_olkin", "--a", "0.3529", "--b", "0.75")
MIX_TEXT = "family = mixture_mo\na = 0.3529\nb = 0.75\n"


@pytest.fixture
def mo_config(tmp_path):
    path = tmp_path / "mo.txt"
    path.write_text(MO_TEXT)
    return str(path)


@pytest.fixture
def mix_config(tmp_path):
    path = tmp_path / "mix.txt"
    path.write_text(MIX_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_json_output(self, capsys, mo_config):
        code, out, _ = run(capsys, "eval", "--config", mo_config,
                           "--u", "0.3", "--v", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["copula"]["family"] == "marshall_olkin"
        assert payload["value"] == pytest.approx(
            min(0.3 ** (1 - 0.3529) * 0.5, 0.3 * 0.5 ** 0.25))

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "independence",
                           "--u", "0.3", "--v", "0.5", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header == "u,v,value"
        assert float(row.split(",")[2]) == pytest.approx(0.15)

    def test_flags_override_config(self, capsys, mo_config):
        code, out, _ = run(capsys, "eval", "--config", mo_config, "--b", "0.5",
                           "--u", "0.2", "--v", "0.2")
        assert code == 0
        assert json.loads(out)["copula"]["b"] == 0.5

    def test_survival_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "fgm", "--alpha", "0.7",
                           "--survival", "--u", "0.3", "--v", "0.4")
        assert code == 0
        payload = json.loads(out)
        assert payload["copula"]["family"] == "survival"
        # FGM is radially symmetric, so the value equals the base copula's
        assert payload["value"] == pytest.approx(
            0.12 * (1 + 0.7 * 0.7 * 0.6), rel=1e-12)


class TestExitCodes:
    def test_config_parse_error_is_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("familia ~ zzz\n")
        code, _, err = run(capsys, "eval", "--config", str(bad),
                           "--u", "0.5", "--v", "0.5")
        assert code == 1 and "error:" in err

    def test_missing_copula_is_1(self, capsys):
        code, _, _ = run(capsys, "eval", "--u", "0.5", "--v", "0.5")
        assert code == 1

    def test_missing_config_file_is_1(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code, out, err = run(capsys, "eval", "--config", str(missing),
                             "--u", "0.5", "--v", "0.5")
        assert code == 1 and out == "" and "missing.txt" in err

    def test_out_into_a_missing_directory_is_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "path", "--family", "independence",
                             "--out", str(tmp_path / "no" / "path.csv"))
        assert code == 1 and out == "" and err.startswith("error: ")
        assert not (tmp_path / "no").exists()

    def test_family_without_a_sampler_is_2(self, capsys):
        code, out, err = run(capsys, "risk", "--family", "clayton",
                             "--theta", "2", "--n", "10000")
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_parameter_error_is_2(self, capsys):
        code, _, err = run(capsys, "eval", "--family", "fgm", "--alpha", "3",
                           "--u", "0.5", "--v", "0.5")
        assert code == 2 and "alpha" in err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_axioms_tol_is_2(self, capsys, tol):
        code, out, err = run(capsys, "axioms", "--family", "independence",
                             f"--tol={tol}")
        assert code == 2 and out == "" and "tol must lie in" in err

    def test_numeric_failure_is_3(self, capsys):
        code, _, err = run(capsys, "indices", "--family", "fgm",
                           "--alpha", "-0.5", "--kind", "maximal")
        assert code == 3 and "admissible" in err

    def test_vanished_level_is_3(self, capsys):
        # the first level all of whose rectangles are below the survival
        # sum's cancellation floor
        code, out, err = run(capsys, "path", "--family", "clayton",
                             "--theta", "2", "--survival",
                             "--umin-exp", "18")
        assert code == 3 and out == "" and "u=1e-08" in err

    @pytest.mark.parametrize("argv", [
        ["path"], ["path", "--format", "json"],
        ["contour", "--resolution", "3", "--out", "c.csv"]])
    def test_underflowed_path_is_3(self, capsys, tmp_path, monkeypatch, argv):
        # nothing is written either: neither contour's lattice nor its path file
        monkeypatch.chdir(tmp_path)
        mo = ["--family", "marshall_olkin", "--a", "0.3529", "--b", "0.75"]
        code, out, err = run(capsys, *argv, *mo,
                             "--umin-exp", "300", "--umax-exp", "299")
        assert code == 3 and out == "" and "u=1e-299 " in err
        assert not list(tmp_path.iterdir())
        code, _, err = run(capsys, *argv, *mo,
                           "--umin-exp", "300", "--umax-exp", "300")
        assert code == 3 and "u=1e-300 " in err

    @pytest.mark.parametrize("command", ["axioms", "indices", "risk"])
    def test_format_the_command_cannot_write_is_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "independence", "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--scan-n", "--xtol", "--tie-tol"])
    def test_removed_solver_flags_are_2(self, capsys, flag):
        # the solver's tolerances are fixed; the CLI offers no flag for them
        with pytest.raises(SystemExit) as exc:
            main(["path", "--family", "independence", flag, "1e-10"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_success_is_0(self, capsys):
        code, _, _ = run(capsys, "axioms", "--family", "independence",
                         "--grid-n", "20")
        assert code == 0


class TestPath:
    def test_csv_matches_closed_form_exponent(self, capsys, mo_config):
        code, out, _ = run(capsys, "path", "--config", mo_config,
                           "--umin-exp", "4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        expo = 2 * 0.75 / (0.3529 + 0.75)
        for row in rows:
            u = float(row["u"])
            assert float(row["x_star_1"]) == pytest.approx(u ** expo, abs=1e-9)

    def test_json_format(self, capsys, mo_config):
        code, out, _ = run(capsys, "path", "--config", mo_config,
                           "--umin-exp", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 3
        assert set(payload) == {"u_grid", "points"}

    def test_out_file(self, capsys, tmp_path, mo_config):
        target = tmp_path / "path.csv"
        code, out, _ = run(capsys, "path", "--config", mo_config,
                           "--umin-exp", "3", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("u,x_star_1")


class TestIndices:
    def test_both_kinds(self, capsys, mo_config):
        code, out, _ = run(capsys, "indices", "--config", mo_config)
        assert code == 0
        payload = json.loads(out)
        assert payload["diagonal"]["kappa"] == pytest.approx(1.6471, abs=1e-10)
        assert payload["maximal"]["kappa"] == pytest.approx(1.5200, abs=5e-5)

    def test_diagonal_only_for_negative_fgm(self, capsys):
        code, out, _ = run(capsys, "indices", "--family", "fgm",
                           "--alpha", "-0.5", "--kind", "diagonal")
        assert code == 0
        assert "maximal" not in json.loads(out)


class TestCompare:
    def test_verdict_payload(self, capsys, mo_config, mix_config):
        code, out, _ = run(capsys, "compare", "--config", mo_config,
                           "--config", mix_config)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "more_ltmd"
        assert payload["lambda_pair"] == pytest.approx(2.0, rel=0.02)

    def test_requires_two_configs(self, capsys, mo_config):
        code, _, err = run(capsys, "compare", "--config", mo_config)
        assert code == 2 and "two" in err


class TestRisk:
    def test_survival_coupled_run(self, capsys, mo_config):
        code, out, _ = run(capsys, "risk", "--config", mo_config, "--survival",
                           "--q", "0.99", "--n", "100000", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["var_q"] <= payload["cte_q"] <= payload["mtvar_q"]
        assert payload["n_exceed"] == 1000
        assert payload["marginal"] == {"mu": 0, "sigma": 1, "alpha": 4}

    @pytest.mark.parametrize("argv", [
        ("risk", "--family", "independence", "--n", "10000", "--seed", "-1"),
        ("table1", "--n", "10000", "--seed", "-1"),
    ])
    def test_negative_seed_is_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: seed must be an integer")

    def test_q_below_one_over_n_is_2(self, capsys):
        code, out, err = run(capsys, "risk", "--family", "independence",
                             "--q", "1e-14", "--n", "10000")
        assert code == 2 and out == ""
        assert err.startswith("error: q=1e-14 is below 1/n")

    def test_overflowed_sums_are_3(self, capsys):
        # the sums overflow to inf; no invalid JSON (inf, nan) is printed
        code, out, err = run(capsys, "risk", "--family", "independence",
                             "--tail-index", "0.01", "--n", "10000")
        assert code == 3 and out == "" and "overflowed to inf" in err

    def test_overflowed_moments_are_3(self, capsys):
        # the sums are finite, their conditional variance is not
        code, out, err = run(capsys, "risk", "--family", "independence",
                             "--sigma", "1e153", "--n", "10000")
        assert code == 3 and out == "" and "mtvar_q overflowed to inf" in err

    def test_insufficient_tail_is_3(self, capsys):
        code, _, _ = run(capsys, "risk", "--family", "independence",
                         "--q", "0.9999", "--n", "10000")
        assert code == 3


class TestTable:
    def test_csv_and_determinism(self, capsys):
        argv = ("table1", "--seed", "11", "--n", "50000")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical
        rows = list(csv.DictReader(io.StringIO(out1)))
        assert len(rows) == 6
        assert float(rows[0]["tau"]) == pytest.approx(0.3158, abs=5e-5)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table1", "--seed", "1", "--n", "50000",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 6
        assert payload["rows"][0]["kappa_L_star"] == pytest.approx(1.5200,
                                                                   abs=5e-5)


class TestContour:
    def test_emits_lattice_and_path_files(self, capsys, tmp_path, mo_config):
        out_file = tmp_path / "cont.csv"
        code, _, _ = run(capsys, "contour", "--config", mo_config,
                         "--resolution", "21", "--umin-exp", "3",
                         "--out", str(out_file))
        assert code == 0
        lattice = list(csv.DictReader(io.StringIO(out_file.read_text())))
        assert len(lattice) == 21 * 21
        corner = lattice[-1]
        assert float(corner["u"]) == 1.0 and float(corner["C"]) == 1.0
        path_rows = list(csv.DictReader(
            io.StringIO((tmp_path / "cont_path.csv").read_text())))
        assert len(path_rows) == 3
        # overlay points sit on the area-u^2 hyperbola through the maximizer
        u = float(path_rows[0]["u"])
        x = float(path_rows[0]["x_star_1"])
        assert u * u / x <= 1.0

    def test_resolution_validation(self, capsys, tmp_path, mo_config):
        code, _, _ = run(capsys, "contour", "--config", mo_config,
                         "--resolution", "1",
                         "--out", str(tmp_path / "c.csv"))
        assert code == 2


class TestFloatPrecision:
    def test_seventeen_digit_round_trip(self, capsys, mo_config):
        code, out, _ = run(capsys, "path", "--config", mo_config,
                           "--umin-exp", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        # parsing the emitted text recovers the exact doubles
        sol_u = [float(r["u"]) for r in rows]
        assert sol_u == [0.1, 0.01, 0.001]
        pi = float(rows[0]["pi_star"])
        assert repr(pi) == rows[0]["pi_star"]

    @pytest.mark.parametrize("argv", [
        ["eval", *MO_FLAGS, "--u", "0.1", "--v", "0.2"],
        ["eval", *MO_FLAGS, "--survival", "--u", "0.1", "--v", "0.2"],
        ["axioms", *MO_FLAGS, "--grid-n", "20"],
        ["path", *MO_FLAGS, "--umin-exp", "8", "--format", "json"],
        ["indices", "--family", "clayton", "--theta", "2"],
        ["indices", "--family", "generalized_clayton", "--gamma0", "0.5",
         "--gamma1", "0.3", "--survival"],
        ["compare", "--config", "MO", "--config", "MIX"],
        ["risk", *MO_FLAGS, "--survival", "--n", "20000", "--seed", "5"],
        ["table1", "--n", "20000", "--format", "json"],
    ], ids=["eval", "eval-survival", "axioms", "path", "indices-clayton",
            "indices-gc-survival", "compare", "risk-survival", "table1"])
    def test_json_is_strict_with_shortest_floats(self, capsys, mo_config,
                                                 mix_config, argv):
        argv = [{"MO": mo_config, "MIX": mix_config}.get(a, a) for a in argv]
        code, out, _ = run(capsys, *argv)
        assert code == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        def shortest(text):
            assert repr(float(text)) == text
            return float(text)

        json.loads(out, parse_constant=reject, parse_float=shortest)

    def test_csv_floats_are_the_library_doubles(self, capsys, tmp_path):
        mo = MarshallOlkin(0.3529, 0.75)
        table = reference_table(seed=3, n=20_000)
        solution = solve_path(mo, default_u_grid(8))
        path_rows = [[p.u, *p.maximizers, p.pi_star] for p in solution.points]
        g = np.linspace(0.0, 1.0, 11)
        uu, vv = np.meshgrid(g, g, indexing="ij")
        lattice_rows = np.column_stack(
            [uu.ravel(), vv.ravel(), np.ravel(mo.cdf(uu, vv))])
        lattice = tmp_path / "c.csv"
        outputs = {}
        for argv in [
                ("eval", *MO_FLAGS, "--u", "0.1", "--v", "0.2",
                 "--format", "csv"),
                ("path", *MO_FLAGS, "--umin-exp", "8"),
                ("table1", "--seed", "3", "--n", "20000"),
                ("contour", *MO_FLAGS, "--umin-exp", "8", "--resolution",
                 "11", "--out", str(lattice))]:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outputs[argv[0]] = out
        expected = [
            (outputs["eval"], [[0.1, 0.2, mo.cdf(0.1, 0.2)]]),
            (outputs["path"], path_rows),
            (outputs["table1"], [astuple(r) for r in table.rows]),
            (lattice.read_text(), lattice_rows),
            ((tmp_path / "c_path.csv").read_text(), path_rows),
        ]
        for text, rows in expected:
            printed = [[c for c in line.split(",") if c not in ("true", "false")]
                       for line in text.splitlines()[1:]]
            assert len(printed) == len(rows)
            for cells, values in zip(printed, rows):
                assert cells == [repr(float(c)) for c in cells]
                assert [float(c).hex() for c in cells] == [
                    float(x).hex() for x in values]

    def test_non_finite_json_is_a_numeric_error(self):
        for x in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(NumericError):
                dumps_json({"x": x})

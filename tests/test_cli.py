"""End-to-end tests of the command-line interface: exit codes,
report formats, and deterministic output."""

import csv
import json
import warnings

import pytest

from su2chan import cli, quadrature
from su2chan.cli import (
    EXIT_ASSERTION_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    main,
)


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


class TestVerify:

    def test_small_sweep_passes(self, tmp_path):
        code, out = run(tmp_path, "verify", "--mu", "1", "--nu-max", "3")
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["all_ok"]
        names = {r["identity"] for r in report["results"]}
        assert "gauss_summation" in names
        assert "trace_preservation" in names

    def test_fault_injection_fails_with_witness(self, tmp_path):
        code, out = run(tmp_path, "verify", "--mu", "1", "--nu-max", "2",
                        "--corrupt-c2")
        assert code == EXIT_ASSERTION_FAILED
        report = json.loads(out.read_text())
        bad = [r for r in report["results"] if not r["ok"]]
        assert bad and bad[0]["witness"] is not None

    def test_bad_range_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "verify", "--mu", "3", "--nu-max", "1")
        assert code == EXIT_CONFIG_ERROR

    def test_deterministic_output(self, tmp_path):
        _, out1 = run(tmp_path, "verify", "--mu", "1", "--nu-max", "2",
                      "--seed", "5")
        text1 = out1.read_text()
        _, out2 = run(tmp_path, "verify", "--mu", "1", "--nu-max", "2",
                      "--seed", "5")
        assert out2.read_text() == text1


@pytest.mark.parametrize("argv", [
    ["verify", "--mu", "1", "--nu-max", "2", "--tol", "nan"],
    ["verify", "--mu", "1", "--nu-max", "2", "--tol", "inf"],
    ["verify", "--mu", "1", "--nu-max", "2", "--tol", "-1"],
    ["verify", "--mu", "1", "--nu-max", "2", "--tol", "-1e-3"],
    ["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--tol", "-inf"],
    ["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--tol", "-nan"],
    ["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--tol", "nan"],
    ["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--tol=-inf"],
    ["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--phi", "nan,1"],
    ["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--phi", "0,inf"],
])
def test_nonfinite_or_negative_option_is_config_error(tmp_path, capsys, argv):
    # a NaN tolerance would silently switch the Choi positivity check off
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(tmp_path / "x.txt")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--tol", "abc"],
    ["converge", "--mu", "1", "--k", "0", "--nu", "8,x"],
    ["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--phi", "a,1"],
    ["verify", "--nu-max", "x"],
    ["verify", "--mu", "1.5"],
    ["spectrum"],
    ["verify", "--no-such-option"],
])
def test_unparsable_argument_is_one_error_line(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "x.txt")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "usage:" not in err


@pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"],
                                  ["converge", "--help"]])
def test_help_still_prints_usage(capsys, argv):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage:")


class TestSpectrum:

    def test_table_contents(self, tmp_path):
        code, out = run(tmp_path, "spectrum", "--mu", "3")
        assert code == EXIT_OK
        rows = json.loads(out.read_text())
        assert len(rows) == 16
        assert all(r["forms_agree"] for r in rows)
        top = [r for r in rows if r["k"] == 0 and r["m"] == 0][0]
        assert top["berezin_exact"] == "1/4"
        assert top["e_3f2_exact"] == "1/4"

    def test_negative_mu_rejected(self, tmp_path):
        code, _ = run(tmp_path, "spectrum", "--mu", "-1")
        assert code == EXIT_CONFIG_ERROR


class TestConverge:

    def test_csv_and_summary(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(["converge", "--mu", "2", "--k", "1",
                     "--nu", "8,16,32", "--n", "2,3",
                     "--seed", "11", "--out", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"mu", "nu", "k", "n_or_phi",
                                "lhs", "rhs", "gap"}
        assert len(rows) == 6
        summary = json.loads((tmp_path / "conv.csv.summary.json").read_text())
        assert summary["all_converged"]
        assert len(summary["records"]) == 2

    def test_entropy_phi_alias(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(["converge", "--mu", "1", "--k", "0",
                     "--nu", "8,16,32,64", "--n", "2",
                     "--phi", "entropy8", "--seed", "11", "--out", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            labels = {r["n_or_phi"] for r in csv.DictReader(fh)}
        assert "phi=deg8" in labels

    def test_gap_csv_values_are_consistent(self, tmp_path):
        out = tmp_path / "conv.csv"
        main(["converge", "--mu", "2", "--k", "0", "--nu", "8,16",
              "--n", "2", "--seed", "3", "--out", str(out)])
        with open(out) as fh:
            for row in csv.DictReader(fh):
                assert abs(abs(float(row["lhs"]) - float(row["rhs"]))
                           - float(row["gap"])) < 1e-15

    def test_negative_phi_coefficient_is_a_value(self, tmp_path):
        # '-0.5,1' follows --phi as its value, as in the '=' form
        argv = ["converge", "--mu", "1", "--k", "0", "--nu", "8,16",
                "--n", "1", "--seed", "13"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--phi", "-0.5,1", "--out", str(a)]) == EXIT_OK
        assert main(argv + ["--phi=-0.5,1", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        with open(a) as fh:
            assert "phi=deg1" in {r["n_or_phi"] for r in csv.DictReader(fh)}

    def test_k_out_of_range_is_config_error(self, tmp_path):
        code = main(["converge", "--mu", "1", "--k", "2", "--out",
                     str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR

    def test_identity_phi_matches_first_moment(self, tmp_path):
        # phi(x) = x runs through the functional path but must produce
        # the same lhs values as the n = 1 moment rows
        out = tmp_path / "conv.csv"
        code = main(["converge", "--mu", "1", "--k", "1", "--nu", "8,16",
                     "--n", "1", "--phi", "0,1", "--seed", "13",
                     "--out", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        by_label = {}
        for r in rows:
            by_label.setdefault(r["n_or_phi"], []).append(float(r["lhs"]))
        assert by_label["n=1"] == pytest.approx(by_label["phi=deg1"],
                                                abs=1e-12)

    def test_tol_floor_override(self, tmp_path):
        # n = 1 gaps sit at float noise; a generous floor tolerance
        # counts them as converged regardless of their ordering
        out = tmp_path / "conv.csv"
        argv = ["converge", "--mu", "1", "--k", "1", "--nu", "8,16,32",
                "--n", "1", "--seed", "13", "--out", str(out)]
        assert main(argv + ["--tol", "1e-6"]) == EXIT_OK
        summary = json.loads((tmp_path / "conv.csv.summary.json").read_text())
        # at the floor the fitted decay order is meaningless, so absent
        assert summary["records"][0]["fitted_slope"] is None

    @pytest.mark.parametrize("nus", ["20", "40,20", "20,20,40", ""])
    def test_bad_nu_list_is_config_error(self, tmp_path, capsys, nus):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["converge", "--mu", "2", "--k", "1", "--nu", nus,
                         "--n", "2", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_nothing_to_check_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["converge", "--mu", "2", "--k", "1", "--nu", "10,20",
                     "--n", "", "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_phi_alone_runs(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["converge", "--mu", "2", "--k", "1", "--nu", "10,20",
                     "--n", "", "--phi", "entropy8", "--out", str(out)])
        assert code in (EXIT_OK, EXIT_ASSERTION_FAILED)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [r[3] for r in rows[1:]] == ["phi=deg8", "phi=deg8"]

    def test_moment_order_below_one_is_config_error(self, tmp_path):
        code = main(["converge", "--mu", "1", "--k", "0", "--nu", "8,16",
                     "--n", "0,2", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR

    def test_each_spectrum_built_once(self, tmp_path, monkeypatch):
        # every moment order and phi share one spectrum per level
        real = quadrature.channel_output_spectrum
        calls = []

        def counting(spec, f):
            calls.append(spec.nu)
            return real(spec, f)

        for mod in (quadrature, cli):
            if hasattr(mod, "channel_output_spectrum"):
                monkeypatch.setattr(mod, "channel_output_spectrum", counting)
        code = main(["converge", "--mu", "2", "--k", "1", "--nu", "10,20",
                     "--n", "1,2,3", "--phi", "entropy8",
                     "--out", str(tmp_path / "x.csv")])
        assert code in (EXIT_OK, EXIT_ASSERTION_FAILED)
        assert sorted(calls) == [10, 20]

    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["converge", "--mu", "1", "--k", "1", "--nu", "8,16,32",
                "--n", "2", "--seed", "21"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestChannelDump:

    def test_structure(self, tmp_path):
        code, out = run(tmp_path, "channel-dump", "--mu", "2",
                        "--nu", "4", "--k", "1")
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["trace_preserving"]
        assert report["choi_min_eigenvalue"] > -1e-10
        assert report["identity_image"]["level"] == 4

    def test_invalid_spec_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "channel-dump", "--mu", "4",
                      "--nu", "2", "--k", "0")
        assert code == EXIT_CONFIG_ERROR

"""End-to-end tests of the command-line interface: exit codes,
report formats, and deterministic output."""

import csv
import functools
import importlib.util
import json
import math
import os
import random
import re
import signal
import stat
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import su2chan
from su2chan import cli, quadrature
from su2chan.cli import (
    EXIT_ASSERTION_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    main,
)
from su2chan.intertwine import ChannelSpec, apply_channel
from su2chan.quadrature import FloatRangeError
from su2chan.repspace import KernelOperator, _trace_integers
from su2chan.symbolcalc import symbol
from test_exactnum import CQ, fraction_3f2, rising_pochhammer

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject(capsys):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = pyproject.read_text().split("[project]", 1)[1]
    version = re.search(r'^version = "([^"]+)"', project, re.M).group(1)
    assert main(["--version"]) == EXIT_OK
    out = capsys.readouterr()
    assert out.out == version + "\n"
    assert out.err == ""


IDENTITIES = ["gauss_summation", "schur_orthogonality_completeness",
              "trace_preservation", "choi_positive", "berezin_sum_identity",
              "kernel_integral_bound", "binomial_sum_inequality"]


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


@pytest.fixture
def one_worker(monkeypatch):
    """Every fork map runs in this process alone, so that a patched
    function records its calls where the test reads them."""
    monkeypatch.setattr(cli, "_worker_count", lambda: 1)


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
        # the whole report, pinned: the witness is the last of the specs
        # whose traces the 3/2 fault breaks
        code, out = run(tmp_path, "verify", "--mu", "1", "--nu-max", "2",
                        "--corrupt-c2")
        assert code == EXIT_ASSERTION_FAILED
        trace_wit = {"mu": 1, "nu": 2, "k": 1, "trace_in": "5/2-7/2j",
                     "trace_out": "15/4-21/4j"}
        assert json.loads(out.read_text()) == {
            "config": {"mu_max": 1, "nu_max": 2, "seed": cli.DEFAULT_SEED,
                       "n_random": 5, "psd_tol": 1e-10},
            "results": [{"identity": name, "ok": name != "trace_preservation",
                         "witness": trace_wit
                         if name == "trace_preservation" else None}
                        for name in IDENTITIES],
            "all_ok": False}

    # Tr A of a level-0 operator is its one coefficient; the witness prints
    # both parts in lowest terms, the sign of the imaginary part between
    @pytest.mark.parametrize("den,re,im,text", [
        (2, -1, 6, "-1/2+3j"), (2, 5, -7, "5/2-7/2j"), (3, -12, -3, "-4-1j"),
        (5, 0, 0, "0+0j")])
    def test_trace_witness_format(self, den, re, im, text):
        a = KernelOperator(0, den, [[re]], [[im]])
        assert cli._complex_str(*_trace_integers(a)) == text
        assert str(CQ(Fraction(re, den), Fraction(im, den))) == text

    # a fault on cli at two cases of one check, edge levels among them:
    # (patched name, faulty argument tuples, fault, identity, the witness
    # of the later case)
    @pytest.mark.parametrize("name,cases,fault,identity,witness", [
        ("pk_orthogonality_check", [(0, 0), (1, 1)],
         lambda real, mu, nu: dict(real(mu, nu), ok=False,
                                   witness={"mu": mu, "nu": nu}),
         "schur_orthogonality_completeness", {"mu": 1, "nu": 1}),
        ("choi_min_eigenvalue", [(ChannelSpec(0, 1, 0),),
                                 (ChannelSpec(1, 1, 1),)],
         lambda real, spec: Fraction(-1), "choi_positive",
         {"mu": 1, "nu": 1, "k": 1, "min_eigenvalue": "-1"}),
        ("i_n_integral", [(1, 2), (2, 0)], lambda real, n, nu: Fraction(17),
         "kernel_integral_bound", {"n": 2, "nu": 0}),
        ("fund_ineq_check", [(0, 0), (2, 1)],
         lambda real, kappa, j: dict(real(kappa, j), bound_holds=False),
         "binomial_sum_inequality", {"kappa": 2, "j": 1, "sum": "5/6"}),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_fault_gives_the_later_witness(self, tmp_path, monkeypatch,
                                           one_worker, name, cases, fault,
                                           identity, witness):
        real, hits = getattr(cli, name), []

        def faulty(*args):
            if args in cases:
                hits.append(args)
                return fault(real, *args)
            return real(*args)

        monkeypatch.setattr(cli, name, faulty)
        code, out = run(tmp_path, "verify", "--mu", "1", "--nu-max", "2")
        assert code == EXIT_ASSERTION_FAILED
        assert hits == cases
        failed = [r for r in json.loads(out.read_text())["results"]
                  if not r["ok"]]
        assert failed == [{"identity": identity, "ok": False,
                           "witness": witness}]

    def test_berezin_fault_gives_the_later_witness(self, tmp_path,
                                                   monkeypatch):
        # functions_equal does not see the spec: read it from e_nu_apply
        specs, real_apply, real_equal = [], cli.e_nu_apply, cli.functions_equal

        def apply(spec, f):
            specs.append((spec.mu, spec.nu, spec.k))
            return real_apply(spec, f)

        def equal(f, g):
            return real_equal(f, g) and specs[-1] not in {(0, 0, 0),
                                                          (1, 2, 0)}

        monkeypatch.setattr(cli, "e_nu_apply", apply)
        monkeypatch.setattr(cli, "functions_equal", equal)
        code, out = run(tmp_path, "verify", "--mu", "1", "--nu-max", "2")
        assert code == EXIT_ASSERTION_FAILED
        failed = [r for r in json.loads(out.read_text())["results"]
                  if not r["ok"]]
        assert failed == [{"identity": "berezin_sum_identity", "ok": False,
                           "witness": {"mu": 1, "nu": 2, "k": 0}}]

    # one (n, b, c) of the Gauss sweep gets a wrong 2F1 value: off by one,
    # nonzero where (c-b)_n = 0, and the right numerator over twice the
    # denominator
    @pytest.mark.parametrize("n,b,c,wrong", [
        (5, 3, -7, lambda v: v + 1),
        (3, 5, 5, lambda v: Fraction(1, 7)),
        (4, -2, 9, lambda v: Fraction(v.numerator, 2 * v.denominator)),
    ])
    def test_gauss_fault_gives_fraction_witness(self, tmp_path, monkeypatch,
                                                n, b, c, wrong):
        # the sweep sums 2F1(-n, b; c; 1) as the pair terminating_pair
        # hands back; the fault hands back the wrong value as an
        # unreduced pair, which the witness must print in lowest terms
        real = cli.terminating_pair

        def faulty(nums, dens):
            top, bot = real(nums, dens)
            if (nums, dens) != ((-n, b), (c,)):
                return top, bot
            v = wrong(Fraction(top, bot))
            return 6 * v.numerator, 6 * v.denominator

        monkeypatch.setattr(cli, "terminating_pair", faulty)
        code, out = run(tmp_path, "verify", "--mu", "0", "--nu-max", "0")
        assert code == EXIT_ASSERTION_FAILED
        failed = [r for r in json.loads(out.read_text())["results"]
                  if not r["ok"]]
        assert [r["identity"] for r in failed] == ["gauss_summation"]
        # the witness the Fraction comparison lhs != rhs reports
        lhs = Fraction(*faulty((-n, b), (c,)))
        rhs = rising_pochhammer(c - b, n) / rising_pochhammer(c, n)
        assert lhs != rhs
        assert failed[0]["witness"] == {"n": n, "b": b, "c": c,
                                        "lhs": str(lhs), "rhs": str(rhs)}

    def test_checks_on_a_wide_grid(self):
        # mu <= 3 at nu = mu, 16, 24, 40: mu = 0, nu = mu and output levels
        # L = mu + nu - 2k below mu are all among the 40 specs
        levels = [(mu, nu) for mu in range(4) for nu in (mu, 16, 24, 40)]
        specs = [ChannelSpec(mu, nu, k) for mu, nu in levels
                 for k in range(mu + 1)]
        assert len(specs) == 40
        assert any(s.target_level < s.mu for s in specs)
        rng = random.Random(cli.DEFAULT_SEED)
        run_check = cli.run_check
        assert run_check(cli.check_orthogonality, levels)[:2] == (None, 16)
        assert run_check(cli.check_trace_preservation,
                         cli.draw_entries(specs, rng, 5))[:2] == (None, 200)
        assert run_check(cli.check_choi_positive, specs)[:2] == (None, 40)
        # exactly, not only within PSD_TOL
        assert min(map(cli.choi_min_eigenvalue, specs)) >= 0
        assert run_check(cli.check_berezin_sum,
                         cli.draw_entries(specs, rng, 2))[:2] == (None, 80)

    def test_run_check_keeps_the_last_witness(self):
        # of two failing cases in one chunk the later one's witness is
        # kept; the case count is the grid's length, 0 for an empty grid
        def fails_on_odd(case, offset):
            return {"case": case + offset} if case % 2 else None

        witness, cases, seconds = cli.run_check(fails_on_odd, [0, 1, 2, 3, 4],
                                                10)
        assert (witness, cases) == ({"case": 13}, 5) and seconds >= 0
        assert cli.run_check(fails_on_odd, [0, 2], 10)[:2] == (None, 2)
        assert cli.run_check(fails_on_odd, [], 10)[:2] == (None, 0)

    def test_every_check_runs_once(self, monkeypatch, one_worker):
        # run_verify_suites' table holds every check_* function of cli,
        # so that a new check cannot be left out of it
        ran = []

        def record(check, grid, *args):
            ran.append(check.__name__)
            return None, len(grid), 0.0

        monkeypatch.setattr(cli, "run_check", record)
        cli.run_verify_suites(0, 0, cli.DEFAULT_SEED)
        assert sorted(ran) == sorted(name for name in vars(cli)
                                     if name.startswith("check_"))
        assert len(ran) == len(IDENTITIES)

    @pytest.mark.parametrize("least,witness", [
        (Fraction(-1, 10 ** 11), None),
        (Fraction(-1, 10 ** 9), {"mu": 1, "nu": 2, "k": 1,
                                 "min_eigenvalue": "-1/1000000000"})])
    def test_choi_tolerance_is_psd_tol(self, tmp_path, monkeypatch, least,
                                       witness):
        # a least eigenvalue within PSD_TOL = 1e-10 of 0 passes; one past
        # it fails, with the last spec as its witness
        monkeypatch.setattr(cli, "choi_min_eigenvalue", lambda spec: least)
        code, out = run(tmp_path, "verify", "--mu", "1", "--nu-max", "2")
        assert code == (EXIT_OK if witness is None else EXIT_ASSERTION_FAILED)
        report = json.loads(out.read_text())
        assert report["config"]["psd_tol"] == cli.PSD_TOL == 1e-10
        results = {r["identity"]: r for r in report["results"]}
        assert results.pop("choi_positive") == {
            "identity": "choi_positive", "ok": witness is None,
            "witness": witness}
        assert all(r["ok"] for r in results.values())

    def test_timings_sidecar_leaves_report_unchanged(self, tmp_path,
                                                     one_worker):
        argv = ["verify", "--mu", "1", "--nu-max", "3", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "plain.json")]) == EXIT_OK
        start = time.perf_counter()
        assert main(argv + ["--out", str(tmp_path / "timed.json"),
                            "--timings", str(tmp_path / "t.json")]) == EXIT_OK
        wall = time.perf_counter() - start
        report = (tmp_path / "timed.json").read_text()
        assert report == (tmp_path / "plain.json").read_text()
        timings = json.loads((tmp_path / "t.json").read_text())
        assert timings["version"] == su2chan.__version__
        assert timings["workers"] == 1
        assert 0 <= timings["wall_s"] <= wall
        suites = timings["suites"]
        assert [t["identity"] for t in suites] == \
            [r["identity"] for r in json.loads(report)["results"]]
        assert all(set(t) == {"identity", "cases", "elapsed_s"}
                   and t["elapsed_s"] >= 0 for t in suites)
        # each suite's own time: together they fit in the run
        assert sum(t["elapsed_s"] for t in suites) <= wall
        # 7 (mu, nu) pairs, 10 (mu, nu, k) specs, 5 random operators each,
        # 4 moment orders at 2 even levels, 496 (kappa, j)
        assert [t["cases"] for t in suites[1:]] == [7, 50, 10, 10, 8, 496]
        assert suites[0]["cases"] > 0

    def test_timings_to_stdout_report(self, tmp_path, capsys):
        argv = ["verify", "--mu", "0", "--nu-max", "1"]
        assert main(argv) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(argv + ["--timings", str(tmp_path / "t.json")]) == EXIT_OK
        assert capsys.readouterr().out == plain
        assert (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("target", ["missing/t.json", "."])
    def test_unwritable_timings_is_config_error(self, tmp_path, capsys,
                                                monkeypatch, target):
        monkeypatch.setattr(cli, "run_verify_suites", _must_not_run)
        code = main(["verify", "--mu", "0", "--nu-max", "0",
                     "--out", str(tmp_path / "r.json"),
                     "--timings", str(tmp_path / target)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: cannot write --timings {tmp_path / target}: "
            f"{UNWRITABLE[target]}\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("out,timings", [
        ("r.json", "r.json"), ("r.json", "./r.json"), ("a.json", "b.json")],
        ids=["r.json", "./r.json", "two-links"])
    def test_timings_on_the_report_is_config_error(self, tmp_path, capsys,
                                                   monkeypatch, out, timings):
        # the sidecar would silently replace the report, also where two
        # symlinks name the one file
        monkeypatch.chdir(tmp_path)
        os.symlink("r.json", "a.json")
        os.symlink("r.json", "b.json")
        monkeypatch.setattr(cli, "run_verify_suites", _must_not_run)
        code = main(["verify", "--mu", "0", "--nu-max", "0",
                     "--out", out, "--timings", timings])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: --out and --timings name the same file {out}\n")
        assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json"]

    def test_bad_range_is_config_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "verify", "--mu", "3", "--nu-max", "1")
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: need 0 <= mu <= nu\n"

    def test_deterministic_output(self, tmp_path):
        _, out1 = run(tmp_path, "verify", "--mu", "1", "--nu-max", "2",
                      "--seed", "5")
        text1 = out1.read_text()
        _, out2 = run(tmp_path, "verify", "--mu", "1", "--nu-max", "2",
                      "--seed", "5")
        assert out2.read_text() == text1


# (argv, its one error line): the ids are those of the argv alone
NONFINITE = [
    (["verify", "--mu", "1", "--nu-max", "2", "--tol", "nan"],
     "unrecognized arguments: --tol nan"),
    (["verify", "--mu", "1", "--nu-max", "2", "--tol", "inf"],
     "unrecognized arguments: --tol inf"),
    (["verify", "--mu", "1", "--nu-max", "2", "--tol", "-1"],
     "unrecognized arguments: --tol=-1"),
    (["verify", "--mu", "1", "--nu-max", "2", "--tol", "-1e-3"],
     "unrecognized arguments: --tol=-1e-3"),
    (["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--tol", "-inf"],
     "unrecognized arguments: --tol=-inf"),
    (["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--tol", "-nan"],
     "unrecognized arguments: --tol=-nan"),
    (["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--tol", "nan"],
     "unrecognized arguments: --tol nan"),
    (["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--tol=-inf"],
     "unrecognized arguments: --tol=-inf"),
    (["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--phi", "nan,1"],
     "--phi coefficients too large or not finite"),
    (["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--phi", "0,inf"],
     "--phi coefficients too large or not finite"),
]


@pytest.mark.parametrize("argv,line", NONFINITE,
                         ids=[f"argv{i}" for i in range(len(NONFINITE))])
def test_nonfinite_or_negative_option_is_config_error(tmp_path, capsys, argv,
                                                      line):
    # a --phi coefficient that is not finite is an input error; neither
    # verify nor converge has a --tol (the Choi tolerance and the gaps'
    # noise floor are constants), so there the option is unknown
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(tmp_path / "x.txt")])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("phi", ["1e307", "1e308,1e308"])
def test_phi_overflowing_a_float_is_config_error(tmp_path, capsys, phi):
    # |phi| on [0, 1] is at most sum |c_i|, and a functional sums up to
    # mu + max nu + 1 values: past the float range that is an input error,
    # not a failed check with numpy overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["converge", "--mu", "1", "--k", "0", "--nu", "20,40",
                     "--n", "1", "--phi", phi,
                     "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == (
        "error: --phi coefficients too large or not finite\n")
    assert os.listdir(tmp_path) == []


def test_converge_past_the_float_range_matches_exact_moments(tmp_path):
    # output level 1101: its monomial kernel coefficients and binomials
    # pass the float range (about level 1030), but the orthonormal band is
    # read from Clebsch-Gordan weights of small integer factors.  Against
    # the exact output of apply_channel, moments 1 and 2 are the rationals
    # Tr T / dim and sum_ij |M_ij|^2 / dim = sum (x^2 + y^2) / (d^2 C_i C_j)
    # / dim over the kernel integers (x + i y) / d
    argv = ["converge", "--mu", "3", "--k", "1", "--nu", "80,1100",
            "--n", "1,2", "--seed", "3", "--out", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_OK
    with open(tmp_path / "x.csv") as fh:
        lhs = {r["n_or_phi"]: float(r["lhs"]) for r in csv.DictReader(fh)
               if r["nu"] == "1100"}
    a, _ = quadrature.random_band_limited_state(3, random.Random(3))
    spec = ChannelSpec(3, 1100, 1)
    out = apply_channel(spec, a)
    dim, w = out.dim, out.width
    binom = [math.comb(out.level, i) for i in range(dim)]
    m1 = Fraction(sum(x * Fraction(1, c) for x, c in zip(out.re[w], binom)),
                  out.d * dim)
    m2 = Fraction(sum(Fraction(x * x + y * y, binom[j] * binom[j + abs(t)])
                      for t, xr, xi in zip(range(-w, w + 1), out.re, out.im)
                      for j, (x, y) in enumerate(zip(xr, xi))),
                  out.d ** 2 * dim)
    assert lhs["n=1"] == pytest.approx(float(m1), rel=1e-12)
    assert lhs["n=2"] == pytest.approx(float(m2), rel=1e-12)


def test_input_past_the_float_range_is_config_error_before_any_work(
        tmp_path, capsys, monkeypatch):
    # mu = 1030 passes the grid cap (1031 x 2061 points), but C(mu, mu // 2)
    # passes the float range: one error line, before the input is drawn
    monkeypatch.setattr(cli, "random_band_limited_state", _must_not_run)
    start = time.perf_counter()
    code = main(["converge", "--mu", "1030", "--k", "0", "--nu", "1030,1031",
                 "--n", "1", "--out", str(tmp_path / "x.csv")])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: the input at level 1030 exceeds the float "
                       "range\n")
    assert os.listdir(tmp_path) == []


def test_limit_past_the_float_range_is_config_error(tmp_path, capsys,
                                                    monkeypatch):
    # a limit kernel coefficient past the float range (mu >= 1030, which
    # no run reaches in a test's time) is one error line and exit 2
    def overflow(mu, k, f, nmax):
        raise FloatRangeError(f"limit kernel coefficients at level {mu} "
                              "exceed the float range")

    monkeypatch.setattr(cli, "limit_moments", overflow)
    code = main(["converge", "--mu", "1", "--k", "0", "--nu", "8,16",
                 "--n", "2", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: limit kernel coefficients at level 1 exceed "
                       "the float range\n")
    assert os.listdir(tmp_path) == []


def test_limit_samples_past_the_float_range_are_config_error(
        tmp_path, capsys, monkeypatch):
    # coefficients just inside the float range whose sum is not: the
    # limit kernel 1.7e308 (1 + x + y~ + x y~) sums to 3.4e308 at t = 1/2,
    # theta = 0, one error line and exit 2
    c = int(1.7e308)
    big = symbol(KernelOperator(1, 1, [[c], [c, c], [c]], [[0], [0, 0], [0]]))
    monkeypatch.setattr(quadrature, "e_limit_apply", lambda mu, k, f: big)
    code = main(["converge", "--mu", "1", "--k", "0", "--nu", "8,16",
                 "--n", "1", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: limit integrand not finite on the grid\n"
    assert os.listdir(tmp_path) == []


# (argv, its one error line, with no usage): the ids are those of the argv
UNPARSABLE = [
    (["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--tol", "abc"],
     "unrecognized arguments: --tol abc"),
    (["converge", "--mu", "1", "--k", "0", "--nu", "8,x"],
     "argument --nu: invalid _int_list value: '8,x'"),
    (["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--phi", "a,1"],
     "argument --phi: invalid _phi_arg value: 'a,1'"),
    (["verify", "--nu-max", "x"], "argument --nu-max: invalid int value: 'x'"),
    (["verify", "--mu", "1.5"], "argument --mu: invalid int value: '1.5'"),
    (["spectrum"], "the following arguments are required: --mu"),
    (["verify", "--no-such-option"],
     "unrecognized arguments: --no-such-option"),
    # no --phi coefficient at all, not one too large
    (["converge", "--mu", "3", "--k", "1", "--nu", "10,20", "--phi", ""],
     "argument --phi: needs at least one coefficient"),
    (["converge", "--mu", "3", "--k", "1", "--nu", "10,20", "--phi", ","],
     "argument --phi: needs at least one coefficient"),
]


@pytest.mark.parametrize("argv,line", UNPARSABLE,
                         ids=[f"argv{i}" for i in range(len(UNPARSABLE))])
def test_unparsable_argument_is_one_error_line(tmp_path, capsys, argv, line):
    code = main(argv + ["--out", str(tmp_path / "x.txt")])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"error: {line}\n"


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran although the report cannot be written")


# why a report target cannot be written
UNWRITABLE = {"missing/x.json": "No such file or directory",
              "missing/t.json": "No such file or directory",
              ".": "is a directory"}


@pytest.mark.parametrize("argv", [
    ["verify", "--mu", "0", "--nu-max", "0"],
    ["spectrum", "--mu", "3"],
    ["converge", "--mu", "1", "--k", "0", "--nu", "8,16"],
    ["channel-dump", "--mu", "1", "--nu", "2", "--k", "0"],
])
@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_is_config_error(tmp_path, capsys, monkeypatch, argv,
                                        target):
    # a missing directory, or a directory in place of the file, is found
    # before any suite runs
    for name in ("run_verify_suites", "spectrum_rows",
                 "channel_output_moments", "channel_report"):
        monkeypatch.setattr(cli, name, _must_not_run)
    code = main(argv + ["--out", str(tmp_path / target)])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == (
        f"error: cannot write --out {tmp_path / target}: "
        f"{UNWRITABLE[target]}\n")
    assert os.listdir(tmp_path) == []


def test_unwritable_converge_summary_is_config_error(tmp_path, capsys):
    (tmp_path / "c.csv.summary.json").mkdir()
    code = main(["converge", "--mu", "1", "--k", "0", "--nu", "8,16",
                 "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == (
        f"error: cannot write --out {tmp_path / 'c.csv.summary.json'}: "
        "is a directory\n")
    assert os.listdir(tmp_path) == ["c.csv.summary.json"]


@pytest.mark.parametrize("option", ["--out", "--timings"])
def test_fifo_target_is_written_through(tmp_path, capsys, option):
    # a target that is no regular file is opened and written, not
    # replaced by a regular file: the FIFO stays one and carries the report
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = ["verify", "--mu", "0", "--nu-max", "1"]
    assert main(argv) == EXIT_OK
    plain = capsys.readouterr().out
    if option == "--timings":
        argv += ["--out", str(tmp_path / "r.json")]
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(argv + [option, str(fifo)]) == EXIT_OK
        data = os.read(fd, 1 << 16).decode()
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    if option == "--out":
        assert data == plain
    else:
        assert json.loads(data)["version"] == su2chan.__version__
        assert (tmp_path / "r.json").read_text() == plain


def test_symlinked_out_writes_its_target(tmp_path, capsys):
    # the report goes into the file the link names, and the link stays
    target = tmp_path / "target"
    target.write_text("old")
    link = tmp_path / "link"
    link.symlink_to(target)
    assert main(["spectrum", "--mu", "1"]) == EXIT_OK
    plain = capsys.readouterr().out
    assert main(["spectrum", "--mu", "1", "--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == plain
    assert sorted(os.listdir(tmp_path)) == ["link", "target"]


def test_dangling_symlinked_out_is_config_error(tmp_path, capsys,
                                                monkeypatch):
    # a link into a missing directory cannot be written, as open() finds
    monkeypatch.setattr(cli, "spectrum_rows", _must_not_run)
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere" / "x")
    code = main(["spectrum", "--mu", "1", "--out", str(dangling)])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == (
        f"error: cannot write --out {dangling}: No such file or directory\n")
    assert dangling.is_symlink()
    assert os.listdir(tmp_path) == ["dangling"]


def test_fifo_without_write_access_is_config_error(tmp_path, capsys,
                                                  monkeypatch):
    # the probe asks for write access, as no temporary file is made
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(cli, "run_verify_suites", _must_not_run)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    code = main(["verify", "--mu", "0", "--nu-max", "0", "--out", str(fifo)])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == (
        f"error: cannot write --out {fifo}: Permission denied\n")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"],
                                  ["converge", "--help"]])
def test_help_still_prints_usage(capsys, argv):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage:")


# Under the umask of argv[2], a report, a converge summary and a --timings
# sidecar, each written through a temporary file, and a file that open()
# makes, with the mode of each
UMASK_RUN = """
import json, os, sys
from su2chan.cli import main
os.umask(int(sys.argv[2], 8))
os.chdir(sys.argv[1])
main(["verify", "--mu", "0", "--nu-max", "0", "--out", "report.json",
      "--timings", "sidecar.json"])
main(["converge", "--mu", "1", "--k", "0", "--nu", "8,16", "--n", "1",
      "--out", "c.csv"])
open("plain", "w").close()
print(json.dumps({name: os.stat(name).st_mode & 0o777
                  for name in sorted(os.listdir())}))
"""


@pytest.mark.parametrize("umask,mode", [("022", 0o644), ("077", 0o600)],
                         ids=["022", "077"])
def test_reports_keep_the_umask_mode(tmp_path, umask, mode):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", UMASK_RUN, str(tmp_path),
                           umask], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == dict.fromkeys(
        ["c.csv", "c.csv.summary.json", "plain", "report.json",
         "sidecar.json"], mode)


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

    def test_negative_mu_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "spectrum", "--mu", "-1")
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: mu must be nonnegative\n"

    @pytest.mark.parametrize("mu", [0, 1, 16])
    def test_rows_match_fraction_oracle(self, mu):
        # every column, floats included, from term-by-term Fraction sums
        def berezin(nu, m):
            return Fraction(math.factorial(nu) ** 2, math.factorial(nu + m + 1)
                            * math.factorial(nu - m)) if m <= nu else 0

        want = []
        for k in range(mu + 1):
            for m in range(mu + 1):
                b = berezin(mu, m)
                e3 = ((-1) ** k * math.comb(mu, k) * b
                      * fraction_3f2(-k, -m - mu - 1, m - mu, -mu, -mu))
                es = sum(math.comb(mu, k) * (-1) ** (k - l) * math.comb(k, l)
                         * berezin(mu - l, m) for l in range(k + 1))
                want.append({"mu": mu, "k": k, "m": m,
                             "berezin_exact": str(b),
                             "berezin_float": float(b),
                             "e_3f2_exact": str(e3), "e_3f2_float": float(e3),
                             "e_sum_exact": str(es), "forms_agree": True})
        assert cli.spectrum_rows(mu) == want


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

    def test_k_out_of_range_is_config_error(self, tmp_path, capsys):
        code = main(["converge", "--mu", "1", "--k", "2", "--out",
                     str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: need 0 <= k <= mu\n"

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

    def test_floor_needs_no_flag(self, tmp_path):
        # n = 1 gaps sit at float noise, below quadrature.GAP_FLOOR, and
        # count as converged although they do not fall
        out = tmp_path / "conv.csv"
        assert main(["converge", "--mu", "1", "--k", "1", "--nu", "8,16,32",
                     "--n", "1", "--seed", "13", "--out", str(out)]) == EXIT_OK
        summary = json.loads((tmp_path / "conv.csv.summary.json").read_text())
        [record] = summary["records"]
        assert record["gaps"] == pytest.approx([1.1e-16, 1.1e-16, 1.7e-16],
                                               rel=0.02)
        assert record["converged"] and summary["all_converged"]
        # at the floor the fitted decay order is meaningless, so absent
        assert record["fitted_slope"] is None

    @pytest.mark.parametrize("nus", ["20", "40,20", "20,20,40", ""])
    def test_bad_nu_list_is_config_error(self, tmp_path, capsys, nus):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["converge", "--mu", "2", "--k", "1", "--nu", nus,
                         "--n", "2", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "error: --nu needs two or more strictly increasing levels, "
            "each >= mu\n")

    def test_nothing_to_check_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["converge", "--mu", "2", "--k", "1", "--nu", "10,20",
                     "--n", "", "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "error: nothing to check: give a moment order (--n) or --phi\n")
        assert not out.exists()

    def test_phi_alone_runs(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["converge", "--mu", "2", "--k", "1", "--nu", "10,20",
                     "--n", "", "--phi", "entropy8", "--out", str(out)])
        assert code in (EXIT_OK, EXIT_ASSERTION_FAILED)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [r[3] for r in rows[1:]] == ["phi=deg8", "phi=deg8"]

    # the limit grid of degree d = mu n, or mu deg phi, has (d+1)(2d+1)
    # points; n = 400 at mu = 3 must still run, and the cap is degree 1500
    @pytest.mark.parametrize("argv,degree", [
        (["--mu", "3", "--n", "400"], 1200),
        (["--mu", "3", "--n", "1,500"], 1500),
        (["--mu", "3", "--n", "", "--phi", "0," * 500 + "1"], 1500),
        (["--mu", "20", "--n", "75"], 1500)])
    def test_limit_grid_up_to_the_cap_is_built(
            self, tmp_path, monkeypatch, argv, degree):
        # one radial node stands in for the rule, so that only the size
        # asked for counts
        sizes = []

        def one_node(grid):
            sizes.append(grid.size)
            return [0.5], [1.0]

        monkeypatch.setattr(quadrature.QuadratureGrid, "radial", one_node)
        mu = int(argv[1])
        code = main(["converge", "--k", "1", "--nu", f"{mu},{mu + 3}"]
                    + argv + ["--out", str(tmp_path / "x.csv")])
        assert code in (EXIT_OK, EXIT_ASSERTION_FAILED)
        assert cli.MAX_LIMIT_GRID_POINTS == 1501 * 3001
        assert max(sizes) == (degree + 1) * (2 * degree + 1)

    @pytest.mark.parametrize("argv", [
        ["--mu", "3", "--n", "2,501"],
        ["--mu", "3", "--n", "", "--phi", "0," * 501 + "1"],
        ["--mu", "1503", "--n", "1"]])
    def test_limit_grid_past_the_cap_is_config_error(
            self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(quadrature.QuadratureGrid, "radial",
                            _must_not_run)
        for name in ("random_band_limited_state", "channel_output_moments"):
            monkeypatch.setattr(cli, name, _must_not_run)
        mu = int(argv[1])
        code = main(["converge", "--k", "1", "--nu", f"{mu},{mu + 3}"]
                    + argv + ["--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: a limit quadrature grid of 4522528 points "
                           "(its degree is mu times the largest n or deg phi) "
                           "exceeds 4504501\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("phi", ["", ","])
    def test_empty_n_and_phi_is_config_error(self, tmp_path, capsys, phi):
        code = main(["converge", "--mu", "2", "--k", "1", "--nu", "10,20",
                     "--n", "", "--phi", phi, "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == ("error: argument --phi: needs at least one "
                       "coefficient\n")
        assert os.listdir(tmp_path) == []

    def test_moment_order_below_one_is_config_error(self, tmp_path, capsys):
        code = main(["converge", "--mu", "1", "--k", "0", "--nu", "8,16",
                     "--n", "0,2", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "error: every moment order n must be >= 1\n")

    # a level past the float range: mu + max nu + 1, the count of values
    # that the --phi bound multiplies, does not read as a float
    @pytest.mark.parametrize("mu,nus", [
        (1, f"2,{10 ** 400}"), (10 ** 400, f"{10 ** 400},{10 ** 400 + 1}")],
        ids=["nu", "mu"])
    def test_level_past_the_float_range_is_config_error(
            self, tmp_path, capsys, monkeypatch, mu, nus):
        for name in ("random_band_limited_state", "channel_output_moments"):
            monkeypatch.setattr(cli, name, _must_not_run)
        code = main(["converge", "--mu", str(mu), "--k", "0", "--nu", nus,
                     "--n", "1", "--phi", "1,1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --mu + max --nu exceeds the float range\n"
        assert os.listdir(tmp_path) == []

    def test_each_spectrum_built_once(self, tmp_path, monkeypatch,
                                      one_worker):
        # every moment order and phi share one set of trace moments of
        # the channel output per level
        real = quadrature.channel_output_moments
        calls = []

        def counting(spec, f, nmax):
            calls.append((spec.nu, nmax))
            return real(spec, f, nmax)

        monkeypatch.setattr(cli, "channel_output_moments", counting)
        code = main(["converge", "--mu", "2", "--k", "1", "--nu", "10,20",
                     "--n", "1,2,3", "--phi", "entropy8",
                     "--out", str(tmp_path / "x.csv")])
        assert code in (EXIT_OK, EXIT_ASSERTION_FAILED)
        assert sorted(calls) == [(10, 8), (20, 8)]

    def test_stdout_is_csv_then_summary(self, tmp_path, capsys):
        # without --out both reports go to stdout, in the order and with
        # the bytes of the two --out files
        argv = ["converge", "--mu", "1", "--k", "0", "--nu", "8,16,32,64",
                "--n", "2", "--phi", "entropy8", "--seed", "11"]
        out = tmp_path / "c.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.encode() == out.read_bytes() \
            + (tmp_path / "c.csv.summary.json").read_bytes()

    def test_input_level_zero_sits_at_the_floor(self, tmp_path):
        # mu = 0: the state is the constant 1, and every statistic equals
        # its limit up to rounding at every level, nu = mu = 0 included
        out = tmp_path / "c.csv"
        assert main(["converge", "--mu", "0", "--k", "0", "--nu", "0,1,2",
                     "--phi", "entropy8", "--out", str(out)]) == EXIT_OK
        summary = json.loads((tmp_path / "c.csv.summary.json").read_text())
        assert [r["label"] for r in summary["records"]] == \
            ["n=1", "n=2", "n=3", "n=4", "phi=deg8"]
        assert all(g <= 1e-12 for r in summary["records"] for g in r["gaps"])

    def test_output_level_below_input_level_converges(self, tmp_path):
        # k = mu = 3: the first level is nu = mu, where the output level
        # mu + nu - 2k is 0 < mu
        out = tmp_path / "c.csv"
        assert main(["converge", "--mu", "3", "--k", "3",
                     "--nu", "3,6,12,24", "--out", str(out)]) == EXIT_OK
        summary = json.loads((tmp_path / "c.csv.summary.json").read_text())
        assert len(summary["records"]) == 4
        assert all(r["converged"] for r in summary["records"])

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
        assert Fraction(report["choi_min_eigenvalue"]) >= 0
        # T(I_2) = (3/5) I_4
        assert report["unital_scalar"] == "3/5"
        assert set(report) == {"spec", "c_squared", "trace_preserving",
                               "choi_min_eigenvalue", "unital_scalar"}

    def test_output_level_past_the_float_range(self, tmp_path):
        # every field is read from the Kraus table in exact arithmetic, so
        # output level 1103 costs no (L+1)^2 kernel and no float
        code, out = run(tmp_path, "channel-dump", "--mu", "3",
                        "--nu", "1100", "--k", "1")
        assert code == EXIT_OK
        assert json.loads(out.read_text()) == {
            "spec": {"mu": 3, "nu": 1100, "k": 1},
            "c_squared": "3300/1103", "choi_min_eigenvalue": "0",
            "trace_preserving": True, "unital_scalar": "2/551"}

    def test_invalid_spec_is_config_error(self, tmp_path, capsys):
        for mu in (4, 3):
            code, out = run(tmp_path, "channel-dump", "--mu", str(mu),
                            "--nu", "2", "--k", "0")
            assert code == EXIT_CONFIG_ERROR
            assert not out.exists()
            assert capsys.readouterr().err == (
                f"error: need 0 <= k <= mu <= nu, got (mu={mu}, nu=2, "
                f"k=0)\n")

    @pytest.mark.parametrize("mu,nu,k,want", [(3, 6, 2, "0"), (1, 1, 0, "0"),
                                              (0, 0, 0, "1")])
    def test_min_eigenvalue_is_exact(self, tmp_path, mu, nu, k, want):
        code, out = run(tmp_path, "channel-dump", "--mu", str(mu),
                        "--nu", str(nu), "--k", str(k))
        assert code == EXIT_OK
        assert json.loads(out.read_text())["choi_min_eigenvalue"] == want


# ---------------------------------------------------------------------------
# The fork map: the same reports from any number of workers
# ---------------------------------------------------------------------------

def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_on(monkeypatch, tmp_path, workers, *argv):
    """(exit code, report bytes) of one run with the worker count patched
    and the workers forked at once, after which no child of this process
    is left."""
    monkeypatch.setattr(cli, "_worker_count", lambda: workers)
    monkeypatch.setattr(cli, "FORK_AFTER_S", 1e-6)
    out = tmp_path / f"out-{workers}.txt"
    code = main(list(argv) + ["--out", str(out)])
    no_child_left()
    return code, out.read_bytes() if out.exists() else None


# 1, 2 and 3 workers, and 8: more than the one level and the one spec of
# mu = 0, and more than the three levels of the converge run
WORKER_COUNTS = [1, 2, 3, 8]


@pytest.fixture
def fork_at_once(monkeypatch):
    """Workers are forked as soon as a map starts, however short it is."""
    monkeypatch.setattr(cli, "FORK_AFTER_S", 1e-6)


@pytest.fixture
def alarm_handler():
    """A SIGALRM handler of the caller's, in place for the test."""
    def callers(signum, frame):
        raise AssertionError("the caller's SIGALRM handler ran")

    previous = signal.signal(signal.SIGALRM, callers)
    yield callers
    signal.signal(signal.SIGALRM, previous)


class TestForkMap:

    def test_results_come_back_in_task_order(self, monkeypatch,
                                             fork_at_once):
        # tasks long enough that the worker, started within milliseconds,
        # takes some while the parent runs its first
        monkeypatch.setattr(cli, "_worker_count", lambda: 2)

        def square(t):
            time.sleep(0.1)
            return [t * t, os.getpid()]

        got = cli._fork_map(square, range(4))
        assert [v for v, _ in got] == [0, 1, 4, 9]
        assert len({pid for _, pid in got} - {os.getpid()}) == 1
        no_child_left()

    def test_every_task_is_taken_once(self, tmp_path, monkeypatch,
                                      fork_at_once):
        # more workers than CPUs on one queue: each task is run by exactly
        # one process, which notes it in one shared append-only file
        monkeypatch.setattr(cli, "_worker_count", lambda: 8)
        log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT
                      | os.O_APPEND)

        def noted(t):
            os.write(log, f"{t}\n".encode())
            return -t

        try:
            assert cli._fork_map(noted, range(300)) == \
                [-t for t in range(300)]
        finally:
            os.close(log)
        taken = sorted(map(int, (tmp_path / "log").read_text().split()))
        assert taken == list(range(300))
        no_child_left()

    def test_no_fork_for_one_task(self, monkeypatch):
        monkeypatch.setattr(cli, "_worker_count", lambda: 4)
        assert cli._fork_map(lambda t: os.getpid(), [0]) == [os.getpid()]
        assert cli._fork_map(lambda t: t, []) == []

    def test_quick_map_runs_in_the_parent_alone(self, monkeypatch):
        # tasks that end well within the delay: no pipe and no fork
        monkeypatch.setattr(cli, "_worker_count", lambda: 2)
        calls = []
        for name in ("fork", "pipe"):
            real = getattr(os, name)
            monkeypatch.setattr(os, name, lambda real=real, name=name:
                                calls.append(name) or real())
        assert cli._fork_map(lambda t: [t, os.getpid()], range(50)) == \
            [[t, os.getpid()] for t in range(50)]
        assert calls == []
        no_child_left()

    @pytest.mark.parametrize("delay", [1e-6, cli.FORK_AFTER_S],
                             ids=["forks", "serial"])
    @pytest.mark.parametrize("how", ["returns", "raises"])
    def test_signal_state_is_restored(self, monkeypatch, alarm_handler,
                                      delay, how):
        monkeypatch.setattr(cli, "_worker_count", lambda: 2)
        monkeypatch.setattr(cli, "FORK_AFTER_S", delay)

        def task(t):
            time.sleep(0.001)
            if how == "raises" and t == 2:
                raise KeyError("task")
            return t

        if how == "returns":
            assert cli._fork_map(task, range(4)) == [0, 1, 2, 3]
        else:
            # raised in the parent, or in a worker and then in the parent,
            # which reruns the worker's tasks
            with pytest.raises(KeyError, match="task"):
                cli._fork_map(task, range(4))
        assert signal.getsignal(signal.SIGALRM) is alarm_handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        no_child_left()

    def test_long_first_task_forks_a_worker_amid_it(self, monkeypatch):
        # at the default delay: the worker starts while the parent's
        # first task still sleeps, and takes the tasks after it
        monkeypatch.setattr(cli, "_worker_count", lambda: 2)

        def task(t):
            start = time.monotonic()
            time.sleep(10 * cli.FORK_AFTER_S if t == 0 else 0.001)
            return [os.getpid(), start, time.monotonic()]

        got = cli._fork_map(task, range(6))
        (first, _, first_end), rest = got[0], got[1:]
        assert first == os.getpid()
        worker = [start for pid, start, _ in rest if pid != os.getpid()]
        assert worker and min(worker) < first_end
        no_child_left()

    def test_callers_timer_is_left_alone(self, monkeypatch, fork_at_once,
                                         alarm_handler):
        monkeypatch.setattr(cli, "_worker_count", lambda: 2)
        forks = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
        signal.setitimer(signal.ITIMER_REAL, 100)
        try:
            assert cli._fork_map(lambda t: os.getpid(), range(8)) == \
                [os.getpid()] * 8
            left, interval = signal.getitimer(signal.ITIMER_REAL)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        assert forks == []
        assert 90 < left <= 100 and interval == 0
        assert signal.getsignal(signal.SIGALRM) is alarm_handler
        no_child_left()

    def test_more_tasks_than_the_queue_pipe_holds(self, monkeypatch,
                                                  fork_at_once):
        # 20,000 indices of 4 bytes: more than a 64 KiB pipe holds, so
        # the handler's feed waits for the worker to take some
        monkeypatch.setattr(cli, "_worker_count", lambda: 2)
        got = cli._fork_map(lambda t: [t, os.getpid()], range(20000))
        assert [t for t, _ in got] == list(range(20000))
        assert len({pid for _, pid in got}) == 2
        no_child_left()

    def test_timer_near_the_maps_end_leaves_no_child(self, monkeypatch):
        # tasks that add up to about the delay: the timer fires now before
        # the last task ends, now after the loop, now not at all
        monkeypatch.setattr(cli, "_worker_count", lambda: 2)
        for run in range(50):
            total = cli.FORK_AFTER_S * (0.9 + 0.2 * run / 49)
            assert cli._fork_map(lambda t: time.sleep(total / 5) or t,
                                 range(5)) == list(range(5))
            no_child_left()

    @pytest.mark.parametrize("how", ["exit", "raise"])
    def test_failed_worker_reruns_in_the_parent(self, tmp_path, monkeypatch,
                                                fork_at_once, how):
        # a worker that exits nonzero or raises on the first task it
        # takes: the parent runs that task again, and its result is kept
        monkeypatch.setattr(cli, "_worker_count", lambda: 2)
        parent, taken = os.getpid(), tmp_path / "taken"

        def dies_in_a_worker(t):
            time.sleep(0.05)
            if os.getpid() != parent:
                taken.write_text(str(t))
                if how == "exit":
                    os._exit(3)
                raise RuntimeError("worker fault")
            return t * t

        assert cli._fork_map(dies_in_a_worker, range(4)) == [0, 1, 4, 9]
        assert int(taken.read_text()) in range(4)
        no_child_left()

    def test_failed_verify_worker_gives_the_serial_report(self, tmp_path,
                                                          monkeypatch):
        # the worker exits nonzero at the first chunk it takes; its chunks
        # rerun in the parent
        parent, real = os.getpid(), cli.run_check
        taken = tmp_path / "taken"

        def dies_in_a_worker(check, grid, *args):
            if os.getpid() != parent:
                taken.write_text(check.__name__)
                os._exit(3)
            return real(check, grid, *args)

        argv = ["verify", "--mu", "2", "--nu-max", "3"]
        _, serial = run_on(monkeypatch, tmp_path, 1, *argv)
        monkeypatch.setattr(cli, "run_check", dies_in_a_worker)
        assert run_on(monkeypatch, tmp_path, 2, *argv) == (EXIT_OK, serial)
        assert taken.read_text().startswith("check_")

    def test_exception_anywhere_surfaces_from_the_parent(self, tmp_path,
                                                         monkeypatch):
        # raised in every process: the parent's own chunk raises while the
        # worker may still run; the worker is stopped and waited for
        def boom(mu, nu):
            raise KeyError("pk")

        monkeypatch.setattr(cli, "pk_orthogonality_check", boom)
        with pytest.raises(KeyError, match="pk"):
            run_on(monkeypatch, tmp_path, 2, "verify", "--mu", "1",
                   "--nu-max", "2")
        no_child_left()

    @pytest.mark.parametrize("parts", [1, 2, 3, 12])
    def test_chunks_cover_the_grid_in_order(self, parts):
        grid = [(n, b) for n in range(4) for b in range(2)]
        chunks = cli._chunks(grid, parts)
        assert len(chunks) == parts
        assert [case for chunk in chunks for case in chunk] == grid
        assert {len(chunk) for chunk in chunks} <= {len(grid) // parts,
                                                   -(-len(grid) // parts)}

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="needs CPU affinity")
    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_worker_count_is_the_cpus_up_to_the_cap(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        assert cli._worker_count() == min(cpus, cli.MAX_WORKERS)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="needs CPU affinity")
    def test_wrapped_function_keeps_every_call_in_this_process(
            self, tmp_path, monkeypatch):
        # a wrapper installed from outside, as a span tracer installs
        # one, sees every call: the map runs in this process alone
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert cli._worker_count() == 2
        calls = []

        @functools.wraps(cli.pk_orthogonality_check)
        def counted(mu, nu):
            calls.append((mu, nu))
            return counted.__wrapped__(mu, nu)

        monkeypatch.setattr(cli, "pk_orthogonality_check", counted)
        assert cli._worker_count() == 1
        code, out = run(tmp_path, "verify", "--mu", "1", "--nu-max", "3")
        assert code == EXIT_OK
        assert calls == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2),
                         (1, 3)]
        no_child_left()

    # mu = 0; nu = mu; output levels L = mu + nu - 2k below mu; a sweep
    # with nu > mu; the corrupted trace check
    @pytest.mark.parametrize("argv", [
        ["--mu", "0", "--nu-max", "0"], ["--mu", "2", "--nu-max", "2"],
        ["--mu", "3", "--nu-max", "4", "--seed", "9"],
        ["--mu", "1", "--nu-max", "2", "--corrupt-c2"]],
        ids=["mu0", "nu_eq_mu", "L_below_mu", "corrupt_c2"])
    def test_verify_report_matches_one_worker(self, tmp_path, monkeypatch,
                                              argv):
        runs = [run_on(monkeypatch, tmp_path, workers, "verify", *argv)
                for workers in WORKER_COUNTS]
        assert runs[1:] == runs[:1] * 3
        code, report = runs[0]
        assert code == (EXIT_ASSERTION_FAILED if "--corrupt-c2" in argv
                        else EXIT_OK)
        if "--corrupt-c2" in argv:
            failed = [r for r in json.loads(report)["results"] if not r["ok"]]
            assert failed == [{"identity": "trace_preservation", "ok": False,
                               "witness": {"mu": 1, "nu": 2, "k": 1,
                                           "trace_in": "5/2-7/2j",
                                           "trace_out": "15/4-21/4j"}}]

    def test_gauss_witness_matches_one_worker(self, tmp_path, monkeypatch):
        # two wrong 2F1 values, in different chunks at 2 and 3 workers:
        # the witness is the later one in grid order
        real = cli.terminating_pair

        def faulty(nums, dens):
            top, bot = real(nums, dens)
            if (nums, dens) in {((-1, 4), (6,)), ((-11, -3), (-20,))}:
                return top + bot, bot
            return top, bot

        monkeypatch.setattr(cli, "terminating_pair", faulty)
        runs = [run_on(monkeypatch, tmp_path, workers, "verify", "--mu", "0",
                       "--nu-max", "0") for workers in WORKER_COUNTS]
        assert runs[1:] == runs[:1] * 3
        code, report = runs[0]
        assert code == EXIT_ASSERTION_FAILED
        failed = [r for r in json.loads(report)["results"] if not r["ok"]]
        assert [r["witness"]["n"] for r in failed] == [11]

    CONVERGE = ["converge", "--mu", "2", "--k", "1", "--nu", "8,16,32",
                "--n", "1,2,3", "--phi", "entropy8", "--seed", "11"]

    def test_converge_matches_one_worker(self, tmp_path, monkeypatch):
        runs = []
        for workers in WORKER_COUNTS:
            code, csv_bytes = run_on(monkeypatch, tmp_path, workers,
                                     *self.CONVERGE)
            summary = (tmp_path / f"out-{workers}.txt.summary.json")
            runs.append((code, csv_bytes, summary.read_bytes()))
        assert runs[1:] == runs[:1] * 3
        assert runs[0][0] == EXIT_OK

    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_float_range_error_in_a_level_is_config_error(
            self, tmp_path, tmp_path_factory, capsys, monkeypatch, where):
        # worker: the parent holds level 32 while the worker takes 16 and
        # then 8, past the float range; the worker fails and the parent,
        # rerunning its levels, raises.  parent: level 32 is past the
        # range and the parent raises at once, while the worker still
        # runs; the worker is killed, not waited out
        parent, real = os.getpid(), cli.channel_output_moments
        bad = 8 if where == "worker" else 32
        ran = tmp_path_factory.mktemp("ran") / "nu"

        def overflow(spec, a, nmax):
            in_parent = os.getpid() == parent
            if where == "worker" and in_parent and spec.nu == 32:
                time.sleep(0.3)
            if where == "parent" and not in_parent:
                time.sleep(30)
            if spec.nu == bad:
                if not in_parent:
                    ran.write_text(str(spec.nu))
                raise FloatRangeError(f"Clebsch-Gordan factors of {spec} "
                                      "exceed the float range")
            return real(spec, a, nmax)

        monkeypatch.setattr(cli, "channel_output_moments", overflow)
        start = time.monotonic()
        assert run_on(monkeypatch, tmp_path, 2, *self.CONVERGE) \
            == (EXIT_CONFIG_ERROR, None)
        assert time.monotonic() - start < 10
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: Clebsch-Gordan factors of ChannelSpec("
                           f"mu=2, nu={bad}, k=1) exceed the float range\n")
        assert os.listdir(tmp_path) == []
        assert ran.exists() == (where == "worker")

    def test_timings_sum_within_workers_times_wall(self, tmp_path,
                                                   monkeypatch, fork_at_once):
        monkeypatch.setattr(cli, "_worker_count", lambda: 2)
        argv = ["verify", "--mu", "1", "--nu-max", "3", "--seed", "5",
                "--out", str(tmp_path / "r.json")]
        assert main(argv + ["--timings", str(tmp_path / "t.json")]) == EXIT_OK
        timings = json.loads((tmp_path / "t.json").read_text())
        assert timings["workers"] == 2
        suites = timings["suites"]
        # the chunks of one worker run one after another inside the run
        assert sum(t["elapsed_s"] for t in suites) \
            <= timings["workers"] * timings["wall_s"]
        assert [t["cases"] for t in suites[1:]] == [7, 50, 10, 10, 8, 496]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity")
    def test_one_cpu_and_every_cpu_give_one_report(self):
        # the real worker count: one CPU, set in the child alone, and all
        # the CPUs this process may use, whose workers are forked at once
        cpu = min(os.sched_getaffinity(0))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        argv = [sys.executable, "-c",
                "import sys; from su2chan import cli; "
                "cli.FORK_AFTER_S = 1e-6; sys.exit(cli.main(sys.argv[1:]))",
                "verify", "--mu", "1", "--nu-max", "3"]
        pinned, free = (
            subprocess.run(argv, capture_output=True, env=env, timeout=120,
                           preexec_fn=preexec)
            for preexec in (lambda: os.sched_setaffinity(0, {cpu}), None))
        assert pinned.returncode == free.returncode == EXIT_OK
        assert pinned.stderr == free.stderr == b""
        assert pinned.stdout == free.stdout
        assert json.loads(pinned.stdout)["all_ok"]


# ---------------------------------------------------------------------------
# The benchmark's stored outputs (perfbench/refs), read through the
# benchmark's own checks, so that report drift fails here too
# ---------------------------------------------------------------------------

def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


class TestBenchmarkReferences:

    def test_default_verify_matches_reference(self, tmp_path):
        # the stored report with the seed substituted
        seed = 8101
        code, out = run(tmp_path, "verify", "--seed", str(seed))
        assert code == EXIT_OK
        assert out.read_text() == WORKLOADS.expected_verify_report(seed)

    def test_exact_combinatorics_checks_pass(self, tmp_path):
        # the workload's independent oracles: the transfer-matrix I_n,
        # the closed-form fund sum and the factorial Berezin value
        cases = WORKLOADS.prepare("exact-combinatorics", 8102, str(tmp_path))
        assert len(cases) == len(WORKLOADS.exact_combinatorics_grid())
        for label, call, check in cases:
            assert check(call()) is None, label

    @pytest.mark.parametrize("seed", WORKLOADS.converge_pool())
    def test_converge_matches_reference(self, tmp_path, seed):
        # at every seed with a stored CSV: the workload's own check, and
        # labels exact with every float within 1e-14 of the reference.
        # The references hold the eigvalsh route's roundoff; the banded
        # moments and the one limit rule moved lhs, rhs and gap by at
        # most 3.5e-15 on these seeds
        out = tmp_path / "c.csv"
        assert main(WORKLOADS.CONVERGE_ARGS
                    + ["--seed", str(seed), "--out", str(out)]) == EXIT_OK
        want = (Path(WORKLOADS.REFS) / "converge"
                / f"seed_{seed}.csv").read_text()
        got = out.read_text()
        assert WORKLOADS.compare_converge_csv(got, want) is None
        rows = [list(csv.reader(text.splitlines())) for text in (got, want)]
        assert [r[:4] for r in rows[0]] == [r[:4] for r in rows[1]]
        for g, w in zip(rows[0][1:], rows[1][1:]):
            assert all(abs(float(a) - float(b)) <= 1e-14
                       for a, b in zip(g[4:], w[4:])), (g, w)

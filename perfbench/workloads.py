"""The three workloads: inputs made from the seed, the timed calls, and the
checks on their outputs.

``prepare(name, seed, workdir, corrupt_c2)`` returns a list of cases; the
time spent in it counts as set-up.  A case is ``(label, call, check)``:
``call()`` is the timed call into su2chan and returns its output, and
``check(output)`` returns ``None`` when the output is right, or a short
description of what is wrong.  Checks run after the timed pass.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")

# The paper's trace-limit experiment at large nu (README `converge`
# example with nu doubled twice).
CONVERGE_ARGS = ["converge", "--mu", "3", "--k", "1", "--nu", "20,40,80,160",
                 "--n", "1,2,3,4", "--phi", "entropy8"]
FLOAT_RTOL = 1e-9
GAP_ATOL = 1e-12


# ---------------------------------------------------------------------------
# verify: the exact-identity sweep at the CLI defaults
# ---------------------------------------------------------------------------

def expected_verify_report(seed: int) -> str:
    """The stored report with the seed this pass uses.

    Every suite holds for every seed, so the report differs between seeds
    only in ``config.seed``.
    """
    with open(os.path.join(REFS, "verify.json")) as fh:
        report = json.load(fh)
    report["config"]["seed"] = seed
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _verify(seed, workdir, corrupt_c2):
    from su2chan import cli

    out = os.path.join(workdir, "verify.json")
    argv = ["verify", "--seed", str(seed), "--out", out]
    if corrupt_c2:
        argv.append("--corrupt-c2")
    expected = expected_verify_report(seed)

    def call():
        return cli.main(argv)

    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        with open(out) as fh:
            if fh.read() != expected:
                return "report differs from refs/verify.json"
        return None

    return [("verify", call, check)]


# ---------------------------------------------------------------------------
# converge: the trace-limit experiment
# ---------------------------------------------------------------------------

def converge_pool():
    """Seeds with a stored reference CSV, ascending."""
    names = os.listdir(os.path.join(REFS, "converge"))
    return sorted(int(n[len("seed_"):-len(".csv")]) for n in names
                  if n.startswith("seed_") and n.endswith(".csv"))


def converge_seed(seed: int) -> int:
    pool = converge_pool()
    return pool[seed % len(pool)]


def compare_converge_csv(got: str, want: str):
    """None when the CSVs agree: labels exactly, floats to FLOAT_RTOL."""
    rows_got = list(csv.reader(got.splitlines()))
    rows_want = list(csv.reader(want.splitlines()))
    if len(rows_got) != len(rows_want) or rows_got[:1] != rows_want[:1]:
        return "CSV shape differs from the reference"
    for i, (g, w) in enumerate(zip(rows_got[1:], rows_want[1:]), start=2):
        if g[:4] != w[:4]:
            return f"CSV line {i}: labels {g[:4]} != {w[:4]}"
        for col, a, b in zip(("lhs", "rhs"), g[4:6], w[4:6]):
            if not math.isclose(float(a), float(b), rel_tol=FLOAT_RTOL):
                return f"CSV line {i}: {col} {a} != {b}"
        if abs(float(g[6]) - float(w[6])) > GAP_ATOL + FLOAT_RTOL * abs(float(w[6])):
            return f"CSV line {i}: gap {g[6]} != {w[6]}"
    return None


def _converge(seed, workdir, corrupt_c2):
    from su2chan import cli

    s = converge_seed(seed)
    out = os.path.join(workdir, "converge.csv")
    argv = CONVERGE_ARGS + ["--seed", str(s), "--out", out]
    with open(os.path.join(REFS, "converge", f"seed_{s}.csv")) as fh:
        want = fh.read()

    def call():
        return cli.main(argv)

    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        with open(out + ".summary.json") as fh:
            if not json.load(fh)["all_converged"]:
                return "all_converged is false"
        with open(out) as fh:
            return compare_converge_csv(fh.read(), want)

    return [(f"converge seed={s}", call, check)]


# ---------------------------------------------------------------------------
# exact-combinatorics: scalar exact arithmetic, no matrices
# ---------------------------------------------------------------------------

I_N_MAX_TERMS = 3 * 10 ** 4     # (kappa+1)^(n-1) index chains per case


def i_n_transfer(n: int, nu: int) -> Fraction:
    """I_n(nu) by a transfer-matrix product: an independent oracle for the
    chain enumeration in ``quadrature.i_n_integral``."""
    if n == 1 or nu == 0:
        return Fraction(1)
    if nu % 2 == 1:
        return Fraction(nu + 1, nu) ** n * i_n_transfer(n, nu - 1)
    k = nu // 2
    sq = [math.comb(k, a) ** 2 for a in range(k + 1)]
    c2 = [math.comb(2 * k, s) for s in range(2 * k + 1)]
    v = [Fraction(sq[a], c2[a]) for a in range(k + 1)]
    for _ in range(n - 2):
        v = [sq[b] * sum((v[a] / c2[a + b] for a in range(k + 1)), Fraction(0))
             for b in range(k + 1)]
    return sum((v[b] / c2[b] for b in range(k + 1)), Fraction(0))


def _check_i_n(n, nu):
    def check(value):
        if value > 4 ** n:
            return f"I_{n}({nu}) = {value} > 4^{n}"
        if value != i_n_transfer(n, nu):
            return f"I_{n}({nu}) differs from the transfer-matrix value"
        return None
    return check


def _check_fund(kappa, j):
    def check(rep):
        closed = Fraction(2 * kappa + 1, kappa + 1) / math.comb(kappa, j)
        if not (rep["identity_holds"] and rep["bound_holds"]):
            return f"fund_ineq_check({kappa}, {j}) reports a failure"
        if rep["sum"] != closed or closed > Fraction(2, math.comb(kappa, j)):
            return f"fund_ineq_check({kappa}, {j}) sum is not the closed form"
        return None
    return check


def _check_spectrum(mu):
    def check(rows):
        if len(rows) != (mu + 1) ** 2:
            return f"spectrum_rows({mu}) has {len(rows)} rows"
        for r in rows:
            m = r["m"]
            berezin = Fraction(math.factorial(mu) ** 2,
                               math.factorial(mu + m + 1) * math.factorial(mu - m))
            if (not r["forms_agree"] or r["e_3f2_exact"] != r["e_sum_exact"]
                    or r["berezin_exact"] != str(berezin)
                    or r["e_3f2_float"] != float(Fraction(r["e_3f2_exact"]))):
                return f"spectrum_rows({mu}) row k={r['k']} m={m} is wrong"
        return None
    return check


def exact_combinatorics_grid():
    """Every case of the workload as (family, arguments)."""
    grid = [("i_n", (n, nu)) for n in range(1, 6) for nu in range(0, 41, 2)
            if (nu // 2 + 1) ** (n - 1) <= I_N_MAX_TERMS]
    grid += [("fund", (kappa, j)) for kappa in range(41)
             for j in range(kappa + 1)]
    grid += [("spectrum", (mu,)) for mu in range(17)]
    return grid


def _exact_combinatorics(seed, workdir, corrupt_c2):
    from su2chan.cli import spectrum_rows
    from su2chan.quadrature import fund_ineq_check, i_n_integral

    fns = {"i_n": (i_n_integral, _check_i_n),
           "fund": (fund_ineq_check, _check_fund),
           "spectrum": (spectrum_rows, _check_spectrum)}
    grid = exact_combinatorics_grid()
    random.Random(seed).shuffle(grid)
    cases = []
    for family, args in grid:
        fn, make_check = fns[family]
        cases.append((f"{family}{args}",
                      (lambda fn=fn, args=args: fn(*args)),
                      make_check(*args)))
    return cases


_PREPARE = {"verify": _verify, "converge": _converge,
            "exact-combinatorics": _exact_combinatorics}
WORKLOADS = tuple(_PREPARE)


def prepare(name: str, seed: int, workdir: str, corrupt_c2: bool = False):
    return _PREPARE[name](seed, workdir, corrupt_c2)

"""Command-line front end: identity verification sweeps, eigenvalue
tables, convergence experiments and channel dumps.

Exit codes: 0 = all assertions pass, 1 = a mathematical assertion
failed, 2 = usage/config error.  Reports are written atomically and are
byte-identical for identical (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction
from typing import List, Optional, Sequence

from .exactnum import hyp2f1_terminating, rising_pochhammer
from .intertwine import (
    ChannelSpec,
    apply_channel,
    apply_normalized_channel,
    channel_report,
    choi_min_eigenvalue,
    pk_orthogonality_check,
)
from .quadrature import (
    ConvergenceRecord,
    channel_output_spectrum,
    entropy_poly_coeffs,
    fund_ineq_check,
    functional_convergence,
    i_n_integral,
    moment_convergence,
    random_band_limited_state,
    random_operator,
)
from .repspace import operator_trace, reproducing_identity_operator
from .symbolcalc import (
    berezin_eigenvalue,
    e_eigenvalue_3f2,
    e_limit_eigenvalue,
    e_nu_apply,
    functions_equal,
    inverse_berezin,
    symbol,
)

EXIT_OK = 0
EXIT_ASSERTION_FAILED = 1
EXIT_CONFIG_ERROR = 2

DEFAULT_SEED = 20240817


def _atomic_write(path: str, data: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: Optional[str], data: str):
    if path:
        _atomic_write(path, data)
    else:
        sys.stdout.write(data)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verify_suites(mu_max: int, nu_max: int, seed: int,
                      n_random: int = 5,
                      psd_tol: float = 1e-10,
                      corrupt_c_squared: bool = False) -> dict:
    """Run the exact-identity suites; returns a JSON-ready report.

    ``corrupt_c_squared`` is a fault-injection hook for harness tests:
    it scales the Schur constant of the trace check by 3/2, which must
    then fail with a witness.
    """
    rng = random.Random(seed)
    results = []

    def record(name: str, ok: bool, witness=None):
        results.append({"identity": name, "ok": ok, "witness": witness})

    # Gauss summation
    ok, wit = True, None
    for n in range(0, 13):
        for b in range(-12, 13):
            for ac in range(n, 21):
                for c in {ac, -ac} if ac else {0}:
                    if abs(c) < max(n, 1):
                        continue
                    den = rising_pochhammer(c, n)
                    if den == 0:
                        continue
                    lhs = hyp2f1_terminating(n, b, c)
                    rhs = rising_pochhammer(c - b, n) / den
                    if lhs != rhs:
                        ok, wit = False, {"n": n, "b": b, "c": c,
                                          "lhs": str(lhs), "rhs": str(rhs)}
    record("gauss_summation", ok, wit)

    # Schur constant / orthogonality / completeness
    ok, wit = True, None
    for mu in range(mu_max + 1):
        for nu in range(mu, nu_max + 1):
            rep = pk_orthogonality_check(mu, nu)
            if not rep["ok"]:
                ok, wit = False, rep["witness"]
    record("schur_orthogonality_completeness", ok, wit)

    # trace preservation (with optional fault injection) and Choi PSD
    ok, wit = True, None
    choi_ok, choi_wit = True, None
    for mu in range(mu_max + 1):
        for nu in range(mu, nu_max + 1):
            for k in range(mu + 1):
                spec = ChannelSpec(mu, nu, k)
                for _ in range(n_random):
                    a = random_operator(mu, rng)
                    ta = apply_normalized_channel(spec, a)
                    if corrupt_c_squared:
                        # the channel is linear in c^2
                        ta = ta.scale(Fraction(3, 2))
                    if operator_trace(ta) != operator_trace(a):
                        ok, wit = False, {
                            "mu": mu, "nu": nu, "k": k,
                            "trace_in": str(operator_trace(a)),
                            "trace_out": str(operator_trace(ta))}
                mn = choi_min_eigenvalue(spec)
                if mn < -psd_tol:
                    choi_ok, choi_wit = False, {
                        "mu": mu, "nu": nu, "k": k, "min_eigenvalue": mn}
    record("trace_preservation", ok, wit)
    record("choi_positive", choi_ok, choi_wit)

    # Berezin-sum identity for the channel-induced function operator
    ok, wit = True, None
    for mu in range(mu_max + 1):
        for nu in range(mu, nu_max + 1):
            for k in range(mu + 1):
                spec = ChannelSpec(mu, nu, k)
                a = random_operator(mu, rng)
                f = inverse_berezin(mu, symbol(a))
                if not functions_equal(e_nu_apply(spec, f),
                                       symbol(apply_channel(spec, a))):
                    ok, wit = False, {"mu": mu, "nu": nu, "k": k}
    record("berezin_sum_identity", ok, wit)

    # kernel bound and the exact binomial-sum inequality behind it
    ok, wit = True, None
    for n in range(1, 5):
        for nu in range(0, nu_max + 1, 2):
            if i_n_integral(n, nu) > 2 ** (2 * n):
                ok, wit = False, {"n": n, "nu": nu}
    record("kernel_integral_bound", ok, wit)

    ok, wit = True, None
    for kappa in range(0, 31):
        for j in range(kappa + 1):
            rep = fund_ineq_check(kappa, j)
            if not (rep["identity_holds"] and rep["bound_holds"]):
                ok, wit = False, {"kappa": kappa, "j": j,
                                  "sum": str(rep["sum"])}
    record("binomial_sum_inequality", ok, wit)

    return {
        "config": {"mu_max": mu_max, "nu_max": nu_max, "seed": seed,
                   "n_random": n_random, "psd_tol": psd_tol},
        "results": results,
        "all_ok": all(r["ok"] for r in results),
    }


def cmd_verify(args) -> int:
    if args.mu < 0 or args.nu_max < args.mu:
        print("error: need 0 <= mu <= nu", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    report = run_verify_suites(args.mu, args.nu_max, args.seed,
                               psd_tol=args.tol,
                               corrupt_c_squared=args.corrupt_c2)
    _emit(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report["all_ok"] else EXIT_ASSERTION_FAILED


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def spectrum_rows(mu: int) -> List[dict]:
    rows = []
    for k in range(mu + 1):
        for m in range(mu + 1):
            b = berezin_eigenvalue(mu, m)
            e3 = e_eigenvalue_3f2(mu, k, m)
            es = e_limit_eigenvalue(mu, k, m)
            rows.append({
                "mu": mu, "k": k, "m": m,
                "berezin_exact": str(b), "berezin_float": float(b),
                "e_3f2_exact": str(e3), "e_3f2_float": float(e3),
                "e_sum_exact": str(es),
                "forms_agree": e3 == es,
            })
    return rows


def cmd_spectrum(args) -> int:
    if args.mu < 0:
        print("error: mu must be nonnegative", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    rows = spectrum_rows(args.mu)
    _emit(args.out, json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def _records_to_csv(records: Sequence[ConvergenceRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["mu", "nu", "k", "n_or_phi", "lhs", "rhs", "gap"])
    for rec in records:
        for nu, lhs, gap in zip(rec.nus, rec.lhs, rec.gaps):
            w.writerow([rec.mu, nu, rec.k, rec.label,
                        repr(lhs), repr(rec.rhs), repr(gap)])
    return buf.getvalue()


def cmd_converge(args) -> int:
    if args.mu < 0 or args.k < 0 or args.k > args.mu:
        print("error: need 0 <= k <= mu", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    nus = [10, 20, 40, 80] if args.nu is None else args.nu
    if len(nus) < 2 or nus[0] < args.mu \
            or any(a >= b for a, b in zip(nus, nus[1:])):
        print("error: --nu needs two or more strictly increasing levels, "
              "each >= mu", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if any(n < 1 for n in args.n):
        print("error: every moment order n must be >= 1", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if not args.n and args.phi is None:
        print("error: nothing to check: give a moment order (--n) or --phi",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR
    rng = random.Random(args.seed)
    _, f = random_band_limited_state(args.mu, rng)
    # one spectrum per level, shared by every moment order and by phi
    spectra = [channel_output_spectrum(ChannelSpec(args.mu, nu, args.k), f)
               for nu in nus]
    records: List[ConvergenceRecord] = [
        moment_convergence(args.mu, args.k, f, n, nus, spectra=spectra)
        for n in args.n]
    if args.phi:
        records.append(functional_convergence(args.mu, args.k, f, args.phi,
                                              nus, spectra=spectra))
    for rec in records:
        rec.floor = args.tol
    csv_text = _records_to_csv(records)
    summary = {
        "config": {"mu": args.mu, "k": args.k, "nu": nus, "n": args.n,
                   "phi": args.phi, "seed": args.seed},
        "records": [r.to_row() for r in records],
        "all_converged": all(r.converged for r in records),
    }
    if args.out:
        _atomic_write(args.out, csv_text)
        _atomic_write(args.out + ".summary.json",
                      json.dumps(summary, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(csv_text)
        sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if summary["all_converged"] else EXIT_ASSERTION_FAILED


# ---------------------------------------------------------------------------
# channel-dump
# ---------------------------------------------------------------------------

def cmd_channel_dump(args) -> int:
    try:
        spec = ChannelSpec(args.mu, args.nu_single, args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    rng = random.Random(args.seed)
    ops = [reproducing_identity_operator(spec.mu)] \
        + [random_operator(spec.mu, rng) for _ in range(3)]
    report = channel_report(spec, ops)
    report["identity_image"] = apply_normalized_channel(
        spec, reproducing_identity_operator(spec.mu)).to_json_dict()
    _emit(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> List[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _phi_arg(text: str) -> List[float]:
    if text.strip() == "entropy8":
        return list(entropy_poly_coeffs(8))
    return [float(v) for v in text.split(",") if v.strip()]


class _Parser(argparse.ArgumentParser):
    """Reports a value it cannot parse, a missing or an unknown argument
    as one 'error:' line, as every other config error is reported."""

    def error(self, message):
        self.exit(EXIT_CONFIG_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="su2chan",
        description="Exact verification and convergence experiments for "
                    "component channels of tensor-product decompositions.")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the exact-identity suites")
    pv.add_argument("--mu", type=int, default=3, help="max input level")
    pv.add_argument("--nu-max", dest="nu_max", type=int, default=7)
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--tol", type=float, default=1e-10,
                    help="positive-semidefiniteness tolerance")
    pv.add_argument("--out", default=None)
    pv.add_argument("--corrupt-c2", action="store_true",
                    help=argparse.SUPPRESS)   # fault-injection hook
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("spectrum", help="eigenvalue tables")
    ps.add_argument("--mu", type=int, required=True)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_spectrum)

    pc = sub.add_parser("converge", help="trace-limit convergence runs")
    pc.add_argument("--mu", type=int, required=True)
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--nu", type=_int_list, default=None,
                    help="comma list of levels, default 10,20,40,80")
    pc.add_argument("--n", type=_int_list, default=[1, 2, 3, 4],
                    help="comma list of moment orders")
    pc.add_argument("--phi", type=_phi_arg, default=None,
                    help="polynomial coefficients, ascending degree; "
                         "'entropy8' for the built-in degree-8 entropy fit")
    pc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pc.add_argument("--tol", type=float, default=1e-12,
                    help="noise floor below which gaps count as converged")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_converge)

    pd = sub.add_parser("channel-dump", help="structural channel report")
    pd.add_argument("--mu", type=int, required=True)
    pd.add_argument("--nu", dest="nu_single", type=int, required=True)
    pd.add_argument("--k", type=int, required=True)
    pd.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pd.add_argument("--out", default=None)
    pd.set_defaults(func=cmd_channel_dump)
    return p


def _attach_dash_values(argv: Sequence[str]) -> List[str]:
    """Write '--opt -x' as '--opt=-x': argparse takes a token such as
    '-0.5,1', '-inf' or '-1e-3' for an unknown option, but reads the '='
    form as the value.  -h is the only single-dash option."""
    out: List[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and prev != "--" and "=" not in prev \
                and tok.startswith("-") and tok[:2] != "--" and tok != "-h":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else 0
    phi, tol = getattr(args, "phi", None), getattr(args, "tol", 0.0)
    if phi is not None and not (phi and all(map(math.isfinite, phi))):
        print("error: --phi needs finite coefficients", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if not (math.isfinite(tol) and tol >= 0):
        print("error: --tol must be finite and >= 0", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return args.func(args)


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()

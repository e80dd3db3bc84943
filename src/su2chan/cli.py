"""Command-line front end: identity verification sweeps, eigenvalue
tables, convergence experiments and channel dumps.

Exit codes: 0 = all assertions pass, 1 = a mathematical assertion
failed, 2 = usage/config error.  Reports are written atomically and are
byte-identical for identical (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import random
import sys
import tempfile
import time
import types
from fractions import Fraction
from typing import List, Optional, Sequence

from . import __version__
from .exactnum import terminating_pair
from .intertwine import (
    ChannelSpec,
    apply_channel,
    apply_normalized_channel,
    channel_report,
    choi_min_eigenvalue,
    pk_orthogonality_check,
)
from .quadrature import (
    ENTROPY8,
    GAP_FLOOR,
    MAX_LIMIT_GRID_POINTS,
    ConvergenceRecord,
    FloatRangeError,
    channel_output_moments,
    functional_from_moments,
    fund_ineq_check,
    i_n_integral,
    limit_grid,
    limit_moments,
    random_band_limited_state,
    random_entries,
    toeplitz_band,
)
from .repspace import _from_dense, _trace_integers
from .symbolcalc import (
    _berezin_numerators,
    _limit_eigenvalue,
    berezin_eigenvalue,
    e_eigenvalue_3f2,
    e_nu_apply,
    functions_equal,
    inverse_berezin,
    symbol,
)

EXIT_OK = 0
EXIT_ASSERTION_FAILED = 1
EXIT_CONFIG_ERROR = 2

DEFAULT_SEED = 20240817
N_RANDOM = 5    # random operators per (mu, nu, k) in the trace check


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


def _unwritable(path: str) -> Optional[str]:
    """Why a report cannot be written to path, or None.  The probe makes
    and removes a temporary file where :func:`_atomic_write` makes one."""
    if os.path.isdir(path):
        return "is a directory"
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-")
    except OSError as exc:
        return exc.strerror or str(exc)
    os.close(fd)
    os.unlink(tmp)
    return None


def _emit(path: Optional[str], data: str):
    if path:
        _atomic_write(path, data)
    else:
        sys.stdout.write(data)


# ---------------------------------------------------------------------------
# One fork map: the parent and a forked worker per further CPU, up to
# MAX_WORKERS
# ---------------------------------------------------------------------------

MAX_WORKERS = 2   # the most workers whose speed-up has been measured


def _worker_count() -> int:
    """The CPUs this process may run on, at most MAX_WORKERS; 1 where the
    platform cannot tell, or where a function of the package has been
    wrapped from outside (a span tracer, say), since the wrapper's
    records of a forked worker's calls would be lost with the worker."""
    if _wrapped_from_outside():
        return 1
    try:
        return min(len(os.sched_getaffinity(0)), MAX_WORKERS)
    except AttributeError:
        return 1


def _wrapped_from_outside() -> bool:
    """Whether a module of the package binds a function of the package
    that a ``functools.wraps`` wrapper has replaced."""
    return any(isinstance(obj, types.FunctionType)
               and hasattr(obj, "__wrapped__")
               and str(obj.__module__).partition(".")[0] == __package__
               for name, mod in list(sys.modules.items())
               if name.partition(".")[0] == __package__
               for obj in vars(mod).values())


def _taken(queue: int):
    """The task indices this process takes from the queue, one 4-byte
    record at a time, until it is empty."""
    while record := os.read(queue, 4):
        yield int.from_bytes(record, "little")


_NOT_RUN = object()   # a task that a failed worker took


def _fork_map(fn, tasks: Sequence) -> list:
    """[fn(t) for t in tasks], shared out among the parent, as worker 0,
    and forked workers: :func:`_worker_count` processes, at most one per
    task.  Each worker takes the next task as it comes free, from a
    queue of task indices in a pipe, so tasks that come largest first
    are run largest-job-first.  Workers are forked, not spawned: a
    spawned worker would start an interpreter and import the package,
    as long as a whole default ``verify``; the CLI runs no threads, so
    the fork is safe.

    A forked worker sends its [index, result] pairs back through a pipe
    as JSON, so ``fn`` returns JSON values (a tuple comes back as a
    list).  The tasks of a worker that fails, by an exception or a
    nonzero exit, rerun in the parent in task order, where the exception
    surfaces as in a serial run.  Every child is waited for before the
    call returns or raises; one still running when the parent raises is
    killed first.
    """
    n = min(_worker_count(), len(tasks))
    if n < 2:
        return [fn(t) for t in tasks]
    results = [_NOT_RUN] * len(tasks)
    queue, feed_end = os.pipe()
    feed = open(feed_end, "wb")
    children = {}   # pid -> its result pipe, open for reading
    # the objects made so far stay out of every collection until the map
    # ends, so that a worker's collections copy none of their pages
    gc.freeze()
    try:
        for _ in range(n - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                # a worker: its results and exit 0, or exit 1; no return
                try:
                    feed.close()
                    os.close(read)
                    with open(write, "w") as fh:
                        json.dump([[i, fn(tasks[i])] for i in _taken(queue)],
                                  fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children[pid] = open(read)
        # every index in task order; closing the feed ends the queue
        with feed:
            feed.write(b"".join(i.to_bytes(4, "little")
                                for i in range(len(tasks))))
        for i in _taken(queue):
            results[i] = fn(tasks[i])
        for pid, fh in list(children.items()):
            with fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            for i, value in json.loads(data) if status == 0 else ():
                results[i] = value
        return [fn(t) if r is _NOT_RUN else r for t, r in zip(tasks, results)]
    finally:
        gc.unfreeze()
        feed.close()
        os.close(queue)
        if children:
            import signal   # for this path alone: the import costs a start
        for pid, fh in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            fh.close()


def _chunks(grid: Sequence, parts: int) -> list:
    """``grid`` cut into ``parts`` contiguous chunks, some perhaps empty,
    whose lengths differ by at most one."""
    bounds = [len(grid) * i // parts for i in range(parts + 1)]
    return [grid[a:b] for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# verify: one function per identity check.  Each takes a chunk of its grid
# and returns (witness, cases): the witness dict of the chunk's last
# failing case, or None, and the case count.
# ---------------------------------------------------------------------------

# (n, b) of the Gauss sweep, n and |b| <= 12, and (kappa, j) of the
# binomial-sum check, 0 <= j <= kappa <= 30
GAUSS_GRID = tuple((n, b) for n in range(13) for b in range(-12, 13))
BINOMIAL_GRID = tuple((kappa, j) for kappa in range(31)
                      for j in range(kappa + 1))


def kernel_bound_grid(nu_max: int) -> list:
    """(n, nu) for 1 <= n <= 4 and even nu <= nu_max."""
    return [(n, nu) for n in range(1, 5) for nu in range(0, nu_max + 1, 2)]


def draw_entries(specs, rng, draws) -> list:
    """(spec, entries) for ``draws`` random operators per spec, drawn in
    that order by :func:`random_entries`.  A check builds each operator
    from its entries, in the worker that checks it."""
    return [(spec, random_entries(spec.mu, rng))
            for spec in specs for _ in range(draws)]


def check_gauss_summation(grid):
    """2F1(-n, b; c; 1) = (c-b)_n / (c)_n for each (n, b) of the grid and
    n <= |c| <= 20, the integer Pochhammers read from one table per n
    and compared crosswise with the unreduced sum top/bot."""
    wit, cases, tables = None, 0, {}
    for n, b in grid:
        if n not in tables:
            tables[n] = {c: math.prod(range(c, c + n)) for c in range(-32, 33)}
        poch = tables[n]
        for ac in range(n, 21):
            for c in {ac, -ac} if ac else {0}:
                if abs(c) < max(n, 1) or poch[c] == 0:
                    continue
                cases += 1
                top, bot = terminating_pair((-n, b), (c,))
                if top * poch[c] != bot * poch[c - b]:
                    wit = {"n": n, "b": b, "c": c,
                           "lhs": str(Fraction(top, bot)),
                           "rhs": str(Fraction(poch[c - b], poch[c]))}
    return wit, cases


def check_orthogonality(levels):
    """Schur constant, orthogonality and completeness at each (mu, nu)."""
    wit = None
    for mu, nu in levels:
        rep = pk_orthogonality_check(mu, nu)
        if not rep["ok"]:
            wit = rep["witness"]
    return wit, len(levels)


def check_trace_preservation(cases, fault=1):
    """Tr T(A) = Tr A, crosswise, for the random A of each (spec,
    entries) of the cases; a ``fault`` other than 1 scales each T(A), as
    a wrong c^2 would."""
    wit = None
    for spec, entries in cases:
        a = _from_dense(spec.mu, *entries)
        ta = apply_normalized_channel(spec, a)
        if fault != 1:
            ta = ta.scale(fault)
        (da, ra, ia), (dt, rt, it) = map(_trace_integers, (a, ta))
        if ra * dt != rt * da or ia * dt != it * da:
            wit = {"mu": spec.mu, "nu": spec.nu, "k": spec.k,
                   "trace_in": _complex_str(da, ra, ia),
                   "trace_out": _complex_str(dt, rt, it)}
    return wit, len(cases)


def _complex_str(den, re, im):
    """(re + i im) / den as "re+imj" or "re-imj", each part in lowest
    terms."""
    re, im = Fraction(re, den), Fraction(im, den)
    return f"{re}{'-' if im < 0 else '+'}{abs(im)}j"


def check_choi_positive(specs, psd_tol):
    """The exact least Choi eigenvalue of each spec is >= -psd_tol."""
    wit = None
    for spec in specs:
        mn = choi_min_eigenvalue(spec)
        if mn < -psd_tol:
            wit = {"mu": spec.mu, "nu": spec.nu, "k": spec.k,
                   "min_eigenvalue": str(mn)}
    return wit, len(specs)


def check_berezin_sum(cases):
    """symbol(T(A)) = E_nu applied to the inverse Berezin transform of
    symbol(A), for the random A of each (spec, entries) of the cases."""
    wit = None
    for spec, entries in cases:
        a = _from_dense(spec.mu, *entries)
        f = inverse_berezin(spec.mu, symbol(a))
        if not functions_equal(e_nu_apply(spec, f),
                               symbol(apply_channel(spec, a))):
            wit = {"mu": spec.mu, "nu": spec.nu, "k": spec.k}
    return wit, len(cases)


def check_kernel_bound(grid):
    """I_n(nu) <= 4^n at each (n, nu) of the grid."""
    wit = None
    for n, nu in grid:
        if i_n_integral(n, nu) > 2 ** (2 * n):
            wit = {"n": n, "nu": nu}
    return wit, len(grid)


def check_binomial_sum(grid):
    """The binomial-sum identity and bound at each (kappa, j) of the grid."""
    wit = None
    for kappa, j in grid:
        rep = fund_ineq_check(kappa, j)
        if not (rep["identity_holds"] and rep["bound_holds"]):
            wit = {"kappa": kappa, "j": j, "sum": str(rep["sum"])}
    return wit, len(grid)


def _run_chunk(task):
    """(witness, cases, seconds) of one check on one chunk of its grid."""
    check, chunk, args = task
    start = time.perf_counter()
    return (*check(chunk, *args), time.perf_counter() - start)


def run_verify_suites(mu_max: int, nu_max: int, seed: int,
                      psd_tol: float = 1e-10,
                      corrupt_c_squared: bool = False,
                      timings: Optional[dict] = None) -> dict:
    """Run the checks into a JSON-ready report; a check is ok when it has
    no witness.  ``corrupt_c_squared`` scales the trace check's outputs
    by 3/2 (fault injection).

    Every random operator's entries are drawn here first, in the order
    of a serial sweep.  Each check's grid is cut into one contiguous
    chunk per worker, their lengths equal give or take one case, and
    the workers take the chunks in check order (:func:`_fork_map`).  A
    check's witness is that of its last failing chunk, so the report is
    the same for any worker count and any schedule.
    ``timings`` receives ``workers``, ``wall_s`` and ``suites``: one
    ``{identity, cases, elapsed_s}`` per check, its seconds summed over
    its chunks; the report holds none of them."""
    start = time.perf_counter()
    rng = random.Random(seed)
    levels = [(mu, nu) for mu in range(mu_max + 1)
              for nu in range(mu, nu_max + 1)]
    specs = [ChannelSpec(mu, nu, k) for mu, nu in levels
             for k in range(mu + 1)]
    # (identity, check, grid, extra arguments)
    checks = [
        ("gauss_summation", check_gauss_summation, GAUSS_GRID, ()),
        ("schur_orthogonality_completeness", check_orthogonality, levels, ()),
        ("trace_preservation", check_trace_preservation,
         draw_entries(specs, rng, N_RANDOM),
         (Fraction(3, 2) if corrupt_c_squared else 1,)),
        ("choi_positive", check_choi_positive, specs, (psd_tol,)),
        ("berezin_sum_identity", check_berezin_sum,
         draw_entries(specs, rng, 1), ()),
        ("kernel_integral_bound", check_kernel_bound,
         kernel_bound_grid(nu_max), ()),
        ("binomial_sum_inequality", check_binomial_sum, BINOMIAL_GRID, ()),
    ]
    workers = _worker_count()
    tasks = [(check, chunk, args) for _, check, grid, args in checks
             for chunk in _chunks(grid, workers)]
    done = _fork_map(_run_chunk, tasks)
    results, suites = [], []
    for i, (name, *_) in enumerate(checks):
        chunks = done[i * workers:(i + 1) * workers]
        witness = next((w for w, _, _ in reversed(chunks) if w is not None),
                       None)
        results.append({"identity": name, "ok": witness is None,
                        "witness": witness})
        suites.append({"identity": name,
                       "cases": sum(cases for _, cases, _ in chunks),
                       "elapsed_s": sum(s for _, _, s in chunks)})
    if timings is not None:
        timings.update(workers=workers, suites=suites,
                       wall_s=time.perf_counter() - start)
    return {"config": {"mu_max": mu_max, "nu_max": nu_max, "seed": seed,
                       "n_random": N_RANDOM, "psd_tol": psd_tol},
            "results": results, "all_ok": all(r["ok"] for r in results)}


def cmd_verify(args) -> int:
    if args.mu < 0 or args.nu_max < args.mu:
        print("error: need 0 <= mu <= nu", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    timings: dict = {}
    report = run_verify_suites(args.mu, args.nu_max, args.seed,
                               psd_tol=args.tol,
                               corrupt_c_squared=args.corrupt_c2,
                               timings=timings)
    _emit(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.timings:
        _atomic_write(args.timings, json.dumps(
            dict(timings, version=__version__), indent=2,
            sort_keys=True) + "\n")
    return EXIT_OK if report["all_ok"] else EXIT_ASSERTION_FAILED


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def spectrum_rows(mu: int) -> List[dict]:
    # once per m: the Berezin eigenvalue, and its numerator row, whose
    # prefix of length k + 1 is _berezin_numerators(mu, k, m)
    per_m = []
    for m in range(mu + 1):
        b = berezin_eigenvalue(mu, m)
        per_m.append((str(b), float(b), _berezin_numerators(mu, mu, m)))
    rows = []
    for k in range(mu + 1):
        for m, (b_str, b_float, berezin) in enumerate(per_m):
            e3 = e_eigenvalue_3f2(mu, k, m)
            es = _limit_eigenvalue(mu, k, m, berezin[:k + 1])
            rows.append({
                "mu": mu, "k": k, "m": m,
                "berezin_exact": b_str, "berezin_float": b_float,
                "e_3f2_exact": str(e3), "e_3f2_float": float(e3),
                "e_sum_exact": str(es), "forms_agree": e3 == es})
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
    if len(args.nu) < 2 or args.nu[0] < args.mu \
            or any(a >= b for a, b in zip(args.nu, args.nu[1:])):
        print("error: --nu needs two or more strictly increasing levels, "
              "each >= mu", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if any(n < 1 for n in args.n):
        print("error: every moment order n must be >= 1", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if not args.n and not args.phi:
        print("error: nothing to check: give a moment order (--n) or --phi",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR
    # the highest moment that any n or phi needs
    nmax = max(args.n + [len(args.phi) - 1 if args.phi else 0])
    points = limit_grid(args.mu, nmax).size
    if points > MAX_LIMIT_GRID_POINTS:
        print(f"error: a limit quadrature grid of {points} points (its "
              f"degree is mu times the largest n or deg phi) exceeds "
              f"{MAX_LIMIT_GRID_POINTS}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    rng = random.Random(args.seed)
    _, f = random_band_limited_state(args.mu, rng)
    # the input's band once; one set of moments per level, shared by every
    # moment order and by phi; the levels queue for the workers largest
    # output first, which for increasing nu is in reverse
    a = toeplitz_band(f, args.mu)
    specs = [ChannelSpec(args.mu, nu, args.k) for nu in reversed(args.nu)]
    lhs = _fork_map(lambda spec: channel_output_moments(spec, a, nmax),
                    specs)[::-1]
    rhs = limit_moments(args.mu, args.k, f, nmax)
    records = [ConvergenceRecord(args.mu, args.k, args.nu, f"n={n}",
                                 [m[n - 1] for m in lhs], rhs[n - 1], args.tol)
               for n in args.n]
    if args.phi:
        records.append(ConvergenceRecord(
            args.mu, args.k, args.nu, f"phi=deg{len(args.phi) - 1}",
            [functional_from_moments(args.phi, m) for m in lhs],
            functional_from_moments(args.phi, rhs), args.tol))
    summary = {
        "config": {"mu": args.mu, "k": args.k, "nu": args.nu, "n": args.n,
                   "phi": args.phi, "seed": args.seed},
        "records": [r.to_row() for r in records],
        "all_converged": all(r.converged for r in records),
    }
    _emit(args.out, _records_to_csv(records))
    _emit(args.out and args.out + ".summary.json",
          json.dumps(summary, indent=2, sort_keys=True) + "\n")
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
    _emit(args.out, json.dumps(channel_report(spec), indent=2,
                               sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> List[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _phi_arg(text: str) -> List[float]:
    if text.strip() == "entropy8":
        return list(ENTROPY8)
    coeffs = [float(v) for v in text.split(",") if v.strip()]
    if not coeffs:
        raise argparse.ArgumentTypeError("needs at least one coefficient")
    return coeffs


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
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the exact-identity suites")
    pv.add_argument("--mu", type=int, default=3, help="max input level")
    pv.add_argument("--nu-max", dest="nu_max", type=int, default=7)
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--tol", type=float, default=1e-10,
                    help="positive-semidefiniteness tolerance")
    pv.add_argument("--out", default=None)
    pv.add_argument("--timings", default=None, metavar="FILE",
                    help="write each suite's case count and elapsed "
                         "seconds, the worker count, the wall time and "
                         "the package version, as JSON")
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
    pc.add_argument("--nu", type=_int_list, default=[10, 20, 40, 80],
                    help="comma list of levels, default 10,20,40,80")
    pc.add_argument("--n", type=_int_list, default=[1, 2, 3, 4],
                    help="comma list of moment orders")
    pc.add_argument("--phi", type=_phi_arg, default=None,
                    help="polynomial coefficients, ascending degree; "
                         "'entropy8' for the built-in degree-8 entropy fit")
    pc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pc.add_argument("--tol", type=float, default=GAP_FLOOR,
                    help="noise floor below which gaps count as converged")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_converge)

    pd = sub.add_parser("channel-dump", help="structural channel report")
    pd.add_argument("--mu", type=int, required=True)
    pd.add_argument("--nu", dest="nu_single", type=int, required=True)
    pd.add_argument("--k", type=int, required=True)
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
    # |phi| <= sum |c_i| on [0, 1]; a functional adds <= mu + max nu + 1 values
    if phi is not None and not math.isfinite(
            sum(map(abs, phi)) * (args.mu + max(args.nu, default=0) + 1)):
        print("error: --phi coefficients too large or not finite",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if not (math.isfinite(tol) and tol >= 0):
        print("error: --tol must be finite and >= 0", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    # every report target is checked before anything runs
    out = getattr(args, "out", None)
    targets = []
    if out:
        targets = [("--out", out)] + ([("--out", out + ".summary.json")]
                                      if args.command == "converge" else [])
    if getattr(args, "timings", None):
        # the sidecar, written last, would replace a report in its file
        if out and os.path.realpath(out) == os.path.realpath(args.timings):
            print(f"error: --out and --timings name the same file {out}",
                  file=sys.stderr)
            return EXIT_CONFIG_ERROR
        targets.append(("--timings", args.timings))
    for option, target in targets:
        problem = _unwritable(target)
        if problem:
            print(f"error: cannot write {option} {target}: {problem}",
                  file=sys.stderr)
            return EXIT_CONFIG_ERROR
    try:
        return args.func(args)
    except FloatRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()

"""Command-line front end: identity verification sweeps, eigenvalue
tables, convergence experiments and channel dumps.

Exit codes: 0 = all assertions pass, 1 = a mathematical assertion
failed, 2 = usage/config error.  Reports are written atomically and are
byte-identical for identical (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import functools
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
    InvalidSpecError,
    apply_channel,
    apply_normalized_channel,
    channel_report,
    choi_min_eigenvalue,
    pk_orthogonality_check,
)
from .quadrature import (
    ENTROPY8,
    MAX_LIMIT_GRID_POINTS,
    ConvergenceRecord,
    FloatRangeError,
    _check_input_level,
    channel_output_moments,
    functional_from_moments,
    fund_ineq_check,
    i_n_integral,
    input_band,
    limit_grid,
    limit_moments,
    random_band_limited_state,
    random_entries,
)
from .repspace import _from_dense, _trace_integers
from .symbolcalc import (
    _berezin_numerators,
    _berezin_sum,
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
PSD_TOL = 1e-10  # the Choi check's tolerance in verify, kept in its report


class ConfigError(ValueError):
    """Bad input, which :func:`main` reports as one 'error:' line, exit 2."""


def _not_regular(path: str) -> bool:
    """path exists and is no regular file: a device or a FIFO, which a
    replace would swap for a regular file."""
    return os.path.exists(path) and not os.path.isfile(path)


def _atomic_write(path: str, data: str):
    """Write data to path through a temporary file replaced onto it, or
    straight into a device or FIFO.  A symlink is followed: the file it
    names is written, in its own directory, and the link is kept."""
    path = os.path.realpath(path)
    if _not_regular(path):
        with open(path, "w") as fh:
            fh.write(data)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-",
                               text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        # open()'s mode, not mkstemp's 0600; two umask calls are safe, as
        # the CLI runs no threads and writes after the map reaps its workers
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _unwritable(path: str) -> Optional[str]:
    """Why a report cannot be written to path, or None.  The probe makes
    and removes a temporary file where :func:`_atomic_write` makes one,
    or asks for write access to a device or FIFO."""
    path = os.path.realpath(path)
    if os.path.islink(path):    # a loop, which realpath leaves unresolved
        return "Too many levels of symbolic links"
    if os.path.isdir(path):
        return "is a directory"
    if _not_regular(path):
        return None if os.access(path, os.W_OK) else "Permission denied"
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
    except OSError as exc:
        return exc.strerror or str(exc)
    os.close(fd)
    os.unlink(tmp)
    return None


def _emit(path: Optional[str], data: str):
    """Write data to path by :func:`_atomic_write`, or to stdout, flushed:
    a failed write, a full disk say, is a :class:`ConfigError` here."""
    try:
        if path:
            _atomic_write(path, data)
        else:
            sys.stdout.write(data)
            sys.stdout.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write {path or 'stdout'}: "
                          f"{exc.strerror or exc}") from exc


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
    """The task indices, 4 bytes each, this process takes from the queue."""
    while record := os.read(queue, 4):
        yield int.from_bytes(record, "little")


_NOT_RUN = object()   # a task that a failed worker took
FORK_AFTER_S = 0.05   # the seconds a map runs alone before it forks


def _fork_map(fn, tasks: Sequence) -> list:
    """[fn(t) for t in tasks], run in the parent alone unless a one-shot
    ITIMER_REAL of FORK_AFTER_S fires first.  Its SIGALRM handler then
    forks the workers, amid the parent's task, and queues the indices not
    yet taken in a pipe; each process, the parent as worker 0, takes the
    next as it comes free, so tasks that come largest first run
    largest-job-first, on at most :func:`_worker_count` processes, one
    per task at most (the CLI runs no threads, so the fork is safe).  The
    map stays serial off the main thread, under a caller's ITIMER_REAL
    and where a pipe or a fork fails.

    A worker sends its [index, result] pairs back through a pipe as
    JSON, so ``fn`` returns JSON values (a tuple comes back as a list).
    A failed worker's tasks (an exception or a nonzero exit) rerun in the
    parent in task order, where an exception surfaces as in a serial run.
    Every child is waited for, or killed first if the parent raises.
    """
    n = min(_worker_count(), len(tasks))
    if n > 1:
        import _signal as signal   # signal's C core, with no enum wrappers
    if n < 2 or signal.getitimer(signal.ITIMER_REAL)[0]:
        return [fn(t) for t in tasks]
    results, pending = [_NOT_RUN] * len(tasks), iter(range(len(tasks)))
    children, queue = {}, []   # pid -> its result pipe; the queue's end

    def fork_workers(signum, frame):
        # never raises into the task it interrupts: a failed fork forks fewer
        fds = []   # the queue's read end and feed, then a worker's pipe
        try:
            fds += os.pipe()
            gc.freeze()   # a worker's collections then copy no parent page
            for _ in range(n - 1):
                fds += os.pipe()
                if (pid := os.fork()) == 0:
                    # a worker: its results and exit 0, or exit 1; no return
                    try:
                        os.close(fds[1])
                        with open(fds[3], "w") as fh:
                            json.dump([[i, fn(tasks[i])]
                                       for i in _taken(fds[0])], fh)
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(fds.pop())   # the worker's write end
                children[pid] = open(fds.pop())   # and its read end
        except OSError:
            pass
        for fd in fds[2:] if children else fds:
            os.close(fd)
        if children:   # queue the rest; closing the feed ends the queue
            queue.append(fds[0])
            with open(fds[1], "wb") as feed:
                feed.write(b"".join(i.to_bytes(4, "little") for i in pending))

    try:
        previous = signal.signal(signal.SIGALRM, fork_workers)
    except ValueError:   # off the main thread
        return [fn(t) for t in tasks]
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, FORK_AFTER_S)
            for i in pending:
                results[i] = fn(tasks[i])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)   # runs a handler due
        for i in _taken(queue[0]) if queue else ():
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
        for fd in queue:
            os.close(fd)
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
# verify: one function per identity check.  Each checks one case of its
# grid and returns the case's witness dict, or None; run_check runs a
# check over a chunk of its grid.
# ---------------------------------------------------------------------------

# (kappa, j) of the binomial-sum check, 0 <= j <= kappa <= 30
BINOMIAL_GRID = tuple((kappa, j) for kappa in range(31)
                      for j in range(kappa + 1))


def gauss_grid() -> list:
    """(n, b, c) of the Gauss sweep: n and |b| <= 12, max(n, 1) <= |c| <= 20,
    the signs of each |c| in the set order of {|c|, -|c|}.  Built per
    call: at import its 9,700 cases would slow every command's start."""
    c_values = {n: [c for ac in range(max(n, 1), 21) for c in {ac, -ac}]
                for n in range(13)}
    return [(n, b, c) for n in range(13) for b in range(-12, 13)
            for c in c_values[n]]


def kernel_bound_grid(nu_max: int) -> list:
    """(n, nu) for 1 <= n <= 4 and even nu <= nu_max."""
    return [(n, nu) for n in range(1, 5) for nu in range(0, nu_max + 1, 2)]


def draw_entries(specs, rng, draws) -> list:
    """(spec, entries) for ``draws`` random operators per spec, drawn in
    that order by :func:`random_entries`.  A check builds each operator
    from its entries, in the worker that checks it."""
    return [(spec, random_entries(spec.mu, rng))
            for spec in specs for _ in range(draws)]


@functools.lru_cache(maxsize=13)   # n <= 12
def _pochhammers(n: int) -> dict:
    """(c)_n = c(c+1)...(c+n-1) at every c and c - b of the Gauss sweep."""
    return {c: math.prod(range(c, c + n)) for c in range(-32, 33)}


def check_gauss_summation(case):
    """2F1(-n, b; c; 1) = (c-b)_n / (c)_n at (n, b, c), the integer
    Pochhammers compared crosswise with the unreduced sum top/bot."""
    n, b, c = case
    poch = _pochhammers(n)
    top, bot = terminating_pair((-n, b), (c,))
    if top * poch[c] != bot * poch[c - b]:
        return {"n": n, "b": b, "c": c, "lhs": str(Fraction(top, bot)),
                "rhs": str(Fraction(poch[c - b], poch[c]))}


def check_orthogonality(level):
    """Schur constant, orthogonality and completeness at (mu, nu)."""
    rep = pk_orthogonality_check(*level)
    return None if rep["ok"] else rep["witness"]


def check_trace_preservation(case, fault=1):
    """Tr T(A) = Tr A, crosswise, for the random A of (spec, entries); a
    ``fault`` other than 1 scales T(A), as a wrong c^2 would."""
    spec, entries = case
    a = _from_dense(spec.mu, *entries)
    ta = apply_normalized_channel(spec, a)
    if fault != 1:
        ta = ta.scale(fault)
    (da, ra, ia), (dt, rt, it) = map(_trace_integers, (a, ta))
    if ra * dt != rt * da or ia * dt != it * da:
        return {"mu": spec.mu, "nu": spec.nu, "k": spec.k,
                "trace_in": _complex_str(da, ra, ia),
                "trace_out": _complex_str(dt, rt, it)}


def _complex_str(den, re, im):
    """(re + i im) / den as "re+imj" or "re-imj", each part in lowest
    terms."""
    re, im = Fraction(re, den), Fraction(im, den)
    return f"{re}{'-' if im < 0 else '+'}{abs(im)}j"


def check_choi_positive(spec):
    """The exact least Choi eigenvalue of spec is >= -PSD_TOL."""
    mn = choi_min_eigenvalue(spec)
    if mn < -PSD_TOL:
        return {"mu": spec.mu, "nu": spec.nu, "k": spec.k,
                "min_eigenvalue": str(mn)}


def check_berezin_sum(case):
    """symbol(T(A)) = E_nu applied to the inverse Berezin transform of
    symbol(A), for the random A of (spec, entries)."""
    spec, entries = case
    a = _from_dense(spec.mu, *entries)
    f = inverse_berezin(spec.mu, symbol(a))
    if not functions_equal(e_nu_apply(spec, f),
                           symbol(apply_channel(spec, a))):
        return {"mu": spec.mu, "nu": spec.nu, "k": spec.k}


def check_kernel_bound(case):
    """I_n(nu) <= 4^n at (n, nu)."""
    n, nu = case
    if i_n_integral(n, nu) > 2 ** (2 * n):
        return {"n": n, "nu": nu}


def check_binomial_sum(case):
    """The binomial-sum identity and bound at (kappa, j)."""
    kappa, j = case
    rep = fund_ineq_check(kappa, j)
    if not (rep["identity_holds"] and rep["bound_holds"]):
        return {"kappa": kappa, "j": j, "sum": str(rep["sum"])}


def run_check(check, grid, *args):
    """(witness, cases, seconds) of ``check(case, *args)`` over the cases
    of ``grid``: the witness of the last failing case, or None, the case
    count and the seconds the loop took."""
    start, witness = time.perf_counter(), None
    for case in grid:
        found = check(case, *args)
        if found is not None:
            witness = found
    return witness, len(grid), time.perf_counter() - start


def run_verify_suites(mu_max: int, nu_max: int, seed: int,
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
        ("gauss_summation", check_gauss_summation, gauss_grid(), ()),
        ("schur_orthogonality_completeness", check_orthogonality, levels, ()),
        ("trace_preservation", check_trace_preservation,
         draw_entries(specs, rng, N_RANDOM),
         (Fraction(3, 2) if corrupt_c_squared else 1,)),
        ("choi_positive", check_choi_positive, specs, ()),
        ("berezin_sum_identity", check_berezin_sum,
         draw_entries(specs, rng, 1), ()),
        ("kernel_integral_bound", check_kernel_bound,
         kernel_bound_grid(nu_max), ()),
        ("binomial_sum_inequality", check_binomial_sum, BINOMIAL_GRID, ()),
    ]
    workers = _worker_count()
    tasks = [(check, chunk, *args) for _, check, grid, args in checks
             for chunk in _chunks(grid, workers)]
    done = _fork_map(lambda task: run_check(*task), tasks)
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
                       "n_random": N_RANDOM, "psd_tol": PSD_TOL},
            "results": results, "all_ok": all(r["ok"] for r in results)}


def cmd_verify(args) -> int:
    if args.mu < 0 or args.nu_max < args.mu:
        raise ConfigError("need 0 <= mu <= nu")
    timings: dict = {}
    report = run_verify_suites(args.mu, args.nu_max, args.seed,
                               corrupt_c_squared=args.corrupt_c2,
                               timings=timings)
    _emit(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.timings:
        _emit(args.timings, json.dumps(
            dict(timings, version=__version__), indent=2,
            sort_keys=True) + "\n")
    return EXIT_OK if report["all_ok"] else EXIT_ASSERTION_FAILED


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def spectrum_rows(mu: int) -> List[dict]:
    """Rows (k, m), k, m <= mu, of the limit eigenvalue as its 3F2 form and
    as the Berezin sum, whose numerator over (mu+m+1)! (mu-m)! forms_agree
    compares crosswise with the 3F2 fraction; one Berezin row per m."""
    per_m = []
    for m in range(mu + 1):
        b = berezin_eigenvalue(mu, m)
        per_m.append((str(b), float(b), *_berezin_numerators(mu, mu, m)))
    rows = []
    for k in range(mu + 1):
        for m, (b_str, b_float, den, berezin) in enumerate(per_m):
            e3 = e_eigenvalue_3f2(mu, k, m)
            num = _berezin_sum(mu, k, berezin)
            e3_str = str(e3)
            agree = num * e3.denominator == den * e3.numerator
            rows.append({
                "mu": mu, "k": k, "m": m,
                "berezin_exact": b_str, "berezin_float": b_float,
                "e_3f2_exact": e3_str, "e_3f2_float": float(e3),
                "e_sum_exact": e3_str if agree else str(Fraction(num, den)),
                "forms_agree": agree})
    return rows


def cmd_spectrum(args) -> int:
    if args.mu < 0:
        raise ConfigError("mu must be nonnegative")
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
    # |phi| <= sum |c_i| on [0, 1]; a functional adds <= mu + max nu + 1
    # values, a count that must itself read as a float
    values = args.mu + max(args.nu, default=0) + 1
    if args.phi is not None and abs(values) > sys.float_info.max:
        raise FloatRangeError("--mu + max --nu exceeds the float range")
    if args.phi is not None and not math.isfinite(
            sum(map(abs, args.phi)) * values):
        raise ConfigError("--phi coefficients too large or not finite")
    if args.mu < 0 or args.k < 0 or args.k > args.mu:
        raise ConfigError("need 0 <= k <= mu")
    if len(args.nu) < 2 or args.nu[0] < args.mu \
            or any(a >= b for a, b in zip(args.nu, args.nu[1:])):
        raise ConfigError("--nu needs two or more strictly increasing "
                          "levels, each >= mu")
    if any(n < 1 for n in args.n):
        raise ConfigError("every moment order n must be >= 1")
    if not args.n and not args.phi:
        raise ConfigError("nothing to check: give a moment order (--n) or "
                          "--phi")
    # the highest moment that any n or phi needs
    nmax = max(args.n + [len(args.phi) - 1 if args.phi else 0])
    points = limit_grid(args.mu, nmax).size
    if points > MAX_LIMIT_GRID_POINTS:
        raise ConfigError(f"a limit quadrature grid of {points} points (its "
                          f"degree is mu times the largest n or deg phi) "
                          f"exceeds {MAX_LIMIT_GRID_POINTS}")
    _check_input_level(args.mu)   # before the input's exact work
    rng = random.Random(args.seed)
    a, f = random_band_limited_state(args.mu, rng)
    # the input's band once; one set of moments per level, shared by every
    # moment order and by phi; the levels queue for the workers largest
    # output first, which for increasing nu is in reverse
    band = input_band(a)
    specs = [ChannelSpec(args.mu, nu, args.k) for nu in reversed(args.nu)]
    lhs = _fork_map(lambda spec: channel_output_moments(spec, band, nmax),
                    specs)[::-1]
    rhs = limit_moments(args.mu, args.k, f, nmax)
    records = [ConvergenceRecord(args.mu, args.k, args.nu, f"n={n}",
                                 [m[n - 1] for m in lhs], rhs[n - 1])
               for n in args.n]
    if args.phi:
        records.append(ConvergenceRecord(
            args.mu, args.k, args.nu, f"phi=deg{len(args.phi) - 1}",
            [functional_from_moments(args.phi, m) for m in lhs],
            functional_from_moments(args.phi, rhs)))
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
    spec = ChannelSpec(args.mu, args.nu_single, args.k)
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
    """Raises a value it cannot parse, a missing or an unknown argument as
    a :class:`ConfigError`, as every other check of the input does."""

    def error(self, message):
        raise ConfigError(message)


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
    pv.add_argument("--out", default=None)
    pv.add_argument("--timings", default=None, metavar="FILE",
                    help="write each suite's cases and seconds, the most "
                         "processes the run may use (a short run forks "
                         "none), the wall time and the version, as JSON")
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
    """Run one command; bad input, wherever it is found, is one 'error:'
    line on stderr and exit 2."""
    try:
        args = build_parser().parse_args(_attach_dash_values(
            sys.argv[1:] if argv is None else argv))
        # every report target is checked before anything runs
        out = getattr(args, "out", None)
        targets = [("--out", out)] if out else []
        if out and args.command == "converge":
            targets.append(("--out", out + ".summary.json"))
        if getattr(args, "timings", None):
            # the sidecar, written last, would replace a report in its file
            if out and os.path.realpath(out) == os.path.realpath(args.timings):
                raise ConfigError(
                    f"--out and --timings name the same file {out}")
            targets.append(("--timings", args.timings))
        for option, target in targets:
            problem = _unwritable(target)
            if problem:
                raise ConfigError(f"cannot write {option} {target}: {problem}")
        return args.func(args)
    except SystemExit as exc:   # --help and --version print and exit 0
        return exc.code or EXIT_OK
    except (ConfigError, FloatRangeError, InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()

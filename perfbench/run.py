"""su2chan benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; su2chan is imported from
``src/``.  Each pass runs in a fresh interpreter (``child.py``), so every
pass pays the cold costs a CLI user pays.

``--trace 0`` runs passes until ``--seconds`` have gone by (at least one)
and reports the end-to-end metrics: medians over the passes, with failed
passes left out of every timing.  ``--trace 1`` runs one untraced and one
traced pass of the same inputs and reports the per-module metrics of the
traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the samples, their counts and the environment.  The exit code is
0 when every check passed, 1 when one failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

from tracer import layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up samples per run: set-up is a quarter second, so five fresh
# interpreters give a median that a few milliseconds of start-up noise
# do not move.
SETUP_SAMPLES = 5
# Passes per run at least, whatever --seconds says.  The host's speed
# drifts by up to 1.7x over seconds to minutes (README.md, "Host drift"),
# so a run must span enough of it: a converge pass is one 15 s CLI call
# and an exact-combinatorics pass about 7 s.
MIN_PASSES = {"converge": 3, "exact-combinatorics": 3}
# The whole run ends within this budget.  A pass after the first (of an
# untraced run) starts only if it is expected to end in time; a pass still running at
# the end of the budget is killed and reported as a timeout.
RUN_BUDGET_S = 170.0


def ref_loop_ms() -> float:
    """A fixed pure-Python Fraction loop: a gauge of host speed only."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 20001):
        s += Fraction(1, i * (i + 1))
    elapsed = (time.perf_counter() - t0) * 1e3
    if s != Fraction(20000, 20001):
        raise RuntimeError("reference loop computed a wrong sum")
    return elapsed


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts child passes and collects their results."""

    def __init__(self, workload: str, seed: int, workdir: str,
                 corrupt_c2: bool):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.corrupt_c2 = corrupt_c2
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.count = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def fits(self, expected_s: float) -> bool:
        """Whether a pass expected to take ``expected_s`` seconds, with a
        margin, ends before the run's budget does."""
        return time.monotonic() + 1.5 * expected_s + 1.0 < self.deadline

    def run(self, setup_only=False, trace=False, want_env=False) -> dict:
        self.count += 1
        result_path = os.path.join(self.workdir, f"pass{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--result", result_path]
        if trace:
            cmd += ["--trace", os.path.join(self.workdir, "spans.bin")]
        if setup_only:
            cmd.append("--setup-only")
        if want_env:
            cmd.append("--env")
        if self.corrupt_c2:
            cmd.append("--corrupt-c2")
        spawned = time.monotonic()
        limit = max(0.0, self.deadline - spawned)
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.workdir,
                                stdin=subprocess.DEVNULL, stdout=sys.stderr)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.send_signal(signal.SIGKILL)

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = {"exit": proc.returncode, "wall_s": time.monotonic() - spawned,
               "peak_rss_mb": usage.ru_maxrss / 1024.0, "timeouts": 0}
        if proc.returncode == 0:
            with open(result_path) as fh:
                out.update(json.load(fh))
            out["setup_s"] = out["ready"] - spawned
        elif killed.is_set():
            # Not an output check: the pass ran out of time, so its output
            # is unknown.  It is counted apart from failed checks.
            out.update(checks_run=1, checks_failed=0, timeouts=1, failures=[
                f"timeout: pass killed after {limit:.1f} s, at the end of "
                f"the run's {RUN_BUDGET_S:.0f} s budget"])
        else:
            out.update(checks_run=1, checks_failed=1, failures=[
                f"pass exited with code {proc.returncode}"])
        out["ok"] = out["exit"] == 0 and out.get("checks_failed", 0) == 0
        return out


def invoke(root: str, workload: str, seed: int, seconds, trace: int = 0,
           extra=()):
    """Run ``root``'s run.py in a subprocess; returns (exit code, result,
    details), the last two as None when the output holds no result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None, None


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(runner: Runner, seconds: float, details: dict):
    passes, setups, refs = [], [], []
    t_start = time.monotonic()
    while not passes or (
            runner.fits(max(p["wall_s"] for p in passes))
            and (len(passes) < MIN_PASSES.get(runner.workload, 1)
                 or time.monotonic() - t_start < seconds)):
        refs.append(ref_loop_ms())
        p = runner.run(want_env=not passes)
        passes.append(p)
        if not p["ok"]:
            break
        setups.append(p["setup_s"])
    refs.append(ref_loop_ms())
    setup_walls, failed_setups = [0.0], []
    while (passes[-1]["ok"]
           and len(setups) < SETUP_SAMPLES
           and runner.fits(max(max(setups), *setup_walls))):
        p = runner.run(setup_only=True)
        if not p["ok"]:
            failed_setups.append(p)   # its failure or timeout is reported
            break
        setups.append(p["setup_s"])
        setup_walls.append(p["wall_s"])
    good = [p for p in passes if p["ok"]]
    run_s = [p["run_s"] for p in good]
    case_ms = [t * 1e3 for p in good for t in p["case_s"]]
    rss = [p["peak_rss_mb"] for p in passes]
    details.update(
        passes=len(passes), passes_ok=len(good), run_s=run_s,
        setup_s=setups, cases=len(case_ms), peak_rss_mb=rss,
        ref_loop_ms=refs, env=passes[0].get("env"))
    if case_ms:
        # Per-case latency; on verify and converge one case is the whole
        # CLI call, so these repeat run_s there.
        details["case_ms"] = {"p50": percentile(case_ms, 50),
                              "p90": percentile(case_ms, 90)}
    metrics = {}
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    if good:
        metrics["run_s"] = {"value": statistics.median(run_s), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    return passes + failed_setups, metrics


def per_layer(runner: Runner, details: dict):
    refs = [ref_loop_ms()]
    plain = runner.run(want_env=True)
    refs.append(ref_loop_ms())
    traced = runner.run(trace=True)
    refs.append(ref_loop_ms())
    passes = [plain, traced]
    metrics = {}
    if traced["ok"]:
        metrics = layer_metrics(traced["trace"])
    metrics["machine.ref_loop_ms"] = {"value": statistics.median(refs),
                                      "unit": "ms"}
    if plain["ok"] and traced["ok"]:
        metrics["tracing.overhead_ratio"] = {
            "value": traced["run_s"] / plain["run_s"], "unit": "ratio"}
    details.update(passes=2, run_s=[p.get("run_s") for p in passes],
                   spans=traced.get("trace", {}).get("spans"),
                   ref_loop_ms=refs, env=plain.get("env"))
    return passes, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-c2", action="store_true",
                    help=argparse.SUPPRESS)   # output-gate self-test only
    args = ap.parse_args(argv)
    if args.corrupt_c2 and args.workload != "verify":
        ap.error("--corrupt-c2 applies to the verify workload only")
    if not os.path.isfile(os.path.join(ROOT, "src", "su2chan", "__init__.py")):
        print(f"error: no su2chan sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(args.workload, args.seed, workdir, args.corrupt_c2)
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "git_commit": git_commit()}
    try:
        if args.trace:
            passes, metrics = per_layer(runner, details)
        else:
            passes, metrics = end_to_end(runner, args.seconds, details)
    finally:
        if not args.trace:
            shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.get("checks_run", 0) for p in passes)
    checks_failed = sum(p.get("checks_failed", 0) for p in passes)
    timeouts = sum(p["timeouts"] for p in passes)
    # A pass that ran out of time has no verified output, so it counts as
    # failed; the details line keeps failed checks and timeouts apart.
    failed = checks_failed + timeouts
    details.update(checks_failed=checks_failed, timeouts=timeouts)
    details["failures"] = [f for p in passes for f in p.get("failures", [])][:5]
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --result PATH
        [--trace SPANS_PATH] [--setup-only] [--env] [--corrupt-c2]

Set-up (interpreter start, ``import su2chan``, input generation and any
warm-up the workload needs) ends at ``ready``, a ``time.monotonic()``
reading the parent compares with its own reading taken before it started
this process.  The timed pass then runs every case back to back; the
checks run after it.  The result is one JSON file at ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _blas_threads():
    """Threads of the BLAS numpy loaded, read from the library itself."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy as np
    import su2chan

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "su2chan": su2chan.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--env", action="store_true")
    ap.add_argument("--corrupt-c2", action="store_true")
    args = ap.parse_args()

    import su2chan  # noqa: F401  (set-up includes the package import)

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workdir = os.path.dirname(os.path.abspath(args.result))
    cases = workloads.prepare(args.workload, args.seed, workdir,
                              args.corrupt_c2)
    ready = time.monotonic()
    result = {"ready": ready, "cases": len(cases)}
    if not args.setup_only:
        latencies, outputs = [], []
        t_pass = time.perf_counter()
        for i, (_, call, _) in enumerate(cases):
            if tracer is not None:
                tracer.current_case = i
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:      # a raising case is a failed check
                out = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        run_s = time.perf_counter() - t_pass
        failures = []
        for (label, _, check), out in zip(cases, outputs):
            if isinstance(out, Exception):
                problem = f"raised {type(out).__name__}: {out}"
            else:
                try:
                    problem = check(out)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append(f"{label}: {problem}")
        result.update(run_s=run_s, case_s=latencies, checks_run=len(cases),
                      checks_failed=len(failures), failures=failures[:5])
        if tracer is not None:
            result["trace"] = tracer.aggregate()
            tracer.write(args.trace)
    if args.env:
        result["env"] = environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

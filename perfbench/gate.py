"""Output gate: run every workload, print every metric, fail on any
failed check.

    python3 perfbench/gate.py [--seed N]

Runs ``run.py`` once for each workload named in BENCHMARK.json with
tracing off, then once more with tracing on, and prints every
end-to-end and per-module metric with its unit.

Last, the self-test: a ``verify`` run with the CLI's hidden
``--corrupt-c2`` fault hook must report ``correct: false`` with
``failed > 0``, exit non-zero, and report no ``run_s`` and no
``setup_s``: a failed pass is never a timed success.

Exit code 0 only if every run passed its checks, every run reported
exactly the metrics BENCHMARK.json names, and the self-test failed as
required.  Without ``--seed`` a fresh seed is drawn and printed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from run import ROOT, invoke


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    expected = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().randrange(10 ** 6)
    print(f"seed {seed}, {bench['run_seconds']} s per run")

    ok = True
    rows = []
    plan = [(w, 0) for w in workloads] + [(w, 1) for w in workloads]
    for workload, trace in plan:
        rc, result, details = invoke(ROOT, workload, seed,
                                     bench["run_seconds"], trace)
        if result is None:
            print(f"FAIL {workload} trace={trace}: no result (exit {rc})")
            ok = False
            continue
        names = set(result["metrics"])
        good = (rc == 0 and result["correct"] and result["failed"] == 0
                and names == expected[trace])
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace}: "
              f"{result['attempted'] - result['failed']}/"
              f"{result['attempted']} checks passed, "
              f"{details.get('passes')} passes")
        for f in details.get("failures", []):
            print(f"     {f}")
        if names != expected[trace]:
            print(f"     metrics differ from BENCHMARK.json: "
                  f"{sorted(names ^ expected[trace])}")
        rows += [(workload, name, m["value"], m["unit"])
                 for name, m in result["metrics"].items()]

    print()
    print(f"{'workload':<20} {'metric':<46} {'value':>14}  unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<20} {name:<46} {value:>14.6g}  {unit}")

    rc, result, _ = invoke(ROOT, "verify", seed, 1, 0, ["--corrupt-c2"])
    caught = (result is not None and rc != 0 and not result["correct"]
              and result["failed"] > 0
              and not {"run_s", "setup_s"} & set(result["metrics"]))
    print()
    print(f"{'ok  ' if caught else 'FAIL'} self-test: verify --corrupt-c2 "
          f"{'fails' if caught else 'was not caught'} "
          f"(exit {rc}, failed={result and result['failed']})")
    ok &= caught
    print("gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics on one workload.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed N]

Makes ``--runs`` runs, each on its own seed, and prints for every
end-to-end metric the median of the runs and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median, next to the metric's bound in BENCHMARK.json.  It
marks a share "ok" when it is below a third of the bound, the aim for a
steady benchmark, and "WIDE" otherwise.  ``setup_s`` is marked the same
way, but the acceptance rule holds it only to its median: two sets of
runs must not differ by more than its bound.  Set-up is a quarter second,
so a few milliseconds of interpreter start-up move its share; README.md,
"Host drift", gives the measured figures.  The
per-run values go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from run import ROOT, invoke


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    values: dict = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        rc, result, _ = invoke(ROOT, args.workload, seed,
                               bench["run_seconds"])
        if result is None:
            print(f"seed {seed}: no result (exit {rc})", file=sys.stderr)
            failed += 1
            continue
        failed += result["failed"] + (rc != 0)
        print(f"seed {seed}: {json.dumps(result)}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{args.workload}: {args.runs} runs from seed {args.first_seed}, "
          f"{failed} failed")
    for m in bench["end_to_end"]:
        vs = values.get(m["name"], [])
        if len(vs) < 2:
            print(f"  {m['name']:<12} fewer than two values")
            continue
        q = statistics.quantiles(vs, n=4)
        share = (q[2] - q[0]) / q[1]
        print(f"  {m['name']:<12} median {q[1]:.6g} {m['unit']:<3} "
              f"spread {share:.3f}  bound {m['bound']}  "
              f"{'ok' if share < m['bound'] / 3 else 'WIDE'}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

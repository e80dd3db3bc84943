"""Interleaved comparison of two checkouts on one workload.

    python3 perfbench/ab.py --base DIR --change DIR --workload NAME
        [--pairs 10] [--first-seed N]

Runs pair i on seed first_seed + i, base first in even pairs and change
first in odd ones, so host drift (see README.md) falls on both sides
alike.  Both checkouts must hold identical perfbench/ files.  For each
end-to-end metric it prints each side's median and quartiles, the share
of pairs the change won, and a verdict by the rule in README.md: "gain"
when there are at least 10 pairs, the change wins at least nine tenths
of them, and the medians differ by more than the base's quartile spread; "regression" when the change's
median is worse than the base's by more than the metric's bound; else
"unresolved" when the base's own spread exceeds the bound, and "same".
Use a first seed you did not use while writing the change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys

from run import ROOT, invoke


def bench_digest(root: str) -> str:
    h = hashlib.sha256()
    base = os.path.join(root, "perfbench")
    for dirpath, dirnames, files in sorted(os.walk(base)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def one_run(root, workload, seed, seconds):
    rc, result, _ = invoke(root, workload, seed, seconds)
    if rc != 0 or result is None or not result["correct"]:
        raise SystemExit(f"{root}: {workload} seed {seed} failed its checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args()
    roots = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    if bench_digest(roots["base"]) != bench_digest(roots["change"]):
        print("error: the two checkouts differ under perfbench/",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
            runs[side].append(one_run(roots[side], args.workload, seed,
                                      bench["run_seconds"]))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs from seed {args.first_seed}")
    for m in bench["end_to_end"]:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        b = [r[name] for r in runs["base"]]
        c = [r[name] for r in runs["change"]]
        bq, cq = statistics.quantiles(b, n=4), statistics.quantiles(c, n=4)
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, c))
        worse = sign * (cq[1] - bq[1]) / bq[1]
        if (len(b) >= 10 and wins >= 0.9 * len(b)
                and abs(cq[1] - bq[1]) > bq[2] - bq[0]):
            verdict = "gain"
        elif worse > m["bound"]:
            verdict = "regression"
        elif (bq[2] - bq[0]) / bq[1] > m["bound"]:
            verdict = "unresolved"
        else:
            verdict = "same"
        print(f"  {name:<12} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
              f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']}  "
              f"change won {wins}/{len(b)}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

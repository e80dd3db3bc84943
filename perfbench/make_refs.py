"""Regenerate the stored reference outputs under perfbench/refs/.

    python3 perfbench/make_refs.py [--converge-seeds 24]

Run from the root of a source checkout, at a commit whose outputs are
trusted.  ``refs/verify.json`` is the ``su2chan verify`` report at the CLI
defaults.  ``refs/converge/seed_<s>.csv`` is the ``converge`` CSV for each
seed s in 1..N whose run converges (exit 0); a seed whose gap sequence is
not strictly decreasing exits 1 and is left out of the pool, and the
script lists those seeds.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

from workloads import CONVERGE_ARGS, REFS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cli(args, env):
    return subprocess.run([sys.executable, "-m", "su2chan.cli"] + args,
                          env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--converge-seeds", type=int, default=24)
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    os.makedirs(os.path.join(REFS, "converge"), exist_ok=True)

    if cli(["verify", "--out", os.path.join(REFS, "verify.json")], env) != 0:
        print("verify failed at this commit", file=sys.stderr)
        return 1
    left_out = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for s in range(1, args.converge_seeds + 1):
            out = os.path.join(tmp, "conv.csv")
            rc = cli(CONVERGE_ARGS + ["--seed", str(s), "--out", out], env)
            if rc == 0:
                os.replace(out, os.path.join(REFS, "converge", f"seed_{s}.csv"))
            else:
                left_out.append(s)
    print(f"converge seeds left out (not converged): {left_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

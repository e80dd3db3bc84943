"""The benchmark tracer (perfbench/tracer.py) wraps su2chan's functions
and ``IsotypicDecomposition.project`` from outside.  A traced
``converge`` or ``verify`` runs in a child interpreter, so the wrapping
never touches this test process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED = """
import json, sys
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
from su2chan import cli
code = cli.main(sys.argv[1:])
agg = tracer.aggregate()
print(json.dumps({"code": code, "metrics": layer_metrics(agg),
                  "functions": agg["functions"]}))
"""


def traced_run(*argv):
    """The layer metrics and the per-function aggregate of one traced
    su2chan run, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", TRACED, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    return out["metrics"], out["functions"]


def test_traced_converge_counts_spectra(tmp_path):
    # one set of channel output moments per level, and one limit rule
    _, functions = traced_run("converge", "--mu", "2", "--k", "1",
                              "--nu", "8,16,32", "--n", "2,3", "--seed",
                              "11", "--out", str(tmp_path / "x.csv"))
    assert functions["quadrature.channel_output_moments"]["calls"] == 3
    assert functions["quadrature.limit_moments"]["calls"] == 1


def test_traced_verify_sees_the_checks(tmp_path):
    # the checks call the kernels through cli's names, which the tracer
    # wraps: 10 specs, each with one apply_channel in the Berezin check
    metrics, _ = traced_run("verify", "--mu", "1", "--nu-max", "3",
                            "--out", str(tmp_path / "r.json"))
    assert metrics["intertwine.apply_channel.calls"]["value"] == 10
    assert metrics["intertwine.pk_orthogonality_check.self_s"]["value"] > 0
    assert metrics["symbolcalc.symbol.self_s"]["value"] > 0

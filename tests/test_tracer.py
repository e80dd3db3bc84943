"""The benchmark tracer (perfbench/tracer.py) wraps su2chan's functions
and ``IsotypicDecomposition.project`` from outside, and keys
``channel_output_spectrum`` calls by ``IsotypicFunction.components``.  A
traced ``converge`` runs in a child interpreter, so the wrapping never
touches this test process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_CONVERGE = """
import json, sys
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
from su2chan import cli
code = cli.main(["converge", "--mu", "2", "--k", "1", "--nu", "8,16,32",
                 "--n", "2,3", "--seed", "11", "--out", sys.argv[1]])
metrics = layer_metrics(tracer.aggregate())
print(json.dumps({"code": code, "metrics": metrics}))
"""


def test_traced_converge_counts_spectra(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CONVERGE, str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    metrics = out["metrics"]
    assert metrics["quadrature.channel_output_spectrum.calls"]["value"] == 3
    assert metrics["quadrature.channel_output_spectrum.distinct_ratio"][
        "value"] == 1.0

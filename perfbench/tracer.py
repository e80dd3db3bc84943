"""Span tracer installed from outside the su2chan package.

Every public function of the six su2chan modules is wrapped in every
module namespace that binds it (``cli`` and ``quadrature`` import names
directly, so patching the defining module alone would miss their calls).
``IsotypicDecomposition.project`` and ``numpy.linalg.eigvalsh`` are
wrapped too.  Spans (name, start, end, parent, case) are kept in compact
arrays in memory and written out once, when the pass ends.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import types
from array import array
from time import perf_counter

MODULES = ("exactnum", "repspace", "intertwine", "symbolcalc", "quadrature",
           "cli")


def _operator_key(op):
    return (op.level, tuple(tuple(str(v) for v in row) for row in op.coeffs))


def _function_key(f):
    return (f.level, tuple(_operator_key(c) for c in f.components))


def _spec_key(spec):
    return (spec.mu, spec.nu, spec.k)


# Call keys for the metrics that need more than counts and times:
# distinct J_k specs, distinct (spec, f) spectra, and the (level, m) that
# tells a cold projector call from a warm one.
KEYS = {
    "intertwine.jk_matrix": lambda spec: _spec_key(spec),
    "quadrature.channel_output_spectrum":
        lambda spec, f: (_spec_key(spec), _function_key(f)),
    "repspace.project": lambda dec, m, a: (dec.level, m),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.keys: dict = {}          # span index -> call key
        self.current_case = -1
        self._stack: list = []

    def wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        key_fn = KEYS.get(name)
        sig = inspect.signature(fn) if key_fn is not None else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.case.append(self.current_case)
            self.start.append(0.0)
            self.end.append(0.0)
            if key_fn is not None:
                self.keys[idx] = key_fn(*sig.bind(*args, **kwargs).args)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    def install(self):
        """Wrap the package's public functions in place."""
        import numpy as np
        import su2chan
        from su2chan.repspace import IsotypicDecomposition

        mods = [importlib.import_module(f"su2chan.{m}") for m in MODULES]
        wrapped: dict = {}
        for mod in mods + [su2chan]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith("su2chan."):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
                setattr(mod, attr, wrapped[obj])
        IsotypicDecomposition.project = self.wrap(
            IsotypicDecomposition.project, "repspace.project")
        np.linalg.eigvalsh = self.wrap(np.linalg.eigvalsh,
                                       "numpy.linalg.eigvalsh")

    def aggregate(self) -> dict:
        """Per-name calls, total and self seconds, plus keyed extras."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        seen_keys: dict = {}
        cold_s = warm_s = 0.0
        eig_in_quadrature = 0.0
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            self_s = dur - child[i]
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += self_s
            if i in self.keys:
                keys = seen_keys.setdefault(name, set())
                first = self.keys[i] not in keys
                keys.add(self.keys[i])
                if name == "repspace.project":
                    if first:
                        cold_s += self_s
                    else:
                        warm_s += self_s
            if name == "numpy.linalg.eigvalsh":
                p = self.parent[i]
                if p >= 0 and self.names[self.name_id[p]].startswith(
                        "quadrature."):
                    eig_in_quadrature += self_s
        for name, keys in seen_keys.items():
            stats[name]["distinct"] = len(keys)
        return {"spans": n, "functions": stats,
                "project_cold_s": cold_s, "project_warm_s": warm_s,
                "quadrature_eigvalsh_self_s": eig_in_quadrature}

    def write(self, path: str):
        """Spans as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name_id", "i"], ["parent", "i"],
                             ["case", "i"], ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.case, self.start,
                        self.end):
                arr.tofile(fh)


def _fn(agg, name):
    return agg["functions"].get(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})


def _distinct_ratio(agg, name):
    s = _fn(agg, name)
    return s.get("distinct", 0) / s["calls"] if s["calls"] else 0.0


# (metric name, unit, how to read it from an aggregate)
LAYER_METRICS = [
    ("repspace.project.cold_s", "s", lambda a: a["project_cold_s"]),
    ("repspace.project.warm_s", "s", lambda a: a["project_warm_s"]),
    ("repspace.project.calls", "count",
     lambda a: _fn(a, "repspace.project")["calls"]),
    ("repspace.isotypic_projectors.calls", "count",
     lambda a: _fn(a, "repspace.isotypic_projectors")["calls"]),
    ("repspace.compose.self_s", "s",
     lambda a: _fn(a, "repspace.compose")["self_s"]),
    ("repspace.to_orthonormal_matrix.self_s", "s",
     lambda a: _fn(a, "repspace.to_orthonormal_matrix")["self_s"]),
    ("intertwine.apply_channel.calls", "count",
     lambda a: _fn(a, "intertwine.apply_channel")["calls"]),
    ("intertwine.apply_channel.self_s", "s",
     lambda a: _fn(a, "intertwine.apply_channel")["self_s"]),
    ("intertwine.jk_matrix.calls", "count",
     lambda a: _fn(a, "intertwine.jk_matrix")["calls"]),
    ("intertwine.jk_matrix.self_s", "s",
     lambda a: _fn(a, "intertwine.jk_matrix")["self_s"]),
    ("intertwine.jk_adjoint_matrix.self_s", "s",
     lambda a: _fn(a, "intertwine.jk_adjoint_matrix")["self_s"]),
    ("intertwine.jk_matrix.distinct_ratio", "ratio",
     lambda a: _distinct_ratio(a, "intertwine.jk_matrix")),
    ("intertwine.pk_orthogonality_check.self_s", "s",
     lambda a: _fn(a, "intertwine.pk_orthogonality_check")["self_s"]),
    ("intertwine.jk_product.self_s", "s",
     lambda a: _fn(a, "intertwine.jk_product")["self_s"]),
    ("intertwine.choi_matrix.self_s", "s",
     lambda a: _fn(a, "intertwine.choi_matrix")["self_s"]),
    ("symbolcalc.symbol.self_s", "s",
     lambda a: _fn(a, "symbolcalc.symbol")["self_s"]),
    ("symbolcalc.toeplitz.self_s", "s",
     lambda a: _fn(a, "symbolcalc.toeplitz")["self_s"]),
    ("symbolcalc.inverse_berezin.self_s", "s",
     lambda a: _fn(a, "symbolcalc.inverse_berezin")["self_s"]),
    ("symbolcalc.e_nu_apply.self_s", "s",
     lambda a: _fn(a, "symbolcalc.e_nu_apply")["self_s"]),
    ("symbolcalc.functions_equal.self_s", "s",
     lambda a: _fn(a, "symbolcalc.functions_equal")["self_s"]),
    ("quadrature.channel_output_spectrum.calls", "count",
     lambda a: _fn(a, "quadrature.channel_output_spectrum")["calls"]),
    ("quadrature.channel_output_spectrum.self_s", "s",
     lambda a: _fn(a, "quadrature.channel_output_spectrum")["self_s"]),
    ("quadrature.channel_output_spectrum.distinct_ratio", "ratio",
     lambda a: _distinct_ratio(a, "quadrature.channel_output_spectrum")),
    ("quadrature.eigvalsh.self_s", "s",
     lambda a: a["quadrature_eigvalsh_self_s"]),
    ("quadrature.limit_moment.self_s", "s",
     lambda a: _fn(a, "quadrature.limit_moment")["self_s"]),
    ("quadrature.limit_functional.self_s", "s",
     lambda a: _fn(a, "quadrature.limit_functional")["self_s"]),
    ("quadrature.i_n_integral.self_s", "s",
     lambda a: _fn(a, "quadrature.i_n_integral")["self_s"]),
    ("quadrature.fund_ineq_check.self_s", "s",
     lambda a: _fn(a, "quadrature.fund_ineq_check")["self_s"]),
    ("exactnum.binomial.calls", "count",
     lambda a: _fn(a, "exactnum.binomial")["calls"]),
    ("exactnum.rising_pochhammer.calls", "count",
     lambda a: _fn(a, "exactnum.rising_pochhammer")["calls"]),
    ("exactnum.hyp2f1_terminating.self_s", "s",
     lambda a: _fn(a, "exactnum.hyp2f1_terminating")["self_s"]),
    ("exactnum.hyp3f2_terminating.self_s", "s",
     lambda a: _fn(a, "exactnum.hyp3f2_terminating")["self_s"]),
    ("cli.run_verify_suites.self_s", "s",
     lambda a: _fn(a, "cli.run_verify_suites")["self_s"]),
    ("cli.cmd_converge.self_s", "s",
     lambda a: _fn(a, "cli.cmd_converge")["self_s"]),
]


def layer_metrics(agg: dict) -> dict:
    return {name: {"value": read(agg), "unit": unit}
            for name, unit, read in LAYER_METRICS}

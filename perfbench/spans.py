"""Span recorder for the traced benchmark run.

Spans come from timing-only wrappers around every function that a
stablekern library module lists in ``__all__``.  The wrappers replace the
function everywhere a stablekern module holds it by name, so calls made
inside the library (``fit`` calling ``log_marginal_likelihood``, the CLI
calling ``sample_ss1``) are recorded too.  A wrapper passes its arguments
and result through untouched.  ``oracle`` is the correctness judge and is
never wrapped.

Each span is ``[name, start, end, parent, op]``: the qualified function
name (``structure.log_det``), ``perf_counter`` times, the index of the
enclosing span (-1 for none) and the op id.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
import types
from collections import defaultdict

LAYERS = ("grid", "kernels", "structure", "process", "maxent", "estimator", "cli")

# Per-op sums of span durations (ms), reported as the median over traced ops.
TOTAL_MS = {
    "grid.make_grid_ms": ("grid.make_grid",),
    "kernels.stable_increments_ms": ("kernels.stable_increments",),
    "kernels.gram_ms": ("kernels.gram",),
    "structure.closed_form_inverse_ms": ("structure.closed_form_inverse",),
    "structure.log_det_ms": ("structure.log_det",),
    "structure.precision_factor_ms": ("structure.precision_factor",),
    "structure.apply_precision_ms": ("structure.apply_precision",),
    "structure.sqrt_factor_ms": ("structure.sqrt_factor",),
    "process.sample_ms": ("process.sample_ss1", "process.sample_wiener"),
    "process.time_transform_ms": ("process.stable_time_transform",),
    "process.audit_constraints_ms": ("process.audit_constraints",),
    "estimator.fit_ms": ("estimator.fit",),
    "estimator.posterior_mean_ms": ("estimator.posterior_mean",),
    "maxent.completion_audit_ms": ("maxent.completion_entropy_audit",),
    "maxent.increment_test_ms": ("maxent.increment_constrained_entropy_test",),
    "maxent.band_extend_ms": ("maxent.band_extend",),
}

# Median duration of a single call (ms), pooled over traced ops.
CALL_MS = {
    "estimator.lml_eval_ms": "estimator.log_marginal_likelihood",
    "estimator.toeplitz_regressor_ms": "estimator.toeplitz_regressor",
}

# Median per-op call count.
CALLS = {
    "estimator.toeplitz_calls_per_fit": "estimator.toeplitz_regressor",
    "maxent.band_extend_calls_per_op": "maxent.band_extend",
    "maxent.gaussian_entropy_calls_per_op": "maxent.gaussian_entropy",
}

# Per-op self time (ms) of spans named ``name`` whose parent span is named
# ``parent`` ("*": any parent).  Self time excludes every recorded child.
SELF_MS = {
    "estimator.tune_self_ms": ("estimator.tune_hyperparameters", "*"),
    "cli.sample_format_ms": ("cli.run", "bench.sample"),
    "cli.audit_parse_ms": ("cli.run", "bench.audit"),
}

# Per-op duration (ms) of spans named ``name`` under a parent named ``parent``.
CHILD_MS = {
    "cli.sample_run_ms": ("cli.run", "bench.sample"),
    "cli.audit_run_ms": ("cli.run", "bench.audit"),
}


class Tracer:
    """Records spans while wrappers are installed; a no-op otherwise."""

    def __init__(self, library_modules):
        self.spans = []
        self._stack = []
        self._op = None
        self._patches = []
        wrappers = {}
        for mod in library_modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType) and id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        # The wrappers keep every wrapped function alive, so ids stay unique.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stablekern" or mod_name.startswith("stablekern.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value, wrapper))

    def _wrap(self, name, fn):
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    @contextlib.contextmanager
    def span(self, name):
        """Record one span; nested spans name it as their parent."""
        if self._op is None:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self._op]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id):
        """Install the wrappers and record spans for one op."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "op": s[4]}) + "\n")

    def layer_metrics(self, ops):
        """Per-layer metrics over the traced ops in ``ops`` (ops that passed)."""
        ops = sorted(ops)
        per_op = {op: defaultdict(float) for op in ops}
        call_ms = defaultdict(list)
        self_ms = [(s[2] - s[1]) * 1e3 for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_ms[s[3]] -= (s[2] - s[1]) * 1e3
        for idx, s in enumerate(self.spans):
            acc = per_op.get(s[4])
            if acc is None:
                continue
            name, dur = s[0], (s[2] - s[1]) * 1e3
            parent = self.spans[s[3]][0] if s[3] >= 0 else None
            layer = name.split(".", 1)[0]
            acc[("total", name)] += dur
            acc[("calls", name)] += 1
            acc[("self", name, parent)] += self_ms[idx]
            acc[("child", name, parent)] += dur
            acc[("self", name, "*")] += self_ms[idx]
            acc[("layer_self", layer)] += self_ms[idx]
            acc[("layer_calls", layer)] += 1
            call_ms[name].append(dur)

        def median_of(key):
            return statistics.median(per_op[op][key] for op in ops) if ops else 0.0

        out = {}
        for metric, names in TOTAL_MS.items():
            out[metric] = statistics.median(
                sum(per_op[op][("total", n)] for n in names) for op in ops) if ops else 0.0
        for metric, name in CALL_MS.items():
            out[metric] = statistics.median(call_ms[name]) if call_ms[name] else 0.0
        for metric, name in CALLS.items():
            out[metric] = median_of(("calls", name))
        for metric, (name, parent) in SELF_MS.items():
            out[metric] = median_of(("self", name, parent))
        for metric, (name, parent) in CHILD_MS.items():
            out[metric] = median_of(("child", name, parent))
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_op"] = median_of(("layer_self", layer))
            out[f"{layer}.calls_per_op"] = median_of(("layer_calls", layer))
        return out, call_ms

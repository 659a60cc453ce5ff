"""One benchmark workload in its own process.

Run by ``run.py``; prints one JSON object on its last stdout line.  The
process imports the library, sets up (input generation plus a warm-up op,
repeated ``SETUP_REPS`` times), then runs ops in a closed loop with one
client until ops, their inputs and their checks have taken the given number
of seconds.  The workload's cold CLI starts are interleaved with the ops.
Inputs are generated from the seed outside the timed interval; every op is
checked against an independent judge outside the timed interval too.  Any
exception, from the library or from a check, counts the op as failed and
the loop goes on.

With tracing on, odd-numbered ops run with the span wrappers of
``spans.py`` installed and even-numbered ops without, so the same run gives
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import json
import logging
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import types

import numpy as np

from spans import LAYERS, Tracer

# The stablekern modules a workload uses, imported in main so that set-up
# time holds only the imports that workload needs.
lib = types.SimpleNamespace()
SETUP_REPS = 3
IMPORT_PROBES = 3
# Per-layer metrics read from public surfaces rather than spans.
COUNTERS = (
    "structure.apply_precision_gbs_computed",
    "estimator.lml_calls_per_fit",
    "estimator.failed_evals_per_fit",
    "estimator.useful_eval_ratio",
    "maxent.extension_accept_ratio",
    "cli.output_mb",
    "cli.import_ms",
    "cli.scipy_on_import",
)
LOG_2PI = math.log(2.0 * math.pi)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CLI_STUB = "import sys; from stablekern.cli import run; sys.exit(run(sys.argv[1:]))"
IMPORT_PROBE = ("import json, sys, time; t = time.perf_counter(); import stablekern.cli; "
               "print(json.dumps({'import_ms': (time.perf_counter() - t) * 1e3, "
               "'scipy': 'scipy' in sys.modules}))")


class CheckFailed(Exception):
    """An op's output disagrees with its judge."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def op_rng(seed, index, warm_up=False):
    """Generator for op ``index`` of a run; warm-up ops draw from their own stream."""
    return np.random.default_rng([seed, 1 if warm_up else 0, index])


def setup_rng(seed):
    return np.random.default_rng([seed, 2])


def op_seed(rng):
    return int(rng.integers(0, 2**31))


def inf_norm(m):
    return float(np.max(np.sum(np.abs(m), axis=1)))


def write_kernel(path, spec):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh)
    return path


def cold_start(w):
    """Wall time (ms) of one CLI command of ``w`` in a fresh interpreter, checked."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI_STUB, *w.cold()], capture_output=True, timeout=120)
    ms = (time.perf_counter() - t0) * 1e3
    # A silent no-op exits 0 with no output, so the output is checked too.
    expect(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}")
    w.check_cold(proc.stdout.decode())
    return ms


def import_probe():
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, timeout=120)
    expect(proc.returncode == 0, f"import probe exit code {proc.returncode}")
    return json.loads(proc.stdout)


def trace_metrics(w, tracer, times, counters, attempt):
    """Per-layer metrics of a traced run: spans, public counters and import probes."""
    traced = [i for i, _ in times[True]]
    metrics, call_ms = tracer.layer_metrics(traced)
    untraced_ms = [ms for _, ms in times[False]]
    traced_ms = [ms for _, ms in times[True]]
    metrics["trace.overhead_ms_p50"] = (statistics.median(traced_ms) - statistics.median(untraced_ms)
                                        if traced_ms and untraced_ms else 0.0)
    metrics.update(dict.fromkeys(COUNTERS, 0.0))
    metrics.update(w.counters([counters[i] for i in traced if i in counters], call_ms))
    probes = [p for p in (attempt(f"import probe {k}", import_probe) for k in range(IMPORT_PROBES)) if p]
    if probes:
        metrics["cli.import_ms"] = statistics.median(p["import_ms"] for p in probes)
        metrics["cli.scipy_on_import"] = float(any(p["scipy"] for p in probes))
    return metrics


def null_span(name):
    return contextlib.nullcontext()


class Workload:
    """A workload: per-run set-up, seeded per-op inputs, the timed op and its checks."""

    notes = ()

    def tracing(self):
        """Context entered around each traced op, for counters the library logs."""
        return contextlib.nullcontext()

    def counters(self, per_op, call_ms):
        return {}


class Markov(Workload):
    """n = 10^6 non-uniform grid: grid, kernels, structure and process layers."""

    name = "markov-1e6"
    modules = ("grid", "kernels", "structure", "process", "oracle")
    n = 1_000_000
    c, beta = 1.3, 0.05
    cold_starts = 5

    def prepare(self, seed, workdir):
        self.specs = (lib.kernels.KernelSpec("ss1", self.c, self.beta), lib.kernels.KernelSpec("wiener", self.c))
        self.kernel_file = write_kernel(os.path.join(workdir, "ss1.json"), self.specs[0])

    def inputs(self, rng, index):
        # Increments from U[1e-4, 2e-3]: t_n is about 1050, so beta * t_n is about 52.
        return {"times": np.cumsum(rng.uniform(1e-4, 2e-3, self.n)), "seed": op_seed(rng)}

    def op(self, inp, span):
        g = lib.grid.make_grid(inp["times"])
        paths = (lib.process.sample_ss1(g, self.c, self.beta, inp["seed"], 1).paths[0],
                 lib.process.sample_wiener(g, self.c, inp["seed"], 1).paths[0])
        lib.process.stable_time_transform(g, self.beta)
        out = []
        for spec, x in zip(self.specs, paths):
            tri = lib.structure.closed_form_inverse(spec, g)
            ld = lib.structure.log_det(spec, g)
            factor = lib.structure.precision_factor(spec, g)
            lib.structure.sqrt_factor(spec, g)
            px = lib.structure.apply_precision(factor, x)
            quad = float(x @ px)
            out.append((spec, x, tri, px, quad, -0.5 * (self.n * LOG_2PI + ld + quad)))
        return out

    def check(self, inp, out):
        n = self.n
        sub = lib.grid.make_grid(inp["times"][:200])
        for spec, x, tri, px, quad, _ in out:
            fam = spec.family
            expect(abs(quad - n) <= 6.0 * math.sqrt(2.0 * n),
                   f"{fam}: whitened quadratic form {quad!r} is not within 6*sqrt(2n) of n")
            y = tri.diag * x
            y[:-1] += tri.offdiag * x[1:]
            y[1:] += tri.offdiag * x[:-1]
            err = float(np.max(np.abs(y - px)) / np.max(np.abs(px)))
            expect(err <= 1e-10, f"{fam}: tridiagonal matvec vs apply_precision rel err {err:.3e}")
            p = lib.kernels.gram(spec, sub).values
            ld = lib.structure.log_det(spec, sub)
            ld_ref = lib.oracle.dense_logdet(p)
            expect(abs(ld - ld_ref) <= 1e-9 * max(1.0, abs(ld)),
                   f"{fam}: log_det {ld!r} vs oracle {ld_ref!r} on the first 200 points")
            u = lib.structure.sqrt_factor(spec, sub).to_dense()
            res = inf_norm(u @ u.T - p)
            expect(res <= 1e-12 * inf_norm(p), f"{fam}: sqrt_factor residual {res:.3e} on the first 200 points")

    def counters(self, per_op, call_ms):
        calls = call_ms["structure.apply_precision"]
        if not calls:
            return {}
        # Computed, not measured: diag, super and v read plus the result written,
        # 8 bytes each.  The arrays fit in the last-level cache, so this is no
        # memory-bandwidth figure.
        return {"structure.apply_precision_gbs_computed": 4 * 8 * self.n / statistics.median(calls) / 1e6}

    def cold(self):
        return ["inverse", "--quiet", "--kernel", self.kernel_file, "--uniform", "10,0.5,0.5"]

    def check_cold(self, stdout):
        tri = lib.structure.closed_form_inverse(self.specs[0], lib.grid.uniform_grid(10, 0.5, 0.5))
        want = [",".join(format(float(v), ".17g") for v in row) for row in (tri.diag, tri.offdiag)]
        expect(stdout.splitlines()[-2:] == want, "cold inverse output differs from closed_form_inverse")


class FirTune(Workload):
    """One SS-1 FIR fit per op: the estimator layer, and structure at n = 50."""

    name = "fir-tune"
    modules = ("grid", "kernels", "process", "estimator", "oracle")
    order, n_data = 50, 5000
    cold_starts = 5

    def prepare(self, seed, workdir):
        self.grid = lib.grid.uniform_grid(self.order, 1.0, 1.0)
        self.search = lib.estimator.SearchConfig(
            family="ss1",
            c_grid=np.geomspace(0.1, 10.0, 5),
            beta_grid=np.geomspace(0.05, 1.0, 5),
            sigma2_grid=np.geomspace(1e-3, 10.0, 5),
            # Grid only: Nelder-Mead refinement can leave the beta axis, and in
            # 1 of about 400 fits reached beta ~ 41 (beta * t_n ~ 2000), where
            # fit raises the ValueError of the beta-underflow defect.  On the
            # grid, beta * t_n <= 50.
            refine=False,
        )
        rng = setup_rng(seed)
        u = rng.standard_normal(40)
        y = np.convolve(u, [1.0, 0.5, 0.25])[:40] + 0.1 * rng.standard_normal(40)
        self.cold_data = os.path.join(workdir, "io.csv")
        with open(self.cold_data, "w", encoding="utf-8") as fh:
            fh.write("u,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(u.tolist(), y.tolist())))
        self.cold_search = os.path.join(workdir, "search.json")
        with open(self.cold_search, "w", encoding="utf-8") as fh:
            json.dump({"c": {"min": 0.1, "max": 10, "num": 3}, "beta": {"min": 0.1, "max": 1, "num": 3},
                       "sigma2": {"min": 1e-3, "max": 1, "num": 3}}, fh)
        self.cold_problem = lib.estimator.EstimationProblem(u=u, y=y, order=3)

    def inputs(self, rng, index):
        seed = op_seed(rng)
        h0 = lib.process.sample_ss1(self.grid, 2.0, 0.3, seed, 1).paths[0]
        u = rng.standard_normal(self.n_data)
        clean = np.convolve(u, h0)[: self.n_data]
        sigma2 = float(np.var(clean)) / 10.0
        y = clean + math.sqrt(sigma2) * rng.standard_normal(self.n_data)
        return {"problem": lib.estimator.EstimationProblem(u=u, y=y, order=self.order), "seed": seed}

    def op(self, inp, span):
        return lib.estimator.fit(inp["problem"], self.grid, self.search)

    def check(self, inp, est):
        prob = inp["problem"]
        padded = np.concatenate([np.zeros(self.order - 1), prob.u])
        phi = np.lib.stride_tricks.sliding_window_view(padded, self.order)[:, ::-1]
        s2 = est.sigma2
        p = lib.kernels.gram(est.spec, self.grid).values
        a = phi.T @ phi / s2 + lib.oracle.dense_inverse(p)
        h_ref = lib.oracle.dense_inverse(a) @ (phi.T @ prob.y) / s2
        err = float(np.max(np.abs(est.coefficients - h_ref)))
        expect(err <= 1e-8 * max(1.0, float(np.max(np.abs(h_ref)))),
               f"posterior mean differs from the dense solve by {err:.3e}")
        best = max(e["log_ml"] for e in est.diagnostics["trace"])
        expect(est.log_ml == best, f"log_ml {est.log_ml!r} is not the trace maximum {best!r}")
        return {"evals": est.diagnostics["n_evaluations"], "failed": est.diagnostics["n_failed"]}

    def counters(self, per_op, call_ms):
        if not per_op:
            return {}
        evals = [c["evals"] for c in per_op]
        failed = [c["failed"] for c in per_op]
        return {
            "estimator.lml_calls_per_fit": float(statistics.median(evals)),
            "estimator.failed_evals_per_fit": float(statistics.median(failed)),
            "estimator.useful_eval_ratio": sum(evals) / (sum(evals) + sum(failed)),
        }

    def cold(self):
        return ["fit", "--quiet", "--data", self.cold_data, "--order", "3", "--kernel-family", "ss1",
                "--search", self.cold_search]

    def check_cold(self, stdout):
        got = json.loads(stdout)
        with open(self.cold_search, encoding="utf-8") as fh:
            config = lib.estimator.SearchConfig.from_dict(json.load(fh), "ss1")
        want = lib.estimator.fit(self.cold_problem, lib.grid.uniform_grid(3, 1.0, 1.0), config)
        expect(got["coefficients"] == [float(x) for x in want.coefficients] and got["log_ml"] == want.log_ml,
               "cold fit output differs from the library fit")


class AcceptLog(logging.Handler):
    """Collects the attempt counts that random_positive_extension logs at DEBUG."""

    pattern = re.compile(r"accepted after (\d+) attempt")

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.attempts = []

    def emit(self, record):
        m = self.pattern.search(record.getMessage())
        if m:
            self.attempts.append(int(m.group(1)))


class MaxentAudit(Workload):
    """Entropy audits at n = 20 plus a band round trip at n = 200: the maxent layer."""

    name = "maxent-audit"
    modules = ("grid", "kernels", "maxent")
    trials = 50
    cold_starts = 5

    def prepare(self, seed, workdir):
        self.kernel_file = write_kernel(os.path.join(workdir, "ss1.json"), lib.kernels.KernelSpec("ss1", 1.0, 0.5))
        self.beta_shift = setup_rng(seed).random()
        self.log = AcceptLog()
        self.logger = logging.getLogger("stablekern.maxent")

    def inputs(self, rng, index):
        # One Wiener and one SS-1 instance per op.  Alternating families by op
        # made the op time bimodal (Wiener audits cost about 5x SS-1), and the
        # median of such a run lands in the gap between the modes.
        # SS-1 cost is bimodal in beta too (small beta: ~100 rejections per
        # candidate, large beta: ~1), so beta follows a seed-shifted golden-
        # ratio sequence: still uniform on [0.05, 2], but every run holds the
        # same share of small-beta instances.
        beta = 0.05 + 1.95 * ((self.beta_shift + index * GOLDEN) % 1.0)
        cases = []
        for family in ("wiener", "ss1"):
            times = np.cumsum(rng.uniform(0.1, 2.0, 20))
            spec = lib.kernels.KernelSpec(family, rng.uniform(0.1, 10.0), beta if family == "ss1" else None)
            # Same time span as the audit grid, ten times denser: beta * t_n stays below 52.
            long_times = np.cumsum(rng.uniform(0.01, 0.2, 200))
            cases.append((spec, times, long_times, op_seed(rng)))
        return cases

    @contextlib.contextmanager
    def tracing(self):
        self.logger.addHandler(self.log)
        self.logger.setLevel(logging.DEBUG)
        try:
            yield
        finally:
            self.logger.removeHandler(self.log)
            self.logger.setLevel(logging.NOTSET)

    def op(self, cases, span):
        out = []
        for spec, times, long_times, seed in cases:
            g = lib.grid.make_grid(times)
            comp = lib.maxent.completion_entropy_audit(spec, g, seed, self.trials)
            inc = lib.maxent.increment_constrained_entropy_test(spec, g, seed, self.trials)
            p = lib.kernels.gram(spec, lib.grid.make_grid(long_times)).values
            ext = lib.maxent.band_extend(lib.maxent.band_project(p))
            out.append((spec, comp, inc, p, ext))
        return out

    def check(self, cases, out):
        for spec, comp, inc, p, ext in out:
            fam = spec.family
            for label, rep in (("completion", comp), ("increment", inc)):
                margin = min(rep.reference_entropy - h for h in rep.candidate_entropies)
                expect(margin >= -1e-9, f"{fam}: {label} entropy margin {margin:.3e} < -1e-9")
            first = abs(inc.candidate_entropies[0] - inc.reference_entropy)
            expect(first <= 1e-9, f"{fam}: identity increment candidate is off by {first:.3e}")
            rt = float(np.max(np.abs(ext - p) / np.abs(p)))
            expect(rt <= 1e-12, f"{fam}: band round trip rel err {rt:.3e} at n = 200")

    def counters(self, per_op, call_ms):
        attempts = self.log.attempts
        return {"maxent.extension_accept_ratio": len(attempts) / sum(attempts)} if attempts else {}

    def cold(self):
        return ["maxent-audit", "--quiet", "--kernel", self.kernel_file, "--uniform", "5,0.5,0.5",
                "--trials", "5", "--seed", "1"]

    def check_cold(self, stdout):
        got = json.loads(stdout)
        spec, g = lib.kernels.KernelSpec("ss1", 1.0, 0.5), lib.grid.uniform_grid(5, 0.5, 0.5)
        want = lib.maxent.completion_entropy_audit(spec, g, 1, 5)
        expect(got["completion"]["candidate_entropies"] == list(want.candidate_entropies)
               and got["completion"]["dominance"] and got["increments"]["dominance"],
               "cold maxent-audit output differs from the library audit")


class CliRoundtrip(Workload):
    """In-process CLI sample + audit through a CSV file: the cli layer."""

    name = "cli-roundtrip"
    modules = ("grid", "kernels", "structure", "process", "cli")
    uniform = "200,0.5,0.5"
    n_paths = 500
    cold_starts = 20

    def prepare(self, seed, workdir):
        rng = setup_rng(seed)
        # beta * t_n <= 0.5 * 100 stays below the SS-1 underflow range.
        self.spec = lib.kernels.KernelSpec("ss1", float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 0.5)))
        self.kernel_file = write_kernel(os.path.join(workdir, "ss1.json"), self.spec)
        self.csv = os.path.join(workdir, "paths.csv")
        self.report = os.path.join(workdir, "audit.json")
        self.grid = lib.grid.uniform_grid(200, 0.5, 0.5)
        self.notes = []

    def inputs(self, rng, index):
        return {"seed": op_seed(rng)}

    def op(self, inp, span):
        with span("bench.sample"):
            rc_sample = lib.cli.run(["sample", "--quiet", "--kernel", self.kernel_file, "--uniform", self.uniform,
                                 "--paths", str(self.n_paths), "--seed", str(inp["seed"]), "--out", self.csv])
        with span("bench.audit"):
            rc_audit = lib.cli.run(["audit", "--quiet", "--paths", self.csv, "--kernel", self.kernel_file,
                                "--uniform", self.uniform, "--out", self.report])
        return rc_sample, rc_audit

    def check(self, inp, out):
        expect(out == (0, 0), f"exit codes {out}")
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(self.csv, encoding="utf-8") as fh:
            body = [line for line in fh.read().splitlines() if not line.startswith("#")]
        got = np.array(",".join(body).split(","), dtype=float).reshape(len(body), -1)
        want = lib.process.sample_ss1(self.grid, self.spec.c, self.spec.beta, inp["seed"], self.n_paths).paths
        expect(got.shape == want.shape and np.array_equal(got, want), "CSV paths differ from sample_ss1")
        # The audit flags a correct sample whenever one of its 400 statistics
        # passes 5 standard errors: about 3 in 10^4 ops here.  So its verdict is
        # checked against a recomputation from the CSV, and flags are noted.
        max_z = self.audit_max_z(got)
        expect(abs(report["max_abs_z"] - max_z) <= 1e-9 * max_z,
               f"audit max |z| {report['max_abs_z']!r}, recomputed {max_z!r}")
        expect(report["ok"] is (max_z <= 5.0), f"audit ok is {report['ok']!r} with max |z| {max_z!r}")
        if not report["ok"]:
            self.notes.append(f"op seed {inp['seed']}: audit flagged max |z| = {max_z:.3f} on a correct sample")
        return {"output_bytes": os.path.getsize(self.csv)}

    def audit_max_z(self, paths):
        """Largest |z| of the increment means and variances, from the paths alone."""
        p = paths.shape[0]
        inc = np.empty_like(paths)
        inc[:, :-1] = paths[:, :-1] - paths[:, 1:]
        inc[:, -1] = paths[:, -1]
        e = np.exp(-self.spec.beta * self.grid.times)
        target = self.spec.c * np.append(e[:-1] - e[1:], e[-1])
        mean_z = inc.mean(axis=0) / np.sqrt(target / p)
        var_z = (inc.var(axis=0, ddof=1) - target) / (target * math.sqrt(2.0 / (p - 1)))
        return float(max(np.max(np.abs(mean_z)), np.max(np.abs(var_z))))

    def counters(self, per_op, call_ms):
        sizes = [c["output_bytes"] for c in per_op]
        return {"cli.output_mb": statistics.median(sizes) / 2**20} if sizes else {}

    def cold(self):
        return ["logdet", "--quiet", "--kernel", self.kernel_file, "--uniform", "10,0.5,0.5"]

    def check_cold(self, stdout):
        want = format(lib.structure.log_det(self.spec, lib.grid.uniform_grid(10, 0.5, 0.5)), ".17g")
        expect(stdout.splitlines()[-1] == want, "cold logdet output differs from %.17g of log_det")


WORKLOADS = {w.name: w for w in (Markov, FirTune, MaxentAudit, CliRoundtrip)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]()
    for name in LAYERS + ("oracle",) if args.trace else w.modules:
        setattr(lib, name, importlib.import_module(f"stablekern.{name}"))
    imported = time.time()
    tracer = Tracer([getattr(lib, name) for name in LAYERS]) if args.trace else None
    failures = []
    attempted = 0
    counters = {}

    def attempt(label, fn, *fn_args):
        nonlocal attempted
        attempted += 1
        try:
            return fn(*fn_args)
        except Exception as exc:  # any failure counts; the run goes on
            failures.append({"op": label, "error": type(exc).__name__, "message": str(exc)[:300]})
            return None

    def run_op(index, rng, traced):
        inp = w.inputs(rng, index)
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.op(index))
                stack.enter_context(w.tracing())
            t0 = time.perf_counter()
            out = w.op(inp, tracer.span if traced else null_span)
            ms = (time.perf_counter() - t0) * 1e3
        extra = w.check(inp, out)
        if traced and extra:
            counters[index] = extra
        return ms

    reps = []
    for r in range(SETUP_REPS):
        t0 = time.perf_counter()
        attempt(f"setup {r}", w.prepare, args.seed, args.workdir)
        attempt(f"warm-up {r}", run_op, -1 - r, op_rng(args.seed, r, warm_up=True), False)
        reps.append(time.perf_counter() - t0)
    setup_s = (imported - args.spawn_time) + statistics.median(reps)

    times = {False: [], True: []}
    cold_ms = []
    n_cold = 0 if args.trace else w.cold_starts
    busy = 0.0  # seconds spent on ops, their inputs and checks
    i = 0
    while busy < args.seconds:
        # Cold starts are spread evenly over the ops.  On a shared 2-vCPU VM the
        # speed drifted by up to 20% within a minute, and cold starts bunched at
        # the end of a run spread more widely than the ops.  The op right after a cold
        # start ran up to a third slower, so it is checked but not timed.
        after_cold = False
        while len(cold_ms) < n_cold and busy >= len(cold_ms) * args.seconds / n_cold:
            cold_ms.append(attempt(f"cold start {len(cold_ms)}", cold_start, w))
            after_cold = True
        t0 = time.perf_counter()
        traced = bool(args.trace) and i % 2 == 1
        ms = attempt(f"op {i} (seed {args.seed})", run_op, i, op_rng(args.seed, i), traced)
        if ms is not None and not after_cold:
            times[traced].append((i, ms))
        busy += time.perf_counter() - t0
        i += 1
    cold_ms = [ms for ms in cold_ms if ms is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "failures": failures,
        "notes": list(w.notes),
        "env": {"numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
                "blas": f"{blas.get('name')} {blas.get('version')}"},
        "samples": {"untraced_ops": len(times[False]), "traced_ops": len(times[True]),
                    "setup_reps": len(reps), "import_s": imported - args.spawn_time},
    }
    if args.trace:
        result["metrics"] = trace_metrics(w, tracer, times, counters, attempt)
        os.makedirs(".perfbench_out", exist_ok=True)
        tracer.write(os.path.join(".perfbench_out", f"spans-{w.name}-seed{args.seed}.jsonl"))
    else:
        op_ms = [ms for _, ms in times[False]]
        result["samples"]["cold_starts"] = len(cold_ms)
        result["metrics"] = {
            "setup_s": setup_s,
            "op_ms_p50": statistics.median(op_ms) if op_ms else None,
            "op_ms_p80": statistics.quantiles(op_ms, n=5)[3] if len(op_ms) > 1 else None,
            "peak_rss_mb": peak_rss_mb,
            "cold_start_ms_p50": statistics.median(cold_ms) if cold_ms else None,
        }
    result["attempted"] = attempted
    result["failed"] = len(failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 on success, 1 on a domain error (one line
``ERROR <code>: <message>`` on stderr), 2 on a usage error.  Outputs are
plain text with full decimal precision (17 significant digits) and are
byte-stable for fixed inputs and seed; '#' lines carry metadata such as
seeds and algorithm identifiers.

CSV bodies are written one row at a time.  A row is formatted by one
``%`` call, which is byte-identical to formatting each value on its own:
``"%.17g" % x == format(x, ".17g")`` for every float, NaN, infinities and
signed zeros included (both run CPython's ``PyOS_double_to_string``).

Every table the CLI reads (``audit --paths``, ``extend --band``,
``fit --data``, ``--grid``) has one grammar, read by
:func:`stablekern.grid._read_table`: '#' starts a comment, lines left blank
are skipped, cells are split on ',', and a cell is any Python float
literal (surrounding blanks allowed); empty or blank cells are skipped.
``fit --data`` starts with the header line ``u,y``.  A bad line is
reported by file and line number.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import CheckFailed, InvalidParameter, StableKernError
from .grid import SamplingGrid, _parse_rows, _read_table, read_grid_file, uniform_grid
from .kernels import SS1, WIENER, KernelSpec, gram, read_kernel_file
from .maxent import band_extend, band_project, completion_entropy_audit, increment_constrained_entropy_test
from .process import NOISE_ALGORITHM, PathSet, audit_constraints, sample
from .structure import TridiagonalMatrix, closed_form_inverse, log_det, precision_factor, sqrt_factor
from .estimator import EstimationProblem, SearchConfig, fit
from . import oracle

__all__ = ["run", "main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _meta_lines(command: str, spec: Optional[KernelSpec] = None, grid: Optional[SamplingGrid] = None,
                extra: Optional[dict] = None) -> List[str]:
    lines = [f"# stablekern {command}", f"# version: {__version__}"]
    if spec is not None:
        lines.append(f"# kernel: {json.dumps(spec.to_dict(), sort_keys=True)}")
    if grid is not None:
        lines.append(f"# grid: n={grid.n} t1={_fmt(grid.times[0])} tn={_fmt(grid.times[-1])}")
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {value}")
    return lines


def _meta_dict(command: str, spec: Optional[KernelSpec] = None, grid: Optional[SamplingGrid] = None,
               extra: Optional[dict] = None) -> dict:
    meta = {"command": command, "version": __version__}
    if spec is not None:
        meta["kernel"] = spec.to_dict()
    if grid is not None:
        meta["grid"] = {"n": grid.n, "t1": float(grid.times[0]), "tn": float(grid.times[-1])}
    meta.update(extra or {})
    return meta


def _rows_csv(rows: Iterable[Iterable[float]], meta: List[str]) -> str:
    # One format string per row width: the inverse writes rows of n and n - 1 values.
    formats = {}
    body = []
    for row in rows:
        values = np.asarray(row, dtype=float).tolist()
        fmt = formats.get(len(values))
        if fmt is None:
            fmt = formats[len(values)] = ",".join(["%.17g"] * len(values))
        body.append(fmt % tuple(values))
    return "\n".join(meta + body) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _uniform_type(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected N,DELTA,T_START")
    try:
        return int(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as N,DELTA,T_START") from None


def _resolve_grid(args: argparse.Namespace, default_uniform=None) -> SamplingGrid:
    if args.grid is not None:
        return read_grid_file(args.grid)
    return uniform_grid(*(args.uniform or default_uniform))


def _cmd_gram(args: argparse.Namespace, spec: KernelSpec, g: SamplingGrid) -> None:
    km = gram(spec, g)
    _emit(_rows_csv(km.values, _meta_lines("gram", spec, g)), args.out)


def _cmd_inverse(args: argparse.Namespace, spec: KernelSpec, g: SamplingGrid) -> None:
    tri = closed_form_inverse(spec, g)
    meta = _meta_lines("inverse", spec, g, {"format": "tridiagonal: line 1 diag, line 2 offdiag"})
    _emit(_rows_csv([tri.diag, tri.offdiag], meta), args.out)


def _cmd_logdet(args: argparse.Namespace, spec: KernelSpec, g: SamplingGrid) -> None:
    meta = _meta_lines("logdet", spec, g)
    _emit("\n".join(meta + [_fmt(log_det(spec, g))]) + "\n", args.out)


def _cmd_factor(args: argparse.Namespace, spec: KernelSpec, g: SamplingGrid) -> None:
    if args.which == "precision":
        f = precision_factor(spec, g)
        rows, layout = [f.diag, f.super], "upper bidiagonal: line 1 diag, line 2 super"
    else:
        rows, layout = sqrt_factor(spec, g).to_dense(), "dense upper-triangular square root"
    _emit(_rows_csv(rows, _meta_lines("factor", spec, g, {"format": layout})), args.out)


def _cmd_sample(args: argparse.Namespace, spec: KernelSpec, g: SamplingGrid) -> None:
    ps = sample(spec, g, args.seed, args.paths)
    meta = _meta_lines("sample", spec, g, {
        "paths": ps.p,
        "seed": args.seed,
        "noise-algorithm": NOISE_ALGORITHM,
        "layout": "one path per row",
    })
    _emit(_rows_csv(ps.paths, meta), args.out)


def _cmd_audit(args: argparse.Namespace, spec: KernelSpec, g: SamplingGrid) -> None:
    ps = PathSet(grid=g, paths=_read_table(args.paths))
    report = audit_constraints(ps, spec)
    payload = {"meta": _meta_dict("audit", spec, g, {"paths_file": args.paths})}
    payload.update(report.to_dict())
    _emit(_json_text(payload), args.out)


def _cmd_extend(args: argparse.Namespace, spec: None, g: None) -> None:
    with open(args.band, "r", encoding="utf-8") as fh:
        rows = _parse_rows(fh, args.band, ragged=True)
    if len(rows) not in (1, 2):
        raise InvalidParameter(f"{args.band}: band CSV needs two lines (diag, offdiag)")
    offdiag = rows[1] if len(rows) == 2 else []
    extension = band_extend(TridiagonalMatrix(diag=np.asarray(rows[0]), offdiag=np.asarray(offdiag)))
    meta = _meta_lines("extend", extra={"band_file": args.band,
                                        "format": "dense maximum-entropy completion"})
    _emit(_rows_csv(extension, meta), args.out)


def _cmd_maxent_audit(args: argparse.Namespace, spec: KernelSpec, g: SamplingGrid) -> None:
    completion = completion_entropy_audit(spec, g, args.seed, args.trials)
    increments = increment_constrained_entropy_test(spec, g, args.seed, args.trials)
    payload = {
        "meta": _meta_dict("maxent-audit", spec, g, {"trials": args.trials, "seed": args.seed}),
        "completion": completion.to_dict(),
        "increments": increments.to_dict(),
    }
    _emit(_json_text(payload), args.out)


def _cmd_fit(args: argparse.Namespace, spec: None, g: None) -> None:
    data = _read_table(args.data, "u,y", 2)
    with open(args.search, "r", encoding="utf-8") as fh:
        try:
            search_payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"search config is not valid JSON: {exc}") from None
    config = SearchConfig.from_dict(search_payload, args.kernel_family)
    problem = EstimationProblem(u=data[:, 0], y=data[:, 1], order=args.order, sigma2=args.sigma2)
    # The grid is read last, so a bad data or search file is reported first.
    g = _resolve_grid(args, default_uniform=(args.order, 1.0, 1.0))
    estimate = fit(problem, g, config)
    payload = {"meta": _meta_dict("fit", estimate.spec, g, {"data_file": args.data,
                                                            "n_samples": problem.n_samples,
                                                            "order": problem.order})}
    payload.update(estimate.to_dict())
    _emit(_json_text(payload), args.out)


def _inf_norm(m: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(m), axis=1)))


def _cmd_check(args: argparse.Namespace, spec: KernelSpec, g: SamplingGrid) -> None:
    n = g.n
    p = gram(spec, g).values
    tri = closed_form_inverse(spec, g)
    tri_dense = tri.to_dense()
    checks = []

    def record(name: str, residual: float, threshold: float) -> None:
        checks.append({
            "name": name,
            "residual": float(residual),
            "threshold": float(threshold),
            "pass": bool(residual <= threshold),
        })

    record("inverse_identity", _inf_norm(tri_dense @ p - np.eye(n)), 1e-8 * n)
    ld = log_det(spec, g)
    record("log_det_vs_dense", abs(ld - oracle.dense_logdet(p)), 1e-9 * max(1.0, abs(ld)))
    f = precision_factor(spec, g).to_dense()
    record("precision_factor", _inf_norm(f.T @ f - tri_dense), 1e-10 * _inf_norm(tri_dense))
    u = sqrt_factor(spec, g).to_dense()
    record("sqrt_factor", _inf_norm(u @ u.T - p), 1e-12 * _inf_norm(p))
    completion = band_extend(band_project(p))
    record("band_roundtrip", float(np.max(np.abs(completion - p) / np.abs(p))), 1e-12)
    ok = all(c["pass"] for c in checks)
    payload = {"meta": _meta_dict("check", spec, g), "checks": checks, "pass": ok}
    _emit(_json_text(payload), args.out)
    if not ok:
        worst = min(checks, key=lambda c: c["threshold"] - c["residual"])
        raise CheckFailed(f"{worst['name']} residual {worst['residual']:.3e} exceeds {worst['threshold']:.3e}")


def _arg(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


# Markers in a command's options: --kernel then a required --grid | --uniform
# group (read by run before the handler is called), or an optional grid alone.
_KERNEL_AND_GRID = "kernel and grid"
_OPTIONAL_GRID = "optional grid"

# name, help, handler, options in the order the usage line lists them; --out comes last.
_COMMANDS = (
    ("gram", "write the Gram matrix as CSV", _cmd_gram, [_KERNEL_AND_GRID]),
    ("inverse", "write the closed-form tridiagonal inverse", _cmd_inverse, [_KERNEL_AND_GRID]),
    ("logdet", "write the log-determinant of the Gram matrix", _cmd_logdet, [_KERNEL_AND_GRID]),
    ("factor", "write the precision factor or the square root", _cmd_factor,
     [_KERNEL_AND_GRID, _arg("--which", choices=("precision", "sqrt"), default="precision")]),
    ("sample", "sample process paths (one per CSV row)", _cmd_sample,
     [_KERNEL_AND_GRID, _arg("--paths", type=int, required=True, help="number of paths"),
      _arg("--seed", type=int, default=0)]),
    ("audit", "audit sampled paths against a kernel's increment constraints", _cmd_audit,
     [_arg("--paths", metavar="PATH", required=True, help="paths CSV (one path per row)"), _KERNEL_AND_GRID]),
    ("extend", "maximum-entropy completion of a band skeleton", _cmd_extend,
     [_arg("--band", metavar="PATH", required=True, help="band CSV: line 1 diagonal, line 2 off-diagonal")]),
    ("maxent-audit", "entropy-dominance audits for a kernel on a grid", _cmd_maxent_audit,
     [_KERNEL_AND_GRID, _arg("--trials", type=int, default=1000), _arg("--seed", type=int, default=0)]),
    ("fit", "kernel-regularized FIR fit from u,y data", _cmd_fit,
     [_arg("--data", metavar="PATH", required=True, help="two-column CSV (u, y) with header"),
      _arg("--order", type=int, required=True, help="FIR order n"),
      _arg("--kernel-family", choices=(WIENER, SS1), required=True),
      _arg("--search", metavar="PATH", required=True, help="search config JSON"),
      _arg("--sigma2", type=float, default=None,
           help="fix the noise variance (default: tuned from the sigma2 axis)"),
      _OPTIONAL_GRID]),
    ("check", "closed forms vs dense oracle on one instance", _cmd_check, [_KERNEL_AND_GRID]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablekern",
        description="Structured Wiener / SS-1 kernel matrices: closed forms, audits, sampling, FIR estimation.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress informational logging")
    # Also accepted after the subcommand; SUPPRESS keeps a pre-subcommand
    # --quiet from being overwritten by the subparser's default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress informational logging")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text, handler, options in _COMMANDS:
        sp = sub.add_parser(name, parents=[common], help=help_text)
        for option in options:
            if option == _KERNEL_AND_GRID:
                sp.add_argument("--kernel", metavar="PATH", required=True,
                                help='kernel spec JSON, e.g. {"family": "ss1", "c": 1.0, "beta": 0.693147}')
            if option in (_KERNEL_AND_GRID, _OPTIONAL_GRID):
                group = sp.add_mutually_exclusive_group(required=option == _KERNEL_AND_GRID)
                group.add_argument("--grid", metavar="PATH",
                                   help="grid file: one time per line, '#' comments ignored")
                group.add_argument("--uniform", metavar="N,DELTA,T_START", type=_uniform_type,
                                   help="uniform grid t_i = t_start + (i-1)*delta")
            else:
                flags, kwargs = option
                sp.add_argument(*flags, **kwargs)
        sp.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        sp.set_defaults(handler=handler, reads_kernel=_KERNEL_AND_GRID in options)
    return parser


class _StderrHandler(logging.StreamHandler):
    """A log handler on whatever ``sys.stderr`` is when a record is emitted, not when it was added."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)  # StreamHandler.__init__ would assign the stream

    @property
    def stream(self):
        return sys.stderr


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args keeps no state from call to call."""
    return build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    package_logger = logging.getLogger("stablekern")
    if not package_logger.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        package_logger.addHandler(handler)
    package_logger.setLevel(logging.ERROR if args.quiet else logging.INFO)
    try:
        spec = g = None
        if args.reads_kernel:
            spec = read_kernel_file(args.kernel)
            g = _resolve_grid(args)
        args.handler(args, spec, g)
        return 0
    except StableKernError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IO: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy refuses an array larger than memory with a MemoryError subclass.
        print(f"ERROR Memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

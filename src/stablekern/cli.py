"""Command-line interface.

Exit codes: 0 on success, 1 on a domain error (one line
``ERROR <code>: <message>`` on stderr), 2 on a usage error.  Outputs are
plain text with full decimal precision (17 significant digits) and are
byte-stable for fixed inputs and seed; '#' lines carry metadata such as
seeds and algorithm identifiers.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import CheckFailed, InvalidParameter, StableKernError
from .grid import SamplingGrid, read_grid_file, uniform_grid
from .kernels import SS1, WIENER, KernelSpec, gram, read_kernel_file
from .maxent import (
    BandSkeleton,
    band_extend,
    band_project,
    completion_entropy_audit,
    increment_constrained_entropy_test,
)
from .process import (
    NOISE_ALGORITHM,
    PathSet,
    audit_constraints,
    sample_ss1,
    sample_wiener,
)
from .structure import (
    apply_precision,
    closed_form_inverse,
    log_det,
    precision_factor,
    sqrt_factor,
)
from .estimator import EstimationProblem, SearchConfig, fit
from . import oracle

__all__ = ["run", "main"]

_log = logging.getLogger(__name__)


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
    body = [",".join(_fmt(x) for x in row) for row in rows]
    return "\n".join(meta + body) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _read_numeric_rows(path: str) -> List[List[float]]:
    rows: List[List[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                rows.append([float(x) for x in text.split(",") if x.strip() != ""])
            except ValueError:
                raise InvalidParameter(f"{path}: line {lineno} is not numeric CSV") from None
    return rows


def _read_rectangular(path: str) -> np.ndarray:
    rows = _read_numeric_rows(path)
    if not rows:
        raise InvalidParameter(f"{path}: no numeric rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InvalidParameter(f"{path}: rows have inconsistent lengths")
    return np.asarray(rows, dtype=float)


def _read_uy_csv(path: str):
    header: Optional[List[str]] = None
    u: List[float] = []
    y: List[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            cells = [c.strip() for c in text.split(",")]
            if header is None:
                header = [c.lower() for c in cells]
                if header != ["u", "y"]:
                    raise InvalidParameter(f"{path}: expected header 'u,y', got {text!r}")
                continue
            if len(cells) != 2:
                raise InvalidParameter(f"{path}: line {lineno} does not have two columns")
            try:
                u.append(float(cells[0]))
                y.append(float(cells[1]))
            except ValueError:
                raise InvalidParameter(f"{path}: line {lineno} is not numeric") from None
    if header is None:
        raise InvalidParameter(f"{path}: empty data file")
    return np.asarray(u), np.asarray(y)


def _uniform_type(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected N,DELTA,T_START")
    try:
        return int(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as N,DELTA,T_START") from None


def _add_grid_args(sp: argparse.ArgumentParser, required: bool = True) -> None:
    group = sp.add_mutually_exclusive_group(required=required)
    group.add_argument("--grid", metavar="PATH", help="grid file: one time per line, '#' comments ignored")
    group.add_argument("--uniform", metavar="N,DELTA,T_START", type=_uniform_type,
                       help="uniform grid t_i = t_start + (i-1)*delta")


def _add_kernel_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--kernel", metavar="PATH", required=True,
                    help='kernel spec JSON, e.g. {"family": "ss1", "c": 1.0, "beta": 0.693147}')


def _add_out_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", metavar="PATH", help="output file (default: stdout)")


def _resolve_grid(args: argparse.Namespace) -> SamplingGrid:
    if getattr(args, "grid", None) is not None:
        return read_grid_file(args.grid)
    return uniform_grid(*args.uniform)


def _grid_source(args: argparse.Namespace) -> str:
    if getattr(args, "grid", None) is not None:
        return f"file {args.grid}"
    n, delta, t_start = args.uniform
    return f"uniform {n},{_fmt(delta)},{_fmt(t_start)}"


def _cmd_gram(args: argparse.Namespace) -> int:
    spec = read_kernel_file(args.kernel)
    g = _resolve_grid(args)
    km = gram(spec, g)
    _emit(_rows_csv(km.values, _meta_lines("gram", spec, g)), args.out)
    return 0


def _cmd_inverse(args: argparse.Namespace) -> int:
    spec = read_kernel_file(args.kernel)
    g = _resolve_grid(args)
    tri = closed_form_inverse(spec, g)
    meta = _meta_lines("inverse", spec, g, {"format": "tridiagonal: line 1 diag, line 2 offdiag"})
    _emit(_rows_csv([tri.diag, tri.offdiag], meta), args.out)
    return 0


def _cmd_logdet(args: argparse.Namespace) -> int:
    spec = read_kernel_file(args.kernel)
    g = _resolve_grid(args)
    meta = _meta_lines("logdet", spec, g)
    _emit("\n".join(meta + [_fmt(log_det(spec, g))]) + "\n", args.out)
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    spec = read_kernel_file(args.kernel)
    g = _resolve_grid(args)
    if args.which == "precision":
        f = precision_factor(spec, g)
        meta = _meta_lines("factor", spec, g,
                           {"format": "upper bidiagonal: line 1 diag, line 2 super"})
        _emit(_rows_csv([f.diag, f.super], meta), args.out)
    else:
        u = sqrt_factor(spec, g).to_dense()
        meta = _meta_lines("factor", spec, g, {"format": "dense upper-triangular square root"})
        _emit(_rows_csv(u, meta), args.out)
    return 0


def _cmd_sqrt(args: argparse.Namespace) -> int:
    args.which = "sqrt"
    return _cmd_factor(args)


def _cmd_sample(args: argparse.Namespace) -> int:
    spec = read_kernel_file(args.kernel)
    g = _resolve_grid(args)
    if spec.family == WIENER:
        ps = sample_wiener(g, spec.c, args.seed, args.paths)
    else:
        ps = sample_ss1(g, spec.c, spec.beta, args.seed, args.paths)
    meta = _meta_lines("sample", spec, g, {
        "paths": ps.p,
        "seed": args.seed,
        "noise-algorithm": NOISE_ALGORITHM,
        "layout": "one path per row",
    })
    _emit(_rows_csv(ps.paths, meta), args.out)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    spec = read_kernel_file(args.kernel)
    g = _resolve_grid(args)
    ps = PathSet(grid=g, paths=_read_rectangular(args.paths))
    report = audit_constraints(ps, spec)
    payload = {"meta": _meta_dict("audit", spec, g, {"paths_file": args.paths})}
    payload.update(report.to_dict())
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_extend(args: argparse.Namespace) -> int:
    rows = _read_numeric_rows(args.band)
    if len(rows) not in (1, 2):
        raise InvalidParameter(f"{args.band}: band CSV needs two lines (diag, offdiag)")
    offdiag = rows[1] if len(rows) == 2 else []
    skeleton = BandSkeleton(diag=np.asarray(rows[0]), offdiag=np.asarray(offdiag))
    extension = band_extend(skeleton)
    meta = _meta_lines("extend", extra={"band_file": args.band,
                                        "format": "dense maximum-entropy completion"})
    _emit(_rows_csv(extension, meta), args.out)
    return 0


def _cmd_maxent_audit(args: argparse.Namespace) -> int:
    spec = read_kernel_file(args.kernel)
    g = _resolve_grid(args)
    completion = completion_entropy_audit(spec, g, args.seed, args.trials)
    increments = increment_constrained_entropy_test(spec, g, args.seed, args.trials)
    payload = {
        "meta": _meta_dict("maxent-audit", spec, g, {"trials": args.trials, "seed": args.seed}),
        "completion": completion.to_dict(),
        "increments": increments.to_dict(),
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    u, y = _read_uy_csv(args.data)
    with open(args.search, "r", encoding="utf-8") as fh:
        try:
            search_payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"search config is not valid JSON: {exc}") from None
    config = SearchConfig.from_dict(search_payload, args.kernel_family)
    problem = EstimationProblem(u=u, y=y, order=args.order, sigma2=args.sigma2)
    if args.grid is None and args.uniform is None:
        g = uniform_grid(args.order, 1.0, 1.0)
    else:
        g = _resolve_grid(args)
    estimate = fit(problem, g, config)
    payload = {"meta": _meta_dict("fit", estimate.spec, g, {"data_file": args.data,
                                                            "n_samples": problem.n_samples,
                                                            "order": problem.order})}
    payload.update(estimate.to_dict())
    _emit(_json_text(payload), args.out)
    return 0


def _inf_norm(m: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(m), axis=1)))


def _cmd_check(args: argparse.Namespace) -> int:
    spec = read_kernel_file(args.kernel)
    g = _resolve_grid(args)
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
    if n >= 3:
        completion = band_extend(band_project(p))
        record("band_roundtrip", float(np.max(np.abs(completion - p) / np.abs(p))), 1e-12)
    ok = all(c["pass"] for c in checks)
    payload = {"meta": _meta_dict("check", spec, g), "checks": checks, "pass": ok}
    _emit(_json_text(payload), args.out)
    if not ok:
        worst = min(checks, key=lambda c: c["threshold"] - c["residual"])
        raise CheckFailed(f"{worst['name']} residual {worst['residual']:.3e} exceeds {worst['threshold']:.3e}")
    return 0


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

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kwargs)

    sp = add_parser("gram", help="write the Gram matrix as CSV")
    _add_kernel_arg(sp)
    _add_grid_args(sp)
    _add_out_arg(sp)
    sp.set_defaults(handler=_cmd_gram)

    sp = add_parser("inverse", help="write the closed-form tridiagonal inverse")
    _add_kernel_arg(sp)
    _add_grid_args(sp)
    _add_out_arg(sp)
    sp.set_defaults(handler=_cmd_inverse)

    sp = add_parser("logdet", help="write the log-determinant of the Gram matrix")
    _add_kernel_arg(sp)
    _add_grid_args(sp)
    _add_out_arg(sp)
    sp.set_defaults(handler=_cmd_logdet)

    sp = add_parser("factor", help="write the precision factor or the square root")
    _add_kernel_arg(sp)
    _add_grid_args(sp)
    sp.add_argument("--which", choices=("precision", "sqrt"), default="precision")
    _add_out_arg(sp)
    sp.set_defaults(handler=_cmd_factor)

    sp = add_parser("sqrt", help="write the closed-form triangular square root")
    _add_kernel_arg(sp)
    _add_grid_args(sp)
    _add_out_arg(sp)
    sp.set_defaults(handler=_cmd_sqrt)

    sp = add_parser("sample", help="sample process paths (one per CSV row)")
    _add_kernel_arg(sp)
    _add_grid_args(sp)
    sp.add_argument("--paths", type=int, required=True, help="number of paths")
    sp.add_argument("--seed", type=int, default=0)
    _add_out_arg(sp)
    sp.set_defaults(handler=_cmd_sample)

    sp = add_parser("audit", help="audit sampled paths against a kernel's increment constraints")
    sp.add_argument("--paths", metavar="PATH", required=True, help="paths CSV (one path per row)")
    _add_kernel_arg(sp)
    _add_grid_args(sp)
    _add_out_arg(sp)
    sp.set_defaults(handler=_cmd_audit)

    sp = add_parser("extend", help="maximum-entropy completion of a band skeleton")
    sp.add_argument("--band", metavar="PATH", required=True,
                    help="band CSV: line 1 diagonal, line 2 off-diagonal")
    _add_out_arg(sp)
    sp.set_defaults(handler=_cmd_extend)

    sp = add_parser("maxent-audit", help="entropy-dominance audits for a kernel on a grid")
    _add_kernel_arg(sp)
    _add_grid_args(sp)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    _add_out_arg(sp)
    sp.set_defaults(handler=_cmd_maxent_audit)

    sp = add_parser("fit", help="kernel-regularized FIR fit from u,y data")
    sp.add_argument("--data", metavar="PATH", required=True, help="two-column CSV (u, y) with header")
    sp.add_argument("--order", type=int, required=True, help="FIR order n")
    sp.add_argument("--kernel-family", choices=(WIENER, SS1), required=True)
    sp.add_argument("--search", metavar="PATH", required=True, help="search config JSON")
    sp.add_argument("--sigma2", type=float, default=None,
                    help="fix the noise variance (default: tuned from the sigma2 axis)")
    _add_grid_args(sp, required=False)
    _add_out_arg(sp)
    sp.set_defaults(handler=_cmd_fit)

    sp = add_parser("check", help="closed forms vs dense oracle on one instance")
    _add_kernel_arg(sp)
    _add_grid_args(sp)
    _add_out_arg(sp)
    sp.set_defaults(handler=_cmd_check)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    package_logger = logging.getLogger("stablekern")
    if not package_logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        package_logger.addHandler(handler)
    package_logger.setLevel(logging.ERROR if args.quiet else logging.INFO)
    try:
        return args.handler(args)
    except StableKernError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IO: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Command-line front end: problem files in, JSON or CSV out.

A problem file is a JSON object with the coefficient vectors ``am``
(constant term first, then the decreasing powers) and ``ap`` (constant
term first, then the increasing powers), plus an optional correction
``E`` given either as a dense block {"rows", "cols", "values"} or as a
list of 1-based triplets [{"i", "j", "re", "im"}, ...].  Complex
numbers are encoded as [re, im] pairs; plain reals are accepted.

Exit codes: 0 for any classified result, 2 for input errors, 3 for an
internal numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import json

from .errors import ConvergenceError, QTEigError
from .qt import Correction, QTMatrix, qt_new, symbol_curve
from .solver import (
    BASIN_CONTINUOUS,
    BASIN_NONCONV,
    SolverConfig,
    _grid_axes,
    basins,
    eig_all,
    eig_single,
    winding_map,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class ProblemError(Exception):
    """Malformed problem file or flags; the message names the field."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(obj) -> str:
    """Minimal JSON emitter printing every number with 17 significant
    digits, for byte-identical output across runs."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return _fmt(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_emit(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot emit {type(obj)!r}")


def _real(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _scalar(value, where: str) -> complex:
    if _real(value):
        parts = [value]
    elif isinstance(value, list) and len(value) == 2 and all(_real(v) for v in value):
        parts = value
    else:
        raise ProblemError(f"{where}: expected a real or an [re, im] pair")
    try:
        z = complex(*parts)
    except OverflowError:  # an integer beyond the float range
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ProblemError(f"{where}: must be finite")
    return z


def _coeffs(raw, name: str) -> list:
    if not isinstance(raw, list) or len(raw) < 2:
        raise ProblemError(f"{name}: expected a list of at least 2 coefficients")
    return [_scalar(v, f"{name}[{k}]") for k, v in enumerate(raw)]


def _integer(value, where: str, least: int) -> int:
    """A correction position (least 1) or block size (least 0): an int or
    an integral float such as 2.0, not a bool."""
    integral = _real(value) and (isinstance(value, int) or value.is_integer())
    if not integral or value < least:
        kind = "positive" if least > 0 else "nonnegative"
        raise ProblemError(f"{where}: must be a {kind} integer")
    return int(value)


def _correction(raw) -> Correction:
    if raw is None:
        return Correction.zero()
    if isinstance(raw, dict):
        for key in ("rows", "cols", "values"):
            if key not in raw:
                raise ProblemError(f"E.{key}: missing")
        rows = _integer(raw["rows"], "E.rows", 0)
        cols = _integer(raw["cols"], "E.cols", 0)
        vals = raw["values"]
        if not isinstance(vals, list) or len(vals) != rows:
            raise ProblemError("E.values: expected one list per row")
        entries = []
        for i, row in enumerate(vals):
            if not isinstance(row, list) or len(row) != cols:
                raise ProblemError(f"E.values[{i}]: expected {cols} entries")
            for j, v in enumerate(row):
                z = _scalar(v, f"E.values[{i}][{j}]")
                if z != 0:
                    entries.append((i + 1, j + 1, z))
        return Correction.from_entries(entries)
    if isinstance(raw, list):
        entries = []
        for k, item in enumerate(raw):
            if not isinstance(item, dict) or "i" not in item or "j" not in item:
                raise ProblemError(f"E[{k}]: expected an object with i, j, re, im")
            z = _scalar([item.get("re", 0.0), item.get("im", 0.0)], f"E[{k}]")
            i = _integer(item["i"], f"E[{k}].i", 1)
            j = _integer(item["j"], f"E[{k}].j", 1)
            entries.append((i, j, z))
        return Correction.from_entries(entries)
    raise ProblemError("E: expected a dense block or a triplet list")


def parse_problem(raw: dict) -> QTMatrix:
    """Validated operator from a decoded problem object."""
    if not isinstance(raw, dict):
        raise ProblemError("problem: expected a JSON object")
    for name in ("am", "ap"):
        if name not in raw:
            raise ProblemError(f"{name}: missing")
    am = _coeffs(raw["am"], "am")
    ap = _coeffs(raw["ap"], "ap")
    if am[0] != ap[0]:
        raise ProblemError("am[0]/ap[0]: constant coefficients disagree")
    corr = _correction(raw.get("E"))
    try:
        return qt_new(am, ap, corr)
    except QTEigError as exc:
        raise ProblemError(f"am/ap: {exc}") from exc


def load_problem(path: str) -> QTMatrix:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ProblemError(f"{path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise ProblemError(f"{path}: invalid JSON ({exc})") from exc
    return parse_problem(raw)


def serialize_problem(a: QTMatrix) -> dict:
    """Problem-file object for an operator (complex as [re, im] pairs)."""
    pair = lambda z: [z.real, z.imag]
    return {
        "am": [pair(c) for c in a.symbol.neg],
        "ap": [pair(c) for c in a.symbol.pos],
        "E": [
            {"i": i, "j": j, "re": v.real, "im": v.imag}
            for i, j, v in a.correction.entries
        ],
    }


def _config(args) -> SolverConfig:
    return SolverConfig(
        method=args.method,
        gamma=args.gamma,
        maxit=args.maxit,
        residual_tol=args.tol,
        vec_len=args.vec_len,
    )


def _record_obj(rec) -> dict:
    return {
        "re": rec.lam.real,
        "im": rec.lam.imag,
        "residual": rec.residual if math.isfinite(rec.residual) else None,
        "iterations": rec.iterations,
        "status": rec.status.value,
    }


def cmd_eig_all(args) -> int:
    a = load_problem(args.problem)
    report = eig_all(a, _config(args))
    out = {
        "section_size": report.section_size,
        "eigenvalues": [_record_obj(r) for r in report.records],
        "continuous_components_detected": report.continuous_detected,
    }
    print(_emit(out))
    return EXIT_OK


def _parse_complex(text: str, where: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            z = complex(float(parts[0]), 0.0)
        elif len(parts) == 2:
            z = complex(float(parts[0]), float(parts[1]))
        else:
            raise ValueError("expected 're' or 're,im'")
    except ValueError as exc:
        raise ProblemError(f"{where}: {exc}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ProblemError(f"{where}: must be finite")
    return z


def cmd_eig_single(args) -> int:
    a = load_problem(args.problem)
    lam0 = _parse_complex(args.lambda0, "--lambda0")
    rec = eig_single(a, lam0, _config(args))
    out = _record_obj(rec)
    if rec.vec_prefix:
        out["eigenvector"] = [[v.real, v.imag] for v in rec.vec_prefix]
        out["tail_abs"] = rec.tail_abs
    print(_emit(out))
    return EXIT_OK


def _beside(out_path: Path, ext: str) -> Path:
    """The file ``<out><ext>`` that ``map`` writes next to its grid."""
    return out_path.with_suffix(out_path.suffix + ext)


def _write_curve(path: Path, a: QTMatrix, nsamples: int) -> None:
    pts = symbol_curve(a, nsamples)
    with path.open("w") as fh:
        fh.write("re,im\n")
        for z in pts:
            fh.write(f"{_fmt(z.real)},{_fmt(z.imag)}\n")


def cmd_map(args) -> int:
    a = load_problem(args.problem)
    try:
        re0, re1, im0, im1 = (float(x) for x in args.box.split(","))
    except ValueError as exc:
        raise ProblemError(f"--box: {exc}") from exc
    if not all(math.isfinite(x) for x in (re0, re1, im0, im1)):
        raise ProblemError("--box: must be finite")
    if re1 <= re0 or im1 <= im0:
        raise ProblemError("--box: ranges must be increasing")
    if args.res < 2:
        raise ProblemError("--res: resolution must be at least 2")
    if args.curve_samples < 2:
        raise ProblemError("--curve-samples: must be at least 2")
    cfg = _config(args)  # checks the solver flags for every kind, before any write
    out_path = Path(args.out)
    if not out_path.parent.is_dir():  # before the raster is computed
        raise ProblemError(f"--out: no such directory: {out_path.parent}")

    if args.kind == "winding":
        grid = winding_map(a, (re0, re1), (im0, im1), args.res)
        labels = None
    else:
        grid, limits = basins(a, (re0, re1), (im0, im1), args.res, cfg)
        labels = {
            "eigenvalues": {
                str(k): {"re": z.real, "im": z.imag} for k, z in enumerate(limits)
            },
            "continuous_label": BASIN_CONTINUOUS,
            "nonconvergent_label": BASIN_NONCONV,
        }

    res, ims = _grid_axes((re0, re1), (im0, im1), args.res)
    try:
        with out_path.open("w") as fh:
            fh.write("re,im,value\n")
            for k, y in enumerate(ims):
                for j, x in enumerate(res):
                    fh.write(f"{_fmt(x)},{_fmt(y)},{int(grid[k, j])}\n")
        if labels is not None:
            _beside(out_path, ".labels.json").write_text(_emit(labels) + "\n")
        _write_curve(_beside(out_path, ".curve.csv"), a, args.curve_samples)
    except OSError as exc:
        raise ProblemError(f"--out: {exc}") from exc
    return EXIT_OK


def _add_solver_flags(sub) -> None:
    default = SolverConfig()
    sub.add_argument("--method", choices=SolverConfig.METHODS,
                     default=default.method, help="basis driving Newton's iteration")
    sub.add_argument("--gamma", type=float, default=default.gamma,
                     help="finite-section size factor")
    sub.add_argument("--maxit", type=int, default=default.maxit,
                     help="Newton iteration budget per start")
    sub.add_argument("--tol", type=float, default=default.residual_tol,
                     help="relative residual acceptance tolerance")
    sub.add_argument("--vec-len", type=int, default=default.vec_len, dest="vec_len",
                     help="eigenvector prefix length")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qteig",
        description="Isolated eigenvalues of banded semi-infinite operators "
        "with a finite correction.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_all = subs.add_parser("eig-all", help="find all isolated eigenvalues")
    p_all.add_argument("problem", help="problem JSON file")
    _add_solver_flags(p_all)
    p_all.set_defaults(func=cmd_eig_all)

    p_one = subs.add_parser("eig-single", help="refine one starting shift")
    p_one.add_argument("problem", help="problem JSON file")
    p_one.add_argument("--lambda0", required=True,
                       help="starting shift as 're' or 're,im'")
    _add_solver_flags(p_one)
    p_one.set_defaults(func=cmd_eig_single)

    p_map = subs.add_parser("map", help="winding or basin raster over a box")
    p_map.add_argument("problem", help="problem JSON file")
    p_map.add_argument("--box", required=True, help="re0,re1,im0,im1")
    p_map.add_argument("--res", type=int, required=True, help="cells per axis")
    p_map.add_argument("--kind", choices=("winding", "basins"), default="winding")
    p_map.add_argument("--out", default="map.csv", help="grid CSV path")
    p_map.add_argument("--curve-samples", type=int, default=1024,
                       dest="curve_samples", help="symbol curve sample count")
    _add_solver_flags(p_map)
    p_map.set_defaults(func=cmd_map)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QTEigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

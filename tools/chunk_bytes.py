"""The row cost model of qteig's lockstep Newton chunks against the
memory a chunk's passes take.

    python3 tools/chunk_bytes.py [--src DIR]

Imports qteig from ``DIR/src`` (default: this checkout).  For each of
seven configurations it prints the sizes the model reads (the symbol's
degree d = m + n, p = min(d, q), W's nonzero columns and the prefix
length), the number of starts, the chunk size the model gives
(``solver._chunk_rows``), the number of chunks and the rows of the
first one as ``solver._runs`` cuts them (``solver._chunk_bounds``), the
bytes per row of the model (``solver._row_bytes``), the per-row peak
tracemalloc measures over that chunk's passes (``solver._run_batch``,
run once before the measurement so that lazy set-up is not counted),
their ratio and the chunk's measured peak.  Then it prints the worst ratio, as the factor
by which the model is over or under the measured peak, and its slack
against GUARD, the bound ``tests/test_solver.py`` holds the model to:
the slack says how near the next refit is.  The configurations:

- fix_a basins 50 x 50: the rank-one fixture's cell centres of
  [-0.5, 0.5]^2, as ``basins`` runs them (a one-entry prefix);
- fix_a 24 x 24 grid: the same fixture from a 24 x 24 grid on
  [-0.49, 0.49]^2 at the default prefix;
- seven_band, cluster (criterion 4's configuration) and test1_case1:
  the finite-section starts ``eig_all`` runs (Im >= 0 on these real
  operators);
- seven-band basins 40 x 36: the seven-band fixture over
  [-2, -0.2] x [-0.2, 0.2];
- test1_case2 basins 24 x 24: over [0, 3] x [-3.2, -1.2].
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# The factor either way within which test_row_bytes_follow_the_measured_peak
# holds the model's bytes per row to the measured peak.
GUARD = 1.35


def _import_qteig(src: Path):
    sys.path.insert(0, str(src / "src"))
    import qteig

    if src.resolve() / "src" not in Path(qteig.__file__).resolve().parents:
        raise ImportError(f"qteig imported from {qteig.__file__}, not from {src}")
    return qteig


def configurations(q) -> list:
    """(name, operator, starts, SolverConfig) for each configuration."""
    s = q.solver
    band = [0, -1, 1, -1], [0, -1, -1]
    fix_a = q.qt_new([5, -2], [5, -2], [(1, 1, -4)])
    seven_band = q.qt_new([0, -1, 1, -1, 0, 0, 0, 1], [0, -1, -1],
                          [(i, 100, i) for i in range(1, 21)])
    cluster = q.qt_new([0, 0, 0, 0, 0, 0, 0, 1.0, 0.3, 0.03, 0.001], [0, 0, 10.0],
                       [(i, 12 + i, 1e-5) for i in range(1, 13)])
    test1_case1 = q.qt_new(*band, [(i, 100, i) for i in range(1, 21)])
    test1_case2 = q.qt_new(*band, [(i, 100, 8 * i) for i in range(1, 4)])
    default = q.SolverConfig()
    criterion4 = q.SolverConfig(gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4)
    cells = q.SolverConfig(vec_len=1)  # as ``basins`` runs

    def grid(re, im, res):
        xs, ys = s._grid_axes(re, im, res)
        return (xs + 1j * ys[:, None]).ravel()

    def section(a, cfg):
        starts = np.array(q.linalg.eig_dense(q.finite_section(a, s.section_size(a, cfg.gamma))))
        return starts[starts.imag >= 0] if s._is_real(a) else starts

    axis = np.linspace(-0.49, 0.49, 24)
    return [
        ("fix_a basins 50 x 50", fix_a, grid((-0.5, 0.5), (-0.5, 0.5), 50), cells),
        ("fix_a 24 x 24 grid", fix_a, (axis + 1j * axis[:, None]).ravel(), default),
        ("seven_band section", seven_band, section(seven_band, default), default),
        ("cluster section", cluster, section(cluster, criterion4), criterion4),
        ("test1_case1 section", test1_case1, section(test1_case1, default), default),
        ("seven-band basins 40 x 36", seven_band, grid((-2.0, -0.2), (-0.2, 0.2), (40, 36)),
         cells),
        ("test1_case2 basins 24 x 24", test1_case2, grid((0.0, 3.0), (-3.2, -1.2), 24), cells),
    ]


def chunk_cost(q, a, starts, cfg) -> dict:
    """The model's sizes, chunk size and bytes per row, the number of
    chunks ``_runs`` cuts ``starts`` into and the rows of the first, and
    tracemalloc's peak over that chunk's passes."""
    s = q.solver
    ctx, a_norm, real = s.build_w(a), s.norm_inf(a), s._is_real(a)
    d = a.symbol.m + a.symbol.n
    sizes = (d, min(d, ctx.q), len(ctx.cols), cfg.vec_len)
    size = s._chunk_rows(*sizes)
    bounds = s._chunk_bounds(len(starts), size)
    first, stop = bounds[0]
    chunk = np.array(starts[first:stop])
    s._run_batch(a, ctx, a_norm, chunk, cfg, real)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s._run_batch(a, ctx, a_norm, chunk, cfg, real)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"sizes": sizes, "size": size, "chunks": len(bounds), "rows": len(chunk),
            "model": s._row_bytes(*sizes), "peak": peak}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ provides qteig (default: this one)")
    args = parser.parse_args(argv)
    q = _import_qteig(args.src)
    print(f"{'configuration':28} {'d':>3} {'p':>3} {'cols':>4} {'vec':>4} {'starts':>6} "
          f"{'size':>5} {'chunks':>6} {'rows':>5} {'model B':>8} {'peak B':>8} {'ratio':>6} "
          f"{'chunk MB':>8}")
    worst = (1.0, "")
    for name, a, starts, cfg in configurations(q):
        got = chunk_cost(q, a, starts, cfg)
        per_row = got["peak"] / got["rows"]
        ratio = got["model"] / per_row
        worst = max(worst, (max(ratio, 1 / ratio), f"{name}, {'over' if ratio > 1 else 'under'}"))
        print(f"{name:28} {got['sizes'][0]:3} {got['sizes'][1]:3} {got['sizes'][2]:4} "
              f"{got['sizes'][3]:4} {len(starts):6} {got['size']:5} {got['chunks']:6} "
              f"{got['rows']:5} {got['model']:8.0f} {per_row:8.0f} {ratio:6.3f} "
              f"{got['peak'] / 1e6:8.2f}",
              flush=True)
    print(f"worst: {worst[0]:.3f}x ({worst[1]}); guard {GUARD}x, slack {GUARD / worst[0] - 1:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

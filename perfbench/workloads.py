"""The benchmark's three workloads: operators, one pass, and the check of
what a pass returns.

The operators are the fixtures of the test suite, rebuilt here.  Each
workload is set up once per process (``__init__``), then ``run_pass``
runs one pass through the public API and ``check`` verifies its output
from outside the solver.  A failed check fails the pass; an eigenvalue
the solver misses only lowers ``eigs_found``, so a completeness gap
stays visible without failing anything.

- seven_band: ``qteig eig-all`` on the seven-band fixture at default
  settings, in process through ``qteig.cli.main``.  The only workload
  that measures the cli layer.  Ignores the seed.
- cluster: ``eig_all`` on the clustered-root fixture with the
  criterion-4 Frobenius configuration.  Mostly Newton steps on degree-12
  companions.  Ignores the seed.
- raster: the fig-2 winding map at 200 x 200 cells, then the basins of
  the rank-one fixture at 50 x 50 cells.  No section eigensolve.  The
  seed shifts both grids by a sub-cell offset.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import qteig as q
import qteig.cli
from qteig.solver import CURVE_SENTINEL


def fix_a():
    return q.qt_new([5, -2], [5, -2], [(1, 1, -4)])


def warm_up() -> None:
    """One small solve, so numpy and LAPACK lazy set-up happens in set-up."""
    q.eig_all(fix_a())


def _matches(z: complex, target: complex, tol_re: float, tol_im: float) -> bool:
    if target.imag == 0:
        return abs(z.real - target.real) <= tol_re and abs(z.imag) <= 1e-8
    return abs(z.real - target.real) <= tol_re and abs(z.imag - target.imag) <= tol_im


class CheckFailed(Exception):
    """A pass returned output that fails the benchmark's own check."""


class SevenBand:
    # Criterion 3's eight eigenvalues, each with half a unit in its last
    # published digit as tolerance: the six reals of Table 2 at two
    # significant figures and the complex pair near -0.327 +- 0.078i.
    REFERENCE = (
        (complex(-1.9), 0.05, 0.0),
        (complex(-1.6), 0.05, 0.0),
        (complex(-1.3), 0.05, 0.0),
        (complex(-0.96), 0.005, 0.0),
        (complex(-0.58), 0.005, 0.0),
        (complex(-8.5e-4), 0.5e-5, 0.0),
        (complex(-0.327, 0.078), 0.5e-3, 0.5e-3),
        (complex(-0.327, -0.078), 0.5e-3, 0.5e-3),
    )

    def __init__(self, seed: int, workdir: Path):
        a = q.qt_new(
            [0, -1, 1, -1, 0, 0, 0, 1], [0, -1, -1], [(i, 100, i) for i in range(1, 21)]
        )
        self.problem = workdir / "seven_band.json"
        self.problem.write_text(json.dumps(qteig.cli.serialize_problem(a)))

    def run_pass(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = qteig.cli.main(["eig-all", str(self.problem)])
        return code, out.getvalue()

    def check(self, result) -> int:
        code, stdout = result
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        eigs = [complex(e["re"], e["im"]) for e in json.loads(stdout)["eigenvalues"]]
        matched = set()
        for z in eigs:
            hits = [k for k, (t, tr, ti) in enumerate(self.REFERENCE) if _matches(z, t, tr, ti)]
            if not hits:
                raise CheckFailed(f"eigenvalue {z} matches no reference value")
            matched.update(hits)
        return len(matched)


class Cluster:
    RESIDUAL_TOL = 1e-8

    def __init__(self, seed: int, workdir: Path):
        # z**-10 ((0.1 + z)**3 + 10 z**12) with a 1e-5 shifted-identity correction
        self.a = q.qt_new(
            [0, 0, 0, 0, 0, 0, 0, 1.0, 0.3, 0.03, 0.001],
            [0, 0, 10.0],
            [(i, 12 + i, 1e-5) for i in range(1, 13)],
        )
        self.cfg = q.SolverConfig(method="frobenius", gamma=12.5,
                                  residual_tol=1e-8, dedupe_tol=1e-4)
        self.norm = q.norm_inf(self.a)

    def run_pass(self):
        return q.eig_all(self.a, self.cfg)

    def check(self, report) -> int:
        n = self.a.symbol.n
        for rec in report.records:
            v = np.asarray(rec.vec_prefix)
            rows = v.size - n  # every one of these rows sees its full band
            res = np.linalg.norm(q.apply_prefix(self.a, v, rows) - rec.lam * v[:rows])
            rel = float(res / np.linalg.norm(v[:rows]))
            if not rel <= self.RESIDUAL_TOL:
                raise CheckFailed(f"relative residual {rel:.2e} at {rec.lam}")
            if abs(rec.lam) > self.norm:
                raise CheckFailed(f"|{rec.lam}| exceeds the operator norm {self.norm}")
        # distinct eigenvalues, clustered by the solver's own dedupe rule,
        # so that near-duplicates the solver fails to merge count once
        distinct: list = []
        tol = self.cfg.dedupe_tol
        for lam in sorted((rec.lam for rec in report.records), key=lambda z: (z.real, z.imag)):
            if not any(abs(lam - d) <= tol * max(1.0, abs(lam)) for d in distinct):
                distinct.append(lam)
        return len(distinct)


def _cell_centers(lo: float, hi: float, cells: int) -> np.ndarray:
    return lo + (np.arange(cells) + 0.5) * (hi - lo) / cells


def reference_winding(sym, res, ims, circle_tol=1e-8, rows_per_chunk=10):
    """Winding numbers from batched LAPACK companion eigenvalues, and a
    mask of the cells this reference cannot decide (a root within
    ``circle_tol`` of the unit circle).  A few grid rows at a time, so
    that the check adds little to the process's peak memory."""
    deg = sym.m + sym.n
    wind = np.empty((ims.size, res.size), dtype=int)
    undecided = np.empty((ims.size, res.size), dtype=bool)
    for k in range(0, ims.size, rows_per_chunk):
        lam = (res[None, :] + 1j * ims[k : k + rows_per_chunk, None]).ravel()
        coeffs = np.broadcast_to(sym.coeffs(), (lam.size, deg + 1)).copy()
        coeffs[:, sym.m] -= lam
        comp = np.zeros((lam.size, deg, deg), dtype=complex)
        comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        comp[:, :, deg - 1] = -coeffs[:, :deg] / coeffs[:, deg:]
        mods = np.abs(np.linalg.eigvals(comp))
        shape = (-1, res.size)
        wind[k : k + rows_per_chunk] = ((mods < 1.0).sum(axis=1) - sym.m).reshape(shape)
        undecided[k : k + rows_per_chunk] = (np.abs(mods - 1.0) <= circle_tol).any(axis=1).reshape(shape)
    return wind, undecided


class Raster:
    WIND_BOX, WIND_CELLS = (-10.0, 10.0), 200
    BASIN_BOX, BASIN_CELLS = (-0.5, 0.5), 50
    LIMIT_TOL = 1e-10

    def __init__(self, seed: int, workdir: Path):
        # 3 z**-3 - 2 z**-2 + z**-1 - z - 4 z**2 - 3 z**3, no correction
        self.fig2 = q.QTMatrix(
            symbol=q.LaurentSymbol(neg=(0, 1, -2, 3), pos=(0, -1, -4, -3)),
            correction=q.Correction.zero(),
        )
        self.fix_a = fix_a()
        rng = np.random.default_rng(seed)
        wcell = (self.WIND_BOX[1] - self.WIND_BOX[0]) / self.WIND_CELLS
        bcell = (self.BASIN_BOX[1] - self.BASIN_BOX[0]) / self.BASIN_CELLS
        dw = rng.uniform(-0.5, 0.5, 2) * wcell
        db = rng.uniform(-0.5, 0.5, 2) * bcell
        self.wind_re = tuple(x + dw[0] for x in self.WIND_BOX)
        self.wind_im = tuple(x + dw[1] for x in self.WIND_BOX)
        self.basin_re = tuple(x + db[0] for x in self.BASIN_BOX)
        self.basin_im = tuple(x + db[1] for x in self.BASIN_BOX)
        self._reference = None  # computed by the first check, outside set-up and passes

    def run_pass(self):
        grid = q.winding_map(self.fig2, self.wind_re, self.wind_im, self.WIND_CELLS)
        _, limits = q.basins(self.fix_a, self.basin_re, self.basin_im, self.BASIN_CELLS)
        return grid, limits

    def check(self, result) -> int:
        grid, limits = result
        values = set(np.unique(grid).tolist()) - {CURVE_SENTINEL}
        if values != {0, 1, 2}:
            raise CheckFailed(f"winding values {sorted(values)} != [0, 1, 2]")
        if self._reference is None:
            self._reference = reference_winding(
                self.fig2.symbol,
                _cell_centers(*self.wind_re, self.WIND_CELLS),
                _cell_centers(*self.wind_im, self.WIND_CELLS),
            )
        ref, undecided = self._reference
        excused = undecided.copy()
        on_curve = np.pad(grid == CURVE_SENTINEL, 1)
        rows, cols = grid.shape
        for dk in range(3):  # sentinel cells and their eight neighbours
            for dj in range(3):
                excused |= on_curve[dk : dk + rows, dj : dj + cols]
        bad = (grid != ref) & ~excused
        if bad.any():
            k, j = np.argwhere(bad)[0]
            raise CheckFailed(f"{int(bad.sum())} winding cells differ from the reference, "
                              f"first at row {k}, column {j}: {grid[k, j]} != {ref[k, j]}")
        if not limits or any(not abs(z) <= self.LIMIT_TOL for z in limits):
            raise CheckFailed(f"basin limits {limits} are not {{0}} within {self.LIMIT_TOL:g}")
        return len(limits)


WORKLOADS = {"seven_band": SevenBand, "cluster": Cluster, "raster": Raster}

import cmath
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qteig as q
from qteig.errors import ConvergenceError, InvalidInputError, OnCurveError
from qteig.factor import wiener_hopf
from qteig.linalg import eig_dense
from qteig.nep import basis_frobenius, basis_vandermonde, build_w, newton_correction, phi
from qteig.poly import _count_rows, _graeffe_rows
from qteig.solver import (
    BASIN_CONTINUOUS,
    BASIN_NONCONV,
    CURVE_SENTINEL,
    Outcomes,
    _MAP_SAMPLES,
    _classify,
    _code,
    _compression,
    _curve_polygon,
    _grid_axes,
    _chunk_bounds,
    _chunk_rows,
    _limit_index,
    _near_cells,
    _representatives,
    _row_bytes,
    _row_sizes,
    _run_newton,
    section_size,
)

from conftest import random_symbol, squarings


def _run_records(a, starts, cfg):
    """The EigRecord of each run the driver makes from starts, in order."""
    out = q.solver._runs(a, starts, cfg)
    return [out.record(k) for k in range(out.code.size)]


def _classified(a, ctx, lam, basis, iterations, cfg):
    """``_classify``'s outcome of each row as an EigRecord with the given
    step counts, or None where it does not accept the shift."""
    code, residual, vec = _classify(a, ctx, lam, basis, cfg)
    prefix = np.zeros((code.size, cfg.vec_len), dtype=complex)
    prefix[q.solver._isolated(code)] = vec
    out = Outcomes(code, lam, residual, iterations, prefix)
    return [None if c == Outcomes.LIVE else out.record(k) for k, c in enumerate(code)]


@pytest.fixture(scope="module")
def fix_a_pltq():
    # extra correction row annihilated by the decaying eigenvector
    # (2**-1 - 2 * 2**-2 = 0), so 0 stays an eigenvalue with p < q
    return q.qt_new([5, -2], [5, -2], [(1, 1, -4), (2, 1, 1.0), (2, 2, -2.0)])


class TestEigSingle:
    def test_fix_a(self, fix_a):
        rec = q.eig_single(fix_a, 0.05)
        assert rec.status is q.SolveStatus.ISOLATED_PQ
        assert abs(rec.lam) <= 1e-10
        assert rec.residual <= 1e-12
        v = np.asarray(rec.vec_prefix)
        assert np.abs(v[1:21] / v[:20] - 0.5).max() <= 1e-8

    def test_continuous_component(self):
        rec = q.eig_single(q.qt_new([0, 1], [0, 2]), 0.0)
        assert rec.status is q.SolveStatus.CONTINUOUS_SET

    def test_root_overflow_raises(self):
        # 1e-310 z**2 + z + 5 - 2 / z - 0.1: the companion ratios divide by a
        # subnormal leading coefficient, and the scaled roots overflow
        with pytest.raises(ConvergenceError, match="root overflows"):
            q.eig_single(q.qt_new([5, -2], [5, 1, 1e-310]), 0.1)

    def test_norm_guard(self, fix_a):
        rec = q.eig_single(fix_a, 20.0)
        assert rec.status in (q.SolveStatus.DIVERGED, q.SolveStatus.OUT_OF_COMPONENT)

    def test_on_curve_start(self, fix_a):
        rec = q.eig_single(fix_a, 5.0)
        assert rec.status is q.SolveStatus.ON_CURVE

    def test_overdetermined_eigenvalue(self, fix_a_pltq):
        ctx = build_w(fix_a_pltq)
        assert ctx.q == 2
        rec = q.eig_single(fix_a_pltq, 0.07)
        assert rec.status is q.SolveStatus.ISOLATED_PLTQ
        assert abs(rec.lam) <= 1e-10
        v = np.asarray(rec.vec_prefix)
        assert np.abs(v[1:6] / v[:5] - 0.5).max() <= 1e-8

    def test_rank_certificate_at_rounding_level(self, fix_a_pltq):
        # a shift 1e-14 from the eigenvalue 0: W V is rank deficient only
        # up to rounding, which the certificate measures against ||W|| ||V||
        ctx = build_w(fix_a_pltq)
        lam = 1e-14
        basis = basis_frobenius(wiener_hopf(fix_a_pltq.symbol, lam), ctx.width)
        cfg = q.SolverConfig()
        (rec,) = _classified(fix_a_pltq, ctx, np.array([lam]), basis[None], np.array([0]), cfg)
        assert rec.status is q.SolveStatus.ISOLATED_PLTQ
        assert rec.residual <= 1e-13

    def test_overdetermined_nonconvergence(self):
        # generic second row: the reduced system still has a zero but the
        # full set of boundary equations does not
        a = q.qt_new([5, -2], [5, -2], [(1, 1, -4), (2, 1, 1.0), (2, 2, 1.0)])
        rec = q.eig_single(a, 0.05)
        assert rec.status is q.SolveStatus.NO_CONVERGENCE_PLTQ

    def test_iterations_within_budget(self, fix_a):
        cfg = q.SolverConfig(maxit=20)
        for start in (0.05, 0.3, -0.4 + 0.2j):
            rec = q.eig_single(fix_a, start, cfg)
            assert rec.iterations <= cfg.maxit

    def test_rejects_nonfinite_start(self, fix_a):
        # and a start that is no number, or an integer past the floats
        for start in (complex("inf"), None, "abc", [1], 10**400):
            with pytest.raises(InvalidInputError, match="starting shift"):
                q.eig_single(fix_a, start)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            q.SolverConfig(maxit=0)
        with pytest.raises(InvalidInputError):
            q.SolverConfig(residual_tol=0.0)
        with pytest.raises(InvalidInputError):
            q.SolverConfig(method="secant")
        # a non-integer step budget or prefix length would reach a slice
        for field in ("maxit", "vec_len"):
            for bad in (2.5, 3.0, "3"):
                with pytest.raises(InvalidInputError):
                    q.SolverConfig(**{field: bad})
        for field in ("gamma", "residual_tol", "dedupe_tol"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidInputError):
                    q.SolverConfig(**{field: bad})

    def test_config_rejects_non_real_knobs(self):
        # a string, None or complex tolerance would reach math.isfinite,
        # and a bool would count as 1
        for field in ("gamma", "residual_tol", "dedupe_tol"):
            for bad in ("3", None, 1j, True, np.True_):
                with pytest.raises(InvalidInputError, match=field):
                    q.SolverConfig(**{field: bad})
            assert getattr(q.SolverConfig(**{field: np.float64(0.5)}), field) == 0.5

    def test_newton_does_no_graeffe_count(self, fix_a, test1_case1, monkeypatch):
        # the inside-root split decides p in each step; root squaring
        # serves only the winding map
        want = q.eig_all(fix_a)

        def refuse(*args, **kwargs):
            raise AssertionError("Graeffe root count inside a Newton run")

        monkeypatch.setattr("qteig.solver._count_rows", refuse)
        monkeypatch.setattr("qteig.poly.count_inside", refuse)
        monkeypatch.setattr("qteig.poly._graeffe_rows", refuse)
        assert q.eig_all(fix_a) == want
        rec = q.eig_single(test1_case1, -0.40 + 1.22j)
        assert rec.is_isolated


class TestRunExits:
    """Each exit of a Newton run, pinned on fix_a from 0.05, where the
    unpatched run ends isolated_pq after 4 iterations."""

    def _fail_on(self, monkeypatch, name, calls):
        # the batched kernel reports its failing rows in the mask it
        # returns last: on the given calls, every row fails
        real = getattr(q.solver, name)
        count = [0]

        def wrapped(*args):
            count[0] += 1
            *result, failed = real(*args)
            if count[0] in calls:
                failed = np.ones_like(failed)
            return (*result, failed)

        monkeypatch.setattr(f"qteig.solver.{name}", wrapped)

    def test_unpatched(self, fix_a):
        rec = q.eig_single(fix_a, 0.05)
        assert (rec.status, rec.iterations) == (q.SolveStatus.ISOLATED_PQ, 4)

    def test_vanishing_trace_jitters_once(self, fix_a, monkeypatch):
        self._fail_on(monkeypatch, "_newton_steps", {1})
        rec = q.eig_single(fix_a, 0.05)
        assert (rec.status, rec.iterations) == (q.SolveStatus.ISOLATED_PQ, 4)

    def test_vanishing_trace_after_jitter(self, fix_a, monkeypatch):
        # fix_a is real and 0.05 is on the real axis: the jitter stays on it
        self._fail_on(monkeypatch, "_newton_steps", {1, 2})
        rec = q.eig_single(fix_a, 0.05)
        assert (rec.status, rec.iterations) == (q.SolveStatus.MAX_ITERATIONS, 0)
        assert rec.lam == 0.05 * (1 + 1e-8) + 1e-8
        assert rec.lam.imag == 0

    @pytest.mark.parametrize("start, real", [(0.05 + 0.01j, True), (0.05, False)])
    def test_jitter_off_the_axis(self, fix_a, monkeypatch, start, real):
        # a non-real shift, or a real one of a complex operator, jitters
        # along the imaginary axis too
        a = fix_a if real else q.qt_new([5, -2], [5, -2], [(1, 1, -4 + 1e-3j)])
        self._fail_on(monkeypatch, "_newton_steps", {1, 2})
        rec = q.eig_single(a, start)
        assert (rec.status, rec.iterations) == (q.SolveStatus.MAX_ITERATIONS, 0)
        assert rec.lam == start * (1 + 1e-8) + 1e-8j

    def test_factorization_breakdown(self, fix_a, monkeypatch):
        self._fail_on(monkeypatch, "_factor_rows", {1})
        rec = q.eig_single(fix_a, 0.05)
        assert (rec.status, rec.iterations) == (q.SolveStatus.MAX_ITERATIONS, 0)
        assert rec.lam == 0.05

    def test_budget(self, fix_a):
        rec = q.eig_single(fix_a, 0.05, q.SolverConfig(maxit=3))
        assert (rec.status, rec.iterations) == (q.SolveStatus.MAX_ITERATIONS, 3)

    def test_small_last_step_is_classified(self, fix_a):
        # the fourth and last budgeted step is below STEP_TOL, so the
        # shift it reaches is still classified
        rec = q.eig_single(fix_a, 0.05, q.SolverConfig(maxit=4))
        assert (rec.status, rec.iterations) == (q.SolveStatus.ISOLATED_PQ, 4)

    @pytest.mark.parametrize("column", [10**6, 10**12, 10**300], ids=["1e6", "1e12", "1e300"])
    @pytest.mark.parametrize("method", q.SolverConfig.METHODS)
    def test_far_correction_column(self, fix_a, method, column):
        # the basis reaches column j in log(j) squarings, and the
        # residual reads only that row past its band prefix: an entry
        # whose eigenvector entry 2**-j underflows leaves fix_a's runs
        # as they were
        a = q.QTMatrix(fix_a.symbol, q.Correction(fix_a.correction.entries + ((1, column, 0.5),)))
        cfg = q.SolverConfig(method=method)
        rec = q.eig_single(a, 0.05, cfg)
        assert rec.status is q.SolveStatus.ISOLATED_PQ
        assert abs(rec.lam) <= 1e-12
        assert q.eig_single(a, 3 + 2j, cfg).status is q.SolveStatus.DIVERGED
        box = ((-0.5, 0.5), (-0.5, 0.5), 6)
        labels, limits = q.basins(a, *box, cfg)
        want_labels, want_limits = q.basins(fix_a, *box, cfg)
        assert np.array_equal(labels, want_labels)
        assert limits == want_limits

    def test_no_inside_roots(self):
        # z (a(z) - 0) = 1 + 0.1 z**2 has both roots outside: p = 0
        rec = q.eig_single(q.qt_new([0, 1], [0, 0.1]), 0.0)
        assert (rec.status, rec.iterations) == (q.SolveStatus.NO_CONVERGENCE_PLTQ, 0)

    def test_vandermonde_falls_back_on_double_root(self, monkeypatch):
        # z**2 (a(z) - 0) = (z - 0.5)**2 (z - 3): a double inside root
        a = q.qt_new([-4, 3.25, -0.75], [-4, 1])
        built = []
        real = q.solver._frobenius_rows

        def spy(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr("qteig.solver._frobenius_rows", spy)
        q.eig_single(a, 0.0, q.SolverConfig(method="vandermonde", maxit=1))
        assert built


class TestSpuriousExit:
    """The p < q exit: a run that heads for a zero of det Phi that is not
    an eigenvalue ends no_convergence_pltq before it converges, and no
    other run changes."""

    CONFIGS = {"test2_case1": q.SolverConfig(),
               "test3": q.SolverConfig(gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4)}

    def _starts(self, name, a):
        if name == "fix_a_pltq":  # the 40 x 40 cell centres over [-2, 2]**2
            xs, ys = _grid_axes((-2, 2), (-2, 2), 40)
            return [complex(x, y) for y in ys for x in xs], q.SolverConfig()
        cfg = self.CONFIGS[name]
        return eig_dense(q.finite_section(a, section_size(a, cfg.gamma))), cfg

    @pytest.mark.parametrize("name", ["test2_case1", "test3", "fix_a_pltq"])
    def test_ends_only_the_runs_the_certificate_rejects(self, name, request, monkeypatch):
        a = request.getfixturevalue(name)
        starts, cfg = self._starts(name, a)
        on = _run_records(a, starts, cfg)
        monkeypatch.setattr(q.solver, "SPURIOUS_RATIO", math.inf)  # the exit off
        off = _run_records(a, starts, cfg)
        rejected = [r.status is q.SolveStatus.NO_CONVERGENCE_PLTQ and math.isfinite(r.residual)
                    for r in off]
        for rec, ref, spurious in zip(on, off, rejected, strict=True):
            if spurious:  # ended earlier, at a shift no residual was computed for
                assert rec.status is q.SolveStatus.NO_CONVERGENCE_PLTQ
                assert rec.residual == math.inf and rec.iterations < ref.iterations
            else:
                assert rec == ref and repr(rec.residual) == repr(ref.residual)
        if name == "fix_a_pltq":
            assert all(r.status is q.SolveStatus.ISOLATED_PLTQ for r in on)
        else:
            assert any(rejected)

    @pytest.mark.parametrize("method", q.SolverConfig.METHODS)
    @pytest.mark.parametrize("name", ["test2_case1", "test3"])
    def test_mirror_runs_end_alike(self, name, method, request):
        # a shift with Im < 0 takes conj(R): on a real operator the run
        # from conj(lam) ends as the run from lam, in as many steps
        a = request.getfixturevalue(name)
        starts, cfg = self._starts(name, a)
        cfg = dataclasses.replace(cfg, method=method)
        up = np.array([z for z in starts if z.imag > 0])
        runs, mirrors = (q.solver._runs(a, z, cfg) for z in (up, up.conj()))
        assert (runs.code == _code(q.SolveStatus.NO_CONVERGENCE_PLTQ)).any()
        assert np.array_equal(runs.code, mirrors.code)
        assert np.array_equal(runs.iterations, mirrors.iterations)

    def test_compression_is_fixed_and_unit_modulus(self):
        r = _compression(6, 8)
        assert r is _compression(6, 8) and r.shape == (6, 8)
        assert np.allclose(np.abs(r), 1.0) and np.linalg.matrix_rank(r) == 6
        assert r[1, 2] == cmath.exp(2j * math.pi * math.modf(6 * (math.sqrt(5) - 1) / 2)[0])

    def test_no_numpy_random(self):
        # the compression is closed-form: importing numpy.random would
        # cost the solver about 6 MB of peak memory and 14 ms
        code = """if True:
            import sys
            import qteig as q
            pltq = q.qt_new([5, -2], [5, -2], [(1, 1, -4), (2, 1, 1.0), (2, 2, -2.0)])
            seven = q.qt_new([0, -1, 1, -1, 0, 0, 0, 1], [0, -1, -1],
                             [(i, 100, i) for i in range(1, 21)])
            assert [r.status.value for r in q.eig_all(pltq).records] == ["isolated_pltq"]
            assert len(q.eig_all(seven).records) == 7
            assert "numpy.random" not in sys.modules
        """
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestEigAll:
    def test_fix_a(self, fix_a):
        rep = q.eig_all(fix_a)
        assert rep.section_size == 6
        assert rep.converged == len(rep.records) == 1
        rec = rep.records[0]
        assert abs(rec.lam) <= 1e-10
        assert not rep.continuous_detected

    def test_overdetermined_fixture(self, fix_a_pltq):
        rep = q.eig_all(fix_a_pltq)
        assert rep.converged == 1
        assert rep.records[0].status is q.SolveStatus.ISOLATED_PLTQ

    @pytest.mark.parametrize("name", ["test2_case1", "test3"])
    def test_outcome_counts(self, name, request):
        # one count per status of the runs made: on these real operators
        # the section starts with Im >= 0
        a = request.getfixturevalue(name)
        cfg = q.SolverConfig()
        want = {"out_of_component": 89, "no_convergence_pltq": 59, "isolated_pq": 11,
                "diverged": 8}
        if name == "test3":  # criterion 4's configuration
            cfg = q.SolverConfig(gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4)
            want = {"isolated_pq": 92, "no_convergence_pltq": 38, "out_of_component": 29,
                    "max_iterations": 6}
        report = q.eig_all(a, cfg)
        assert report.outcomes == want
        starts = eig_dense(q.finite_section(a, section_size(a, cfg.gamma)))
        assert sum(report.outcomes.values()) == sum(z.imag >= 0 for z in starts)

    def test_deterministic(self, fix_a, fix_a_pltq):
        for a in (fix_a, fix_a_pltq):
            assert q.eig_all(a) == q.eig_all(a)

    def test_oversized_section_rejected_before_it_is_built(self, test1_case2, monkeypatch):
        built = []

        def spy(*args):
            built.append(args)
            raise AssertionError("finite section built")

        monkeypatch.setattr("qteig.solver.finite_section", spy)
        # gamma 41 asks for a 4100 x 4100 section, above EIG_MAX_DIM
        with pytest.raises(InvalidInputError, match="exceeds the cap"):
            q.eig_all(test1_case2, q.SolverConfig(gamma=41))
        # sizes whose product with gamma leaves the float range
        far = q.qt_new([5, -2], [5, -2], [(1, 10**400, 1.0)])
        for a, cfg in ((test1_case2, q.SolverConfig(gamma=1e308)), (far, q.SolverConfig())):
            with pytest.raises(InvalidInputError, match="exceeds the cap"):
                q.eig_all(a, cfg)
            with pytest.raises(InvalidInputError, match="exceeds the cap"):
                section_size(a, cfg.gamma)
        assert not built

    def test_residual_recomputed_independently(self, fix_a, test2_case1):
        for a, start in ((fix_a, 0.05), (test2_case1, -1.9)):
            rec = q.eig_single(a, start)
            assert rec.is_isolated
            ctx = build_w(a)
            v = np.asarray(rec.vec_prefix)
            res = np.linalg.norm(
                q.apply_prefix(a, v, ctx.q) - rec.lam * v[: ctx.q]
            ) / np.linalg.norm(v[: ctx.q])
            assert res <= 10 * max(rec.residual, 1e-15)

    def test_method_agreement_on_band_fixture(self, test1_case1):
        # pair locations from the eigenvalue table, both bases
        starts = (-0.40 + 1.22j, -0.31 + 1.34j, -0.22 + 1.45j)
        for s in starts:
            frob = q.eig_single(test1_case1, s, q.SolverConfig(method="frobenius"))
            vand = q.eig_single(test1_case1, s, q.SolverConfig(method="vandermonde"))
            assert frob.is_isolated and vand.is_isolated
            assert abs(frob.lam - vand.lam) <= 1e-8


# The four smallest eigenvalues of the cluster fixture (conftest test3),
# from a 60-digit mpmath evaluation of det(W V(lam)): W from build_w,
# the Vandermonde basis of the inside roots from mp.polyroots, and the
# zeros of the determinant located by mp.findroot.
CLUSTER_SMALL_PAIRS = (
    -0.008528945510870696 + 0.049549224604607j,
    -0.008528945510870696 - 0.049549224604607j,
    0.15852833217131373 + 0.30041519358828805j,
    0.15852833217131373 - 0.30041519358828805j,
)


@pytest.mark.parametrize("method", ["frobenius", "vandermonde"])
def test_cluster_small_eigenvalues_to_reference_digits(test3, method):
    # the criterion-4 configuration
    cfg = q.SolverConfig(method=method, gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4)
    found = [r.lam for r in q.eig_all(test3, cfg).records]
    for ref in CLUSTER_SMALL_PAIRS:
        err = min((abs(z - ref) for z in found), default=math.inf) / abs(ref)
        assert err <= 1e-10, (ref, err)


@pytest.mark.parametrize("method", ["frobenius", "vandermonde"])
def test_cluster_start_through_the_triple_root(test3, method):
    # a start whose run needs the roots near -0.1 polished past their
    # backward-error test: freezing them at the test ends it at the budget
    cfg = q.SolverConfig(method=method, gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4)
    starts = eig_dense(q.finite_section(test3, section_size(test3, cfg.gamma)))
    start = min(starts, key=lambda z: abs(z - (5.4517 + 4.7893j)))
    assert abs(start - (5.4517 + 4.7893j)) < 1e-4
    rec = q.eig_single(test3, start, cfg)
    assert (rec.status, rec.iterations) == (q.SolveStatus.ISOLATED_PQ, 8)


class TestConvergenceRate:
    def _steps(self, a, lam0, rows=None):
        ctx = build_w(a)
        lam = complex(lam0)
        steps = []
        for _ in range(12):
            bas = basis_vandermonde(a.symbol, lam, ctx.width)
            rows_p = bas.p if rows is None else rows
            st = newton_correction(*phi(ctx, bas, rows_p))
            steps.append(abs(st))
            lam -= st
            if abs(st) < 1e-14:
                break
        return steps

    def test_quadratic_near_simple_zero(self, fix_a, test2_case1):
        targets = [(fix_a, 0.0)] + [
            (test2_case1, t)
            for t in (-1.9220915083, -1.6390810003, -1.3113878537,
                      -0.9645356767, -0.5814695044)
        ]
        for a, star in targets:
            steps = self._steps(a, star + 1e-3)
            # only steps above the rounding floor witness the quadratic rate
            usable = [
                steps[i + 1] / steps[i] ** 2
                for i in range(len(steps) - 1)
                if steps[i] > 1e-8
            ]
            assert usable, f"no usable steps for {star}"
            assert max(usable) < 1e4


class TestFiniteSectionApproach:
    def test_fix_a_monotone(self, fix_a):
        dists = []
        for n in (8, 16, 32, 64):
            vals = np.asarray(eig_dense(q.finite_section(fix_a, n)))
            dists.append(np.abs(vals).min())
        for d0, d1 in zip(dists, dists[1:]):
            assert d1 <= d0 + 5e-14
        assert dists[-1] <= 1e-12


class TestWindingMap:
    def test_fix_a_box_is_flat(self, fix_a):
        grid = q.winding_map(fix_a, (-1, 10), (-1, 1), (12, 6))
        assert set(grid.ravel().tolist()) == {0}

    def test_non_finite_coefficient_raises(self):
        # a_0 - lam overflows on the box's near cells; s0 + box overflows eps
        a = q.qt_new([1.7e308, 1], [1.7e308, 1])
        with pytest.raises(ConvergenceError, match="non-finite coefficient"):
            q.winding_map(a, (-1.7e308, -1.6e308), (-1, 1), 4)

    def test_unit_roots_beside_inside_root_are_on_curve(self):
        # z a(z) = (z - 0.5)(z - 1)(z + 1): the centre cell is the
        # on-curve shift 0
        sym = q.LaurentSymbol(neg=(-1, 0.5), pos=(-1, -0.5, 1))
        a = q.QTMatrix(symbol=sym, correction=q.Correction.zero())
        grid = q.winding_map(a, (-0.5, 0.5), (-0.5, 0.5), 3)
        assert grid[1, 1] == CURVE_SENTINEL

    def test_far_outside_is_zero(self, fix_a, test1_case2):
        for a in (fix_a, test1_case2):
            z = 2 * q.norm_inf(a) + 0.1j
            assert q.winding(a.symbol, z) == 0

    @staticmethod
    def _far_symbol():
        """The symbol whose roots at shift 0 are 1e6, 0.5 and +-1."""
        c = np.convolve(np.convolve([-1e6, 1], [-0.5, 1]), [-1, 0, 1])
        return q.LaurentSymbol(neg=(c[2], c[1], c[0]), pos=(c[2], c[3], c[4]))

    @staticmethod
    def _per_cell(sym, re_range, im_range, n):
        """``winding`` at every cell centre, CURVE_SENTINEL on the curve."""
        res, ims = _grid_axes(re_range, im_range, n)
        out = np.empty((ims.size, res.size), dtype=np.int64)
        for k, y in enumerate(ims):
            for j, x in enumerate(res):
                try:
                    out[k, j] = q.winding(sym, complex(x, y))
                except OnCurveError:
                    out[k, j] = CURVE_SENTINEL
        return out

    def test_matches_scalar_winding(self, fix_a, fig2_symbol):
        # the batched root squaring of winding_map against winding, one
        # cell at a time
        def trims(b):
            # the leading coefficient underflows before the count settles
            for bk, margin in squarings(b):
                if bk.degree < b.degree:
                    return True
                if np.abs(np.asarray(bk.coeffs)).sum() < 2.0 - margin:
                    return False
            return False

        # near shift 0 the leading coefficient of the far symbol
        # underflows while the roots near the circle keep the count open
        far = self._far_symbol()
        rng = np.random.default_rng(23)
        cases = [
            (fig2_symbol, (-10, 10), (-10, 10), 100),
            # an odd count puts a row of cell centers on fix_a's curve [1, 9]
            (fix_a.symbol, (0, 10), (-1, 1), 11),
            (far, (-2e3, 2e3), (-2e3, 2e3), 9),
        ] + [(random_symbol(rng), (-4, 4), (-4, 4), 15) for _ in range(6)]
        sentinels = fallbacks = trimmed = 0
        for sym, re_range, im_range, n in cases:
            a = q.QTMatrix(symbol=sym, correction=q.Correction.zero())
            want = self._per_cell(sym, re_range, im_range, n)
            assert np.array_equal(q.winding_map(a, re_range, im_range, n), want)
            sentinels += int(np.sum(want == CURVE_SENTINEL))
            res, ims = _grid_axes(re_range, im_range, n)
            for lam in (complex(x, y) for y in ims for x in res):
                b = q.char_poly(sym, lam)
                fallbacks += q.count_inside(b).fallback_used
                trimmed += trims(b)
        assert sentinels > 0 and fallbacks > 0 and trimmed > 0

    def test_unsettled_cell_squared_once(self, fix_a, monkeypatch):
        # all 80 cells of this one-block box that sit within 3e-9 of
        # fix_a's curve [1, 9] are left to the explicit roots, which put
        # 12 on the curve.  None may be squared again on its own: the
        # block takes one pass per step, and the settle margin of a
        # quadratic, 2 * 2**nu * sqrt(eps), reaches 1 after 24 steps.
        passes = unsettled = 0

        def square_spy(c):
            nonlocal passes
            passes += 1
            return _graeffe_rows(c)

        def count_spy(c):
            nonlocal unsettled
            count, fallback, on_curve = _count_rows(c)
            unsettled += int(np.sum(fallback))
            return count, fallback, on_curve

        monkeypatch.setattr("qteig.poly._graeffe_rows", square_spy)
        monkeypatch.setattr("qteig.solver._count_rows", count_spy)
        grid = q.winding_map(fix_a, (0.5, 9.5), (-3e-9, 3e-9), 10)
        assert passes <= 24
        assert unsettled == 80
        assert int(np.sum(grid == CURVE_SENTINEL)) == 12

    def test_only_near_cells_are_squared(self, fig2_symbol, monkeypatch):
        # the cells farther than eps from the sampled curve take the
        # polygon's crossings; a box clear of the curve squares none
        calls = []

        def count_spy(c):
            calls.append(c.shape[0])
            return _count_rows(c)

        monkeypatch.setattr("qteig.solver._count_rows", count_spy)
        a = q.QTMatrix(symbol=fig2_symbol, correction=q.Correction.zero())
        grid = q.winding_map(a, (-10, 10), (-10, 10), 200)
        assert set(np.unique(grid).tolist()) - {CURVE_SENTINEL} == {0, 1, 2}
        assert 0 < sum(calls) < 0.02 * grid.size
        calls.clear()
        # |a(z)| <= sum |a_k| = 14 on the circle
        assert set(q.winding_map(a, (20, 30), (-5, 5), 50).ravel().tolist()) == {0}
        assert calls == []

    def test_row_through_real_samples(self, fig2_symbol):
        # at 101 cells the centre row is Im = 0, which holds the sample
        # a(1) = -6 exactly: a vertex on a row, where the crossing rule
        # counts an edge for min(y0, y1) <= y < max(y0, y1) only
        a = q.QTMatrix(symbol=fig2_symbol, correction=q.Correction.zero())
        assert _grid_axes((-10, 10), (-10, 10), 101)[1][50] == 0
        assert q.symbol_curve(a, 8)[0] == -6
        box = ((-10, 10), (-10, 10))
        assert np.array_equal(q.winding_map(a, *box, 101), self._per_cell(fig2_symbol, *box, 101))

    def test_sample_cap(self, monkeypatch):
        # the far symbol's sum k**2 |a_k| = 4e6 asks for about 1e5
        # samples at these cells, so the curve takes _MAP_SAMPLES and the
        # band around it widens
        far = self._far_symbol()
        a = q.QTMatrix(symbol=far, correction=q.Correction.zero())
        samples = []

        def curve_spy(a, nsamples):
            samples.append(nsamples)
            return q.symbol_curve(a, nsamples)

        monkeypatch.setattr("qteig.solver.symbol_curve", curve_spy)
        box = ((-2, 2), (-2, 2))
        grid = q.winding_map(a, *box, 31)
        assert samples == [_MAP_SAMPLES]
        assert np.array_equal(grid, self._per_cell(far, *box, 31))
        assert len(set(grid.ravel().tolist())) >= 2

    def test_infinite_band_makes_every_cell_near(self):
        # sum k**2 |a_k| = 9e308 overflows, so eps is infinite and every
        # cell goes to root squaring: the grid is winding's, cell by cell
        sym = q.LaurentSymbol(neg=(0, 1), pos=(0, 0, 0, 1e308))
        a = q.QTMatrix(symbol=sym, correction=q.Correction.zero())
        box = ((-2, 2), (-2, 2))
        res, ims = _grid_axes(*box, 5)
        f, eps = _curve_polygon(a, res, ims)
        assert eps == math.inf and _near_cells(f, res, ims, eps).all()
        assert np.array_equal(q.winding_map(a, *box, 5), self._per_cell(sym, *box, 5))

    def test_near_cells_hold_every_cell_within_eps(self, fig2_symbol, test2_case1, test3,
                                                  fix_a):
        # brute force: the distance of every cell centre from every edge
        # of the polygon; each cell within eps must be in the mask
        def distance(f, res, ims):
            d = np.roll(f, -1) - f
            dd = np.where(d == 0, 1.0, np.abs(d) ** 2)
            out = np.empty((ims.size, res.size))
            for k, y in enumerate(ims):
                z = (res + 1j * y)[:, None] - f
                t = np.clip((z * d.conj()).real / dd, 0.0, 1.0)
                out[k] = np.abs(z - t * d).min(axis=1)
            return out

        far = self._far_symbol()
        rng = np.random.default_rng(27)
        cases = [
            (fig2_symbol, (-10, 10), (-10, 10), 64),
            (test2_case1.symbol, (-4, 4), (-4, 4), 64),
            (test3.symbol, (-12, 12), (-12, 12), 64),
            (far, (-2, 2), (-2, 2), 31),
            (fix_a.symbol, (0.5, 9.5), (-3e-9, 3e-9), 10),
        ]
        for zoom in np.logspace(-6, 0, 6):
            sym = random_symbol(rng)
            z = q.symbol_curve(q.QTMatrix(symbol=sym, correction=q.Correction.zero()), 5)[2]
            cases.append((sym, (z.real - zoom, z.real + zoom), (z.imag - zoom, z.imag + zoom),
                          int(rng.integers(16, 48))))
        within = 0
        for sym, re_range, im_range, n in cases:
            a = q.QTMatrix(symbol=sym, correction=q.Correction.zero())
            # every box moved by a random sub-cell offset
            dx, dy = rng.uniform(-0.5, 0.5, 2) * (np.diff(re_range)[0], np.diff(im_range)[0]) / n
            res, ims = _grid_axes(np.add(re_range, dx), np.add(im_range, dy), n)
            f, eps = _curve_polygon(a, res, ims)
            close = distance(f, res, ims) <= eps
            assert not np.any(close & ~_near_cells(f, res, ims, eps)), (re_range, im_range, n)
            within += int(np.sum(close))
        assert within > 100

    def test_resolution_guard(self, fix_a):
        with pytest.raises(InvalidInputError):
            q.winding_map(fix_a, (-1, 1), (-1, 1), 1)

    def test_malformed_arguments(self, fix_a):
        box = ((-1, 1), (-1, 1))
        for raster in (q.winding_map, q.basins):
            for resolution in ((3, 3, 3), (3,), [], None, "ab"):
                with pytest.raises(InvalidInputError, match="resolution"):
                    raster(fix_a, *box, resolution)
            for bad in ((1, 2, 3), (1,), "ab", None, (1j, 2)):
                with pytest.raises(InvalidInputError, match="re_range"):
                    raster(fix_a, bad, (-1, 1), 3)
                with pytest.raises(InvalidInputError, match="im_range"):
                    raster(fix_a, (-1, 1), bad, 3)
            for re_range, im_range in (((1, -1), (-1, 1)), ((-1, 1), (1, 1))):
                with pytest.raises(InvalidInputError, match="ranges must be increasing"):
                    raster(fix_a, re_range, im_range, 3)

    def test_non_finite_range(self, fix_a):
        for re_range, im_range in (
            ((math.nan, 1), (-1, 1)),
            ((-1, math.inf), (-1, 1)),
            ((-1, 1), (-math.inf, 1)),
        ):
            with pytest.raises(InvalidInputError):
                q.winding_map(fix_a, re_range, im_range, 3)
            with pytest.raises(InvalidInputError):
                q.basins(fix_a, re_range, im_range, 3)

    def test_cell_width_overflow(self, fix_a):
        # finite ranges whose cell width (2e308 / 3) or centres (the
        # third, -5e307 + 2.5 * 1.5e308 / 3) overflow
        for re_range, what in (((-1e308, 1e308), "widths"), ((-5e307, 1e308), "centres")):
            with pytest.raises(InvalidInputError, match=f"cell {what} must be finite"):
                q.winding_map(fix_a, re_range, (-1, 1), 3)
            with pytest.raises(InvalidInputError, match=f"cell {what} must be finite"):
                q.basins(fix_a, re_range, (-1, 1), 3)


class TestBasins:
    def test_fix_a_has_a_basin(self, fix_a):
        labels, limits = q.basins(fix_a, (-0.5, 0.5), (-0.5, 0.5), 50)
        assert len(limits) >= 1
        assert abs(limits[0]) <= 1e-8
        assert int(np.sum(labels == 0)) > 0

    def test_fix_a_box_converges_everywhere(self, fix_a):
        # steps that keep shrinking below the rounding floor at the
        # eigenvalue 0 must end the run, not exhaust the budget
        for x in np.linspace(-0.49, 0.49, 15):
            for y in np.linspace(-0.49, 0.49, 15):
                rec = q.eig_single(fix_a, complex(x, y))
                assert rec.status is q.SolveStatus.ISOLATED_PQ, (x, y, rec.status)
                assert abs(rec.lam) <= 1e-12
                assert rec.iterations <= 12
        labels, limits = q.basins(fix_a, (-0.5, 0.5), (-0.5, 0.5), 12)
        assert len(limits) == 1
        assert (labels == 0).all()

    def test_fix_a_takes_the_closed_forms(self, fix_a, test2_case1, monkeypatch):
        # the rank-one basins are degree-2 splits and 2 x 2 and 1 x 1
        # solves at p == 1: none reaches LAPACK; the seven-band fixture's
        # degree-9 companions still do
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append((name, args[0].shape))
                return real(*args, **kwargs)
            return wrapped

        for name in ("eigvals", "solve", "svd"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        labels, limits = q.basins(fix_a, (-0.5, 0.5), (-0.5, 0.5), 10)
        assert calls == [] and len(limits) == 1 and (labels == 0).all()
        q.eig_all(test2_case1)
        assert any(n == "eigvals" and shape[1:] == (9, 9) for n, shape in calls)

    def test_shift_of_overflowing_modulus(self, fix_a):
        # |c1| = |5 - lam| overflows though c1 is finite: the degree-2
        # split takes its scale from the larger part, and the run diverges
        rec = q.eig_single(fix_a, complex(-1.7e308, 1.7e308))
        assert rec.status is q.SolveStatus.DIVERGED
        labels, limits = q.basins(fix_a, (1e308, 1.7e308), (1e308, 1.7e308), 2)
        assert limits == [] and (labels == BASIN_NONCONV).all()

    def test_continuous_component_is_labeled(self):
        a = q.qt_new([0, 1], [0, 2])
        labels, limits = q.basins(a, (-0.5, 0.5), (-0.5, 0.5), 8)
        assert limits == []
        assert set(labels.ravel().tolist()) <= {BASIN_CONTINUOUS, BASIN_NONCONV}
        assert int(np.sum(labels == BASIN_CONTINUOUS)) > 0


def _conjugate(rec):
    """The mirror image of an isolated record: conjugate shift and
    eigenvector prefix, the rest unchanged."""
    return dataclasses.replace(
        rec, lam=rec.lam.conjugate(), vec_prefix=tuple(np.conj(rec.vec_prefix).tolist())
    )


class TestRealOperators:
    """On a real operator eig_all runs one start per conjugate pair and
    mirrors its records; real shifts step along the real axis."""

    # fix_b's band with one correction entry: a 15 x 15 section with
    # non-real eigenvalues
    BAND = ([0, -1, 1, -1], [0, -1, -1])

    @staticmethod
    def _run_starts(a, cfg, monkeypatch):
        seen = []
        runs = q.solver._runs

        def spy(a, starts, cfg):
            starts = list(starts)
            seen.extend(starts)
            return runs(a, starts, cfg)

        monkeypatch.setattr(q.solver, "_runs", spy)
        q.eig_all(a, cfg)
        return seen

    @pytest.mark.parametrize("kind", ["real", "complex_band", "complex_correction"])
    def test_starts_run(self, kind, monkeypatch):
        neg, pos = self.BAND
        value = 0.5
        if kind == "complex_band":
            pos = [0, -1, -1 + 1e-3j]
        elif kind == "complex_correction":
            value = 0.5 + 1e-3j
        a = q.qt_new(neg, pos, [(1, 3, value)])
        cfg = q.SolverConfig()
        starts = eig_dense(q.finite_section(a, section_size(a, cfg.gamma)))
        assert any(z.imag < 0 for z in starts)
        seen = self._run_starts(a, cfg, monkeypatch)
        assert seen == (starts if kind != "real" else [z for z in starts if z.imag >= 0])

    @pytest.mark.parametrize("method", ["frobenius", "vandermonde"])
    @pytest.mark.parametrize("name", ["test2_case1", "test3"])
    def test_exact_conjugate_pairs(self, name, method, request):
        a = request.getfixturevalue(name)
        cfg = q.SolverConfig(method=method)
        if name == "test3":  # criterion 4's configuration
            cfg = dataclasses.replace(cfg, gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4)
        recs = q.eig_all(a, cfg).records
        by_lam = {rec.lam: rec for rec in recs}
        assert len(by_lam) == len(recs)
        nonreal = [rec for rec in recs if rec.lam.imag != 0]
        assert nonreal and len(nonreal) < len(recs)
        for rec in nonreal:
            assert by_lam[rec.lam.conjugate()] == _conjugate(rec)
        # the rest are exactly real: their runs stepped along the axis
        assert all(rec.lam.imag == 0 for rec in recs if rec not in nonreal)


def _picks(runs, tol, real):
    """``_representatives`` of (shift, residual) pairs, as their indices."""
    lam = np.array([z for z, _ in runs], dtype=complex)
    residual = np.array([r for _, r in runs], dtype=float)
    return _representatives(lam, residual, tol, real).tolist()


class TestDedupe:
    """``_representatives``: one accepted run per limit."""

    X = -1.9220915082832417

    def test_smallest_residual(self):
        runs = [(self.X, 3e-13), (self.X + 1e-12, 1e-14), (self.X + 2e-12, 1e-14), (0.5, 1e-12)]
        assert _picks(runs, 1e-8, True) == [1, 3]

    def test_record_and_its_mirror_keep_the_real_record(self):
        # a run from a start with Im > 0 and its mirror image land next to
        # the axis with a smaller residual than the real start's run
        near = complex(self.X, 1.7e-16)
        runs = [(near, 6.9e-14), (near.conjugate(), 6.9e-14), (self.X + 4e-16, 3.4e-13)]
        assert _picks(runs, 1e-8, True) == [2]
        # without an exactly real run the residual decides, and of equal
        # residuals the first in (real, imag) order: the mirror
        assert _picks(runs[:2], 1e-8, True) == [1]

    def test_no_mirror_keeps_the_smallest_residual(self):
        # on a complex operator an exactly real run has no precedence
        runs = [(complex(self.X, 1.7e-16), 6.9e-14), (self.X + 4e-16, 3.4e-13)]
        assert _picks(runs, 1e-8, False) == [0]

    def test_limit_is_the_first_member(self):
        # 0.5 is the limit; 0.5 + 0.9e-8, the smallest residual, joins it,
        # and 0.5 + 1.5e-8, within tol of that run but not of 0.5, starts
        # a limit of its own
        runs = [(0.5, 3e-13), (0.5 + 0.9e-8, 1e-14), (0.5 + 1.5e-8, 2e-13)]
        assert _picks(runs, 1e-8, True) == [1, 2]

    def test_equal_runs_keep_the_first_in_section_order(self):
        runs = [(0.5 + 1e-12, 1e-14), (0.5 + 0j, 3e-13), (0.5 + 1e-12, 1e-14), (0.5 + 0j, 3e-13)]
        assert _picks(runs, 1e-8, True) == [0]


def test_mirror_conjugates_the_prefix_bit_for_bit(test2_case1):
    # each non-real representative's conjugate is the mirror of its run
    recs = q.eig_all(test2_case1).records
    by_lam = {rec.lam: rec for rec in recs}
    nonreal = [rec for rec in recs if rec.lam.imag]
    assert nonreal
    for rec in nonreal:
        mirror = by_lam[rec.lam.conjugate()]
        want = np.conj(rec.vec_prefix)
        assert all(type(v) is np.complex128 for v in mirror.vec_prefix)
        assert np.array(mirror.vec_prefix).tobytes() == want.tobytes()
        assert dataclasses.replace(mirror, lam=rec.lam, vec_prefix=rec.vec_prefix) == rec


def _check_table(out, rows, vec_len):
    """Every field of ``out`` holds ``rows`` rows; a row's prefix is zero,
    and its record has none, exactly where its run is not accepted."""
    for field in dataclasses.fields(Outcomes):
        assert len(getattr(out, field.name)) == rows, field.name
    assert out.prefix.shape == (rows, vec_len)
    accepted = q.solver._isolated(out.code)
    assert accepted.any() and not accepted.all()
    assert not out.prefix[~accepted].any() and out.prefix[accepted].any(axis=1).all()
    assert [len(out.record(k).vec_prefix) for k in range(rows)] == np.where(
        accepted, vec_len, 0).tolist()


def test_every_field_holds_one_row_per_start(test2_case1, monkeypatch):
    # the table _runs returns for the section starts with Im >= 0, then
    # the one eig_all reads records from, which adds the conjugates of
    # the accepted rows with Im > 0
    cfg = q.SolverConfig(vec_len=30)
    tables = []
    runs, record = q.solver._runs, Outcomes.record
    monkeypatch.setattr(q.solver, "_runs", lambda *args: tables.append(runs(*args)) or tables[-1])
    monkeypatch.setattr(Outcomes, "record", lambda self, k: tables.append(self) or record(self, k))
    q.eig_all(test2_case1, cfg)
    monkeypatch.undo()
    ran, mirrored = tables[0], tables[-1]
    starts = np.array(eig_dense(q.finite_section(test2_case1, section_size(test2_case1, cfg.gamma))))
    upper = starts[starts.imag >= 0]
    up = np.count_nonzero(q.solver._isolated(ran.code) & (upper.imag > 0))
    assert up
    _check_table(ran, upper.size, cfg.vec_len)
    _check_table(mirrored, upper.size + up, cfg.vec_len)


def test_eig_all_builds_only_the_records_it_returns(test2_case1, monkeypatch):
    built = []
    record = Outcomes.record
    monkeypatch.setattr(Outcomes, "record", lambda self, k: built.append(k) or record(self, k))
    report = q.eig_all(test2_case1)
    assert len(built) == len(report.records) == 7


class TestOneDriver:
    """eig_single, eig_all and basins give what one Newton run per start,
    on one W and one row-sum norm, gives."""

    @staticmethod
    def _records(a, starts, cfg):
        ctx, a_norm = build_w(a), q.norm_inf(a)
        return [_run_newton(a, ctx, a_norm, complex(s), cfg) for s in starts]

    def test_eig_single_is_one_run(self, fix_a, fix_a_pltq):
        cfg = q.SolverConfig()
        for a in (fix_a, fix_a_pltq):
            for start in (0.05, 0.07, -0.4 + 0.2j, 20.0, 5.0):
                assert q.eig_single(a, start, cfg) == self._records(a, [start], cfg)[0]

    @pytest.mark.parametrize("name", ["fix_a", "test2_case1", "continuous"])
    def test_eig_all_dedupes_the_section_runs(self, name, request):
        # the three operators are real: a start with Im < 0 does not run,
        # and its record is the mirror image of its conjugate's
        if name == "continuous":
            a = q.qt_new([0, 1], [0, 2])  # criterion 6's operator
        else:
            a = request.getfixturevalue(name)
        cfg = q.SolverConfig()
        size = section_size(a, cfg.gamma)
        starts = eig_dense(q.finite_section(a, size))
        upper = [z for z in starts if z.imag >= 0]
        ran = dict(zip(upper, self._records(a, upper, cfg)))
        recs = [ran[z] if z.imag >= 0 else _conjugate(ran[z.conjugate()]) for z in starts]
        report = q.eig_all(a, cfg)
        isolated = [r for r in recs if r.is_isolated]
        picks = _picks([(r.lam, r.residual) for r in isolated], cfg.dedupe_tol, True)
        assert report.records == tuple(isolated[k] for k in picks)
        continuous = any(r.status is q.SolveStatus.CONTINUOUS_SET for r in recs)
        assert report.continuous_detected == continuous
        assert continuous == (name == "continuous")

    @pytest.mark.parametrize("name", ["fix_a", "fix_a_pltq", "continuous"])
    def test_basins_label_each_cell_run(self, name, request):
        if name == "continuous":
            a, box = q.qt_new([0, 1], [0, 2]), ((-4, 4), (-2, 2))
        elif name == "fix_a_pltq":  # p < q: cells reach the rank certificate
            a, box = request.getfixturevalue(name), ((-2, 2), (-2, 2))
        else:
            a, box = request.getfixturevalue(name), ((-0.5, 0.5), (-0.5, 0.5))
        cfg = q.SolverConfig()
        res, ims = _grid_axes(*box, 7)
        want = np.full((ims.size, res.size), BASIN_NONCONV, dtype=np.int64)
        limits = []
        statuses = set()
        for k, y in enumerate(ims):
            recs = self._records(a, [complex(x, y) for x in res], cfg)
            statuses.update(rec.status for rec in recs)
            for j, rec in enumerate(recs):
                if rec.status is q.SolveStatus.CONTINUOUS_SET:
                    want[k, j] = BASIN_CONTINUOUS
                elif rec.is_isolated:
                    for idx, z in enumerate(limits):
                        if abs(rec.lam - z) <= cfg.dedupe_tol * max(1.0, abs(rec.lam)):
                            break
                    else:
                        idx = len(limits)
                        limits.append(rec.lam)
                    want[k, j] = idx
        labels, got = q.basins(a, *box, 7, cfg)
        assert np.array_equal(labels, want)
        assert got == limits
        # basins keeps no eigenvectors: the prefix length changes nothing
        for vec_len in (1, 500):
            other = q.basins(a, *box, 7, dataclasses.replace(cfg, vec_len=vec_len))
            assert np.array_equal(other[0], labels) and other[1] == limits
        if name == "continuous":
            assert (labels == BASIN_CONTINUOUS).any() and (labels == BASIN_NONCONV).any()
        elif name == "fix_a_pltq":
            assert q.SolveStatus.ISOLATED_PLTQ in statuses
            assert limits and (labels >= 0).any() and (labels == BASIN_NONCONV).any()
        else:
            assert limits and (labels >= 0).all()


class TestBatch:
    """Starts stepped in lockstep give, start by start, the record of a
    batch of one (``_run_newton``), whatever else is in their chunk."""

    @staticmethod
    def _one_by_one(a, starts, cfg):
        ctx, a_norm = build_w(a), q.norm_inf(a)
        return [_run_newton(a, ctx, a_norm, complex(s), cfg) for s in starts]

    def test_singular_row_next_to_ordinary_rows(self, fix_a, monkeypatch):
        # at 0.0 the 1 x 1 Phi is exactly 0: the chunk's first Newton
        # solve marks that row, and that row alone, singular
        ctx = build_w(fix_a)
        basis = basis_frobenius(wiener_hopf(fix_a.symbol, 0.0), ctx.width)
        assert np.array_equal(phi(ctx, basis, 1)[0], [[0.0]])
        assert newton_correction(*phi(ctx, basis, 1)) == 0
        starts = [0.05, -0.3 + 0.2j, 0.0, 0.4, 0.1j]
        masks = []
        real = q.nep._solve_rows

        def spy(a, b):
            x, singular = real(a, b)
            masks.append(singular.tolist())
            return x, singular

        monkeypatch.setattr(q.nep, "_solve_rows", spy)
        cfg = q.SolverConfig()
        recs = _run_records(fix_a, starts, cfg)
        assert masks[0] == [False, False, True, False, False]
        monkeypatch.undo()
        assert recs == self._one_by_one(fix_a, starts, cfg)
        assert all(r.status is q.SolveStatus.ISOLATED_PQ for r in recs)

    def test_basins_cross_chunk_boundaries_in_order(self, test2_case1, monkeypatch):
        # several limits, numbered in first-found order, over more cells
        # than three of the chunks basins steps hold
        cfg = q.SolverConfig()
        box, res = ((-2.0, -0.2), (-0.2, 0.2)), (40, 36)
        chunks = []
        real = q.solver._chunk_rows
        monkeypatch.setattr(q.solver, "_chunk_rows",
                            lambda *args: chunks.append(real(*args)) or chunks[-1])
        labels, got = q.basins(test2_case1, *box, res, cfg)
        monkeypatch.undo()
        assert res[0] * res[1] > 3 * chunks[0]
        xs, ys = _grid_axes(*box, res)
        recs = self._one_by_one(test2_case1, [complex(x, y) for y in ys for x in xs], cfg)
        want = np.full(len(recs), BASIN_NONCONV, dtype=np.int64)
        limits = []
        for cell, rec in enumerate(recs):
            if rec.status is q.SolveStatus.CONTINUOUS_SET:
                want[cell] = BASIN_CONTINUOUS
            elif rec.is_isolated:
                idx = next((k for k, z in enumerate(limits)
                            if abs(rec.lam - z) <= cfg.dedupe_tol * max(1.0, abs(rec.lam))), None)
                if idx is None:
                    idx = len(limits)
                    limits.append(rec.lam)
                want[cell] = idx
        assert len(limits) >= 3
        assert np.array_equal(labels.ravel(), want)
        assert got == limits

    @pytest.mark.parametrize("name", ["fix_a", "test2_case1", "test3"])
    def test_records_do_not_depend_on_the_chunk(self, name, request, monkeypatch):
        # the derived cut (2 x 648 rows for a grid of 1296 cells on fix_a
        # at the default prefix, size 813; 2 x 250 for the seven-band
        # section's 500 starts at gamma 5, size 288; 3 x 100 for the
        # clustered roots' 300, size 120, whose degree-12 rows are
        # polished from warm roots) against chunks of 1 and 32 rows
        a = request.getfixturevalue(name)
        cfg = q.SolverConfig()
        if name == "test3":  # criterion 4's configuration
            cfg = q.SolverConfig(gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4)
        if name == "test2_case1":
            cfg = q.SolverConfig(gamma=5.0)
        if name == "fix_a":
            axis = np.linspace(-0.49, 0.49, 36)
            starts = [complex(x, y) for y in axis for x in axis]
        else:
            starts = eig_dense(q.finite_section(a, section_size(a, cfg.gamma)))
        derived = _chunk_rows(*_row_sizes(a, build_w(a), cfg.vec_len))
        assert len(_chunk_bounds(len(starts), derived)) >= 2
        want = _run_records(a, starts, cfg)
        for rows in (1, 32):
            monkeypatch.setattr(q.solver, "_chunk_rows", lambda *sizes: rows)
            assert _run_records(a, starts, cfg) == want

    @pytest.mark.parametrize("name", ["test2_case1", "test3", "fix_a_pltq"])
    def test_outcomes_do_not_depend_on_vec_len(self, name, request, monkeypatch):
        # classification reads the prefix only to store it: the same
        # statuses, shifts, residuals and iteration counts at any length,
        # and prefixes that agree on their common length
        a = request.getfixturevalue(name)
        cfg = q.SolverConfig()
        if name == "test3":  # criterion 4's configuration
            cfg = q.SolverConfig(gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4)
        if name == "fix_a_pltq":
            xs, ys = _grid_axes((-2, 2), (-2, 2), 7)
            starts = [complex(x, y) for y in ys for x in xs]
        else:
            starts = eig_dense(q.finite_section(a, section_size(a, cfg.gamma)))
        lengths = (1, 100, 300)
        runs = {n: _run_records(a, starts, dataclasses.replace(cfg, vec_len=n)) for n in lengths}
        want = runs[100]
        for n, recs in runs.items():
            for rec, ref in zip(recs, want, strict=True):
                assert rec.status is ref.status and rec.iterations == ref.iterations
                assert repr(rec.lam) == repr(ref.lam)
                assert repr(rec.residual) == repr(ref.residual)
                k = min(n, 100)
                assert len(rec.vec_prefix) == (n if rec.is_isolated else 0)
                assert (np.array(rec.vec_prefix[:k]).tobytes()
                        == np.array(ref.vec_prefix[:k]).tobytes())
        if name == "fix_a_pltq":  # the certificate accepts through the Newton runs
            assert any(r.status is q.SolveStatus.ISOLATED_PLTQ for r in want)
            return
        # the second-compression exit ends these p < q runs before the
        # certificate sees them: the certificate rejects the limits they
        # reach without the exit, with the same residual at every length
        monkeypatch.setattr(q.solver, "SPURIOUS_RATIO", math.inf)
        lam = np.array([r.lam for r in _run_records(a, starts, cfg)
                        if r.status is q.SolveStatus.NO_CONVERGENCE_PLTQ
                        and math.isfinite(r.residual)])
        assert lam.size
        ctx = build_w(a)
        code, stacks, _ = q.solver._bases_at(a, ctx, lam, np.full(lam.size, -1),
                                             q.norm_inf(a), cfg.method)
        assert (code == Outcomes.LIVE).all()
        classified = {n: [rec for rows, basis in stacks
                          for rec in _classified(a, ctx, lam[rows], basis,
                                                 np.zeros(rows.size, dtype=np.int64),
                                                 dataclasses.replace(cfg, vec_len=n))]
                      for n in lengths}
        for n, recs in classified.items():
            for rec, ref in zip(recs, classified[100], strict=True):
                assert rec.status is q.SolveStatus.NO_CONVERGENCE_PLTQ
                assert math.isfinite(rec.residual)
                assert repr(rec.residual) == repr(ref.residual) and rec.vec_prefix == ()

    def test_basin_labels_follow_the_sequential_rule(self, test1_case2, monkeypatch):
        # the labels and limits of a walk over the cells in order, each
        # run alone and matched by _limit_index against the limits found
        # before it.  At this dedupe_tol the rule's scale max(1, |lam|)
        # is the matched shift's: 1.152-2.907i joins 0.894-2.856i, found
        # before it, which would not join it the other way round, so the
        # labels depend on the order.  Chunks of size 50 split the grid
        cfg = q.SolverConfig(dedupe_tol=0.0856)
        box, res = ((0.0, 3.0), (-3.2, -1.2)), 24
        monkeypatch.setattr(q.solver, "_chunk_rows", lambda *sizes: 50)
        labels, got = q.basins(test1_case2, *box, res, cfg)
        monkeypatch.undo()
        xs, ys = _grid_axes(*box, res)
        recs = self._one_by_one(test1_case2, [complex(x, y) for y in ys for x in xs], cfg)
        want = np.full(len(recs), BASIN_NONCONV, dtype=np.int64)
        limits = []
        one_way = 0
        for cell, rec in enumerate(recs):
            if rec.status is q.SolveStatus.CONTINUOUS_SET:
                want[cell] = BASIN_CONTINUOUS
            elif rec.is_isolated:
                (want[cell],) = _limit_index(np.array([rec.lam]), limits, cfg.dedupe_tol)
                z = limits[want[cell]]
                one_way += abs(rec.lam - z) > cfg.dedupe_tol * max(1.0, abs(z))
        assert len(recs) > 10 * 50 and len(limits) >= 10 and one_way
        assert np.array_equal(labels.ravel(), want)
        assert got == limits
        assert all(type(z) is complex for z in got)

    def test_limit_index_matches_first_in_order(self):
        # at tol 0.3, 1.5 is a limit of its own next to 1.0; 1.3 is
        # within tol of both and takes the first, not the nearer; 2.0 is
        # within 0.3 * 2.0 of 1.5, but 1.5 is not within 0.3 * 1.5 of
        # 2.0, so which of the two is a limit depends on their order
        limits = [1.0 + 0j]
        got = _limit_index(np.array([1.5, 1.3, 2.0, 1.5 + 1e-9, 5.0]), limits, 0.3)
        assert got.tolist() == [1, 0, 1, 1, 2] and limits == [1.0, 1.5, 5.0]
        assert _limit_index(np.array([1.3]), [1.0 + 0j, 1.5 + 0j], 0.3).tolist() == [0]
        assert _limit_index(np.array([1.5, 2.0]), [], 0.3).tolist() == [0, 0]
        assert _limit_index(np.array([2.0, 1.5]), [], 0.3).tolist() == [0, 1]

    def test_chunk_rows_follow_the_row_cost(self, test2_case1, test3, fix_a):
        # the row sizes of the seven-band, clustered-root and rank-one
        # fixtures at the default prefix length, and the rank-one and
        # seven-band basins' one-entry prefix; a longer prefix and a higher
        # degree cost rows, and a wide W keeps the floor of 32
        sizes = [_row_sizes(a, build_w(a), n) for a, n in (
            (test2_case1, 100), (test3, 100), (fix_a, 100), (fix_a, 1), (test2_case1, 1))]
        assert sizes[:4] == [(9, 8, 8, 100), (12, 12, 22, 100), (2, 1, 2, 100), (2, 1, 2, 1)]
        assert [_chunk_rows(*s) for s in sizes] == [288, 120, 813, 3784, 399]
        assert _chunk_rows(9, 8, 34, 1000) < _chunk_rows(9, 8, 34, 100)
        assert _chunk_rows(12, 8, 8, 1) < _chunk_rows(9, 8, 8, 1)
        assert _chunk_rows(9, 8, 5000, 1) == 32

    @pytest.mark.parametrize("n, size, want", [
        (165, 120, [165]), (179, 120, [179]), (180, 120, [90, 90]),
        (300, 120, [100, 100, 100]), (1440, 399, [360] * 4), (2500, 3784, [2500]),
        (1, 32, [1])])
    def test_chunk_bounds_cut_the_nearest_whole_number(self, n, size, want):
        # n / size chunks rounded half up (300 / 120 = 2.5 gives 3, where
        # round() would give 2), at least 1, consecutive over range(n),
        # of equal lengths within 1 and none above 1.5 x size
        bounds = _chunk_bounds(n, size)
        lengths = [stop - first for first, stop in bounds]
        assert lengths == want
        assert [k for first, stop in bounds for k in range(first, stop)] == list(range(n))
        assert max(lengths) - min(lengths) <= 1
        assert max(lengths) <= 1.5 * size

    @pytest.fixture(scope="class")
    def peak_rows(self):
        # each guard case's factor off the measured peak and its row of
        # the table; pytest -s prints each row, then the worst again
        rows = []
        yield rows
        if rows:
            print("\nworst: {:.3f}x, {}".format(*max(rows)))

    @pytest.mark.parametrize("name, what", [
        ("fix_a", "basins 50 x 50"), ("fix_a", "grid 24 x 24"), ("test2_case1", "section"),
        ("test3", "section"), ("test1_case1", "section"), ("test2_case1", "basins 40 x 36"),
        ("test1_case2", "basins 24 x 24")])
    def test_row_bytes_follow_the_measured_peak(self, name, what, request, peak_rows):
        # the model's bytes per row within 1.35x either way of the per-row
        # peak tracemalloc measures over the passes of the first chunk
        # _runs cuts, on the configurations it was fitted to; so no chunk
        # of them, at most 1.5 x the size that fits 4 MB by the model,
        # peaks above 1.35 x 1.5 x 4 MB
        a = request.getfixturevalue(name)
        cfg = q.SolverConfig()
        if name == "test3":  # criterion 4's configuration
            cfg = q.SolverConfig(gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4)
        if what == "section":
            starts = np.array(eig_dense(q.finite_section(a, section_size(a, cfg.gamma))))
            starts = starts[starts.imag >= 0]  # as eig_all runs a real operator's
        elif what == "grid 24 x 24":
            axis = np.linspace(-0.49, 0.49, 24)
            starts = (axis + 1j * axis[:, None]).ravel()
        else:
            box, res = {"basins 50 x 50": (((-0.5, 0.5), (-0.5, 0.5)), 50),
                        "basins 40 x 36": (((-2.0, -0.2), (-0.2, 0.2)), (40, 36)),
                        "basins 24 x 24": (((0.0, 3.0), (-3.2, -1.2)), 24)}[what]
            xs, ys = _grid_axes(*box, res)
            starts = (xs + 1j * ys[:, None]).ravel()
            cfg = dataclasses.replace(cfg, vec_len=1)  # as basins runs
        ctx = build_w(a)
        sizes = _row_sizes(a, ctx, cfg.vec_len)
        bounds = _chunk_bounds(len(starts), _chunk_rows(*sizes))
        chunk = starts[slice(*bounds[0])]
        args = (a, ctx, q.norm_inf(a), chunk, cfg, q.solver._is_real(a))
        q.solver._run_batch(*args)  # lazy set-up outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            q.solver._run_batch(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        ratio = _row_bytes(*sizes) * len(chunk) / peak
        off = max(ratio, 1 / ratio)
        row = (f"{name} {what}: d, p, cols, vec_len {sizes}; {len(starts)} starts, size "
               f"{_chunk_rows(*sizes)}, {len(bounds)} chunk(s), first {len(chunk)} rows; "
               f"{_row_bytes(*sizes)} B/row by the model, {peak / len(chunk):.0f} measured, "
               f"ratio {ratio:.3f}, chunk {peak / 1e6:.2f} MB; slack {1.35 / off - 1:.1%}")
        print(row)
        peak_rows.append((off, row))
        assert 1 / 1.35 <= ratio <= 1.35, row

    def test_chunks_of_the_bench_runs(self, fix_a, test2_case1, test3, monkeypatch):
        # the rank-one fixture's 50 x 50 basins, the seven-band section and
        # the clustered roots' 165 starts (size 120) run as one chunk each
        chunks = []
        real = q.solver._run_batch
        monkeypatch.setattr(q.solver, "_run_batch",
                            lambda a, ctx, a_norm, starts, *rest: chunks.append(len(starts))
                            or real(a, ctx, a_norm, starts, *rest))
        q.basins(fix_a, (-0.5, 0.5), (-0.5, 0.5), 50)
        assert chunks == [2500]
        chunks.clear()
        q.eig_all(test2_case1)
        assert len(chunks) == 1
        chunks.clear()
        q.eig_all(test3, q.SolverConfig(gamma=12.5, residual_tol=1e-8, dedupe_tol=1e-4))
        assert chunks == [165]

    @pytest.mark.parametrize("method", ["frobenius", "vandermonde"])
    @pytest.mark.parametrize("name", ["fix_a", "fix_a_pltq"])
    def test_classify_rows_as_batches_of_one(self, name, method, request):
        # accepted shifts at the eigenvalue 0, one rejected by its residual
        # (0.3) and one 1e-8 away: with the looser residual_tol its p-row
        # residual passes, and for fix_a_pltq its rank certificate fails
        a = request.getfixturevalue(name)
        ctx = build_w(a)
        cfg = q.SolverConfig(method=method, residual_tol=1e-6)
        lam = np.array([0.0, 1e-14, 0.3, 1e-8, -3e-15 + 2e-15j])
        code, stacks, _ = q.solver._bases_at(a, ctx, lam, np.full(lam.size, -1),
                                             q.norm_inf(a), method)
        (rows, basis), = stacks
        assert (code == Outcomes.LIVE).all() and rows.tolist() == list(range(lam.size))
        iters = np.arange(lam.size) + 3
        recs = _classified(a, ctx, lam, basis, iters, cfg)
        isolated = q.SolveStatus.ISOLATED_PQ if ctx.q == 1 else q.SolveStatus.ISOLATED_PLTQ
        near = isolated if ctx.q == 1 else q.SolveStatus.NO_CONVERGENCE_PLTQ
        assert [r and r.status for r in recs] == [isolated, isolated, None, near, isolated]
        for k, rec in enumerate(recs):
            (one,) = _classified(a, ctx, lam[k : k + 1], basis[k][None], iters[k : k + 1], cfg)
            assert rec == one
            if rec is not None:
                assert repr(rec.residual) == repr(one.residual)
                assert np.array(rec.vec_prefix).tobytes() == np.array(one.vec_prefix).tobytes()

    def test_vandermonde_chunk_with_fallback_rows(self, monkeypatch):
        # z**2 (a(z) - 0) = (z - 0.5)**2 (z - 3): at 0.0 the two inside
        # roots coincide, and only that row takes the G-power basis
        a = q.qt_new([-4, 3.25, -0.75], [-4, 1])
        cfg = q.SolverConfig(method="vandermonde")
        starts = [0.3, 0.0, -0.2 + 0.1j, 0.1j]
        sizes = []
        real = q.solver._frobenius_rows

        def spy(g, g_prime, rows):
            sizes.append(g.shape[0])
            return real(g, g_prime, rows)

        monkeypatch.setattr("qteig.solver._frobenius_rows", spy)
        recs = _run_records(a, starts, cfg)
        assert sizes[0] == 1
        monkeypatch.undo()
        assert recs == self._one_by_one(a, starts, cfg)

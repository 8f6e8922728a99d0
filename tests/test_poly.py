import cmath

import numpy as np
import pytest

import qteig as q
from qteig.errors import (
    ConvergenceError,
    DomainError,
    InconsistentConstantError,
    InvalidSymbolError,
    OnCurveError,
)
from qteig.linalg import roots_companion
from qteig.poly import (
    ABERTH_MIN_DEGREE,
    _aberth_rows,
    _char_rows,
    _convolve_rows,
    _count_rows,
    _graeffe_rows,
    _row_norms,
    _split_rows,
)

from conftest import poly_from_roots, random_symbol, square_roots, squarings


@pytest.fixture
def sym_a(fix_a):
    return fix_a.symbol


@pytest.fixture
def sym_shift2():
    # z**-1 + 2 z
    return q.LaurentSymbol(neg=(0, 1), pos=(0, 2))


class TestSymbol:
    def test_validation(self):
        with pytest.raises(InvalidSymbolError):
            q.LaurentSymbol(neg=(1, 0), pos=(1, 2))
        with pytest.raises(InvalidSymbolError):
            q.LaurentSymbol(neg=(1,), pos=(1, 2))
        with pytest.raises(InvalidSymbolError, match="a_n must be nonzero"):
            q.LaurentSymbol(neg=(0, 1), pos=(0, 0))
        with pytest.raises(InconsistentConstantError):
            q.LaurentSymbol(neg=(1, 2), pos=(3, 2))

    def test_terms_skip_zeros_in_ascending_order(self, fix_b_symbol):
        sym = fix_b_symbol
        want = [(j, sym.coeff(j)) for j in range(-sym.m, sym.n + 1) if sym.coeff(j) != 0]
        assert len(want) < sym.m + sym.n + 1  # the fixture has a zero term
        assert list(sym.terms()) == want


class TestCharPoly:
    def test_fix_a(self, sym_a):
        b = q.char_poly(sym_a, 0.0)
        assert b.coeffs == (-2, 5, -2)
        assert b.degree == 2
        assert q.char_poly(sym_a, 5.0).coeffs == (-2, 0, -2)

    def test_band_symbol(self, fix_b_symbol):
        b = q.char_poly(fix_b_symbol, 0.0)
        assert b.degree == 5
        assert b.coeffs == (-1, 1, -1, 0, -1, -1)


class TestConvolve:
    def test_expand(self):
        p = q.convolve(q.Poly((-0.5, 1)), q.Poly((4, -2)))
        assert p.coeffs == (-2, 5, -2)

    def test_identity(self):
        p = q.Poly((3, 1j, 2))
        assert q.convolve(p, q.Poly((1,))).coeffs == p.coeffs

    def test_difference_of_squares(self):
        assert q.convolve(q.Poly((1, 1)), q.Poly((-1, 1))).coeffs == (-1, 0, 1)

    def test_zero_factor(self):
        assert q.convolve(q.Poly(()), q.Poly((1,))) == q.Poly(())

    def test_rows_equal_their_batch_of_one(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        y = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        stack = _convolve_rows(x, y)
        assert stack.shape == (3, 8)
        for i in range(3):
            one = _convolve_rows(x[i : i + 1], y[i : i + 1])[0]
            assert one.tobytes() == stack[i].tobytes()

    def test_matches_numpy(self):
        rng = np.random.default_rng(4)
        for deg_a, deg_b in ((0, 3), (4, 4), (9, 2)):
            a = rng.standard_normal(deg_a + 1) + 1j * rng.standard_normal(deg_a + 1)
            b = rng.standard_normal(deg_b + 1) + 1j * rng.standard_normal(deg_b + 1)
            got = np.asarray(q.convolve(q.Poly(tuple(a)), q.Poly(tuple(b))).coeffs)
            want = np.convolve(a, b)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_row_norms_equal_linalg_norm_bit_for_bit():
    # the classification divides by these norms, and a 1-ulp change moves
    # residuals near 1e-16 by up to 10%; prefixes of wider rows are the
    # strided views the classification passes
    rng = np.random.default_rng(11)
    scales = np.logspace(-8, 8, 9)[:, None]
    for length in range(1, 301):
        wide = rng.standard_normal((9, length + 3)) + 1j * rng.standard_normal((9, length + 3))
        wide *= scales
        for x in (wide[:, :length], wide[:, 3:].copy()):
            want = np.array([np.linalg.norm(row) for row in x])
            assert _row_norms(x).tobytes() == want.tobytes()


class TestGraeffeStep:
    def test_pure_power(self):
        g = square_roots(q.Poly((0, 0, 0, 1)))
        assert g.coeffs == (0, 0, 0, 1)

    def test_root_squaring_linear(self):
        g = square_roots(q.Poly((-2, 1)))
        roots = roots_companion(g)
        assert roots[0] == pytest.approx(4.0)

    def test_root_squaring_quadratic(self):
        # roots 1/2 and 2 square to 1/4 and 4 (quadratic formula oracle)
        g = square_roots(q.Poly((1, -2.5, 1)))
        roots = sorted(roots_companion(g), key=abs)
        assert roots[0] == pytest.approx(0.25, abs=1e-12)
        assert roots[1] == pytest.approx(4.0, abs=1e-12)

    def test_extreme_scale(self):
        # the row is scaled by a power of two before squaring: no 0/0 on
        # tiny or huge coefficients
        for scale in (1e-200, 1e200):
            g = square_roots(q.Poly((scale, 3 * scale)))
            assert g.coeffs == pytest.approx((-1 / 9, 1), rel=1e-15)

    def test_moduli_squared_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            deg = int(rng.integers(1, 9))
            b = q.Poly(tuple(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)))
            if b.degree < 1:
                continue
            before = np.sort(np.abs(roots_companion(b))) ** 2
            after = np.sort(np.abs(roots_companion(square_roots(b))))
            assert np.allclose(before, after, rtol=1e-8, atol=1e-8)


class TestCountInside:
    def test_triple_zero_root(self):
        rc = q.count_inside(q.Poly((0, 0, 0, 1)))
        assert (rc.count, rc.fallback_used) == (3, False)

    def test_split_quadratic(self):
        rc = q.count_inside(q.Poly((-2, 5, -2)))
        assert rc.count == 1
        assert not rc.fallback_used

    def test_unit_root_falls_back(self):
        rc = q.count_inside(q.Poly((-1, 1)))
        assert rc.fallback_used
        assert rc.count == 0

    def test_root_on_circle_beside_inside_root_falls_back(self):
        # roots 0.5 and 1: once the squarings merge the unit root, the
        # 1-norm dips below 2 by rounding alone; the count must come from
        # the split, which counts only the strictly inside root
        rc = q.count_inside(poly_from_roots((0.5, 1.0)))
        assert (rc.count, rc.fallback_used) == (1, True)

    def test_extreme_scale_settles(self):
        # one root at -1/3: the first squaring of the unscaled row would
        # underflow (or overflow) to 0/0 and exhaust the budget
        for scale in (1e-200, 1e200):
            rc = q.count_inside(q.Poly((scale, 3 * scale)))
            assert (rc.count, rc.fallback_used) == (1, False)

    def test_cluster_outside_circle_settles(self):
        # a triple root 1e-5 outside the circle and one at 0.3: root
        # squaring settles 1, the count of these float coefficients'
        # exact roots (mpmath at 120 and 240 digits); the companion
        # eigensolve puts one of the cluster's roots inside
        rc = q.count_inside(q.Poly(np.poly([1 + 1e-5] * 3 + [0.3])[::-1]))
        assert (rc.count, rc.fallback_used) == (1, False)

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            q.count_inside(q.Poly(()))

    def test_matches_explicit_roots(self):
        # acceptance 7d at module level: root counts against the
        # companion-matrix oracle, roots kept away from the circle
        rng = np.random.default_rng(5)
        for _ in range(200):
            deg = int(rng.integers(1, 13))
            mods = np.where(
                rng.random(deg) < 0.5,
                rng.uniform(0.05, 0.95, deg),
                rng.uniform(1.05, 3.0, deg),
            )
            roots = mods * np.exp(2j * np.pi * rng.random(deg))
            b = poly_from_roots(roots)
            expected = int(np.sum(np.abs(np.asarray(roots_companion(b))) < 1.0))
            rc = q.count_inside(b)
            assert rc.count == int(np.sum(mods < 1.0)) == expected

    def test_matches_graeffe_step_loop(self):
        # the array iteration inside count_inside against the same loop
        # written one squaring step at a time, with its settle rule and
        # fallback
        def reference(b):
            for bk, margin in squarings(b):
                mags = np.abs(np.asarray(bk.coeffs))
                if mags.sum() < 2.0 - margin:
                    return int(np.argmax(mags)), False
            inside = int(np.sum(np.abs(np.asarray(roots_companion(b))) < 1.0))
            return inside, True

        rng = np.random.default_rng(11)
        polys = []
        for _ in range(200):
            deg = int(rng.integers(1, 14))
            polys.append(q.Poly(tuple(
                rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            )))
        # roots within 1e-9 of the circle, some beside far roots whose
        # coefficients underflow while the squaring runs to the budget
        for others in ((), (0.5,), (100.0,), (1e3, -0.01, 5j)):
            for eps in (1e-9, -1e-9, 1e-10):
                polys.append(poly_from_roots((1.0 + eps, -1j * (1.0 - eps)) + others))
        fallbacks = 0
        for b in polys:
            rc = q.count_inside(b)
            assert (rc.count, rc.fallback_used) == reference(b)
            fallbacks += rc.fallback_used
        assert fallbacks > 0


class TestCountRows:
    # one stack of cubics: two rows root squaring settles, two with a
    # pair of roots 1e-9 off the circle that fall back with inside roots,
    # two with a pair of roots within 1e-11 of it, and four with roots
    # exactly on it, which a 1-norm test without a margin settles by
    # rounding
    ROOTS = (
        (0.5, 2.0, -3.0),
        (0.1, 0.2j, 5.0),
        (0.3, 1.0 + 1e-9, -1j * (1.0 - 1e-9)),
        (0.3j, 1.0 - 1e-9, 1j * (1.0 + 1e-9)),
        (2.0, 1.0 + 1e-11, -1.0),
        (0.5, cmath.exp(1j) * (1.0 - 1e-11), cmath.exp(2.5j) * (1.0 + 1e-11)),
        (0.5, 1.0, -1.0),
        (0.5, 1j, -1j),
        (0.5, 1.0, 3.0),
        (2.0, 1.0, -1.0),
    )

    def stack(self):
        return np.array([poly_from_roots(r).coeffs for r in self.ROOTS])

    def test_counts_every_row(self):
        count, fallback, on_curve = _count_rows(self.stack())
        assert (count >= 0).all()
        assert fallback.tolist() == [False, False] + [True] * 8
        assert on_curve.tolist() == [False] * 4 + [True] * 6
        assert count[:4].tolist() == [sum(abs(z) < 1 for z in r) for r in self.ROOTS[:4]]

    def test_row_equals_its_batch_of_one(self):
        c = self.stack()
        whole = _count_rows(c)
        for i in range(c.shape[0]):
            one = _count_rows(c[i : i + 1])
            assert all(np.array_equal(w[i : i + 1], o) for w, o in zip(whole, one))

    def test_both_parts_near_the_float_range(self):
        # |1.7e308 (1 + i)| overflows: the row scale comes from the larger
        # part, so the row squares scaled, without a warning, and settles
        # its count (roots of modulus about 1.55e154, both outside)
        c = np.array([[1.7e308 + 1.7e308j, 1, 1]])
        count, fallback, on_curve = _count_rows(c)
        assert count.tolist() == [0] and not fallback.any() and not on_curve.any()
        # the scale is a power of two: a row scaled by one squares alike
        assert _graeffe_rows(c).tobytes() == _graeffe_rows(np.ldexp(c.real, -900)
                                                             + 1j * np.ldexp(c.imag, -900)).tobytes()

    def test_matches_count_inside(self):
        count, fallback, _ = _count_rows(self.stack())
        for i, roots in enumerate(self.ROOTS):
            rc = q.count_inside(poly_from_roots(roots))
            assert (rc.count, rc.fallback_used) == (count[i], fallback[i])


class TestWinding:
    def test_fix_a_origin(self, sym_a):
        assert q.winding(sym_a, 0.0) == 0

    def test_shift2_origin(self, sym_shift2):
        assert q.winding(sym_shift2, 0.0) == 1

    @pytest.mark.parametrize("count", [
        q.winding,
        lambda sym, lam: q.count_inside(q.char_poly(sym, lam)),
    ], ids=["winding", "count_inside"])
    def test_non_finite_coefficient_raises(self, count):
        # a_0 - lam = 1.7e308 + 1.7e308 overflows: refused before squaring
        sym = q.LaurentSymbol(neg=(1.7e308, 1), pos=(1.7e308, 1))
        with pytest.raises(ConvergenceError, match="non-finite coefficient"):
            count(sym, -1.7e308)

    def test_on_curve_raises(self, sym_a):
        # the symbol curve of fix_a is the real segment [1, 9]
        with pytest.raises(OnCurveError):
            q.winding(sym_a, 5.0)

    def test_unit_roots_beside_inside_root_raise(self):
        # z a(z) = (z - 0.5)(z - 1)(z + 1): the shift 0 is on the curve,
        # though root squaring's 1-norm dips below 2 by rounding there
        sym = q.LaurentSymbol(neg=(-1, 0.5), pos=(-1, -0.5, 1))
        with pytest.raises(OnCurveError):
            q.winding(sym, 0.0)

    def test_locally_constant(self, fix_b_symbol):
        for z in (-1 + 0.5j, 0.3 + 1.2j, -2.5 + 0j):
            w = q.winding(fix_b_symbol, z)
            assert q.winding(fix_b_symbol, z + 1e-6) == w
            assert q.winding(fix_b_symbol, z + 1e-6j) == w

    def test_bounds(self):
        # the count of roots inside the disk lies in [0, m+n], so the
        # winding number lies in [-m, n]
        rng = np.random.default_rng(17)
        for _ in range(40):
            sym = random_symbol(rng)
            z = 3 * (rng.standard_normal() + 1j * rng.standard_normal())
            try:
                w = q.winding(sym, z)
            except OnCurveError:
                continue
            assert -sym.m <= w <= sym.n

    def test_fig2_values(self, fig2_symbol):
        seen = set()
        for x in np.linspace(-9.7, 9.7, 31):
            for y in np.linspace(-9.7, 9.7, 31):
                try:
                    seen.add(q.winding(fig2_symbol, complex(x, y)))
                except OnCurveError:
                    pass
        assert {0, 1, 2} <= seen


class TestLimitSet:
    """Why criterion 3's N = 1600 distance target is out of reach: its
    eigenvalue near -0.58 lies on the limit set of the Toeplitz section
    spectra, where the m-th and (m+1)-th smallest root moduli of
    z**m (a(z) - lam) coincide (Schmidt & Spitzer, 1960)."""

    # eig_all's eigenvalue of test2_case1 near -0.58 (m = 7)
    LAM = -0.58146950438646

    @staticmethod
    def _moduli_7_and_8(sym, lam):
        roots, _, on_curve = _split_rows(_char_rows(sym, np.array([complex(lam)])))
        assert not on_curve[0]
        mods = np.sort(np.abs(roots[0]))
        return mods[sym.m - 1], mods[sym.m]

    def test_eigenvalue_lies_on_limit_set(self, test2_case1):
        assert test2_case1.symbol.m == 7
        low, high = self._moduli_7_and_8(test2_case1.symbol, self.LAM)
        assert low == pytest.approx(0.98268015389009, abs=1e-12)
        assert high - low <= 4 * np.finfo(float).eps * high

    def test_control_shift_is_off_limit_set(self, test2_case1):
        low, high = self._moduli_7_and_8(test2_case1.symbol, -2.5)
        assert low == pytest.approx(0.98245, abs=1e-5)
        assert high == pytest.approx(1.07541, abs=1e-5)


class TestWarmSplit:
    """``_split_rows`` polishes every row of a warm pass from the
    previous pass's roots, and sends a row to the companion eigensolve
    only on its first pass, below ABERTH_MIN_DEGREE, or when the polish
    leaves it unsettled or non-finite."""

    # degree 6, complex coefficients, three roots inside the unit disk
    ROOTS = (0.3 + 0.2j, -0.5j, 0.7, 1.6 + 0.4j, -2.2 + 1j, 3j)

    @staticmethod
    def _row(roots):
        return np.array(poly_from_roots(roots).coeffs)

    @staticmethod
    def _eigensolved(monkeypatch) -> list:
        """Row counts of the eigensolves ``_split_rows`` makes."""
        calls = []
        real = q.poly._companion_roots

        def spy(c):
            calls.append(c.shape[0])
            return real(c)

        monkeypatch.setattr(q.poly, "_companion_roots", spy)
        return calls

    def _case(self, name, monkeypatch):
        """(row, warm roots) for a guard, for a row the polish answers, or
        for the control row; the warm roots are None on a first pass."""
        roots = np.array(self.ROOTS)
        warm = roots * (1 + 1e-5)
        if name == "first_pass":
            warm = None
        elif name == "low_degree":
            roots, warm = roots[[0, 1, 3]], warm[[0, 1, 3]]
        elif name == "non_finite":
            warm[4] = np.nan
        elif name == "unsettled":
            monkeypatch.setattr(q.poly, "ABERTH_MAXIT", 1)
        elif name == "real_row":  # the eigensolve pairs its roots exactly; the polish need not
            roots = np.array([0.3, -0.5, 0.7, 1.6, -2.2, 3.0], dtype=complex)
            warm = roots * (1 + 1e-5)
        elif name == "count_change":  # one warm root on the other side of the circle
            roots[2] = 0.999
            warm = roots * (1 + 1e-5)
            warm[2] = 1.001
        elif name.startswith("near_circle"):  # a root just outside the circle
            roots[2] = (1 + float(name.split("_")[-1])) * np.exp(0.3j)
            warm = roots * (1 + 1e-5)
        elif name == "far_start":  # settles from well off the roots
            warm = roots * 1.5 * np.exp(0.4j)
        return self._row(roots), warm

    def test_warm_row_skips_the_eigensolve(self, monkeypatch):
        c, warm = self._case("control", monkeypatch)
        want = _split_rows(c[None])
        calls = self._eigensolved(monkeypatch)
        roots, p, on_curve = _split_rows(c[None], warm[None])
        assert calls == []
        assert p.tolist() == want[1].tolist() == [3] and not on_curve[0]
        assert np.abs(roots - want[0]).max() <= 1e-14 * 3

    @pytest.mark.parametrize("name", ["real_row", "count_change", "near_circle_1e-8",
                                      "near_circle_1e-10", "near_circle_3e-11", "far_start"])
    def test_polish_answers(self, name, monkeypatch):
        # the polish gives the eigensolve's count and on-curve flag, with
        # no eigensolve
        c, warm = self._case(name, monkeypatch)
        want = _split_rows(c[None])
        calls = self._eigensolved(monkeypatch)
        roots, p, on_curve = _split_rows(c[None], warm[None])
        assert calls == []
        assert p[0] == want[1][0] and on_curve[0] == want[2][0]
        assert np.abs(roots - want[0]).max() <= 1e-14 * 3
        if name == "count_change":
            assert p[0] == 3 and (np.abs(warm) < 1).sum() == 2
        if name.startswith("near_circle"):
            assert p[0] == 2
            assert on_curve[0] == (name == "near_circle_3e-11")

    @pytest.mark.parametrize("guard", ["first_pass", "low_degree", "non_finite", "unsettled"])
    def test_guard_takes_the_eigensolve(self, guard, monkeypatch):
        c, warm = self._case(guard, monkeypatch)
        assert (c.size - 1 >= ABERTH_MIN_DEGREE) == (guard != "low_degree")
        want = _split_rows(c[None])
        calls = self._eigensolved(monkeypatch)
        got = _split_rows(c[None], None if warm is None else warm[None])
        assert calls == [1]
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    def test_mixed_batch(self, monkeypatch):
        # one call, the control row among rows of the same degree: only
        # the non-finite row is eigensolved, and each row's split is that
        # of its batch of one
        names = ["control", "real_row", "count_change", "near_circle_1e-8", "non_finite",
                 "far_start"]
        c, warm = (np.array(x) for x in zip(*(self._case(n, monkeypatch) for n in names)))
        calls = self._eigensolved(monkeypatch)
        got = _split_rows(c, warm)
        assert calls == [1]
        for k in range(len(names)):
            one = _split_rows(c[k : k + 1], warm[k : k + 1])
            for x, y in zip(got, one):
                assert np.array_equal(x[k], y[0])

    def test_aberth_rows_equal_their_batch_of_one(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        exact = np.array([roots_companion(q.Poly(tuple(row))) for row in c])
        warm = exact * (1 + 1e-3 * rng.standard_normal(exact.shape))
        warm[3] = exact[3]  # already converged: the row still takes its last step
        z, settled = _aberth_rows(c, warm)
        assert settled.all()
        for k in range(c.shape[0]):
            one, ok = _aberth_rows(c[k : k + 1], warm[k : k + 1])
            assert ok[0] and z[k].tobytes() == one[0].tobytes()
            # each polished root is next to its companion root
            err = np.abs(np.sort_complex(z[k]) - np.sort_complex(exact[k]))
            assert err.max() <= 1e-12 * max(1.0, np.abs(exact[k]).max())

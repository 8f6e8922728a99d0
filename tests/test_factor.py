import numpy as np
import pytest

import qteig as q
from qteig.errors import FactorizationUnstableError, OnCurveError
from qteig.factor import _g_rows, barnett_g, wiener_hopf
from qteig.linalg import eig_dense, roots_companion
from qteig.poly import char_poly, convolve, inside_roots

from conftest import random_symbol


def companion(s: q.Poly) -> np.ndarray:
    p = s.degree
    f = np.zeros((p, p), dtype=complex)
    if p > 1:
        f[np.arange(p - 1), np.arange(1, p)] = 1.0
    f[p - 1, :] = -np.asarray(s.coeffs[:p])
    return f


def residual_mateq(sym: q.LaurentSymbol, lam: complex, g) -> float:
    """Row-sum norm of sum_k A_k G**(k+1) over the p x p coefficient
    blocks A_k of the band matrix with symbol z**(m-p) (a(z) - lam),
    from block row -1 upward: a certificate that G generates the
    decaying solution space.  Entry (i, j) of A_k is the shifted
    coefficient of offset (k + 1) p - m + j - i."""
    g = np.asarray(g, dtype=complex)
    p = g.shape[0]

    def shifted(d):
        return sym.coeff(d) - (lam if d == 0 else 0)

    acc = np.zeros((p, p), dtype=complex)
    power = np.eye(p, dtype=complex)
    for k in range(-1, (sym.m + sym.n - 1) // p + 1):
        block = np.array([[shifted((k + 1) * p - sym.m + j - i) for j in range(p)]
                          for i in range(p)])
        acc += block @ power
        power = power @ g
    return float(np.abs(acc).sum(axis=1).max())


def random_off_curve_shift(rng, sym):
    for _ in range(50):
        z = 2 * (rng.standard_normal() + 1j * rng.standard_normal())
        try:
            f = wiener_hopf(sym, z)
        except (OnCurveError, FactorizationUnstableError):
            continue
        roots = np.asarray(roots_companion(char_poly(sym, z)))
        sep = np.abs(roots[:, None] - roots[None, :]) + 10 * np.eye(roots.size)
        if sep.min() > 0.05:
            return z, f
    raise RuntimeError("no usable shift found")  # pragma: no cover


class TestWienerHopf:
    def test_fix_a(self, fix_a):
        f = wiener_hopf(fix_a.symbol, 0.0)
        assert np.allclose(f.s.coeffs, (-0.5, 1.0), atol=1e-14)
        assert np.allclose(f.u.coeffs, (4.0, -2.0), atol=1e-13)
        assert np.allclose(f.s_prime, (-1 / 6,), atol=1e-13)
        assert np.allclose(f.u_prime, (-4 / 3,), atol=1e-12)

    def test_all_roots_inside(self):
        sym = q.LaurentSymbol(neg=(0, 1), pos=(0, 2))
        f = wiener_hopf(sym, 0.0)
        assert f.p == 2
        assert np.allclose(f.s.coeffs, (0.5, 0.0, 1.0), atol=1e-14)
        assert f.u.degree == 0
        assert f.u.coeffs[0] == pytest.approx(2.0)

    def test_breakdown_raises(self, fix_a, monkeypatch):
        # no division residual is below a zero tolerance
        monkeypatch.setattr("qteig.factor.DECONV_TOL", 0.0)
        with pytest.raises(FactorizationUnstableError, match="broke down"):
            wiener_hopf(fix_a.symbol, 0.1 + 0.2j)

    def test_no_roots_inside(self):
        # z**-1 + eps z at 0: both roots of 1 + eps z**2 lie outside
        sym = q.LaurentSymbol(neg=(0, 1), pos=(0, 0.25))
        f = wiener_hopf(sym, 0.0)
        assert f.p == 0
        assert f.s.coeffs == (1.0,)
        assert f.s_prime == () and f.u_prime == ()

    def test_on_curve(self, fix_a):
        for split in (wiener_hopf, inside_roots):
            with pytest.raises(OnCurveError):
                split(fix_a.symbol, 5.0)

    def test_cluster_fixture_is_stable(self, test3):
        # tight root cluster near -0.1; the split must reconstruct cleanly
        lam = -0.008528956 - 0.049549219j
        f = wiener_hopf(test3.symbol, lam)
        b = char_poly(test3.symbol, lam)
        err = np.abs(
            np.asarray(convolve(f.s, f.u).coeffs) - np.asarray(b.coeffs)
        ).sum()
        assert err <= 1e-10 * b.norm1()

    def test_reconstruction_random(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 100:
            sym = random_symbol(rng)
            z = 2 * (rng.standard_normal() + 1j * rng.standard_normal())
            try:
                f = wiener_hopf(sym, z)
            except (OnCurveError, FactorizationUnstableError):
                continue
            b = char_poly(sym, z)
            err = np.abs(
                np.asarray(convolve(f.s, f.u).coeffs) - np.asarray(b.coeffs)
            ).sum()
            assert err <= 1e-10 * b.norm1()
            done += 1

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(29)
        h = 1e-6
        done = 0
        while done < 25:
            sym = random_symbol(rng, max_m=4, max_n=4)
            try:
                z, f = random_off_curve_shift(rng, sym)
                fp = wiener_hopf(sym, z + h)
                fm = wiener_hopf(sym, z - h)
            except (RuntimeError, OnCurveError, FactorizationUnstableError):
                continue
            if fp.p != f.p or fm.p != f.p or f.p == 0:
                continue
            ds = (np.asarray(fp.s.coeffs[:-1]) - np.asarray(fm.s.coeffs[:-1])) / (2 * h)
            du = (np.asarray(fp.u.coeffs[:-1]) - np.asarray(fm.u.coeffs[:-1])) / (2 * h)
            scale = max([1.0] + [np.abs(v).max() for v in (ds, du) if v.size])
            assert np.abs(ds - np.asarray(f.s_prime)).max() <= 1e-5 * scale
            if du.size:
                assert np.abs(du - np.asarray(f.u_prime)).max() <= 1e-5 * scale
            done += 1


class TestInsideRoots:
    def test_count_matches_winding(self, fix_a):
        # away from the curve the split's count is m + winding number
        rng = np.random.default_rng(31)
        done = 0
        while done < 200:
            sym = random_symbol(rng)
            z = 2 * (rng.standard_normal() + 1j * rng.standard_normal())
            roots = roots_companion(char_poly(sym, z))
            if min(abs(abs(r) - 1.0) for r in roots) < 1e-3:
                continue
            inside = inside_roots(sym, z)
            assert len(inside) - sym.m == q.winding(sym, z)
            assert sorted(inside, key=lambda r: (abs(r), np.angle(r))) == list(inside)
            assert set(inside) == {r for r in roots if abs(r) < 1.0}
            done += 1
        # the cells of a box on fix_a's curve [1, 9], where root squaring
        # does not settle and the winding number comes from the same
        # split, or both refuse the shift
        def centers(lo, hi):
            return lo + (np.arange(10) + 0.5) * (hi - lo) / 10

        on_curve = 0
        for y in centers(-3e-9, 3e-9):
            for x in centers(0.5, 9.5):
                try:
                    want = len(inside_roots(fix_a.symbol, complex(x, y))) - fix_a.symbol.m
                except OnCurveError:
                    on_curve += 1
                    with pytest.raises(OnCurveError):
                        q.winding(fix_a.symbol, complex(x, y))
                else:
                    assert q.winding(fix_a.symbol, complex(x, y)) == want
        assert on_curve > 0


class TestBarnett:
    def test_scalar(self):
        g = barnett_g(q.Poly((-0.5, 1)))
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(0.5)

    def test_two_by_two(self):
        # s = z**2 + 0.1 z - 0.12, roots 0.3 and -0.4; F**2 by hand
        g = barnett_g(q.Poly((-0.12, 0.1, 1.0)))
        assert np.allclose(g, [[0.12, -0.1], [-0.012, 0.13]], atol=1e-15)
        assert np.allclose(-g[0, :], (-0.12, 0.1))

    def test_equals_companion_power(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            p = int(rng.integers(1, 9))
            roots = rng.uniform(0.1, 0.9, p) * np.exp(2j * np.pi * rng.random(p))
            acc = np.array([1.0 + 0j])
            for r in roots:
                acc = np.convolve(acc, [-r, 1.0])
            s = q.Poly(tuple(acc))
            f = companion(s)
            assert np.abs(barnett_g(s) - np.linalg.matrix_power(f, p)).max() <= 1e-10

    def test_minimal_spectral_radius(self):
        rng = np.random.default_rng(37)
        done = 0
        while done < 20:
            sym = random_symbol(rng, max_m=4, max_n=4)
            z = 2 * (rng.standard_normal() + 1j * rng.standard_normal())
            try:
                f = wiener_hopf(sym, z)
            except (OnCurveError, FactorizationUnstableError):
                continue
            if f.p == 0:
                continue
            g = barnett_g(f.s)
            rho = max(abs(v) for v in eig_dense(g))
            # G = F**p, so its spectral radius is the largest inside-root
            # modulus raised to the p-th power; in particular it is < 1
            xi_max = max(abs(r) for r in roots_companion(f.s))
            assert rho == pytest.approx(xi_max**f.p, abs=1e-8)
            assert rho < 1.0
            done += 1


def g_prime(s, s_prime) -> np.ndarray:
    """G' for one monic factor s and its coefficient derivatives."""
    rows = (np.asarray(c, dtype=complex)[None] for c in (s.coeffs, s_prime))
    return _g_rows(*rows)[1][0]


class TestBarnettPrime:
    def test_scalar(self):
        gp = g_prime(q.Poly((-0.5, 1)), (-1 / 6,))
        assert gp[0, 0] == pytest.approx(1 / 6)

    def test_zero_derivative(self):
        gp = g_prime(q.Poly((-0.12, 0.1, 1.0)), (0.0, 0.0))
        assert np.abs(gp).max() == 0.0

    def test_matches_finite_difference(self, fix_b_symbol):
        lam = -1.0 + 0.5j
        h = 1e-6
        f = wiener_hopf(fix_b_symbol, lam)
        gp = g_prime(f.s, f.s_prime)
        g_plus = barnett_g(wiener_hopf(fix_b_symbol, lam + h).s)
        g_minus = barnett_g(wiener_hopf(fix_b_symbol, lam - h).s)
        assert np.abs(gp - (g_plus - g_minus) / (2 * h)).max() <= 1e-6


class TestResidualMateq:
    def test_fix_a_solution(self, fix_a):
        assert residual_mateq(fix_a.symbol, 0.0, [[0.5]]) <= 1e-14

    def test_fix_a_wrong_g(self, fix_a):
        assert residual_mateq(fix_a.symbol, 0.0, [[0.9]]) == pytest.approx(0.88)

    def test_pipeline_certificate(self, fix_b_symbol, test2_case1):
        for sym, lam in ((fix_b_symbol, -1 + 0.5j), (test2_case1.symbol, -1.5)):
            f = wiener_hopf(sym, lam)
            g = barnett_g(f.s)
            scale = float(np.abs(sym.coeffs()).sum())
            assert residual_mateq(sym, lam, g) <= 1e-9 * scale

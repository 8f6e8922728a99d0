from fractions import Fraction

import numpy as np
import pytest

import qteig as q
from qteig.errors import (
    ClusteredRootsError,
    DerivativeVanishesError,
    InvalidInputError,
)
from qteig.factor import _check_monic, _g_rows, wiener_hopf
from qteig.linalg import eig_dense, lu_solve, qr_rank_revealing
from qteig.nep import (
    NEPContext,
    _frobenius_rows,
    _vandermonde_rows,
    basis_frobenius,
    basis_vandermonde,
    build_w,
    eigvec_prefix,
    equilibrate,
    newton_correction,
    phi,
)


def det_lu(a):
    a = np.array(a, dtype=complex)
    sign = 1.0
    n = a.shape[0]
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            sign = -sign
        if a[k, k] == 0:
            return 0j
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k] / a[k, k], a[k, k + 1 :])
    return sign * np.prod(np.diag(a))


def det_phi(a, ctx, lam, rows, method="vandermonde"):
    sym = a.symbol
    if method == "vandermonde":
        basis = basis_vandermonde(sym, lam, ctx.width)
    else:
        basis = basis_frobenius(wiener_hopf(sym, lam), ctx.width)
    p_mat, _ = phi(ctx, basis, rows)
    return det_lu(p_mat)


def full_w(ctx):
    """W at its full width: the stored columns at ``ctx.cols``, zeros
    elsewhere."""
    w = np.zeros((ctx.q, ctx.width), dtype=complex)
    w[:, list(ctx.cols)] = ctx.w
    return w


class TestBuildW:
    def test_fix_a(self, fix_a):
        ctx = build_w(fix_a)
        assert (ctx.q, ctx.width, ctx.cols) == (1, 2, (0, 1))
        assert np.allclose(full_w(ctx), [[2.0, -4.0]])

    def test_wide_correction(self, test1_case2):
        ctx = build_w(test1_case2)
        assert (ctx.q, ctx.width) == (3, 103)
        # the first m columns and the correction's column 100
        assert ctx.cols == (0, 1, 2, 102) and ctx.w.shape == (3, 4)
        w = full_w(ctx)
        # top-left block is minus the upper triangular Toeplitz of
        # (a_-3, a_-2, a_-1), diagonal -a_-3
        assert np.allclose(w[:3, :3], [[1, -1, 1], [0, 1, -1], [0, 0, 1]])
        assert w[0, 102] == 8
        assert w[2, 102] == 24

    def test_rank_compressed_rows(self, test1_case1):
        ctx = build_w(test1_case1)
        assert (ctx.q, ctx.width) == (4, 103)
        w = full_w(ctx)
        # the compressed row carries the norm of the tail column
        tail = np.linalg.norm(np.arange(4, 21))
        assert np.abs(w[3, :102]).max() == 0
        assert abs(w[3, 102]) == pytest.approx(tail)

    def test_no_correction(self):
        ctx = build_w(q.qt_new([0, 1], [0, 2]))
        assert (ctx.q, ctx.width, ctx.cols) == (1, 1, (0,))
        assert np.allclose(ctx.w, [[-1.0]])

    def test_far_column_is_stored_narrow(self, fix_a):
        # an entry in column 10**300 adds one stored column to fix_a's m
        # and its correction column 1; an array of the full width
        # m + 10**300 could not even be allocated
        far = 10**300
        a = q.QTMatrix(fix_a.symbol, q.Correction(fix_a.correction.entries + ((1, far, 0.5),)))
        ctx = build_w(a)
        m = fix_a.symbol.m
        assert len(ctx.cols) == ctx.w.shape[1] == m + 2
        assert ctx.width == m + far and ctx.cols == (0, 1, m - 1 + far)
        assert ctx.w.tolist() == [[2.0, -4.0, 0.5]]

    def test_scattered_rank_deficient_rows(self, monkeypatch):
        # below-m rows on scattered columns, some of them repeated up to a
        # factor or summed: q counts the independent rows, R spans the
        # dense block's row space, and the QR sees only the rows and
        # columns that hold entries
        shapes = []

        def spy(block):
            shapes.append(block.shape)
            return qr_rank_revealing(block)

        monkeypatch.setattr("qteig.nep.qr_rank_revealing", spy)
        rng = np.random.default_rng(34)

        def projector(mat):
            # orthogonal projector onto the row space
            return np.linalg.pinv(mat) @ mat

        for _ in range(40):
            m = int(rng.integers(1, 4))
            neg = [0.0] + list(rng.standard_normal(m))
            a_rows = []
            for _ in range(int(rng.integers(1, 6))):
                cols = rng.choice(200, size=int(rng.integers(1, 4)), replace=False)
                row = np.zeros(200, dtype=complex)
                row[cols] = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
                a_rows.append(row)
            rows = list(a_rows)
            for _ in range(int(rng.integers(0, 4))):
                x, y = rng.integers(0, len(a_rows), size=2)
                rows.append(2.0 * a_rows[x] if x == y else a_rows[x] + a_rows[y])
            rng.shuffle(rows)
            # leave some rows below m empty
            at = np.sort(rng.choice(np.arange(m + 1, m + 12), size=len(rows), replace=False))
            top = [(int(rng.integers(1, m + 1)), int(rng.integers(1, 200)), 3.0)]
            below = [(int(i), int(j) + 1, r[j]) for i, r in zip(at, rows) for j in np.flatnonzero(r)]
            a = q.qt_new(neg, [0.0, 1.0], top + below)
            dense = np.zeros((at[-1] - m, a.correction.k2), dtype=complex)
            for i, j, v in below:
                dense[i - m - 1, j - 1] = v
            shapes.clear()
            ctx = build_w(a)
            assert ctx.q == m + np.linalg.matrix_rank(dense)
            w = full_w(ctx)
            r = w[m:, m:]
            assert np.abs(projector(r) - projector(dense)).max() <= 1e-12
            assert shapes == [(len(rows), len({j for _, j, _ in below}))]
            assert w[top[0][0] - 1, m + top[0][1] - 1] == 3.0


class TestBasisVandermonde:
    def test_fix_a(self, fix_a):
        bas = basis_vandermonde(fix_a.symbol, 0.0, 3)
        assert bas.p == 1
        assert np.allclose(bas.v[:, 0], [1, 0.5, 0.25])
        assert np.allclose(bas.v_prime[:, 0], [0, 1 / 6, 1 / 6])

    def test_two_columns(self):
        sym = q.LaurentSymbol(neg=(0, 1), pos=(0, 2))
        bas = basis_vandermonde(sym, 0.0, 2)
        r = 1 / np.sqrt(2)
        assert bas.p == 2
        assert np.allclose(np.abs(bas.v[1, :]), [r, r])
        assert np.allclose(bas.v[0, :], [1, 1])
        assert bas.v[1, 0] == pytest.approx(-bas.v[1, 1])

    def test_clustered_roots_rejected(self):
        # z (a(z) - 0) = (z - 0.3)**2 (z - 2): exact double root inside
        sym = q.LaurentSymbol(neg=(1.29, -0.18), pos=(1.29, -2.6, 1.0))
        assert q.char_poly(sym, 0.0).coeffs == (-0.18, 1.29, -2.6, 1.0)
        with pytest.raises(ClusteredRootsError):
            basis_vandermonde(sym, 0.0, 4)

    def test_columns_satisfy_recurrence(self, fix_b_symbol):
        lam = -1 + 0.5j
        sym = fix_b_symbol
        rows = 12 + sym.n
        bas = basis_vandermonde(sym, lam, rows)
        coeffs = sym.coeffs()
        for c in range(bas.p):
            col = bas.v[:, c]
            for k in range(rows - sym.m - sym.n):
                window = col[k : k + sym.m + sym.n + 1]
                resid = coeffs @ window - lam * col[k + sym.m]
                assert abs(resid) <= 1e-8 * np.linalg.norm(col)


class TestBasisFrobenius:
    def test_fix_a(self, fix_a):
        f = wiener_hopf(fix_a.symbol, 0.0)
        bas = basis_frobenius(f, 3)
        assert np.allclose(bas.v[:, 0], [1, 0.5, 0.25])
        assert np.allclose(bas.v_prime[:, 0], [0, 1 / 6, 1 / 6])

    def test_zero_derivative_propagates(self, fix_a):
        f = wiener_hopf(fix_a.symbol, 0.0)
        frozen = q.WienerHopfFactors(s=f.s, u=f.u, s_prime=(0.0,), u_prime=f.u_prime)
        bas = basis_frobenius(frozen, 5)
        assert np.abs(bas.v_prime).max() == 0.0

    def test_rejects_malformed_factors(self, fix_a):
        f = wiener_hopf(fix_a.symbol, 0.0)
        for s, s_prime in ((f.s, (0.0, 0.0)), (q.Poly((-0.5, 2.0)), f.s_prime)):
            bad = q.WienerHopfFactors(s=s, u=f.u, s_prime=s_prime, u_prime=f.u_prime)
            with pytest.raises(InvalidInputError):
                basis_frobenius(bad, 3)

    def test_rejects_empty_inside_factor(self):
        # 2 / z + z at 0: winding -1, so p = 0
        f = wiener_hopf(q.LaurentSymbol(neg=(0, 2), pos=(0, 1)), 0.0)
        assert f.p == 0
        with pytest.raises(InvalidInputError, match="p >= 1"):
            basis_frobenius(f, 3)

    def test_block_structure(self):
        s = q.Poly((-0.12, 0.1, 1.0))
        f = q.WienerHopfFactors(s=s, u=q.Poly((1.0,)), s_prime=(0, 0), u_prime=())
        bas = basis_frobenius(f, 4)
        assert np.allclose(bas.v[:2], np.eye(2))
        assert np.allclose(bas.v[2:], [[0.12, -0.1], [-0.012, 0.13]])

    def test_columns_satisfy_recurrence(self, fix_b_symbol):
        lam = -1 + 0.5j
        sym = fix_b_symbol
        rows = 12 + sym.n
        bas = basis_frobenius(wiener_hopf(sym, lam), rows)
        coeffs = sym.coeffs()
        for c in range(bas.p):
            col = bas.v[:, c]
            for k in range(rows - sym.m - sym.n):
                window = col[k : k + sym.m + sym.n + 1]
                resid = coeffs @ window - lam * col[k + sym.m]
                assert abs(resid) <= 1e-8 * np.linalg.norm(col)


def _g_stack(sym, lam):
    """G and G' of one shift, as stacks of one."""
    f = wiener_hopf(sym, lam)
    return _g_rows(_check_monic(f.s)[None], np.asarray(f.s_prime, dtype=complex)[None])


def _running_powers(g, g_prime, rows):
    """Reference full-width G-power basis, by the running product
    G**j = G**(j-1) G and (G**j)' = (G**(j-1))' G + G**(j-1) G'."""
    p = g.shape[-1]
    power = np.repeat(np.eye(p, dtype=complex)[None], g.shape[0], axis=0)
    d_power = np.zeros_like(power)
    blocks, d_blocks = [], []
    for _ in range(-(-rows // p)):
        blocks.append(power)
        d_blocks.append(d_power)
        d_power = d_power @ g + power @ g_prime
        power = power @ g
    return np.concatenate(blocks, axis=1)[:, :rows], np.concatenate(d_blocks, axis=1)[:, :rows]


def _binary_power(x, e, mul=np.multiply, dx=None):
    """(x**e, (x**e)') under ``mul`` (np.multiply: elementwise, or
    np.matmul): the product of the squares x**(2**h) over the bits h of
    e, the highest on the left, and, given dx = x', its derivative by the
    product rule (XY)' = X'Y + XY' on the same products.  x**0 is the
    identity, with derivative +0; without dx the derivative is None."""
    out = d_out = None
    square, d_square = x, dx
    for h in range(e.bit_length()):
        if h:
            d_square = None if dx is None else mul(d_square, square) + mul(square, d_square)
            square = mul(square, square)
        if e >> h & 1:
            if out is None:
                out, d_out = square, d_square
            else:
                d_out = None if dx is None else mul(d_square, out) + mul(square, d_out)
                out = mul(square, out)
    if out is None:
        one = np.ones_like(x) if mul is np.multiply else np.broadcast_to(np.eye(x.shape[-1]), x.shape)
        return one.astype(complex), None if dx is None else np.zeros(x.shape, dtype=complex)
    return out, d_out


class TestNarrowBasis:
    """The basis kernels at an ascending set of rows, W's nonzero columns
    among them, against the same rows of a full-width basis."""

    @staticmethod
    def _shifts(a):
        starts = eig_dense(q.finite_section(a, q.section_size(a, 3.0)))
        return [lam for lam in starts[::10] if q.inside_roots(a.symbol, lam)]

    def test_frobenius_at_w_columns(self, test2_case1):
        # W reads rows 0-6 and 106 of V: block rows of G**0 and G**13,
        # the latter by binary powering
        a = test2_case1
        ctx = build_w(a)
        cols = list(ctx.cols)
        assert cols[-1] // 8 == 13
        for lam in self._shifts(a):
            g, g_prime = _g_stack(a.symbol, lam)
            narrow = _frobenius_rows(g, g_prime, ctx.cols)
            v, v_prime = _running_powers(g, g_prime, ctx.width)
            for got, want in ((narrow.v, v[:, cols]), (narrow.v_prime, v_prime[:, cols])):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_frobenius_rows_bit_for_bit(self, test2_case1):
        # every row, and its derivative, is the binary power's product
        # of squares, bit for bit: W's columns (G**0 and G**13) and one
        # row past 2**40 block rows, 41 squarings deep
        a = test2_case1
        cols = list(build_w(a).cols)
        for lam in self._shifts(a):
            g, g_prime = _g_stack(a.symbol, lam)
            p = g.shape[-1]
            rows = cols + [(2**40 + 3) * p + 1]
            narrow = _frobenius_rows(g, g_prime, rows)
            for k, i in enumerate(rows):
                power, d_power = _binary_power(g, i // p, np.matmul, g_prime)
                assert narrow.v[:, k].tobytes() == power[:, i % p].tobytes()
                assert narrow.v_prime[:, k].tobytes() == d_power[:, i % p].tobytes()

    def test_frobenius_up_to_g_squared_is_exact(self, test2_case1):
        # G**0, G, G**2 (and G**3) come from the running product's own
        # products
        a = test2_case1
        for lam in self._shifts(a):
            g, g_prime = _g_stack(a.symbol, lam)
            p = g.shape[-1]
            rows = [0, p - 1, p, p + 2, 2 * p + 1, 3 * p - 1, 4 * p - 1]
            narrow = _frobenius_rows(g, g_prime, rows)
            v, v_prime = _running_powers(g, g_prime, 4 * p)
            assert np.array_equal(narrow.v, v[:, rows])
            assert np.array_equal(narrow.v_prime, v_prime[:, rows])

    def test_vandermonde_rows_bit_for_bit(self, test2_case1):
        a = test2_case1
        ctx = build_w(a)
        cols = list(ctx.cols)
        for lam in self._shifts(a):
            xi = np.array(q.inside_roots(a.symbol, lam), dtype=complex)[None]
            clustered, full = _vandermonde_rows(a.symbol, xi, range(ctx.width))
            _, narrow = _vandermonde_rows(a.symbol, xi, ctx.cols)
            if clustered[0]:
                continue
            # binary powering, highest bit on the left, the derivative
            # by the product rule from row 1's xi' = 1 / a'(xi), and
            # within rounding of the running product xi**i = xi**(i-1) * xi
            d_xi = full.v_prime[:, 1]
            power = np.ones(xi.shape, dtype=complex)
            for i in range(ctx.width):
                want, d_want = _binary_power(xi, i, dx=d_xi)
                assert full.v[:, i].tobytes() == want.tobytes()
                assert full.v_prime[:, i].tobytes() == d_want.tobytes()
                assert np.abs(full.v[:, i] - power).max() <= 1e-14 * np.abs(power).max()
                power = power * xi
            assert narrow.v.tobytes() == full.v[:, cols].tobytes()
            assert narrow.v_prime.tobytes() == full.v_prime[:, cols].tobytes()
            # (xi**0)' is +0, not the -0 that 0 / a'(xi) can give
            assert full.v_prime[:, 0].tobytes() == bytes(full.v_prime[:, 0].nbytes)

    @pytest.mark.parametrize("method", ["frobenius", "vandermonde"])
    def test_phi_narrow_equals_full_width(self, test2_case1, method):
        a = test2_case1
        ctx = build_w(a)
        for lam in self._shifts(a):
            if method == "frobenius":
                g, g_prime = _g_stack(a.symbol, lam)
                full = basis_frobenius(wiener_hopf(a.symbol, lam), ctx.width)
                narrow = _frobenius_rows(g, g_prime, ctx.cols)[0]
            else:
                xi = np.array(q.inside_roots(a.symbol, lam), dtype=complex)[None]
                clustered, stack = _vandermonde_rows(a.symbol, xi, ctx.cols)
                if clustered[0]:
                    continue
                full, narrow = basis_vandermonde(a.symbol, lam, ctx.width), stack[0]
            rows = min(full.p, ctx.q)
            for got, want in zip(phi(ctx, narrow, rows), phi(ctx, full, rows)):
                assert got.tobytes() == want.tobytes()

    def test_phi_rejects_other_row_counts(self, test2_case1):
        ctx = build_w(test2_case1)
        bas = basis_vandermonde(test2_case1.symbol, -1.0 + 0.5j, ctx.width - 1)
        with pytest.raises(InvalidInputError):
            phi(ctx, bas, 1)


class TestPhi:
    def test_fix_a_certificate(self, fix_a):
        ctx = build_w(fix_a)
        bas = basis_vandermonde(fix_a.symbol, 0.0, ctx.width)
        p_mat, p_prime = phi(ctx, bas, 1)
        assert abs(p_mat[0, 0]) < 1e-15
        assert p_prime[0, 0] == pytest.approx(-2 / 3)

    def test_determinant_relation(self, test1_case2):
        # det of the root-power pencil equals det of the G-power pencil
        # times det of the leading p x p root-power block
        ctx = build_w(test1_case2)
        sym = test1_case2.symbol
        for lam in (-1 + 0.5j, -2.5 + 0.2j, 0.5 + 1.1j):
            bas_v = basis_vandermonde(sym, lam, ctx.width)
            p = bas_v.p
            if not 1 <= p <= ctx.q:
                continue
            bas_f = basis_frobenius(wiener_hopf(sym, lam), ctx.width)
            f_v = det_lu(phi(ctx, bas_v, p)[0])
            f_f = det_lu(phi(ctx, bas_f, p)[0])
            det_vp = det_lu(bas_v.v[:p, :])
            assert f_v == pytest.approx(f_f * det_vp, rel=1e-8)

    def test_rejects_more_rows_than_equations(self, fix_a):
        ctx = build_w(fix_a)
        bas = basis_vandermonde(fix_a.symbol, 0.0, ctx.width)
        with pytest.raises(InvalidInputError, match="more rows than equations"):
            phi(ctx, bas, ctx.q + 1)

    def test_row_scaling_leaves_correction_invariant(self, fix_a):
        ctx = build_w(fix_a)
        scaled = NEPContext(w=10.0 * ctx.w, cols=ctx.cols)
        lam = 0.1
        bas = basis_vandermonde(fix_a.symbol, lam, ctx.width)
        c1 = newton_correction(*phi(ctx, bas, 1))
        c2 = newton_correction(*phi(scaled, bas, 1))
        assert c1 == pytest.approx(c2, abs=1e-10)


class TestEquilibrate:
    def test_extreme_rows_and_columns(self):
        # a zero row, a row whose largest modulus is subnormal, a row near
        # 2**1000, columns spread over 2**-500 .. 2**500, a zero column,
        # and a column whose only entry is 2**-1040 of its row's maximum
        # (subnormal once the row alone is scaled)
        mat = np.zeros((5, 5), dtype=complex)
        mat[1, :2] = [3 * 2.0**-1062, (1 + 1j) * 2.0**-1061]
        mat[2, :3] = [0.7 * 2.0**1000, -(2.0**990) * 1j, 0.3 * 2.0**1000]
        mat[2, 4] = (0.1 + 0.3j) * 2.0**-40
        mat[3, :3] = [0.3 * 2.0**500, (0.2 + 0.9j) * 2.0**-500, 1.5]
        mat[4, :3] = [2.0**480, 0.5j * 2.0**-480, -3.0]
        scaled, r, c = equilibrate(mat)
        assert r.shape == (5, 1) and c.shape == (1, 5)
        assert r[0, 0] == 0 and c[0, 3] == 0
        mod = np.abs(scaled)
        for maxima in (mod.max(axis=1)[1:], mod.max(axis=0)[[0, 1, 2, 4]]):
            assert np.all((maxima >= 0.5) & (maxima < 1.0))
        assert not scaled[0].any() and not scaled[:, 3].any()
        # exact: compare as rationals, since 2**-(r + c) can overflow a float
        exps = -(r + c)
        for (i, j), z in np.ndenumerate(mat):
            k = int(exps[i, j])
            for part, want in ((scaled[i, j].real, z.real), (scaled[i, j].imag, z.imag)):
                assert Fraction(part) == Fraction(want) * Fraction(2) ** k


class TestNewtonCorrection:
    def test_scalar(self):
        assert newton_correction([[3.0]], [[2.0]]) == pytest.approx(1.5)

    def test_singular_returns_zero(self):
        assert newton_correction([[0.0]], [[1.0]]) == 0

    def test_vanishing_trace(self):
        with pytest.raises(DerivativeVanishesError):
            newton_correction([[1.0]], [[0.0]])

    def test_invariant_under_power_of_two_scaling(self):
        # rows of Phi and Phi' scaled alike by 2**k, |k| <= 40, give the
        # same step bit for bit; columns scaled as well can move the row
        # maxima, so the pivots, and agree to rounding
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            p0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rows = np.exp2(rng.integers(-40, 41, n))[:, None]
            cols = np.exp2(rng.integers(-40, 41, n))[None, :]
            step = newton_correction(p0, p1)
            assert step != 0
            assert newton_correction(rows * p0, rows * p1) == step
            both = newton_correction(rows * p0 * cols, rows * p1 * cols)
            assert both == pytest.approx(step, rel=1e-12)

    def test_trace_product_rule(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            p0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
            p1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
            q1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            prod = p0 @ q0
            prod_prime = p1 @ q0 + p0 @ q1
            lhs = np.trace(lu_solve(prod, prod_prime))
            rhs = np.trace(lu_solve(p0, p1)) + np.trace(lu_solve(q0, q1))
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_matches_determinant_finite_difference(self, fix_a, test1_case2):
        h = 1e-7
        cases = [
            (fix_a, [0.1, 0.3j, -0.2 + 0.1j]),
            (test1_case2, [-1 + 0.5j, -1.2 + 0.4j]),
        ]
        for a, shifts in cases:
            ctx = build_w(a)
            rng = np.random.default_rng(43)
            for base in shifts:
                for _ in range(10):
                    lam = base + 0.02 * (rng.standard_normal() + 1j * rng.standard_normal())
                    bas = basis_vandermonde(a.symbol, lam, ctx.width)
                    if not 1 <= bas.p <= ctx.q:
                        continue
                    rows = bas.p
                    corr = newton_correction(*phi(ctx, bas, rows))
                    f0 = det_phi(a, ctx, lam, rows)
                    fp = det_phi(a, ctx, lam + h, rows)
                    fm = det_phi(a, ctx, lam - h, rows)
                    fd = f0 * 2 * h / (fp - fm)
                    assert corr == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestEigvecPrefix:
    def test_fix_a(self, fix_a):
        bas = basis_vandermonde(fix_a.symbol, 0.0, 2)
        v = eigvec_prefix(bas, [1.0], 4, fix_a.symbol)
        assert np.allclose(v, [0.5, 0.25, 0.125, 0.0625])

    def test_linearity(self, fix_a):
        bas = basis_vandermonde(fix_a.symbol, 0.0, 2)
        v1 = eigvec_prefix(bas, [1.0], 6, fix_a.symbol)
        v2 = eigvec_prefix(bas, [2.5j], 6, fix_a.symbol)
        assert np.allclose(v2, 2.5j * v1)

    def test_frobenius_matches_vandermonde(self, fix_a):
        bas_v = basis_vandermonde(fix_a.symbol, 0.0, 2)
        bas_f = basis_frobenius(wiener_hopf(fix_a.symbol, 0.0), 2)
        v1 = eigvec_prefix(bas_v, [1.0], 8, fix_a.symbol)
        v2 = eigvec_prefix(bas_f, [1.0], 8, fix_a.symbol)
        assert np.allclose(v1, v2)

    def test_zero_beta_rejected(self, fix_a):
        bas = basis_vandermonde(fix_a.symbol, 0.0, 2)
        with pytest.raises(InvalidInputError):
            eigvec_prefix(bas, [0.0], 4, fix_a.symbol)

import numpy as np
import pytest

import qteig as q
from qteig.errors import ConvergenceError, InvalidInputError, SingularMatrixError
from qteig.linalg import (
    _companion_roots,
    _eigvals_rows,
    _solve_rows,
    eig_dense,
    lu_solve,
    qr_rank_revealing,
    roots_companion,
)

from conftest import poly_from_roots


def _rand(rng, n, m=None):
    m = m or n
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _assert_exact_conjugates(vals):
    # every non-real value has its conjugate in the output, bit for bit
    vals = [complex(v) for v in vals]
    for z in vals:
        if z.imag != 0:
            assert vals.count(z.conjugate()) == vals.count(z), z


class TestLuSolve:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = _rand(rng, 3, 2)
        assert np.allclose(lu_solve(np.eye(3), b), b)

    def test_resultant_2x2(self):
        # hand-checked by Cramer's rule
        x = lu_solve([[4, -0.5], [-2, 1]], [0, -1])
        assert np.allclose(x, [-1 / 6, -4 / 3])

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            lu_solve(np.zeros((2, 2)), np.zeros(2))

    def test_backward_error(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            a = _rand(rng, n) + 3 * np.eye(n)
            b = _rand(rng, n, 2)
            x = lu_solve(a, b)
            err = np.linalg.norm(a @ x - b)
            assert err <= 1e-12 * np.linalg.norm(a) * max(np.linalg.norm(x), 1)

    def test_agrees_with_numpy_solve(self):
        rng = np.random.default_rng(3)
        for n in range(1, 14):
            for _ in range(10):
                a = _rand(rng, n)
                for b in (_rand(rng, n, 1)[:, 0], _rand(rng, n, int(rng.integers(1, 4)))):
                    x = lu_solve(a, b)
                    want = np.linalg.solve(a, b)
                    assert x.shape == b.shape
                    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


class TestQrRankRevealing:
    def test_zero_matrix(self):
        assert qr_rank_revealing(np.zeros((3, 4))).rank == 0

    def test_identity(self):
        fac = qr_rank_revealing(np.eye(2))
        assert fac.rank == 2
        assert np.allclose(np.abs(np.diag(fac.r)), 1.0)

    def test_outer_product(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0])
        assert qr_rank_revealing(a).rank == 1

    def test_reconstruction_and_ordering(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            a = _rand(rng, rows, cols)
            fac = qr_rank_revealing(a)
            assert np.allclose(
                fac.q @ fac.r, a[:, list(fac.permutation)],
                atol=1e-12 * np.linalg.norm(a),
            )
            assert np.allclose(fac.q @ fac.q.conj().T, np.eye(rows), atol=1e-12)
            d = np.abs(np.diag(fac.r))[: min(rows, cols)]
            assert np.all(d[:-1] >= d[1:] - 1e-14)


class TestEigDense:
    def test_diagonal(self):
        vals = eig_dense(np.diag([2.0, 3j]))
        assert np.allclose(sorted(vals, key=abs), [2.0, 3j])

    def test_tridiagonal(self):
        t = np.diag(np.ones(2), 1) + np.diag(np.ones(2), -1)
        vals = np.sort_complex(eig_dense(t))
        assert np.allclose(vals, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)

    def test_companion_of_quadratic(self):
        vals = sorted(eig_dense([[0, 1], [1, 0]]), key=lambda z: z.real)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_char_poly_residual(self):
        # |det(A - lam I)| small relative to |A|**n for every returned value
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = _rand(rng, 8)
            nrm = np.linalg.norm(a)
            for lam in eig_dense(a):
                res = abs(np.linalg.det(a - lam * np.eye(8)))
                assert res <= 1e-8 * nrm**8

    def test_delegated_path(self):
        # a large input goes through the same LAPACK call as a small one
        rng = np.random.default_rng(5)
        a = np.diag(rng.uniform(1, 2, 400))
        vals = np.sort_complex(eig_dense(a))
        assert np.allclose(vals, np.sort(np.diag(a)))

    def test_real_input_gives_exact_conjugate_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            _assert_exact_conjugates(eig_dense(rng.standard_normal((9, 9))))

    def test_rejects_nonsquare_and_oversized(self):
        with pytest.raises(InvalidInputError):
            eig_dense(np.zeros((2, 3)))
        with pytest.raises(InvalidInputError):
            eig_dense(np.zeros((4001, 4001)))


class TestRootsCompanion:
    def test_split_quadratic(self):
        roots = sorted(roots_companion(q.Poly((-2, 5, -2))), key=abs)
        assert abs(roots[0] - 0.5) < 1e-12
        assert abs(roots[1] - 2.0) < 1e-12

    def test_triple_zero(self):
        assert np.allclose(roots_companion(q.Poly((0, 0, 0, 1))), 0.0)

    def test_cross_oracle_count(self, fix_b_symbol):
        b = q.char_poly(fix_b_symbol, -1.0)
        roots = roots_companion(b)
        assert len(roots) == 5
        inside = int(np.sum(np.abs(np.asarray(roots)) < 1.0))
        assert inside == q.count_inside(b).count

    def test_real_polynomial_gives_exact_conjugate_pairs(self, test2_case1):
        roots = roots_companion(q.char_poly(test2_case1.symbol, -0.5))
        assert any(z.imag != 0 for z in roots)
        _assert_exact_conjugates(roots)

    def test_product_roots_are_union(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            d1 = int(rng.integers(1, 6))
            d2 = int(rng.integers(1, 6))
            r1 = rng.uniform(0.3, 2.0, d1) * np.exp(2j * np.pi * rng.random(d1))
            r2 = rng.uniform(0.3, 2.0, d2) * np.exp(2j * np.pi * rng.random(d2))
            both = np.concatenate([r1, r2])
            if np.min(np.abs(both[:, None] - both[None, :]) + np.eye(d1 + d2)) < 0.05:
                continue
            prod = q.convolve(poly_from_roots(r1), poly_from_roots(r2))
            got = np.asarray(roots_companion(prod))
            for r in both:
                assert np.abs(got - r).min() < 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("col", [0, 3])
    def test_non_finite_coefficient_raises_above_degree_2(self, bad, col):
        # the companion of (1, 2, 3, inf) is 0 below its superdiagonal:
        # three zero roots, not an error
        c = np.array([(1, 2, 3, 4), (1, 2, 3, 4)], dtype=complex)
        c[1, col] = bad
        with pytest.raises(ConvergenceError):
            _companion_roots(c)

    def test_ratios_lost_to_the_exponent_range_are_scaled(self):
        # 1e-300 + z**2 + 1e200 z**3: c0 / c3 = 1e-500 underflows to 0,
        # which gave the roots 0, 0 and -1e-200; its roots are the cube
        # roots of -1e-500, which the z**2 term moves by 1e-33 relative
        # (mpmath at 60 digits: -2.1544347e-167 and 1.0772173e-167 -+
        # 1.8657952e-167i).  Reversed, c0 / c3 = 1e500 overflows, and the
        # roots are the cube roots of -1e500.  The row of ordinary ratios
        # in the same stack is the unscaled companion's, bit for bit
        c = np.array([(1e-300, 0, 1, 1e200), (1e200, 1, 0, 1e-300), (1, 2, 3, 4)], dtype=complex)
        got = _companion_roots(c)
        cube = np.sort_complex(-np.exp(2j * np.pi / 3 * np.arange(3)))
        for row, r in zip(got[:2], (10 ** (-500 / 3), 10 ** (500 / 3))):
            assert np.allclose(row, r * cube, rtol=1e-13, atol=0)
            _assert_exact_conjugates(row)
        comp = np.array([[[0, 1, 0], [0, 0, 1], [-0.25, -0.5, -0.75]]], dtype=complex)
        assert np.array_equal(got[2], _eigvals_rows(comp)[0])


def _lapack_roots(c):
    # the companion eigenvalues, as ``_companion_roots`` takes them above
    # degree 2
    comp = np.zeros((c.shape[0], 2, 2), dtype=complex)
    comp[:, 0, 1] = 1.0
    comp[:, 1] = -c[:, :2] / c[:, 2:]
    return np.linalg.eigvals(comp)


def _root_distance(got, want):
    # order-free distance between the root pairs of each row
    straight = np.abs(got - want).max(axis=1)
    crossed = np.abs(got - want[:, ::-1]).max(axis=1)
    return np.minimum(straight, crossed)


class TestQuadraticRoots:
    """``_companion_roots`` at degree 2: the closed form."""

    def test_random_rows_agree_with_lapack(self):
        rng = np.random.default_rng(11)
        c = _rand(rng, 10_000, 3)
        got, want = _companion_roots(c), _lapack_roots(c)
        assert np.array_equal(got, np.sort_complex(got))
        assert (_root_distance(got, want) <= 1e-14 * np.abs(want).max(axis=1)).all()

    def test_real_rows_give_exact_conjugates_or_real_roots(self):
        rng = np.random.default_rng(12)
        roots = _companion_roots(rng.standard_normal((10_000, 3)).astype(complex))
        real = (roots.imag == 0).all(axis=1)
        pair = roots[:, 0] == roots[:, 1].conj()
        assert (real | pair).all()
        assert real.sum() > 1000 and (~real).sum() > 1000

    def test_extreme_coefficient_ratios(self):
        # LAPACK's companion is finite and accurate on these rows
        c = np.array([(1, 1e200, 1), (1, 1e-200, 1), (1e200, 1e200, 1), (1, 1, 1e200),
                      (1e200, 1, 1), (1e-200, 1e-200, 1)], dtype=complex)
        got, want = _companion_roots(c), _lapack_roots(c)
        assert np.isfinite(got).all()
        assert (_root_distance(got, want) <= 1e-14 * np.abs(want).max(axis=1)).all()
        # here c0 / c2 under- or overflows in the companion, so LAPACK is
        # wrong or raises; the roots are 1e-+200 times the cube roots of 1
        c = np.array([(1e-200, 1, 1e200), (1e200, 1, 1e-200)], dtype=complex)
        scale = np.array([1e-200, 1e200])
        want = scale[:, None] * np.exp(2j * np.pi / 3 * np.array([-1, 1]))
        assert (_root_distance(_companion_roots(c), want) <= 1e-14 * scale).all()

    def test_zero_constant_term(self):
        c = np.array([(0, 3 - 1j, 2), (0, 0, 1 + 1j), (0, 2, 1)], dtype=complex)
        roots = _companion_roots(c)
        assert (np.abs(roots) == 0).any(axis=1).all()
        assert np.allclose(roots[0][roots[0] != 0], -(3 - 1j) / 2)
        assert (roots[1] == 0).all()
        assert (roots[2] == [-2, 0]).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("col", [0, 1, 2])
    def test_non_finite_coefficient_raises(self, bad, col):
        c = np.array([(1, 2, 3), (1, -3, 2)], dtype=complex)
        c[1, col] = bad
        with pytest.raises(ConvergenceError):
            _companion_roots(c)


def _lapack_mask(a, b):
    # the rows on which LAPACK's LU finds an exactly zero pivot
    singular = []
    for i in range(a.shape[0]):
        try:
            np.linalg.solve(a[i], b[i])
            singular.append(False)
        except np.linalg.LinAlgError:
            singular.append(True)
    return singular


class TestSmallSolve:
    """``_solve_rows`` at k = 1 and 2: the elimination written out."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_random_stacks_agree_with_lapack(self, k):
        rng = np.random.default_rng(13 + k)

        def norm(x):  # Frobenius norm of each matrix of a stack
            return np.linalg.norm(x, axis=(1, 2))

        for cols in (1, 3):
            a = _rand(rng, 2000 * k, k).reshape(-1, k, k)
            b = _rand(rng, 2000 * k, cols).reshape(-1, k, cols)
            x, singular = _solve_rows(a, b)
            want = np.linalg.solve(a, b)
            assert not singular.any()
            assert (norm(x - want) <= 1e-12 * norm(want)).all()
            assert (norm(a @ x - b) <= 1e-14 * norm(a) * norm(x)).all()

    def test_exactly_singular_rows(self):
        rng = np.random.default_rng(15)
        singular = [[[0, 0], [0, 0]], [[0, 1], [0, 2]], [[1, 2], [2, 4]], [[0, 0], [1, 1]]]
        ordinary = _rand(rng, 8, 2).reshape(4, 2, 2)
        a = np.empty((8, 2, 2), dtype=complex)
        a[0::2], a[1::2] = ordinary, singular
        b = _rand(rng, 16, 2).reshape(8, 2, 2)
        x, mask = _solve_rows(a, b)
        assert mask.tolist() == _lapack_mask(a, b) == [False, True] * 4
        assert (x[1::2] == 0).all()
        alone = _solve_rows(a[0::2], b[0::2])[0]
        assert np.array_equal(x[0::2], alone)
        assert np.allclose(alone, np.linalg.solve(ordinary, b[0::2]), rtol=1e-12, atol=0)
        # k = 1: a zero is singular, its neighbours are divided
        x, mask = _solve_rows(np.array([[[2.0]], [[0.0]], [[-4j]]]), np.ones((3, 1, 2)))
        assert mask.tolist() == [False, True, False]
        assert np.array_equal(x[:, 0], [[0.5, 0.5], [0, 0], [0.25j, 0.25j]])

    def test_row_swap(self):
        # a zero or tiny first pivot is swapped away, as LAPACK does
        a = np.array([[[0, 1], [1, 0]], [[1e-20, 1], [1, 1]]], dtype=complex)
        b = np.array([[[2], [3]], [[1], [2]]], dtype=complex)
        x, mask = _solve_rows(a, b)
        assert not mask.any()
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-15, atol=0)

    def test_stack_of_three_redone_row_by_row(self, monkeypatch):
        # k >= 3 stays LAPACK's: one exactly singular row makes the
        # stacked call raise once, and the other rows are solved in one
        # more stacked call
        rng = np.random.default_rng(16)
        calls, real = [], np.linalg.solve

        def spy(m, rhs):
            try:
                out = real(m, rhs)
            except np.linalg.LinAlgError:
                calls.append((m.shape[0], True))
                raise
            calls.append((m.shape[0], False))
            return out

        for k in (3, 8, 12):
            a, b = _rand(rng, 5 * k, k).reshape(5, k, k), _rand(rng, 5 * k, 1).reshape(5, k, 1)
            a[3, :, 1] = 0.0
            calls.clear()
            monkeypatch.setattr(np.linalg, "solve", spy)
            x, mask = _solve_rows(a, b)
            monkeypatch.undo()
            assert calls == [(5, True), (4, False)]
            assert mask.tolist() == [False, False, False, True, False]
            assert (x[3] == 0).all()
            for i in (0, 1, 2, 4):
                assert np.array_equal(x[i], np.linalg.solve(a[i : i + 1], b[i : i + 1])[0])

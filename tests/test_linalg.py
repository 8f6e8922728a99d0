import numpy as np
import pytest

import qteig as q
from qteig.errors import InvalidInputError, SingularMatrixError
from qteig.linalg import eig_dense, lu_solve, qr_rank_revealing, roots_companion

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

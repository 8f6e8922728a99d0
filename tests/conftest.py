"""Shared fixtures: the worked operators used across the suite.

fix_a is the rank-one-corrected tridiagonal operator with the known
eigenpair (0, (2**-i)); the remaining fixtures are the banded test
operators whose eigenvalue tables back the acceptance suite.
"""

import numpy as np
import pytest

import qteig as q
from qteig.poly import _graeffe_rows


@pytest.fixture(scope="session")
def fix_a():
    return q.qt_new([5, -2], [5, -2], [(1, 1, -4)])


@pytest.fixture(scope="session")
def fix_b_symbol():
    # bandwidth (3, 2) symbol shared by the first test family
    return q.LaurentSymbol(neg=(0, -1, 1, -1), pos=(0, -1, -1))


@pytest.fixture(scope="session")
def test1_case1():
    # 20 x 100 correction, last column 1..20
    return q.qt_new(
        [0, -1, 1, -1], [0, -1, -1], [(i, 100, i) for i in range(1, 21)]
    )


@pytest.fixture(scope="session")
def test1_case2():
    # 3 x 100 correction, last column 8*(1, 2, 3)
    return q.qt_new(
        [0, -1, 1, -1], [0, -1, -1], [(i, 100, 8 * i) for i in range(1, 4)]
    )


@pytest.fixture(scope="session")
def test2_case1():
    # bandwidth (7, 2) symbol with the same 20 x 100 correction
    return q.qt_new(
        [0, -1, 1, -1, 0, 0, 0, 1], [0, -1, -1], [(i, 100, i) for i in range(1, 21)]
    )


@pytest.fixture(scope="session")
def test3():
    # z**-10 ((0.1 + z)**3 + 10 z**12) with a tiny shifted-identity correction;
    # the cubic factor has a tight root cluster near -0.1
    return q.qt_new(
        [0, 0, 0, 0, 0, 0, 0, 1.0, 0.3, 0.03, 0.001],
        [0, 0, 10.0],
        [(i, 12 + i, 1e-5) for i in range(1, 13)],
    )


@pytest.fixture(scope="session")
def fig2_symbol():
    # 3 z**-3 - 2 z**-2 + z**-1 - z - 4 z**2 - 3 z**3
    return q.LaurentSymbol(neg=(0, 1, -2, 3), pos=(0, -1, -4, -3))


def poly_from_roots(roots) -> q.Poly:
    acc = np.array([1.0 + 0j])
    for r in roots:
        acc = np.convolve(acc, np.array([-r, 1.0 + 0j]))
    return q.Poly(tuple(acc))


def square_roots(b: q.Poly) -> q.Poly:
    """One root-squaring step of the winding count on the coefficients of
    b, as a Poly, so a leading coefficient that underflows is trimmed."""
    return q.Poly(tuple(_graeffe_rows(np.asarray(b.coeffs)[None, :])[0]))


def squarings(b: q.Poly):
    """The root-squaring iterates of b, one step at a time, each with the
    margin by which its 1-norm must fall below 2 to settle the count:
    d * 2**nu * sqrt(eps) at step nu, until that margin reaches 1."""
    margin = b.degree * np.sqrt(np.finfo(float).eps)
    while 2 * margin < 1:
        margin *= 2
        b = square_roots(b)
        yield b, margin


def random_symbol(rng, max_m=5, max_n=5) -> q.LaurentSymbol:
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    coeffs = rng.standard_normal(m + n + 1) + 1j * rng.standard_normal(m + n + 1)
    while coeffs[0] == 0 or coeffs[-1] == 0:  # pragma: no cover
        coeffs = rng.standard_normal(m + n + 1) + 1j * rng.standard_normal(m + n + 1)
    a0 = coeffs[m]
    neg = (a0,) + tuple(coeffs[m - 1 :: -1])
    pos = tuple(coeffs[m:])
    return q.LaurentSymbol(neg=neg, pos=pos)

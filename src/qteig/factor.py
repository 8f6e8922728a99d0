"""Splitting z**m (a(z) - lam) into a monic factor with roots inside the
unit disk times a factor with roots outside, with shift derivatives.

The roots are split at the unit circle in ``poly._split_rows``, and the
p roots inside the disk build the factors here.  The inside factor s
drives everything downstream: its companion matrix F gives G = F**p
through the triangular Toeplitz identity G = -L^{-1} U (first column
of L is (s_p, ..., s_1), first row of U is (s_0, ..., s_{p-1})), and
the derivatives of the factor coefficients with respect to the shift
come from one resultant-style linear system.

Every Toeplitz matrix here is one gather through a cached index
(``_conv_matrix``), and every unit lower triangular Toeplitz system,
the long division for the outside factor included, goes through the
one forward substitution ``_solve_unit_lower``; the division's
residual s u comes from ``poly._convolve_rows``.  Each kernel takes a
stack with a leading batch axis, one row per shift (``_factor_rows``,
``_g_rows``); ``wiener_hopf`` and ``barnett_g`` are batches of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationUnstableError, InvalidInputError
from .linalg import _solve_rows
from .poly import LaurentSymbol, Poly, _convolve_rows, _row_sums, char_poly, inside_roots

# Relative 1-norm bound on the deconvolution residual.
DECONV_TOL = 1e-6


@dataclass(frozen=True)
class WienerHopfFactors:
    """Factors s (monic, roots inside the disk) and u (roots outside),
    with the derivatives of their lower coefficients with respect to
    the shift.  s has degree p, u has degree m + n - p, and the product
    s * u reconstructs z**m (a(z) - lam)."""

    s: Poly
    u: Poly
    s_prime: tuple
    u_prime: tuple

    @property
    def p(self) -> int:
        return self.s.degree


def _monic_rows(roots: np.ndarray) -> np.ndarray:
    """Coefficients (ascending) of the monic products over the rows of a
    (n, p) root array."""
    # roots come in inside_roots' order of increasing modulus, which
    # limits cancellation in the small coefficients
    acc = np.ones((roots.shape[0], 1), dtype=complex)
    for k in range(roots.shape[1]):
        nxt = np.zeros((acc.shape[0], k + 2), dtype=complex)
        nxt[:, :-1] = acc * -roots[:, k, None]
        nxt[:, 1:] += acc
        acc = nxt
    return acc


def _deconv_rows(b: np.ndarray, s: np.ndarray) -> tuple:
    """Quotients u = b / s by descending-coefficient long division, row by
    row, plus the 1-norm of each reconstruction residual b - s u.

    Division starts from the leading coefficient: with every root of s
    inside the unit disk, rounding errors injected at step k are damped
    by root powers on the way down, whereas the ascending direction
    amplifies them like the reciprocal roots.  In reversed coefficient
    order the division is forward substitution with the unit lower
    triangular Toeplitz matrix of the reversed monic s.
    """
    size = b.shape[1] - s.shape[1] + 1
    lower = _conv_matrix(s[:, ::-1], size, size)
    u = _solve_unit_lower(lower, b[:, ::-1][:, :size, None])[:, ::-1, 0]
    return u, _row_sums(np.abs(b - _convolve_rows(s, u)))


@functools.lru_cache(maxsize=64)
def _shift_index(rows: int, cols: int) -> np.ndarray:
    """Read-only (rows, cols) array with entry cols + i - j."""
    idx = np.subtract.outer(np.arange(rows), np.arange(cols)) + cols
    idx.setflags(write=False)
    return idx


def _conv_matrix(w: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """For each row of w, (n, k), the banded matrix whose column j is that
    row shifted down by j: a (n, rows, cols) stack."""
    # entry (i, j) is w[i - j], or 0 outside w: index w with cols zeros
    # in front and zeros behind
    padded = np.zeros((w.shape[0], cols + rows), dtype=complex)
    top = min(w.shape[1], rows)
    padded[:, cols : cols + top] = w[:, :top]
    # C order whatever the batch size: matmul's rounding follows the layout
    return np.take(padded, _shift_index(rows, cols), axis=1)


def _derivative_rows(sym: LaurentSymbol, s: np.ndarray, u: np.ndarray) -> tuple:
    """Solve the resultant-style systems for d s_i / d lam and d u_i / d lam.

    Differentiating s(z) u(z) = z**m (a(z) - lam) and using that the
    leading coefficients s_p = 1 and u_{m+n-p} = a_n do not move gives
    a square (m+n) x (m+n) system per row with right-hand side -e_{m+1}.
    Returns (ds, du, singular).
    """
    rows = sym.m + sym.n
    p = s.shape[1] - 1
    system = np.concatenate(
        [_conv_matrix(u, rows, p), _conv_matrix(s, rows, u.shape[1] - 1)], axis=2
    )
    rhs = np.zeros((s.shape[0], rows, 1), dtype=complex)
    rhs[:, sym.m] = -1.0
    x, singular = _solve_rows(system, rhs)
    return x[:, :p, 0], x[:, p:, 0], singular


def _factor_rows(sym: LaurentSymbol, b: np.ndarray, inside: np.ndarray) -> tuple:
    """The factorization of each row of the coefficient array b (n, d+1)
    over its inside roots (n, p), p >= 1: the coefficient arrays s, u and
    their derivatives ds, du, and the mask of the rows where it broke
    down (a division residual above DECONV_TOL times the 1-norm of b, or
    a singular derivative system)."""
    s = _monic_rows(inside)
    u, resid = _deconv_rows(b, s)
    ds, du, singular = _derivative_rows(sym, s, u)
    return s, u, ds, du, singular | (resid > DECONV_TOL * _row_sums(np.abs(b)))


def wiener_hopf(sym: LaurentSymbol, lam: complex) -> WienerHopfFactors:
    """Factor z**m (a(z) - lam) = s(z) u(z) and attach shift derivatives.

    s is the monic product over ``inside_roots(sym, lam)``, which raises
    OnCurveError for a shift on the curve; u comes from descending long
    division.  A breakdown (``_factor_rows``) raises
    FactorizationUnstableError.  An empty inside factor (p = 0) returns
    s = 1, u = z**m (a(z) - lam), and no derivatives.  A batch of one of
    ``_factor_rows``.
    """
    inside = inside_roots(sym, lam)
    b = char_poly(sym, lam)
    if not inside:
        return WienerHopfFactors(s=Poly((1.0,)), u=b, s_prime=(), u_prime=())
    s, u, ds, du, broken = _factor_rows(
        sym, np.asarray(b.coeffs)[None], np.asarray(inside)[None]
    )
    if broken[0]:
        raise FactorizationUnstableError(
            f"factorization broke down at shift {lam}: division residual above "
            f"{DECONV_TOL:g} * |b|_1 or singular derivative system"
        )
    return WienerHopfFactors(
        s=Poly(tuple(s[0])), u=Poly(tuple(u[0])), s_prime=tuple(ds[0]), u_prime=tuple(du[0])
    )


def _lower_toeplitz(first_col: np.ndarray) -> np.ndarray:
    return _conv_matrix(first_col, first_col.shape[-1], first_col.shape[-1])


def _upper_toeplitz(first_row: np.ndarray) -> np.ndarray:
    return _lower_toeplitz(first_row).swapaxes(1, 2).copy()


def _solve_unit_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution with a stack of unit-diagonal lower triangular
    matrices (n, k, k) on right-hand sides (n, k, c)."""
    x = rhs.astype(complex, order="C")
    for i in range(1, x.shape[1]):
        x[:, i] -= (lower[:, i : i + 1, :i] @ x[:, :i])[:, 0]
    return x


def _check_monic(s: Poly) -> np.ndarray:
    coeffs = np.asarray(s.coeffs)
    if s.degree < 1 or abs(coeffs[-1] - 1.0) > 1e-12:
        raise InvalidInputError("expected a monic factor of degree >= 1")
    return coeffs


def _linv_u(coeffs: np.ndarray) -> tuple:
    """L and L^{-1} U for each row of monic coefficients (s_0, ..., s_p)."""
    p = coeffs.shape[1] - 1
    lower = _lower_toeplitz(coeffs[:, 1:][:, ::-1])  # first column (s_p, ..., s_1)
    upper = _upper_toeplitz(coeffs[:, :p])  # first row (s_0, ..., s_{p-1})
    return lower, _solve_unit_lower(lower, upper)


def barnett_g(s: Poly) -> np.ndarray:
    """G = F**p for the companion matrix F of the monic factor s, computed
    as -L^{-1} U with triangular Toeplitz L (unit diagonal) and U; only
    triangular solves, no inverse is formed.  The first row of -G
    reproduces (s_0, ..., s_{p-1})."""
    return -_linv_u(_check_monic(s)[None])[1][0]


def _g_rows(s: np.ndarray, ds: np.ndarray) -> tuple:
    """(G, G') for each row of monic coefficients s (n, p+1) and their
    derivatives ds (n, p): G = F**p and its shift derivative
    -L^{-1} U' + L^{-1} L' L^{-1} U, sharing L and L^{-1} U; the primed
    triangular Toeplitz factors are built from s_0', ..., s_{p-1}' and s_p' = 0."""
    lower, linv_u = _linv_u(s)
    dl_col = np.concatenate([np.zeros((ds.shape[0], 1)), ds[:, 1:][:, ::-1]], axis=1)
    g_prime = _solve_unit_lower(lower, _lower_toeplitz(dl_col) @ linv_u - _upper_toeplitz(ds))
    return -linv_u, g_prime

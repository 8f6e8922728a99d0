"""Splitting z**m (a(z) - lam) into a monic factor with roots inside the
unit disk times a factor with roots outside, with shift derivatives.

The roots are split at the unit circle in ``poly._split``, and the p
roots inside the disk build the factors here.  The inside factor s
drives everything downstream: its companion matrix F gives G = F**p
through the triangular Toeplitz identity G = -L^{-1} U (first column
of L is (s_p, ..., s_1), first row of U is (s_0, ..., s_{p-1})), and
the derivatives of the factor coefficients with respect to the shift
come from one resultant-style linear system.

Every Toeplitz matrix here is one gather through a cached index
(``_conv_matrix``), and every unit lower triangular Toeplitz system,
the long division for the outside factor included, goes through the
one forward substitution ``_solve_unit_lower``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationUnstableError, InvalidInputError
from .linalg import lu_solve
from .poly import LaurentSymbol, Poly, _split, char_poly

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


def _monic_from_roots(roots) -> Poly:
    # roots come in inside_roots' order of increasing modulus, which
    # limits cancellation in the small coefficients
    acc = np.array([1.0 + 0j])
    for r in roots:
        acc = np.convolve(acc, np.array([-r, 1.0 + 0j]))
    return Poly(tuple(acc))


def _deconv_descending(b: Poly, s: Poly) -> tuple:
    """Quotient u = b / s by descending-coefficient long division, plus the
    1-norm of the reconstruction residual b - s u.

    Division starts from the leading coefficient: with every root of s
    inside the unit disk, rounding errors injected at step k are damped
    by root powers on the way down, whereas the ascending direction
    amplifies them like the reciprocal roots.  In reversed coefficient
    order the division is forward substitution with the unit lower
    triangular Toeplitz matrix of the reversed monic s.
    """
    bb = np.asarray(b.coeffs)
    ss = np.asarray(s.coeffs)
    size = b.degree - s.degree + 1
    lower = _conv_matrix(ss[::-1], size, size)
    u = _solve_unit_lower(lower, bb[::-1][:size])[::-1]
    resid = float(np.abs(bb - np.convolve(ss, u)).sum())
    return Poly(tuple(u)), resid


@functools.lru_cache(maxsize=64)
def _shift_index(rows: int, cols: int) -> np.ndarray:
    """Read-only (rows, cols) array with entry cols + i - j."""
    idx = np.subtract.outer(np.arange(rows), np.arange(cols)) + cols
    idx.setflags(write=False)
    return idx


def _conv_matrix(w: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Banded matrix whose column j is w shifted down by j."""
    # entry (i, j) is w[i - j], or 0 outside w: index w with cols zeros
    # in front and zeros behind
    padded = np.zeros(cols + rows, dtype=complex)
    top = min(w.size, rows)
    padded[cols : cols + top] = w[:top]
    return padded[_shift_index(rows, cols)]


def _factor_derivatives(sym: LaurentSymbol, s: Poly, u: Poly) -> tuple:
    """Solve the resultant-style system for d s_i / d lam and d u_i / d lam.

    Differentiating s(z) u(z) = z**m (a(z) - lam) and using that the
    leading coefficients s_p = 1 and u_{m+n-p} = a_n do not move gives
    a square (m+n) x (m+n) system with right-hand side -e_{m+1}.
    """
    m, n = sym.m, sym.n
    p = s.degree
    phat = u.degree
    rows = m + n
    cu = _conv_matrix(np.asarray(u.coeffs), rows, p)
    cs = _conv_matrix(np.asarray(s.coeffs), rows, phat)
    system = np.hstack([cu, cs])
    rhs = np.zeros(rows, dtype=complex)
    rhs[m] = -1.0
    x = lu_solve(system, rhs)
    return tuple(x[:p]), tuple(x[p:])


def wiener_hopf(sym: LaurentSymbol, lam: complex, inside=None, b=None) -> WienerHopfFactors:
    """Factor z**m (a(z) - lam) = s(z) u(z) and attach shift derivatives.

    s is the monic product over the inside roots, ``inside_roots(sym,
    lam)`` unless the caller has already computed them and passes them
    as ``inside``; u comes from descending long division of b, which is
    ``char_poly(sym, lam)`` unless the caller passes it.  The split
    raises OnCurveError for a shift on the curve; a division residual
    above DECONV_TOL times the 1-norm raises FactorizationUnstableError.
    An empty inside factor (p = 0) returns s = 1, u = z**m (a(z) - lam),
    and no derivatives.
    """
    if b is None:
        b = char_poly(sym, lam)
    if inside is None:
        inside = _split(b, lam)
    if not inside:
        return WienerHopfFactors(s=Poly((1.0,)), u=b, s_prime=(), u_prime=())
    s = _monic_from_roots(inside)
    u, resid = _deconv_descending(b, s)
    if resid > DECONV_TOL * b.norm1():
        raise FactorizationUnstableError(
            f"division residual {resid:.3e} exceeds {DECONV_TOL:g} * |b|_1"
        )
    s_prime, u_prime = _factor_derivatives(sym, s, u)
    return WienerHopfFactors(s=s, u=u, s_prime=s_prime, u_prime=u_prime)


def _lower_toeplitz(first_col: np.ndarray) -> np.ndarray:
    return _conv_matrix(first_col, first_col.size, first_col.size)


def _upper_toeplitz(first_row: np.ndarray) -> np.ndarray:
    return _lower_toeplitz(first_row).T.copy()


def _solve_unit_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution with a unit-diagonal lower triangular matrix."""
    x = rhs.astype(complex)
    for i in range(1, x.shape[0]):
        x[i] -= lower[i, :i] @ x[:i]
    return x


def _check_monic(s: Poly) -> np.ndarray:
    coeffs = np.asarray(s.coeffs)
    if s.degree < 1 or abs(coeffs[-1] - 1.0) > 1e-12:
        raise InvalidInputError("expected a monic factor of degree >= 1")
    return coeffs


def _linv_u(coeffs: np.ndarray) -> tuple:
    """L and L^{-1} U for the monic coefficients (s_0, ..., s_p)."""
    p = coeffs.size - 1
    lower = _lower_toeplitz(coeffs[1:][::-1])  # first column (s_p, ..., s_1)
    upper = _upper_toeplitz(coeffs[:p])  # first row (s_0, ..., s_{p-1})
    return lower, _solve_unit_lower(lower, upper)


def barnett_g(s: Poly) -> np.ndarray:
    """G = F**p for the companion matrix F of the monic factor s, computed
    as -L^{-1} U with triangular Toeplitz L (unit diagonal) and U; only
    triangular solves, no inverse is formed.  The first row of -G
    reproduces (s_0, ..., s_{p-1})."""
    return -_linv_u(_check_monic(s))[1]


def _g_pair(s: Poly, s_prime) -> tuple:
    """(G, G'): G = F**p and its shift derivative
    -L^{-1} U' + L^{-1} L' L^{-1} U, sharing L and L^{-1} U; the primed
    triangular Toeplitz factors are built from s_0', ..., s_{p-1}' and s_p' = 0."""
    coeffs = _check_monic(s)
    p = s.degree
    ds = np.asarray(tuple(s_prime), dtype=complex)
    if ds.size != p:
        raise InvalidInputError(f"expected {p} coefficient derivatives, got {ds.size}")
    lower, linv_u = _linv_u(coeffs)
    dl_col = np.concatenate([[0.0 + 0j], ds[1:][::-1]])  # (s_p', s_{p-1}', ..., s_1')
    d_lower = _lower_toeplitz(dl_col)
    d_upper = _upper_toeplitz(ds)
    g_prime = _solve_unit_lower(lower, d_lower @ linv_u - d_upper)
    return -linv_u, g_prime

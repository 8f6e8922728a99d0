"""Laurent symbols, dense polynomials, and unit-disk root counting.

The root counter squares the roots of a polynomial repeatedly (the even
part of b(z)*b(-z)) until a single coefficient dominates the 1-norm of
the rest; the index of that coefficient is the number of roots strictly
inside the unit circle, certified without computing any root.  When
roots hug the circle the squaring never separates them and an explicit
companion-matrix rootfinder takes over; a root within SPLIT_BAND of the
circle puts the shift on the symbol curve, the same threshold at which
``factor`` refuses to split the roots for a Newton step.

The squaring runs on the rows of a (polynomials, degree+1) coefficient
array, so that a raster counts all its cells at once; ``count_inside``,
``graeffe_step`` and ``winding`` are batches of one on the same kernel.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InconsistentConstantError,
    InvalidSymbolError,
    OnCurveError,
)

# Number of root squarings before giving up: coefficient dynamic range
# grows doubly exponentially, so double precision is exhausted well
# before 30 steps.
GRAEFFE_MAXIT = 30

# A root whose modulus is within this distance of 1 sits on the symbol
# curve: the inside/outside split of the Newton step and the fallback of
# the root count both flag such a shift as on the curve.
SPLIT_BAND = 1e-10


def _complex_tuple(values) -> tuple:
    return tuple(complex(v) for v in values)


@dataclass(frozen=True)
class LaurentSymbol:
    """Coefficients of a banded two-sided symbol sum(a_i z^i, -m <= i <= n).

    ``neg`` holds (a_0, a_-1, ..., a_-m) and ``pos`` holds
    (a_0, a_1, ..., a_n); the constant term is stored in both halves.
    Requires m, n >= 1 and nonzero trailing coefficients a_-m, a_n.
    """

    neg: tuple
    pos: tuple

    def __post_init__(self):
        neg = _complex_tuple(self.neg)
        pos = _complex_tuple(self.pos)
        object.__setattr__(self, "neg", neg)
        object.__setattr__(self, "pos", pos)
        if len(neg) < 2 or len(pos) < 2:
            raise InvalidSymbolError("need at least m >= 1 and n >= 1 coefficients")
        if not all(cmath.isfinite(c) for c in neg + pos):
            raise InvalidSymbolError("coefficients must be finite")
        if neg[0] != pos[0]:
            raise InconsistentConstantError(
                "constant coefficient differs between neg and pos"
            )
        if neg[-1] == 0:
            raise InvalidSymbolError("trailing coefficient a_-m must be nonzero")
        if pos[-1] == 0:
            raise InvalidSymbolError("trailing coefficient a_n must be nonzero")

    @property
    def m(self) -> int:
        return len(self.neg) - 1

    @property
    def n(self) -> int:
        return len(self.pos) - 1

    def coeff(self, j: int) -> complex:
        """The coefficient a_j, zero outside the band."""
        if j >= 0:
            return self.pos[j] if j <= self.n else 0j
        return self.neg[-j] if -j <= self.m else 0j

    def coeffs(self) -> np.ndarray:
        """All coefficients a_-m .. a_n in ascending power order."""
        return np.array(tuple(reversed(self.neg)) + self.pos[1:], dtype=complex)


@dataclass(frozen=True)
class Poly:
    """A dense polynomial, coefficients in ascending power order.

    Trailing exact zeros are trimmed so that the leading coefficient is
    nonzero unless the polynomial is identically zero (empty coeffs,
    degree -1).
    """

    coeffs: tuple

    def __post_init__(self):
        c = _complex_tuple(self.coeffs)
        end = len(c)
        while end > 0 and c[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", c[:end])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def norm1(self) -> float:
        return float(sum(abs(c) for c in self.coeffs))


def char_poly(sym: LaurentSymbol, lam: complex) -> Poly:
    """The degree m+n polynomial z**m * (a(z) - lam).

    Its roots inside the unit disk span the decaying solutions of the
    three-term-style recurrence attached to the shifted operator.
    """
    c = sym.coeffs()
    c[sym.m] -= lam
    return Poly(tuple(c))


def convolve(p: Poly, q: Poly) -> Poly:
    """Coefficient convolution, i.e. the product polynomial."""
    if p.is_zero or q.is_zero:
        return Poly(())
    a = np.asarray(p.coeffs)
    b = np.asarray(q.coeffs)
    return Poly(tuple(np.convolve(a, b)))


@dataclass(frozen=True)
class RootCount:
    """Outcome of counting roots inside the unit disk.

    ``roots`` carries the explicitly computed roots when the fallback
    rootfinder ran, so callers can inspect proximity to the circle.
    """

    count: int
    iterations_used: int
    fallback_used: bool
    roots: tuple | None = None


def graeffe_step(b: Poly) -> Poly:
    """One root-squaring step: the even part of b(z)*b(-z), scaled so its
    first maximum-modulus coefficient becomes 1.

    The roots of the output are the squares of the roots of the input;
    the degree is preserved in exact arithmetic.
    """
    if b.is_zero:
        raise DomainError("cannot square the roots of the zero polynomial")
    return Poly(tuple(_graeffe_rows(np.asarray(b.coeffs)[None, :])[0]))


def _graeffe_rows(c: np.ndarray) -> np.ndarray:
    """graeffe_step on every row of a (rows, degree+1) coefficient array.

    Each row is first scaled by the power of two that brings its largest
    modulus into [0.5, 1): exact, and the squaring neither underflows
    nor overflows on rows of tiny or huge coefficients.  Each product
    and sum is formed in a fixed order per row, so a row's result does
    not depend on the other rows, and a trailing exact zero (an
    underflowed leading coefficient, which Poly trims) only adds exact
    zeros: the iterates equal those of the trimmed row.
    """
    rows, width = c.shape
    _, exp = np.frexp(np.abs(c).max(axis=1, keepdims=True))
    c = _ldexp(c, -exp)
    alt = c.copy()
    alt[:, 1::2] = -alt[:, 1::2]
    full = np.zeros((rows, 2 * width - 1), dtype=complex)
    for j in range(width):
        full[:, j : j + width] += c[:, j, None] * alt
    even = full[:, 0::2]
    pivot = even[np.arange(rows), np.argmax(np.abs(even), axis=1)]
    return even / pivot[:, None]


def _ldexp(c: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """c * 2**exp for a complex array, exact unless it underflows: numpy's
    ldexp takes real arrays only."""
    out = np.empty(np.broadcast_shapes(c.shape, exp.shape), dtype=complex)
    out.real = np.ldexp(c.real, exp)
    out.imag = np.ldexp(c.imag, exp)
    return out


def _count_rows(c: np.ndarray) -> tuple:
    """The root-squaring count of ``count_inside`` on every row of a
    (rows, degree+1) coefficient array whose last column is nonzero.

    Returns (count, iterations_used) integer arrays; count is -1 for the
    rows that did not settle within GRAEFFE_MAXIT steps, which need
    explicit roots.  Settled rows leave the iteration.
    """
    rows, width = c.shape
    count = np.full(rows, -1, dtype=np.int64)
    used = np.full(rows, GRAEFFE_MAXIT, dtype=np.int64)
    live = np.arange(rows)
    ck = c
    for nu in range(1, GRAEFFE_MAXIT + 1):
        ck = _graeffe_rows(ck)
        mags = np.abs(ck)
        total = mags[:, 0].copy()
        for j in range(1, width):  # summed in a fixed order, see _graeffe_rows
            total += mags[:, j]
        done = total < 2.0
        if done.any():
            count[live[done]] = np.argmax(mags[done], axis=1)
            used[live[done]] = nu
            live = live[~done]
            ck = ck[~done]
            if not live.size:
                break
    return count, used


def count_inside(b: Poly) -> RootCount:
    """Number of roots of b strictly inside the unit disk.

    Runs the root-squaring iteration until one coefficient holds more
    than half of the 1-norm, which certifies the count.  If that never
    happens within GRAEFFE_MAXIT steps (roots on or hugging the circle),
    falls back to explicit companion-matrix rootfinding on the original
    polynomial and reports the computed roots.
    """
    if b.is_zero:
        raise DomainError("root count of the zero polynomial is undefined")
    count, used = _count_rows(np.asarray(b.coeffs)[None, :])
    if count[0] >= 0:
        return RootCount(count=int(count[0]), iterations_used=int(used[0]), fallback_used=False)
    from .linalg import roots_companion  # deferred: linalg depends on this module

    roots = tuple(roots_companion(b)) if b.degree >= 1 else ()
    count = sum(1 for r in roots if abs(r) < 1.0)
    return RootCount(count=count, iterations_used=GRAEFFE_MAXIT, fallback_used=True, roots=roots)


def winding(sym: LaurentSymbol, lam: complex) -> int:
    """Winding number of the symbol curve around ``lam``.

    Equals the number of roots of a(z) - lam inside the unit disk minus
    m.  Raises OnCurveError when the count falls back to explicit roots
    and one of them sits within SPLIT_BAND of the unit circle.
    """
    rc = count_inside(char_poly(sym, lam))
    if rc.fallback_used and rc.roots:
        if any(abs(abs(r) - 1.0) <= SPLIT_BAND for r in rc.roots):
            raise OnCurveError(f"shift {lam} lies numerically on the symbol curve")
    return rc.count - sym.m

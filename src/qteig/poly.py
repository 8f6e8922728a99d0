"""Laurent symbols, dense polynomials, and the split of roots at the
unit circle.

The split is decided in one place, ``_split_rows``: for each row of a
stack of polynomials z**m (a(z) - lam), the roots that lie inside the
unit disk, and whether a root is within SPLIT_BAND of the circle (on
the curve).  Their count p = m + winding sizes the reduced problem, and
the same roots build the factors in ``factor`` and the root-power basis
in ``nep``.  For a Newton pass after the first, the roots are the
previous pass's roots polished by one batched Aberth kernel
(``_aberth_rows``), with each root freezing on its own; the companion
eigensolve takes a run's first pass, the low-degree rows and the rows
the polish does not settle.  ``_split_rows`` alone makes that choice,
and it decides nothing else: whether the count changed along a run is
the Newton driver's question.

The winding number needs only the count, which root squaring certifies
without computing any root: square the roots repeatedly (the even part
of b(z)*b(-z)) until a single coefficient dominates the 1-norm of the
rest by more than rounding can make up (``_count_rows``); the index of
that coefficient is the number of roots strictly inside the unit
circle.  One kernel, ``_count_rows``, counts every row of a
(polynomials, degree+1) coefficient array; the rows it does not settle
(roots on or hugging the circle) take their count from ``_split_rows``,
whose SPLIT_BAND alone puts a shift on the curve.  It serves
``winding`` and ``count_inside``, batches of one of it, and the cells
of the winding raster that lie near the sampled curve (the others take
the sampled polygon's crossings, ``solver.winding_map``); ``inside_roots``
is a batch of one of the split.
The products b(z)*b(-z) here and the factorization's s*u share one
batched kernel, ``_convolve_rows``; ``convolve`` is a batch of one of it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InconsistentConstantError,
    InvalidSymbolError,
    OnCurveError,
)
from .linalg import _companion_roots, _ldexp

# A root whose modulus is within this distance of 1 sits on the symbol
# curve: ``_split_rows`` flags such a shift as on the curve.
SPLIT_BAND = 1e-10

# ``_split_rows`` polishes a row from the previous pass's roots only at
# degree ABERTH_MIN_DEGREE and above, and keeps the polish only when it
# settles within ABERTH_MAXIT passes.  Over the row counts of the
# clustered-root fixture's 40 passes, random rows polished from roots
# 1e-4 away take 16 / 15 / 30 ms at degree 3 / 4 / 9 against the
# eigensolve's 13 / 20 / 86 ms.
ABERTH_MIN_DEGREE = 4
ABERTH_MAXIT = 30


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

    def terms(self) -> tuple:
        """The nonzero terms (j, a_j), j ascending from -m to n."""
        ascending = tuple(reversed(self.neg)) + self.pos[1:]
        return tuple((j, c) for j, c in enumerate(ascending, -self.m) if c)


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


def _char_rows(sym: LaurentSymbol, lam: np.ndarray) -> np.ndarray:
    """The coefficient rows of z**m (a(z) - lam), ascending powers, for
    a 1-D array of shifts: (lam.size, m+n+1), last column a_n != 0."""
    c = np.repeat(sym.coeffs()[None, :], lam.size, axis=0)
    with np.errstate(over="ignore"):  # the rootfinders refuse a non-finite coefficient
        c[:, sym.m] -= lam
    return c


def char_poly(sym: LaurentSymbol, lam: complex) -> Poly:
    """The degree m+n polynomial z**m * (a(z) - lam).

    Its roots inside the unit disk span the decaying solutions of the
    three-term-style recurrence attached to the shifted operator.
    """
    return Poly(tuple(_char_rows(sym, np.array([complex(lam)]))[0]))


def _convolve_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product of the polynomials in each row of x (n, a) and y (n, b),
    ascending coefficients: (n, a+b-1).  Term j of x enters in order of j,
    so a row's result does not depend on the other rows."""
    out = np.zeros((x.shape[0], x.shape[1] + y.shape[1] - 1), dtype=complex)
    for j in range(x.shape[1]):
        out[:, j : j + y.shape[1]] += x[:, j, None] * y
    return out


def convolve(p: Poly, q: Poly) -> Poly:
    """Coefficient convolution, i.e. the product polynomial: a batch of
    one of ``_convolve_rows``."""
    if p.is_zero or q.is_zero:
        return Poly(())
    x, y = (np.asarray(f.coeffs)[None] for f in (p, q))
    return Poly(tuple(_convolve_rows(x, y)[0]))


def inside_roots(sym: LaurentSymbol, lam: complex) -> tuple:
    """Roots of z**m (a(z) - lam) inside the unit disk, sorted by modulus
    then argument; there are p = m + winding(sym, lam) of them.

    Raises OnCurveError when any root has modulus within SPLIT_BAND of 1,
    where the split is undefined.
    """
    roots, p, on_curve = _split_rows(_char_rows(sym, np.array([complex(lam)])))
    if on_curve[0]:
        raise OnCurveError(
            f"root of modulus within {SPLIT_BAND:g} of the unit circle at shift {lam}"
        )
    return tuple(roots[0, : p[0]].tolist())


def _aberth_rows(c: np.ndarray, z: np.ndarray) -> tuple:
    """Aberth–Ehrlich iteration on every row of a (n, d+1) coefficient
    array, ascending powers, last column nonzero, from the warm roots z
    (n, d) (Bini, Numer. Algorithms 13, 1996).

    Each root moves by N / (1 - N * sum_j 1/(z - z_j)), N = p(z)/p'(z),
    until its backward error |p(z)| / sum |c_k| |z|**k falls below
    4 d eps; it takes that step too and then freezes, while the others
    go on.  Freezing at the test itself leaves the clustered-root
    fixture's triple near -0.1 too rough: its start 5.45+4.79i then ends
    max_iterations instead of isolated_pq in 8 steps.  p(z), on which
    the roots' accuracy rests, is evaluated by Horner's rule; p'(z) and
    the bound, which only shape the step and the test, are stacked
    ``matmul`` products of the powers z**0 .. z**d with the
    coefficients, fewer numpy calls on the small batches of a run's
    last steps.  Every operation is elementwise or a stacked
    ``matmul``, and a row leaves the iteration once all its roots froze,
    so a row's roots do not depend on the other rows.

    Returns (roots, settled): ``settled`` marks the rows whose roots all
    froze within ABERTH_MAXIT passes and are finite.
    """
    n, d = z.shape
    tol = 4 * d * np.finfo(float).eps
    dc = (c[:, 1:] * np.arange(1, d + 1))[:, :, None]  # the coefficients of p'
    absc = np.abs(c)[:, :, None]
    ones = np.ones((d, 1), dtype=complex)
    roots, active = z.copy(), np.ones(z.shape, dtype=bool)
    live, cl, zl, act = np.arange(n), c, roots.copy(), active.copy()
    with np.errstate(all="ignore"):  # coincident or wild roots end non-finite
        for _ in range(ABERTH_MAXIT):
            pw = np.empty(zl.shape + (d + 1,), dtype=complex)
            pw[:, :, 0] = 1.0
            pw[:, :, 1:] = zl[:, :, None]
            np.multiply.accumulate(pw[:, :, 1:], axis=2, out=pw[:, :, 1:])
            der = (pw[:, :, :d] @ dc)[:, :, 0]
            bound = (np.abs(pw) @ absc)[:, :, 0]
            val = np.repeat(cl[:, -1:], d, axis=1)
            for k in range(d - 1, -1, -1):
                val *= zl
                val += cl[:, k, None]
            diff = zl[:, :, None] - zl[:, None, :]
            diff.reshape(zl.shape[0], -1)[:, :: d + 1] = np.inf
            ratio = val / der
            step = ratio / (1.0 - ratio * ((1.0 / diff) @ ones)[:, :, 0])
            zl = np.where(act, zl - step, zl)
            act &= ~(np.abs(val) <= tol * bound)
            keep = act.any(axis=1) & np.isfinite(zl).all(axis=1)
            if not keep.all():  # rows leave with their last roots
                roots[live[~keep]], active[live[~keep]] = zl[~keep], act[~keep]
                live, cl, zl, act, dc, absc = (x[keep] for x in (live, cl, zl, act, dc, absc))
                if not live.size:
                    break
        roots[live], active[live] = zl, act
    return roots, ~active.any(axis=1) & np.isfinite(roots).all(axis=1)


def _split_rows(c: np.ndarray, warm=None) -> tuple:
    """The split at the unit circle of the roots of each row of a
    (n, d+1) coefficient array (``_char_rows``).

    With the previous pass's roots ``warm`` (n, d), a row's roots are
    polished from its warm roots (``_aberth_rows``).  The companion
    eigensolve takes the rows without warm roots (a run's first pass),
    the rows below degree ABERTH_MIN_DEGREE, and the rows the polish
    leaves unsettled or non-finite.  Nothing else sends a row back: on
    every warm row of ``eig_all`` on the seven-band and clustered-root
    fixtures (both bases, 4196 rows), the settled polish gave the
    eigensolve's inside count and on-curve flag.

    Returns (roots, p, on_curve): row i of ``roots`` holds its p[i]
    inside roots first, sorted by modulus then argument, and then the
    others; ``on_curve`` marks the rows with a root of modulus within
    SPLIT_BAND of 1, whose split is undefined.
    """
    d = c.shape[1] - 1
    roots = np.empty((c.shape[0], d), dtype=complex)
    cold = np.ones(c.shape[0], dtype=bool)
    if warm is not None and d >= ABERTH_MIN_DEGREE:
        roots, settled = _aberth_rows(c, warm)
        cold = ~settled
    if cold.any():
        roots[cold] = _companion_roots(c[cold])
    mod = np.abs(roots)
    on_curve = (np.abs(mod - 1.0) <= SPLIT_BAND).any(axis=1)
    inside = mod < 1.0
    order = np.lexsort((np.angle(roots), np.where(inside, mod, np.inf)), axis=-1)
    return np.take_along_axis(roots, order, axis=1), inside.sum(axis=1), on_curve


@dataclass(frozen=True)
class RootCount:
    """Outcome of counting roots inside the unit disk."""

    count: int
    fallback_used: bool


def _graeffe_rows(c: np.ndarray) -> np.ndarray:
    """One root-squaring step on every row of a (rows, degree+1)
    coefficient array: the even part of b(z)*b(-z), scaled so that its
    first maximum-modulus coefficient becomes 1.  The roots of a row of
    the output are the squares of the roots of the input row.

    Each row is first scaled by the power of two that brings its largest
    modulus into [0.5, 1): exact, and the squaring neither underflows
    nor overflows on rows of tiny or huge coefficients.  Each product
    and sum is formed in a fixed order per row, so a row's result does
    not depend on the other rows, and a trailing exact zero (an
    underflowed leading coefficient, which Poly trims) only adds exact
    zeros: the iterates equal those of the trimmed row.
    """
    _, exp = np.frexp(np.abs(c).max(axis=1, keepdims=True))
    c = _ldexp(c, -exp)
    alt = c.copy()
    alt[:, 1::2] = -alt[:, 1::2]
    even = _convolve_rows(c, alt)[:, 0::2]
    pivot = even[np.arange(c.shape[0]), np.argmax(np.abs(even), axis=1)]
    return even / pivot[:, None]


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums along the last axis, added in index order, so that a row's
    sum does not depend on the other rows (see ``_graeffe_rows``)."""
    total = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        total += x[..., j]
    return total


def _row_norms(x: np.ndarray) -> np.ndarray:
    """2-norms of the rows of a complex (n, L) array, each equal bit for
    bit to ``np.linalg.norm`` of the row: the squares are summed as it
    sums them, by dot products of the strided real and imaginary views
    (contiguous copies of the views are summed in another order)."""
    re, im = x.real[:, None, :], x.imag[:, None, :]
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


def _count_rows(c: np.ndarray) -> tuple:
    """The number of roots strictly inside the unit disk of every row of
    a (rows, d+1) coefficient array whose last column is nonzero.

    At squaring step nu a row settles when the 1-norm of its
    pivot-normalised coefficients is below 2 - d * 2**nu * sqrt(eps)
    (d >= 1): rounding splits a multiple root on the circle by about
    sqrt(eps), and each step doubles the split.  Once that margin
    reaches 1 no row can settle, as the pivot alone adds 1, and the rows
    left (roots on or hugging the circle) take their count from
    ``_split_rows``, all in one call.  The margin is no certificate for a
    cluster of three or more roots near the circle: the coefficients
    ``np.poly([0.999997] * 3 + [0.3])[::-1]`` settle 4, but the count is 2.

    Returns (count, fallback, on_curve): the counts, the rows counted by
    ``_split_rows``, and those of them with a root within SPLIT_BAND of
    the circle.  A non-finite coefficient raises ConvergenceError first.
    """
    if not np.isfinite(c).all():
        raise ConvergenceError("non-finite coefficient")
    rows = c.shape[0]
    count = np.zeros(rows, dtype=np.int64)
    live = np.arange(rows)
    ck = c
    margin = max(c.shape[1] - 1, 1) * np.sqrt(np.finfo(float).eps)
    while live.size and 2.0 * margin < 1.0:
        margin *= 2.0
        ck = _graeffe_rows(ck)
        mags = np.abs(ck)
        done = _row_sums(mags) < 2.0 - margin
        if done.any():
            count[live[done]] = np.argmax(mags[done], axis=1)
            live = live[~done]
            ck = ck[~done]
    fallback = np.zeros(rows, dtype=bool)
    on_curve = np.zeros(rows, dtype=bool)
    if live.size:
        fallback[live] = True
        _, count[live], on_curve[live] = _split_rows(c[live])
    return count, fallback, on_curve


def count_inside(b: Poly) -> RootCount:
    """Number of roots of b strictly inside the unit disk: a batch of one
    of ``_count_rows``.

    A count that root squaring does not certify comes from
    ``_split_rows``: a root near the circle counts on the side of its
    computed modulus, so this never raises for a shift on the curve.
    """
    if b.is_zero:
        raise DomainError("root count of the zero polynomial is undefined")
    count, fallback, _ = _count_rows(np.asarray(b.coeffs)[None, :])
    return RootCount(count=int(count[0]), fallback_used=bool(fallback[0]))


def winding(sym: LaurentSymbol, lam: complex) -> int:
    """Winding number of the symbol curve around ``lam``.

    Equals the number of roots of a(z) - lam inside the unit disk minus
    m.  Raises OnCurveError when root squaring does not certify the count
    and ``_split_rows`` puts the shift on the curve.
    """
    count, _, on_curve = _count_rows(_char_rows(sym, np.array([complex(lam)])))
    if on_curve[0]:
        raise OnCurveError(f"shift {lam} lies numerically on the symbol curve")
    return int(count[0]) - sym.m

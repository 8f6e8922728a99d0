"""Reduction of the operator eigenproblem to a finite nonlinear one.

The boundary rows of the shifted operator, applied to any decaying
solution of the interior recurrence, yield W V(lam) beta = 0 with a
constant full-rank matrix W and a shift-dependent basis V.  W is built
from the correction's entries alone; its width m + k2 comes from their
support, and its row count is the reduced equation count q.  Only its
first m columns and one column per distinct correction column can be
nonzero, so W is stored on those columns (``NEPContext.cols``) and the
Newton driver builds V only at those rows: W V is the product of the
two narrow matrices.  Two bases are supported: columns of powers of the
inside roots (Vandermonde) and block rows I, G, G**2, ... of powers of
G = F**p (Frobenius), each with its exact shift derivative.  Every row
of either basis is a row of powers, and one kernel builds them all
(``_power_rows``): binary powering of the roots elementwise or of G by
matmul, the derivative by the product rule, so a row far down costs
log of its index.  W's Toeplitz block comes from the same index gather
as the factorization's.
The Newton step 1 / trace(Phi^{-1} Phi') is taken on Phi and Phi'
scaled once each by powers of two (``equilibrate``), so it does not
depend on how the boundary equations are scaled.

Each kernel takes a stack with a leading batch axis, one row per shift
(``_vandermonde_rows``, ``_frobenius_rows``, ``_basis_values``,
``_newton_steps``; ``phi`` and ``equilibrate`` take either), and the
basis kernels take the ascending basis rows to build;
``basis_vandermonde``, ``basis_frobenius``, ``newton_correction`` and
``eigvec_prefix`` are batches of one, and the two bases are full-width:
all rows up to a count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ClusteredRootsError, DerivativeVanishesError, InvalidInputError
from .factor import WienerHopfFactors, _check_monic, _g_rows, _upper_toeplitz
from .linalg import _ldexp, _solve_rows, qr_rank_revealing
from .poly import LaurentSymbol, _row_sums, inside_roots
from .qt import QTMatrix

# Inside roots closer than this are too clustered for a root-power
# basis.  A backward-stable rootfinder splits an exact multiple root to
# a distance of roughly sqrt(unit roundoff), so the threshold sits well
# above that while still admitting merely ill-conditioned clusters.
ROOT_SEP_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class NEPContext:
    """The constant boundary matrix W, stored on its structurally nonzero
    columns ``cols`` (ascending): 0..m-1 and m - 1 + j for each distinct
    correction column j.  ``w[:, k]`` is column ``cols[k]`` of W; every
    other column of its m + k2 (``width``) is zero.  Its row count is
    the reduced equation count q = m + rank of the below-band correction
    rows."""

    w: np.ndarray
    cols: tuple

    @property
    def q(self) -> int:
        return self.w.shape[0]

    @property
    def width(self) -> int:
        return self.cols[-1] + 1

    @functools.cached_property
    def norm2(self) -> float:
        # W's zero columns add no singular value
        return np.linalg.norm(self.w, 2)


def build_w(a: QTMatrix) -> NEPContext:
    """Assemble W = [-B, E1; 0, R] from the symbol and the correction, on
    its nonzero columns.

    B is the m x m upper triangular Toeplitz of (a_-m, ..., a_-1); the
    entries in rows up to m (E1) enter shifted right by m columns.  The
    entries below are gathered on the rows and columns that hold them
    and compressed to their rank R by column-pivoted QR, whose rows
    land back on those columns; so q = m when k1 <= m.  Correction
    column j is column m - 1 + j of W, so the stored width is m plus the
    number of distinct correction columns, however far they reach.
    """
    sym = a.symbol
    m = sym.m
    top = [e for e in a.correction.entries if e[0] <= m]
    below = [e for e in a.correction.entries if e[0] > m]
    extra = sorted({j for _, j, _ in a.correction.entries})
    at = {j: m + k for k, j in enumerate(extra)}  # correction column -> stored column

    r2 = 0
    if below:
        rows, cols, vals = zip(*below)
        urows, ri = np.unique(rows, return_inverse=True)
        ucols, ci = np.unique(cols, return_inverse=True)
        block = np.zeros((urows.size, ucols.size), dtype=complex)
        block[ri, ci] = vals
        fac = qr_rank_revealing(block)
        r2 = fac.rank

    w = np.zeros((m + r2, m + len(extra)), dtype=complex)
    # negated before building, so the zeros below the diagonal stay +0
    w[:m, :m] = _upper_toeplitz(-sym.coeffs()[None, :m])[0]
    for i, j, v in top:
        w[i - 1, at[j]] = v
    if r2 > 0:
        w[m:, [at[j] for j in ucols[list(fac.permutation)].tolist()]] = fac.r[:r2, :]
    return NEPContext(w=w, cols=tuple(range(m)) + tuple(m - 1 + j for j in extra))


@dataclass(frozen=True, eq=False)
class BasisPair:
    """K x p basis of decaying interior solutions and its shift derivative,
    or a stack of n such bases with a leading batch axis.  The K rows
    are the basis rows its kernel was asked for: all of them up to a
    count, or W's nonzero columns.

    ``xi`` carries the inside roots of a Vandermonde basis, ``g`` the
    matrix G of a Frobenius basis; the other is None.  Indexing a stack
    gives one basis (an integer) or a smaller stack (an index array).
    """

    v: np.ndarray
    v_prime: np.ndarray
    xi: np.ndarray | None = None
    g: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.v.shape[-1]

    def __getitem__(self, k) -> "BasisPair":
        pick = lambda x: None if x is None else x[k]
        return BasisPair(v=self.v[k], v_prime=self.v_prime[k], xi=pick(self.xi), g=pick(self.g))


def _power_rows(x: np.ndarray, dx, rows, mul) -> tuple:
    """Rows ``rows`` (ascending) of the power bases of a stack x (n, b, p):
    row i is row i mod b of x**(i // b), with x**0 the identity.  ``mul``
    is np.matmul for x = G (b = p) and np.multiply for the inside roots
    as (n, 1, p) (b = 1).  x**e is the product of the squares x**(2**h)
    over the bits h of e, the highest on the left; each square and
    partial product is made once, and the partial products of one bit
    level in one stacked product.  Given dx, the shift derivative of x,
    the derivative rows follow by the product rule (XY)' = X'Y + XY'.
    Returns (v, v_prime); v_prime is None without dx."""
    n, b, p = x.shape
    pairs = [divmod(int(i), b) for i in rows]
    es, rs = [e for e, _ in pairs], [r for _, r in pairs]
    # the partial exponents: each e and, recursively, e less its highest
    # bit, and the squares 2**h below the largest; in ascending order
    # they run level by level, each level's square first
    top = max(es, default=0).bit_length()
    parts = {1 << h for h in range(top)}
    for e in set(es):
        while e and e not in parts:
            parts.add(e)
            e &= ~(1 << (e.bit_length() - 1))
    order = sorted(parts)
    slot = {e: k for k, e in enumerate(order)}
    # power[k] = x**order[k]: on the leading axis each partial is one
    # block, so products are written in place without overlapping inputs
    power = np.empty((len(order), n, b, p), dtype=complex)
    d_power = None if dx is None else np.empty_like(power)
    for h in range(top):
        k, end = slot[1 << h], slot.get(2 << h, len(order))
        if h == 0:
            power[k] = x
            if dx is not None:
                d_power[k] = dx
        else:
            s = slot[1 << (h - 1)]
            if dx is not None:
                np.add(mul(d_power[s], power[s]), mul(power[s], d_power[s]), out=d_power[k])
            mul(power[s], power[s], out=power[k])
        if end > k + 1:
            # the level's products: x**(2**h) times a lower partial each
            lows = [slot[e & ~(1 << h)] for e in order[k + 1 : end]]
            if lows == list(range(lows[0], lows[-1] + 1)):
                lows = slice(lows[0], lows[-1] + 1)  # consecutive: a view
            y = power[lows]
            if dx is not None:
                np.add(mul(d_power[k], y), mul(power[k], d_power[lows]), out=d_power[k + 1 : end])
            mul(power[k], y, out=power[k + 1 : end])
    # rows ascend, so the rows of x**0 come first: the identity's, with
    # derivative +0
    z = es.count(0)
    v = np.empty((n, len(es), p), dtype=complex)
    v[:, :z] = (np.eye(p) if b > 1 else np.ones((1, p)))[rs[:z]]
    at, picked = [slot[e] for e in es[z:]], rs[z:]
    v[:, z:] = power.swapaxes(0, 1)[:, at, picked]
    if dx is None:
        return v, None
    v_prime = np.empty_like(v)
    v_prime[:, :z] = 0.0
    v_prime[:, z:] = d_power.swapaxes(0, 1)[:, at, picked]
    return v, v_prime


def _vandermonde_rows(sym: LaurentSymbol, xi: np.ndarray, rows) -> tuple:
    """Root-power bases for each row of inside roots xi (n, p), at the
    basis rows ``rows`` (ascending): column j holds xi_j**0, xi_j**1,
    ... (``_power_rows``), and the derivative uses d xi / d lam =
    1 / a'(xi).

    Returns (clustered, stack): the mask of the rows where two inside
    roots are closer than ROOT_SEP_TOL or a'(xi) vanishes (a numerically
    multiple root), and the stack of bases of the other rows.
    """
    close = np.abs(xi[:, :, None] - xi[:, None, :]) < ROOT_SEP_TOL
    clustered = np.triu(close, 1).any(axis=(1, 2))
    # a'(xi) = sum of j a_j xi**(j-1) over the nonzero terms, j = -m..n,
    # accumulated in that order
    dvals = np.zeros(xi.shape, dtype=complex)
    for j, c in sym.terms():
        if j:
            dvals += (j * c) * xi ** (j - 1)
    clustered |= (np.abs(dvals) < 1e-250).any(axis=1)
    xi, dvals = xi[~clustered], dvals[~clustered]
    v, v_prime = _power_rows(xi[:, None, :], 1.0 / dvals[:, None, :], rows, np.multiply)
    return clustered, BasisPair(v=v, v_prime=v_prime, xi=xi)


def basis_vandermonde(sym: LaurentSymbol, lam: complex, rows: int) -> BasisPair:
    """Root-power basis of ``rows`` rows for the inside roots
    ``inside_roots(sym, lam)``, sorted by modulus then argument: a batch
    of one of ``_vandermonde_rows``.

    Raises ClusteredRootsError when two inside roots nearly coincide or a
    root is (numerically) multiple; the G-power basis is the remedy.
    """
    xi = np.array(inside_roots(sym, lam), dtype=complex).reshape(1, -1)
    clustered, stack = _vandermonde_rows(sym, xi, range(rows))
    if clustered[0]:
        raise ClusteredRootsError(
            f"inside roots at shift {lam} closer than {ROOT_SEP_TOL:g} or numerically multiple"
        )
    return stack[0]


def _frobenius_rows(g: np.ndarray, g_prime, rows) -> BasisPair:
    """G-power bases for a stack of (G, G'), (n, p, p) each, at the basis
    rows ``rows`` (ascending): row i is row i mod p of G**(i // p), so
    the block rows are I, G, G**2, ... (``_power_rows``).  Up to G**3 the
    products are those of the running product G**j = G**(j-1) G."""
    v, v_prime = _power_rows(g, g_prime, rows, np.matmul)
    return BasisPair(v=v, v_prime=v_prime, g=g)


def basis_frobenius(factors: WienerHopfFactors, rows: int) -> BasisPair:
    """G-power basis of ``rows`` rows for one factorization: a batch of
    one of ``_frobenius_rows``."""
    if factors.p < 1:
        raise InvalidInputError("Frobenius basis requires p >= 1")
    if rows < factors.p:
        raise InvalidInputError("basis must have at least p rows")
    s = _check_monic(factors.s)
    ds = np.asarray(factors.s_prime, dtype=complex)
    if ds.shape != (factors.p,):
        raise InvalidInputError(f"expected {factors.p} coefficient derivatives, got {ds.size}")
    return _frobenius_rows(*_g_rows(s[None], ds[None]), range(rows))[0]


def _basis_values(basis: BasisPair, rows) -> np.ndarray:
    """Rows ``rows`` (ascending) of V alone, without V', for a stack of
    bases, from the roots or the G it was built from."""
    if basis.xi is not None:
        return _power_rows(basis.xi[..., None, :], None, rows, np.multiply)[0]
    return _power_rows(basis.g, None, rows, np.matmul)[0]


def phi(ctx: NEPContext, basis: BasisPair, rows: int) -> tuple:
    """The leading ``rows`` rows of W V and of W V', as a pair, for one
    basis or a stack of them, built either at W's nonzero columns
    (``ctx.cols``) or full-width, whose rows at those columns it takes.

    Square exactly when rows equals the basis width p; with q > p only
    the first p equations are kept.
    """
    v, v_prime = basis.v, basis.v_prime
    if v.shape[-2] != len(ctx.cols):
        if v.shape[-2] != ctx.width:
            raise InvalidInputError(
                f"basis has {v.shape[-2]} rows, context width is {ctx.width} "
                f"with {len(ctx.cols)} nonzero columns"
            )
        cols = np.array(ctx.cols)
        v, v_prime = v[..., cols, :], v_prime[..., cols, :]
    if rows > ctx.q:
        raise InvalidInputError("cannot take more rows than equations")
    return (ctx.w @ v)[..., :rows, :], (ctx.w @ v_prime)[..., :rows, :]


def equilibrate(mat: np.ndarray) -> tuple:
    """Scale the rows of a complex matrix, or of each matrix of a stack,
    and then its columns, by the powers of two that bring each largest
    modulus into [0.5, 1).

    Returns (scaled, r, c) with scaled = mat * 2**-(r + c), r a column
    and c a row of exponents; a zero row or column keeps exponent 0.
    Both exponent vectors come from the real moduli, and the complex
    matrix is scaled once.
    """
    mod = np.abs(mat)
    _, r = np.frexp(mod.max(axis=-1, keepdims=True))
    _, c = np.frexp(np.ldexp(mod, -r).max(axis=-2, keepdims=True))
    return _ldexp(mat, -(r + c)), r, c


def _newton_steps(phi_mat: np.ndarray, phi_prime: np.ndarray) -> tuple:
    """The ratio det / (det)' for each square pencil of a stack (n, p, p),
    computed through the trace identity 1 / trace(Phi^{-1} Phi').

    Phi and Phi' are scaled alike by ``equilibrate(Phi)``, which leaves
    the trace unchanged, so the step depends on how the rows and columns
    of Phi are scaled only through rounding (on row scalings by powers
    of two, not at all).  An exactly singular scaled Phi means the
    determinant vanishes at the shift and the step is 0.  Returns
    (steps, vanished): ``vanished`` marks the rows whose trace is below
    1e-300, which cannot drive the iteration; their step is 0 too.
    """
    a, r, c = equilibrate(phi_mat)
    x, singular = _solve_rows(a, _ldexp(phi_prime, -r - c))
    tr = _row_sums(np.diagonal(x, axis1=1, axis2=2))
    vanished = ~singular & (np.abs(tr) < 1e-300)
    steps = np.zeros(tr.shape, dtype=complex)
    ok = ~singular & ~vanished
    steps[ok] = 1.0 / tr[ok]
    return steps, vanished


def newton_correction(phi_mat, phi_prime) -> complex:
    """The Newton step det / (det)' for one square pencil: a batch of one
    of ``_newton_steps``.  A vanishing trace is surfaced as
    DerivativeVanishesError."""
    steps, vanished = _newton_steps(
        np.asarray(phi_mat, dtype=complex)[None], np.asarray(phi_prime, dtype=complex)[None]
    )
    if vanished[0]:
        raise DerivativeVanishesError("trace of Phi^{-1} Phi' vanished")
    return complex(steps[0])


def eigvec_prefix(basis: BasisPair, beta, length: int, sym: LaurentSymbol) -> np.ndarray:
    """Leading ``length`` eigenvector entries v_i = (row i + m of the
    basis) . beta, i = 0, 1, ..., of one basis and a nonzero beta, from
    the roots or the G it was built from (``_basis_values``)."""
    bvec = np.asarray(beta, dtype=complex)
    if bvec.ndim != 1 or bvec.size != basis.p or not np.any(bvec):
        raise InvalidInputError("beta must be a nonzero vector of length p")
    return _basis_values(basis[None], range(sym.m, sym.m + length))[0] @ bvec

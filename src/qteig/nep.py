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
G = F**p (Frobenius), each with its exact shift derivative.  W's
Toeplitz block comes from the same index gather as the factorization's.
The Newton step 1 / trace(Phi^{-1} Phi') is taken on Phi and Phi'
scaled once each by powers of two (``equilibrate``), so it does not
depend on how the boundary equations are scaled.

Each kernel takes a stack with a leading batch axis, one row per shift
(``_vandermonde_rows``, ``_frobenius_rows``, ``_newton_steps``,
``_eigvec_rows``; ``phi`` and ``equilibrate`` take either), and the two
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
from .linalg import _solve_rows, qr_rank_revealing
from .poly import LaurentSymbol, _ldexp, _row_sums, inside_roots
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


def _root_power_rows(xi: np.ndarray, rows, dvals=None) -> tuple:
    """Rows ``rows`` (ascending) of the root-power bases of a stack of
    inside roots xi (n, p): row i holds xi**i, from the running product
    xi**i = xi**(i-1) * xi.  Given dvals = a'(xi), also the rows of V',
    i xi**(i-1) / a'(xi).  Returns (v, v_prime); v_prime is None without
    dvals."""
    rows = np.asarray(rows, dtype=np.int64)
    at = {i: k for k, i in enumerate(rows.tolist())}
    v = np.empty((xi.shape[0], rows.size, xi.shape[1]), dtype=complex)
    before = np.zeros_like(v)  # row i - 1 of the basis, for each row i > 0
    power = np.ones(xi.shape, dtype=complex)
    for i in range(rows[-1] + 1 if rows.size else 0):
        if i:
            previous, power = power, power * xi
        k = at.get(i)
        if k is not None:
            v[:, k] = power
            if i:
                before[:, k] = previous
    if dvals is None:
        return v, None
    v_prime = rows[:, None] * before / dvals[:, None, :]
    v_prime[:, rows == 0] = 0.0
    return v, v_prime


def _vandermonde_rows(sym: LaurentSymbol, xi: np.ndarray, rows) -> tuple:
    """Root-power bases for each row of inside roots xi (n, p), at the
    basis rows ``rows`` (ascending): column j holds xi_j**0, xi_j**1,
    ..., and the derivative uses d xi / d lam = 1 / a'(xi).

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
    v, v_prime = _root_power_rows(xi, rows, dvals)
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
    the block rows are I, G, G**2, ...  G**e is the product of the
    squares G**(2**h) over the bits h of e, the highest on the left, and
    each square and partial product is made once.  The derivative rows
    follow by the product rule (XY)' = X'Y + XY'; up to G**3 the products
    are those of the running product G**j = G**(j-1) G.  With g_prime
    None, V alone is built and ``v_prime`` is None."""
    n, p = g.shape[:2]
    v = np.zeros((n, len(rows), p), dtype=complex)
    v_prime = None if g_prime is None else np.zeros_like(v)

    def times(x, y):
        xy = x[0] @ y[0]
        return xy, None if g_prime is None else x[1] @ y[0] + x[0] @ y[1]

    squares = [(g, g_prime)]  # G**(2**h) and its derivative
    powers = {}  # G**e and its derivative, for the partial exponents e

    def power(e):
        low = 0  # the bits of e below h
        for h in range(e.bit_length()):
            if e >> h & 1:
                while len(squares) <= h:
                    squares.append(times(squares[-1], squares[-1]))
                part = low + (1 << h)
                if part not in powers:
                    powers[part] = times(squares[h], powers[low]) if low else squares[h]
                low = part
        return powers[e]

    blocks: dict = {}  # exponent -> (positions in rows, rows of G**e)
    for k, i in enumerate(rows):
        e, r = divmod(int(i), p)
        ks, rs = blocks.setdefault(e, ([], []))
        ks.append(k)
        rs.append(r)
    for e, (ks, rs) in blocks.items():
        if e == 0:
            v[:, ks, rs] = 1.0
            continue
        pw, d_pw = power(e)
        v[:, ks] = pw[:, rs]
        if v_prime is not None:
            v_prime[:, ks] = d_pw[:, rs]
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
        return _root_power_rows(basis.xi, rows)[0]
    return _frobenius_rows(basis.g, None, rows).v


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


def _eigvec_rows(basis: BasisPair, beta: np.ndarray, length: int, sym: LaurentSymbol) -> np.ndarray:
    """Leading ``length`` eigenvector entries v_i = (row i + m of the
    basis) . beta for each basis of a stack and its row of beta (n, p),
    extending past the stored rows by the interior recurrence (root
    powers or further G powers)."""
    m = sym.m
    if basis.xi is not None:
        # row i holds xi**(m + i), built by repeated multiplication
        xi = basis.xi[:, None, :]
        powers = np.repeat(xi, length, axis=1)
        powers[:, :1] = xi**m
        return (np.cumprod(powers, axis=1) @ beta[:, :, None])[:, :, 0]
    # column k of cols is G**k beta; while cols has j columns, power is
    # G**j (by squaring) and power @ cols doubles it
    p = basis.p
    total = length + m
    cols = beta[:, :, None]
    power = basis.g
    while cols.shape[-1] * p < total:
        if cols.shape[-1] > 1:
            power = power @ power
        cols = np.concatenate([cols, power @ cols], axis=-1)
    return cols.swapaxes(1, 2).reshape(cols.shape[0], -1)[:, m:total]


def eigvec_prefix(basis: BasisPair, beta, length: int, sym: LaurentSymbol) -> np.ndarray:
    """Leading ``length`` eigenvector entries of one basis and a nonzero
    beta: a batch of one of ``_eigvec_rows`` (``basis[None]`` is a stack
    of one)."""
    bvec = np.asarray(beta, dtype=complex)
    if bvec.ndim != 1 or bvec.size != basis.p or not np.any(bvec):
        raise InvalidInputError("beta must be a nonzero vector of length p")
    return _eigvec_rows(basis[None], bvec[None], length, sym)[0]

"""Dense complex linear algebra kernels.

Matrices are plain 2-D numpy arrays of complex numbers.  The module
provides a linear solve and eigenvalues from numpy's LAPACK drivers, a
column-pivoted (rank revealing) QR, and polynomial roots as the
eigenvalues of a companion matrix.  A real matrix goes to
the real driver, so its non-real eigenvalues come in exact conjugate
pairs.  Dimensions above ``EIG_MAX_DIM`` are rejected.  The solve, the
eigenvalues and the roots take a stack of problems with a leading batch
axis (``_solve_rows``, ``_eigvals_rows``, ``_companion_roots``);
``lu_solve``, ``eig_dense`` and ``roots_companion`` are batches of one.
The Newton driver's root split takes ``_companion_roots`` only for the
rows that ``poly._split_rows`` cannot polish from warm roots.

The stacked solve at k = 1 and 2 and the roots at degree 2 have a
second, elementwise path: a division, LU with partial pivoting written
out, and a stable quadratic formula.  numpy's stacked LAPACK calls pay
a per-matrix cost far above that arithmetic, and the basins of the
rank-one fixture (m = n = 1, p = 1) are made of exactly these stacks
(ROADMAP item 22).  Each path has the contract of the LAPACK call it
replaces: the same singular rows, exact conjugate pairs of a real
row's roots, the same errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, InvalidInputError, SingularMatrixError

if TYPE_CHECKING:
    from .poly import Poly

# Hard cap on eigenproblem size.
EIG_MAX_DIM = 4000


def _as_matrix(a) -> np.ndarray:
    m = np.array(a, dtype=complex)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a 2-D array, got ndim={m.ndim}")
    return m


def _phase(z: complex) -> complex:
    az = abs(z)
    return z / az if az > 0 else 1.0 + 0j


def _ldexp(c: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """c * 2**exp for a complex array, exact unless it underflows: numpy's
    ldexp takes real arrays only."""
    out = np.empty(np.broadcast_shapes(c.shape, exp.shape), dtype=complex)
    out.real = np.ldexp(c.real, exp)
    out.imag = np.ldexp(c.imag, exp)
    return out


def _solve_rows(a: np.ndarray, b: np.ndarray) -> tuple:
    """Solve A X = B for a stack of square A, (n, k, k), and B, (n, k, c),
    by LU with partial pivoting: for k >= 3, LAPACK's, one stacked call;
    for k = 1 and 2, the same elimination elementwise
    (``_solve_small_rows``), which the rank-one basins' 1 x 1 Newton and
    2 x 2 derivative solves take without LAPACK's per-matrix cost
    (ROADMAP item 22).

    Returns (x, singular): the rows with an exactly zero pivot get x = 0
    and a True in ``singular``; the other rows are unaffected.  A stack
    with such a row makes the stacked call raise; its singular rows are
    then those whose ``slogdet`` sign is 0 (the same LU, whose sign is 0
    exactly where a pivot is), and the others are solved in one more
    stacked call.
    """
    if a.shape[1] <= 2:
        return _solve_small_rows(a, b)
    try:
        return np.linalg.solve(a, b), np.zeros(a.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    singular = np.linalg.slogdet(a)[0] == 0
    x = np.zeros(b.shape, dtype=complex)
    x[~singular] = np.linalg.solve(a[~singular], b[~singular])
    return x, singular


def _solve_small_rows(a: np.ndarray, b: np.ndarray) -> tuple:
    """``_solve_rows`` at k = 1 (a division) and k = 2 (one elimination
    step after the row swap LAPACK makes: its pivot is the entry of the
    first column of larger |re| + |im|, the first on a tie)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if a.shape[1] == 1:
            x, singular = b / a, a[:, 0, 0] == 0
        else:
            first = np.abs(a[:, :, 0].real) + np.abs(a[:, :, 0].imag)
            swap = (first[:, 1] > first[:, 0])[:, None, None]
            a, b = np.where(swap, a[:, ::-1], a), np.where(swap, b[:, ::-1], b)
            pivot, ell = a[:, :1, :1], a[:, 1:, :1] / a[:, :1, :1]
            u = a[:, 1:, 1:] - ell * a[:, :1, 1:]
            x2 = (b[:, 1:] - ell * b[:, :1]) / u
            x = np.concatenate([(b[:, :1] - a[:, :1, 1:] * x2) / pivot, x2], axis=1)
            singular = (pivot == 0)[:, 0, 0] | (u == 0)[:, 0, 0]
    x[singular] = 0.0
    return x, singular


def lu_solve(a, b) -> np.ndarray:
    """Solve A X = B by LU with partial pivoting (``_solve_rows``).

    B may be a vector or a matrix; the result has the same shape.
    Raises SingularMatrixError when a pivot is exactly zero.
    """
    A = _as_matrix(a)
    n, nc = A.shape
    if n != nc:
        raise InvalidInputError("coefficient matrix must be square")
    B = np.array(b, dtype=complex)
    if B.ndim not in (1, 2) or B.shape[0] != n:
        raise InvalidInputError("right-hand side has incompatible row count")
    x, singular = _solve_rows(A[None], B.reshape(n, -1)[None])
    if singular[0]:
        raise SingularMatrixError("Singular matrix")
    return x[0].reshape(B.shape)


@dataclass(frozen=True, eq=False)
class RankRevealingQR:
    """Column-pivoted QR factorization A[:, permutation] = Q R."""

    q: np.ndarray
    r: np.ndarray
    permutation: tuple
    rank: int


def qr_rank_revealing(a) -> RankRevealingQR:
    """Householder QR with column pivoting and a rank decision.

    The numerical rank is the number of diagonal entries of R whose
    modulus exceeds ``1e-12 * max(rows, cols) * |R[0, 0]|``.  A zero
    matrix has rank 0.
    """
    A = _as_matrix(a)
    rows, cols = A.shape
    tol = 1e-12 * max(rows, cols, 1)

    R = A.copy()
    Q = np.eye(rows, dtype=complex)
    perm = np.arange(cols)
    steps = min(rows, cols)
    for k in range(steps):
        norms = np.sqrt(np.sum(np.abs(R[k:, k:]) ** 2, axis=0))
        j = k + int(np.argmax(norms))
        if j != k:
            R[:, [k, j]] = R[:, [j, k]]
            perm[[k, j]] = perm[[j, k]]
        x = R[k:, k]
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            continue
        v = x.copy()
        v[0] += _phase(x[0]) * nx
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            continue
        v /= nv
        R[k:, k:] -= 2.0 * np.outer(v, v.conj() @ R[k:, k:])
        Q[:, k:] -= 2.0 * np.outer(Q[:, k:] @ v, v.conj())
        R[k + 1 :, k] = 0.0

    diag = np.abs(np.diagonal(R)[:steps])
    if steps == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag > tol * diag[0]))
    return RankRevealingQR(q=Q, r=R, permutation=tuple(int(p) for p in perm), rank=rank)


def _check_eig_dim(n: int) -> None:
    """Reject an eigenproblem of dimension above EIG_MAX_DIM."""
    if n > EIG_MAX_DIM:
        raise InvalidInputError(f"dimension {n} exceeds the cap {EIG_MAX_DIM}")


def eig_dense(a) -> list:
    """All eigenvalues of a square matrix, with multiplicity.

    Returns a list of complex values sorted by (real, imaginary) part.
    """
    A = _as_matrix(a)
    n, nc = A.shape
    if n != nc:
        raise InvalidInputError("eigenvalue problem requires a square matrix")
    if n < 1:
        raise InvalidInputError("matrix dimension must be at least 1")
    _check_eig_dim(n)
    return _eigvals_rows(A[None])[0].tolist()


def _eigvals_rows(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of a stack (n, d, d), one stacked call
    per driver, each row sorted by (real, imaginary) part.  The real
    matrices go to the real driver."""
    real = ~mats.imag.any(axis=(1, 2))
    vals = np.empty(mats.shape[:2], dtype=complex)
    try:
        for rows, stack in ((real, mats.real), (~real, mats)):
            if rows.any():
                vals[rows] = np.linalg.eigvals(stack if rows.all() else stack[rows])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    return np.sort_complex(vals)


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """All roots of each row of a (n, d+1) coefficient array, ascending
    powers, last column nonzero: the eigenvalues of the companion
    matrices, each row sorted by (real, imaginary) part.  At degree 2
    they come from the quadratic formula instead (``_quadratic_rows``),
    the whole root split of the rank-one basins (ROADMAP item 22).  A
    row whose ratios c_k / c_d overflow, or underflow to 0 from a
    nonzero c_k, is solved for w = z / 2**e instead (``_scaled_ratios``)
    and its roots scaled back; the other rows are untouched.  A
    non-finite coefficient, or a root that overflows, raises
    ConvergenceError."""
    if not np.isfinite(c).all():
        raise ConvergenceError("non-finite coefficient")
    d = c.shape[1] - 1
    if d == 2:
        return _quadratic_rows(c)
    with np.errstate(over="ignore"):
        ratio = c / c[:, -1:]
    lost = ~np.isfinite(ratio).all(axis=1) | ((ratio == 0) & (c != 0)).any(axis=1)
    if lost.any():
        ratio[lost], e = _scaled_ratios(c[lost])
    comp = np.zeros((c.shape[0], d, d), dtype=complex)
    comp[:, np.arange(d - 1), np.arange(1, d)] = 1.0
    comp[:, -1] = -ratio[:, :d]
    roots = _eigvals_rows(comp)
    if lost.any():  # a power of two keeps each row's (real, imag) order
        with np.errstate(over="ignore"):
            roots[lost] = _ldexp(roots[lost], e[:, None])
        if not np.isfinite(roots[lost]).all():
            raise ConvergenceError("root overflows")
    return roots


def _scaled_ratios(c: np.ndarray) -> tuple:
    """The ratios c_k 2**(e k) / (c_d 2**(e d)) of each row of c, the
    coefficients of the polynomial in w = z / 2**e, and each row's e:
    the least with 2**(e (d - k)) >= 2**E_k / 2**E_d for every nonzero
    c_k, E the binary exponents, so that no ratio exceeds 4 in modulus
    and the roots w are of modulus below 8 (Fujiwara's bound)."""
    d = c.shape[1] - 1
    _, big = np.frexp(np.maximum(np.abs(c.real), np.abs(c.imag)))
    span = d - np.arange(d + 1)  # d - k
    lower = big - big[:, d:]
    e = np.where(c[:, :d] != 0, -(-lower[:, :d] // span[:d]), np.iinfo(np.int32).min).max(axis=1)
    unit = _ldexp(c, -big)  # each coefficient's parts below 1
    ratio = _ldexp(unit / unit[:, d:], lower - e[:, None] * span)
    return ratio, e


def _quadratic_rows(c: np.ndarray) -> np.ndarray:
    """``_companion_roots`` at degree 2, in the stable form: the root of
    larger modulus -q / c2 with q = (c1 + sqrt(c1**2 - 4 c0 c2)) / 2 on
    the branch of larger |q|, then c0 / q from the product of the roots.
    Each row is first scaled by the power of two that brings the larger
    of |c1| and sqrt(|c0 c2|) into [0.5, 1) (exact; a zero coefficient
    sets no scale), so that neither product overflows and only a
    negligible one can underflow.  A real row's roots are exactly real
    or, when its discriminant is negative, an exact conjugate pair, as
    from LAPACK's real driver."""
    m, e = np.frexp(np.abs(c))
    e = np.where(m == 0, e[:, 2:] - 2000, e)  # far below any other exponent
    c0, c1, c2 = _ldexp(c, -np.maximum(e[:, 1:2], (e[:, :1] + e[:, 2:]) // 2)).T
    real = ~c.imag.any(axis=1)
    with np.errstate(all="ignore"):
        disc = c1 * c1 - 4.0 * c0 * c2
        root = np.sqrt(disc)
        q = -0.5 * (c1 + np.where((c1.conj() * root).real >= 0, root, -root))
        r1 = q / c2
        r2 = np.where(real & (disc.real < 0), r1.conj(), c0 / np.where(q == 0, 1.0, q))
    roots = np.stack([r1, r2], axis=1)
    roots.imag[real & (disc.real >= 0)] = 0.0
    if not np.isfinite(roots).all():
        raise ConvergenceError("root overflows")
    return np.sort_complex(roots)


def roots_companion(b: "Poly") -> list:
    """All roots of a polynomial via the eigenvalues of its companion matrix."""
    if b.degree < 1:
        raise InvalidInputError("rootfinding requires degree >= 1")
    return _companion_roots(np.asarray(b.coeffs)[None])[0].tolist()

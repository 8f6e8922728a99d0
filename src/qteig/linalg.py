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


def _solve_rows(a: np.ndarray, b: np.ndarray) -> tuple:
    """Solve A X = B for a stack of square A, (n, k, k), and B, (n, k, c),
    by LAPACK's LU with partial pivoting, one stacked call.

    Returns (x, singular): a stack whose exactly singular row makes the
    stacked call raise is redone row by row, and those rows get x = 0 and
    a True in ``singular``; the other rows are unaffected.
    """
    try:
        return np.linalg.solve(a, b), np.zeros(a.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.zeros(b.shape, dtype=complex)
    singular = np.zeros(a.shape[0], dtype=bool)
    for i in range(a.shape[0]):
        try:
            x[i] = np.linalg.solve(a[i : i + 1], b[i : i + 1])[0]
        except np.linalg.LinAlgError:
            singular[i] = True
    return x, singular


def lu_solve(a, b) -> np.ndarray:
    """Solve A X = B by LAPACK's LU with partial pivoting.

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
    matrices, each row sorted by (real, imaginary) part."""
    d = c.shape[1] - 1
    comp = np.zeros((c.shape[0], d, d), dtype=complex)
    comp[:, np.arange(d - 1), np.arange(1, d)] = 1.0
    comp[:, -1] = -(c / c[:, -1:])[:, :d]
    return _eigvals_rows(comp)


def roots_companion(b: "Poly") -> list:
    """All roots of a polynomial via the eigenvalues of its companion matrix."""
    if b.degree < 1:
        raise InvalidInputError("rootfinding requires degree >= 1")
    return _companion_roots(np.asarray(b.coeffs)[None])[0].tolist()

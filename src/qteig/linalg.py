"""Dense complex linear algebra kernels.

Matrices are plain 2-D numpy arrays of complex numbers.  The module
provides a partially pivoted LU solve, a column-pivoted (rank
revealing) QR, eigenvalues from numpy's LAPACK driver, and polynomial
roots as the eigenvalues of a companion matrix.  A real matrix goes to
the real driver, so its non-real eigenvalues come in exact conjugate
pairs.  Dimensions above ``EIG_MAX_DIM`` are rejected.
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


def lu_solve(a, b) -> np.ndarray:
    """Solve A X = B via LU with partial pivoting.

    B may be a vector or a matrix; the result has the same shape.
    Raises SingularMatrixError when a pivot falls below
    1e-14 * max|A|.
    """
    A = _as_matrix(a)
    n, nc = A.shape
    if n != nc:
        raise InvalidInputError("coefficient matrix must be square")
    B = np.array(b, dtype=complex)
    vector_rhs = B.ndim == 1
    if vector_rhs:
        B = B[:, None]
    if B.shape[0] != n:
        raise InvalidInputError("right-hand side has incompatible row count")

    tol = 1e-14 * float(np.abs(A).max()) if A.size else 0.0
    for k in range(n):
        col = np.abs(A[k:, k])
        piv = int(col.argmax())
        if col[piv] <= tol:
            raise SingularMatrixError(f"pivot {k} below threshold {tol:g}")
        if piv:
            A[[k, k + piv]] = A[[k + piv, k]]
            B[[k, k + piv]] = B[[k + piv, k]]
        if k + 1 < n:
            # both operands 2-D, as np.outer has them: numpy's complex
            # multiply rounds differently for other stride layouts
            fac = (A[k + 1 :, k] / A[k, k])[:, None]
            A[k + 1 :, k + 1 :] -= fac * A[k, None, k + 1 :]
            B[k + 1 :] -= fac * B[k, None]

    # back substitution in place: the rows of B below k already hold X
    for k in range(n - 1, -1, -1):
        if k + 1 < n:
            B[k] -= A[k, k + 1 :] @ B[k + 1 :]
        B[k] /= A[k, k]
    return B[:, 0] if vector_rhs else B


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
    if n > EIG_MAX_DIM:
        raise InvalidInputError(f"dimension {n} exceeds the cap {EIG_MAX_DIM}")
    try:
        vals = np.linalg.eigvals(A if A.imag.any() else A.real)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    return np.sort_complex(vals).tolist()


def roots_companion(b: "Poly") -> list:
    """All roots of a polynomial via the eigenvalues of its companion matrix."""
    if b.degree < 1:
        raise InvalidInputError("rootfinding requires degree >= 1")
    coeffs = np.asarray(b.coeffs)
    monic = coeffs / coeffs[-1]
    d = b.degree
    comp = np.eye(d, k=1, dtype=complex)
    comp[-1] = -monic[:d]
    return eig_dense(comp)

"""The operator model: a banded two-sided part plus a finite correction.

A matrix here is the semi-infinite operator A whose entry (i, j) is
a_{j-i} + e_{i,j}, acting on square-summable sequences.  The correction
E is stored as its nonzero entries alone, never as a dense block; its
support (k1, k2) is derived from them.  The module builds finite
sections, applies the operator to vector prefixes, computes the exact
row-sum norm, and samples the symbol curve.  The section, the prefix
product and the curve walk the band's nonzero terms, ``LaurentSymbol.terms``.
The prefix product takes a stack of prefixes (``_apply_rows``), and
``apply_prefix`` is a batch of one.  Positions and sizes share one
integer rule, ``_position``.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from enum import Enum
from itertools import groupby

import numpy as np

from .errors import (
    InvalidInputError,
    PrefixTooShortError,
    SectionTooSmallError,
)
from .poly import LaurentSymbol


def _position(x, what: str) -> int:
    """A position or size given as an integral value (2, 2.0, numpy
    integers), not a boolean; ``what`` names it in the error."""
    try:
        k = int(x)
    except (TypeError, ValueError, OverflowError):  # nan, inf, non-numbers
        k = None
    if k is None or k != x or isinstance(x, (bool, np.bool_)):
        raise InvalidInputError(f"{what} {x!r} is not an integer")
    return k


@dataclass(frozen=True)
class Correction:
    """A finite-support correction: its nonzero entries as 1-based
    (row, col, value) triplets with unique positions, sorted by position.

    The support is derived from the entries: k1 is the last row and k2
    the last column that holds an entry, both 0 for the zero correction.
    """

    entries: tuple

    def __post_init__(self):
        what = "correction position"
        ents = tuple(sorted(
            ((_position(i, what), _position(j, what), complex(v)) for i, j, v in self.entries),
            key=lambda t: (t[0], t[1]),
        ))
        object.__setattr__(self, "entries", ents)
        seen = set()
        for i, j, v in ents:
            if i < 1 or j < 1:
                raise InvalidInputError("correction positions are 1-based")
            if v == 0:
                raise InvalidInputError("correction stores only nonzero values")
            if not cmath.isfinite(v):
                raise InvalidInputError(f"correction entry at ({i}, {j}) is not finite")
            if (i, j) in seen:
                raise InvalidInputError(f"duplicate correction entry at ({i}, {j})")
            seen.add((i, j))

    @classmethod
    def from_entries(cls, entries) -> "Correction":
        """Arbitrary triplets with the zero values dropped."""
        return cls(tuple((i, j, v) for i, j, v in entries if complex(v) != 0))

    @classmethod
    def zero(cls) -> "Correction":
        return cls(())

    @property
    def k1(self) -> int:
        return max((i for i, _, _ in self.entries), default=0)

    @property
    def k2(self) -> int:
        return max((j for _, j, _ in self.entries), default=0)


@dataclass(frozen=True)
class QTMatrix:
    """The operator: Toeplitz part from ``symbol`` plus ``correction``."""

    symbol: LaurentSymbol
    correction: Correction


def qt_new(neg, pos, correction=None) -> QTMatrix:
    """Validated construction from the (a_0, a_-1, ...), (a_0, a_1, ...)
    coefficient convention plus an optional correction.

    ``correction`` may be None, a Correction, or an iterable of
    1-based (row, col, value) triplets whose zero values are dropped.
    """
    sym = LaurentSymbol(neg=tuple(neg), pos=tuple(pos))
    if correction is None:
        corr = Correction.zero()
    elif isinstance(correction, Correction):
        corr = correction
    else:
        corr = Correction.from_entries(correction)
    return QTMatrix(symbol=sym, correction=corr)


def finite_section(a: QTMatrix, size: int) -> np.ndarray:
    """The size x size leading principal submatrix."""
    sym = a.symbol
    corr = a.correction
    n = _position(size, "section size")
    if n < max(sym.m, sym.n, corr.k1, corr.k2, 1):
        raise SectionTooSmallError(
            f"section size {n} does not cover the band and correction"
        )
    out = np.zeros((n, n), dtype=complex)
    for d, c in sym.terms():
        if d >= 0:
            np.fill_diagonal(out[:, d:], c)
        else:
            np.fill_diagonal(out[-d:, :], c)
    for i, j, v in corr.entries:
        out[i - 1, j - 1] += v
    return out


def apply_prefix(a: QTMatrix, v, out_len: int) -> np.ndarray:
    """First ``out_len`` entries of A v, where v is the prefix of a
    square-summable vector whose tail is negligible.

    The prefix must be long enough that every requested entry sees its
    full band (len(v) >= out_len + n) and, when correction rows are
    requested, every correction column (len(v) >= k2).
    """
    sym = a.symbol
    corr = a.correction
    vec = np.asarray(v, dtype=complex)
    if vec.ndim != 1:
        raise InvalidInputError("prefix must be a 1-D vector")
    L = vec.size
    out_len = _position(out_len, "out_len")
    if out_len < 0:
        raise InvalidInputError("out_len must be nonnegative")
    if L < out_len + sym.n:
        raise PrefixTooShortError(f"need at least {out_len + sym.n} entries, got {L}")
    need_cols = max((j for i, j, _ in corr.entries if i <= out_len), default=0)
    if L < need_cols:
        raise PrefixTooShortError(
            f"correction rows require {need_cols} entries, got {L}"
        )
    return _apply_rows(a, vec[None], out_len, range(L))[0]


def _apply_rows(a: QTMatrix, vec: np.ndarray, out_len: int, at) -> np.ndarray:
    """First ``out_len`` entries of A v for each row v of a stack of
    prefixes (n, L), long enough as ``apply_prefix`` requires.  ``at``
    lists the ascending 0-based entries of v that vec's columns hold
    (``range(L)`` for whole prefixes): the leading 0, 1, ...,
    out_len + n - 1 and the asked rows' correction columns, however far."""
    out = np.zeros((vec.shape[0], out_len), dtype=complex)
    for d, c in a.symbol.terms():
        start = max(0, -d)
        if start < out_len:
            out[:, start:] += c * vec[:, start + d : out_len + d]
    for i, j, v_e in a.correction.entries:
        if i <= out_len:
            # in real arithmetic, rounded as the product of two complex
            # scalars is: numpy's loop over a strided column may fuse
            # the complex product's multiply and add
            x, row = vec[:, bisect.bisect_left(at, j - 1)], out[:, i - 1]
            row.real += v_e.real * x.real - v_e.imag * x.imag
            row.imag += v_e.real * x.imag + v_e.imag * x.real
    return out


def norm_inf(a: QTMatrix) -> float:
    """Exact row-sum operator norm: the generic band row sum, which bounds
    every row without entries, or the largest sum of a row with entries,
    formed from its band coefficients plus its entries.  A sum past the
    float range is inf."""
    sym = a.symbol
    with np.errstate(over="ignore"):
        best = float(np.abs(sym.coeffs()).sum())
    for i, ents in groupby(a.correction.entries, key=lambda e: e[0]):
        row = {j: sym.coeff(j - i) for j in range(max(1, i - sym.m), i + sym.n + 1)}
        for _, j, v in ents:
            row[j] = row.get(j, 0) + v
        best = max(best, math.fsum(abs(v) for v in row.values()))
    return best


def symbol_curve(a: QTMatrix, nsamples: int) -> np.ndarray:
    """The symbol evaluated at nsamples equispaced points of the unit
    circle, starting at z = 1."""
    nsamples = _position(nsamples, "nsamples")
    if nsamples < 2:
        raise InvalidInputError("nsamples must be at least 2")
    sym = a.symbol
    z = np.exp(2j * np.pi * np.arange(nsamples) / nsamples)
    vals = np.zeros(nsamples, dtype=complex)
    for d, c in sym.terms():
        vals += c * z**d
    return vals


class SolveStatus(Enum):
    """Classification of one Newton run."""

    ISOLATED_PQ = "isolated_pq"
    ISOLATED_PLTQ = "isolated_pltq"
    CONTINUOUS_SET = "continuous_set"
    OUT_OF_COMPONENT = "out_of_component"
    NO_CONVERGENCE_PLTQ = "no_convergence_pltq"
    MAX_ITERATIONS = "max_iterations"
    DIVERGED = "diverged"
    ON_CURVE = "on_curve"


_ISOLATED = (SolveStatus.ISOLATED_PQ, SolveStatus.ISOLATED_PLTQ)


@dataclass(frozen=True)
class EigRecord:
    """Classified result of one Newton run.

    For isolated outcomes ``vec_prefix`` holds the leading eigenvector
    entries and ``residual`` the relative residual of the defining
    equations.  Other outcomes carry the last shift and an infinite or
    irrelevant residual.
    """

    lam: complex
    vec_prefix: tuple
    residual: float
    iterations: int
    status: SolveStatus

    @property
    def is_isolated(self) -> bool:
        return self.status in _ISOLATED

    @property
    def tail_abs(self) -> float:
        """Modulus of the last reported eigenvector entry (decay witness)."""
        return abs(self.vec_prefix[-1]) if self.vec_prefix else 0.0

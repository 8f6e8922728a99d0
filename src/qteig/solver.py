"""Newton's iteration on the determinant of the reduced pencil, its
drivers and the winding raster.  ``eig_single`` (one start), ``eig_all``
(the finite-section eigenvalues) and ``basins`` (the raster cells) run
their starts through one driver, ``_runs``, which builds W, the row-sum
norm and the realness test once and returns one ``Outcomes`` for all
the starts.  ``_limit_index`` is the one "same limit" rule, for
deduplication and basin labels alike: over an array of shifts in order,
each takes the first limit it matches, and a shift that matches none is
a new limit for the shifts after it.

The starts run in lockstep, in consecutive chunks (``_run_batch``):
each pass evaluates every live start of the chunk with one stacked call
per stage, and one start (``eig_single``) is a chunk of one through
the same code.  Every stage, the Aberth
polish of warm roots included, is elementwise or a gufunc stack
(``matmul``, ``solve``, ``eigvals``) on C-ordered arrays, so a start's
outcome does not depend on what else is in its chunk; a stacked solve
that raises marks its singular rows by one ``slogdet`` and solves the
others in one more stacked call.  Outcomes are one table, set by
masks: every field, status code, final shift, residual, step count and
eigenvector prefix, holds one row per start, and a run that is not
accepted keeps a zero prefix.  An ``EigRecord`` is built only for a run
a caller gets back (``eig_single`` and the
representatives of ``eig_all``); ``eig_all`` deduplicates on the
columns (``_representatives``), and ``basins`` reads its labels from
them; both take the accepted runs from the status codes
(``_isolated``).  The chunk size bounds the working memory of a pass,
so ``_chunk_rows`` derives it from a row's cost (``_row_bytes``): the
companion stack grows with the square of the degree, the stacked bases
with p times the number of W's nonzero columns, the only basis rows a
pass builds, and every row holds its eigenvector prefix.  A chunk takes
as many passes as its slowest run, whatever its rows, so
``_chunk_bounds`` cuts the starts into the nearest whole number of
chunks of that size, of equal lengths within 1 and so within 1.5 x the
size.  At 4 MB that is one chunk each for the 167 starts of the
seven-band fixture (size 288), the 2500 cells of the rank-one fixture's
50 x 50 basins (3784, with the one-entry prefix of ``basins``) and the
165 starts of the clustered roots (120), whose passes peak at 1.9, 2.1
and 5.2 MB by tracemalloc.

On a real operator (real band and correction) the run from conj(lam)
is the mirror image of the run from lam, so ``eig_all`` runs only the
section starts with Im >= 0 and takes the conjugates of the accepted
rows of the starts with Im > 0 as the rows of their conjugate starts;
the section's non-real eigenvalues come in exact conjugate pairs.  On
such an operator a shift that is exactly real steps by the real part of
its step, and its jitter stays on the axis, so real eigenvalues come
out exactly real.

The shifts of a pass are evaluated in one place, ``_bases_at``: it
splits the roots of z**m (a(z) - lam) at the unit circle once per row
(``poly._split_rows``) and either names the exit that split forces or
builds the basis from the same roots, one stack per p.  ``_run_batch``
keeps each live start's last full row of roots, so that every later
pass polishes them (Aberth) instead of a fresh companion eigensolve
wherever the polish settles: 90% of the clustered-root fixture's rows,
74% of the seven-band fixture's, and nothing at degree 2.  The count
p = m + winding must not change along the run (the component, which
only this module tracks), p > q flags a continuous eigenvalue set, and
shifts escaping the operator norm are stopped.  A step below STEP_TOL
(relative to max(1, |shift|)) sends the new shift to classification
from its own evaluation; the step is scale invariant
(``nep._newton_steps``), so one threshold serves every fixture.  The
run is accepted only if the relative residual of the p boundary
equations Phi solves passes and,
when p < q, the smallest singular value of W V certifies rank
deficiency and the residual of all q equations passes too; a shift
that fails the p-row test keeps stepping from that same evaluation
until the budget runs out.  Classification (``_classify``) takes the
shifts of a p group that converged in the pass with one stacked call per
stage (null vectors, V, residuals, row norms and the certificate) and
decides each row on its own.  It builds V once, without V', at the rows
range(m + L) and W's nonzero columns, L = max(q + n, vec_len): its rows
from m on times beta are the stored eigenvector prefix and the entries
the residual's band rows read; a correction column far past the prefix
is read from its own row, so a far column costs log of its index.  The
certificate's ||V|| is over the pass's basis rows, the ones W reads.

The winding raster samples the symbol curve finely enough that the
closed polygon through the samples stays within a 64th of a cell of it
(``_curve_polygon``).  A cell farther than eps from the polygon takes
its winding number from the signed crossings of its rightward ray
(``_polygon_winding``); the cells whose eps-square the polygon meets
(``_near_cells``) are counted by ``poly._count_rows``, root squaring
with the explicit-root split for the cells it does not settle, a few
grid rows' worth at a time.  Both walk the edges with ``_crossings``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError
from .factor import _factor_rows, _g_rows
from .linalg import _check_eig_dim, _ldexp, eig_dense
from .nep import (
    _basis_values,
    _frobenius_rows,
    _newton_steps,
    _vandermonde_rows,
    build_w,
    equilibrate,
    phi,
)
from .poly import SPLIT_BAND, _char_rows, _count_rows, _row_norms, _split_rows
from .qt import (
    EigRecord,
    QTMatrix,
    SolveStatus,
    _ISOLATED,
    _apply_rows,
    _position,
    finite_section,
    norm_inf,
    symbol_curve,
)

# Step threshold of the stop rule, relative to max(1, |shift|).  At the
# small eigenvalues of the clustered-root fixture the step stalls at a
# noise floor of about 2e-12, so a much smaller threshold leaves
# converged runs stepping until the budget is spent.
STEP_TOL = 1e-8

# Raster labels for attraction basins.
BASIN_CONTINUOUS = -1
BASIN_NONCONV = -2

# Raster sentinel for winding cells on the symbol curve.
CURVE_SENTINEL = -128

# Grid rows' worth of cells per ``poly._count_rows`` call of the winding
# raster.  Only the cells near the sampled curve go there; this bounds
# the stacks of the worst case, every cell near.
_MAP_BLOCK = 10

# Most samples of the symbol curve the winding raster takes; past it the
# band of cells counted by root squaring widens instead.  On 300 x 300
# cells that all lie in the band, the raster peaks at 5.8 MB by
# tracemalloc at 2**14 samples and at 14 MB at 2**16.
_MAP_SAMPLES = 2**14


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for a Newton run.

    ``maxit`` counts Newton steps; the stop rule itself is the module
    constant STEP_TOL.  ``METHODS`` names the bases ``method`` may take.
    """

    METHODS: ClassVar[tuple] = ("frobenius", "vandermonde")

    maxit: int = 20
    method: str = "frobenius"
    gamma: float = 3.0
    residual_tol: float = 1e-10
    dedupe_tol: float = 1e-8
    vec_len: int = 100

    def __post_init__(self):
        for name in ("gamma", "residual_tol", "dedupe_tol"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value) and value > 0):
                raise InvalidInputError(
                    f"{name} must be positive and finite (a real number, not a bool), got {value!r}"
                )
        for name in ("maxit", "vec_len"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise InvalidInputError(f"{name} must be an integer of at least 1")
        if self.method not in self.METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class EigenSolveReport:
    """Deduplicated isolated eigenvalues plus bookkeeping for one driver
    run.  ``outcomes`` maps the value of each SolveStatus some run ended
    in to the number of runs that ended so: the runs made, so a mirrored
    conjugate start is not counted."""

    records: tuple
    section_size: int
    outcomes: dict

    @property
    def converged(self) -> int:
        return len(self.records)

    @property
    def continuous_detected(self) -> bool:
        return SolveStatus.CONTINUOUS_SET.value in self.outcomes


@dataclass(frozen=True)
class Outcomes:
    """The Newton runs of a sequence of starts: every field holds one row
    per start, in order.  The status code (the SolveStatus's index in
    STATUSES, LIVE while the run goes on), the final shift, the residual
    (inf where the exit computes none), the step count and the
    eigenvector prefix, zero where the run is not accepted.  ACCEPTED is
    ``EigRecord.is_isolated`` by code; LIVE (-1) reads its last entry."""

    STATUSES: ClassVar[tuple] = tuple(SolveStatus)
    LIVE: ClassVar[int] = -1
    ACCEPTED: ClassVar[np.ndarray] = np.array([s in _ISOLATED for s in STATUSES] + [False])

    code: np.ndarray
    lam: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    prefix: np.ndarray

    @classmethod
    def join(cls, parts) -> Outcomes:
        """The rows of ``parts`` in order."""
        return cls(*(np.concatenate([getattr(out, f.name) for out in parts])
                     for f in dataclasses.fields(cls)))

    def record(self, k: int) -> EigRecord:
        """The EigRecord of row k, with a prefix if the run is accepted."""
        return EigRecord(
            lam=complex(self.lam[k]),
            vec_prefix=tuple(self.prefix[k]) if _isolated(self.code[k]) else (),
            residual=float(self.residual[k]),
            iterations=int(self.iterations[k]),
            status=self.STATUSES[self.code[k]],
        )


def _code(status: SolveStatus) -> int:
    return Outcomes.STATUSES.index(status)


def _isolated(code: np.ndarray) -> np.ndarray:
    """Where the status codes are isolated eigenvalues."""
    return Outcomes.ACCEPTED[code]


def _bases_at(a, ctx, lam, p0, a_norm, method, warm=None):
    """Evaluate the shifts of a batch of runs: for each row, the
    SolveStatus that ends its run there, or its basis of decaying
    solutions.

    Splits the roots of every row at the unit circle once, polished from
    the previous pass's roots ``warm`` (None on the first pass) where
    ``poly._split_rows`` settles them.  Their count p is checked against
    the row's component ``p0`` (-1 on the first evaluation, whose own
    count defines it), the row count q, the operator norm and p = 0, in
    that order, and the same roots build the bases, one stack per p, at
    the basis rows W reads (``ctx.cols``).
    The Vandermonde kind falls back to the G-power kind on the rows with
    clustered roots; a breakdown of the factorization ends the row's run
    as max_iterations.

    Returns (code, stacks, roots): each row's status code (``Outcomes``;
    LIVE where the row has a basis), a list of (rows, BasisPair stack)
    for the rows that have a basis, and every row's roots, the next
    pass's warm roots.
    """
    sym = a.symbol
    b = _char_rows(sym, lam)
    roots, p, on_curve = _split_rows(b, warm)
    code = np.full(lam.size, Outcomes.LIVE)
    for hit, why in (
        (on_curve, SolveStatus.ON_CURVE),
        ((p0 >= 0) & (p != p0), SolveStatus.OUT_OF_COMPONENT),
        (p > ctx.q, SolveStatus.CONTINUOUS_SET),
        (np.abs(lam) > a_norm, SolveStatus.DIVERGED),
        # no decaying solutions at all in this component: nothing to solve
        (p == 0, SolveStatus.NO_CONVERGENCE_PLTQ),
    ):
        code[(code == Outcomes.LIVE) & hit] = _code(why)
    undecided = code == Outcomes.LIVE
    stacks = []
    for size in sorted(set(p[undecided].tolist())):
        rows = np.flatnonzero(undecided & (p == size))
        inside = roots[rows, :size]
        if method == "vandermonde":
            clustered, stack = _vandermonde_rows(sym, inside, ctx.cols)
            stacks.append((rows[~clustered], stack))
            rows, inside = rows[clustered], inside[clustered]
            if not rows.size:
                continue
        s, _, ds, _, broken = _factor_rows(sym, b[rows], inside)
        # the factorization pipeline broke down at this shift; classified
        # as a failed run rather than escaping the driver
        code[rows[broken]] = _code(SolveStatus.MAX_ITERATIONS)
        ok = ~broken
        stacks.append((rows[ok], _frobenius_rows(*_g_rows(s[ok], ds[ok]), ctx.cols)))
    return code, stacks, roots


def _classify(a, ctx, lam, basis, cfg) -> tuple:
    """Residual test on the p rows Phi solves (all q rows when p == q)
    and, for p < q, the rank certificate and the q-row residual, at the
    converged shifts of one p group with the basis stack their
    evaluation built.  Returns (code, residual, prefix): per row, the
    isolated status code, no_convergence_pltq when only the p < q checks
    fail, or LIVE when the shift is not accepted; per row, the relative
    residual of all q rows; and the eigenvector prefixes of the isolated
    rows, in order.  The null vector beta of each Phi is its last right
    singular vector, by LAPACK's SVD for p > 1; at p == 1 it is the 1
    that SVD returns, taken without the call, as the rank-one basins
    classify every run there (ROADMAP item 22)."""
    sym = a.symbol
    m, q, p = sym.m, ctx.q, basis.p
    # W V, all q rows, from the basis rows at W's nonzero columns: Phi is
    # its first p, the certificate reads it whole
    wv = ctx.w @ basis.v
    # null vectors of unit 2-norm: the last right singular vector of each
    # equilibrated Phi, scaled back by its column factors (1 at p == 1)
    if p == 1:
        beta = np.ones((len(lam), 1), dtype=complex)
    else:
        scaled, _, c = equilibrate(wv[:, :p])
        y = _ldexp(np.linalg.svd(scaled)[2][:, -1].conj(), -c[:, 0])
        beta = y / _row_norms(y)[:, None]
    # one V, without V', at the rows the prefix and W read: the stored
    # eigenvector and the residual's band rows are its rows m.. times
    # beta, and each correction column j its row m - 1 + j, however far
    size = max(q + sym.n, cfg.vec_len)
    rows = sorted(set(range(m + size)).union(ctx.cols))
    v = _basis_values(basis, rows)
    vec = (v[:, m:] @ beta[:, :, None])[:, :, 0]
    # rows are computed each on their own: r[:, :p] is the residual of
    # the p rows Phi solves, all of r when p == q
    r = _apply_rows(a, vec, q, [i - m for i in rows[m:]]) - lam[:, None] * vec[:, :q]
    denom_p, res_p, res, denom_q = (_row_norms(x) for x in (vec[:, :p], r[:, :p], r, vec[:, :q]))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero prefix is not accepted
        rel_p, residual = res_p / denom_p, res / denom_q
    accept = ~((denom_p == 0.0) | (rel_p > cfg.residual_tol))
    code = np.where(accept, _code(SolveStatus.ISOLATED_PQ), Outcomes.LIVE)
    if p < q:
        # W V is q x p: rank deficient when its smallest singular value
        # is at rounding level of ||W|| ||V||, ||V|| over the basis rows
        # the pass built for W, whatever the prefix length
        smin = np.linalg.svd(wv, compute_uv=False)[:, -1]
        tol = 1e-12 * q * ctx.norm2 * np.linalg.svd(basis.v, compute_uv=False).max(axis=-1)
        failed = (smin > tol) | (residual > cfg.residual_tol)
        code[accept] = _code(SolveStatus.ISOLATED_PLTQ)
        code[accept & failed] = _code(SolveStatus.NO_CONVERGENCE_PLTQ)
        accept &= ~failed
    return code, residual, vec[accept, : cfg.vec_len]


def _is_real(a: QTMatrix) -> bool:
    """Whether every band coefficient and correction value is real."""
    values = [c for _, c in a.symbol.terms()] + [v for _, _, v in a.correction.entries]
    return not any(v.imag for v in values)


def _run_batch(a, ctx, a_norm, starts, cfg, real) -> Outcomes:
    """Newton runs from a batch of starts in lockstep, their Outcomes in
    order.  Each pass evaluates the live shifts (``_bases_at``, from the
    roots of their previous pass; the starts of a batch are all on their
    first pass together, which has none), classifies the shifts whose
    last step was below STEP_TOL (``_classify``, per p group), then
    checks the budget and steps the rows still live.  A vanishing trace
    moves the row's shift once by a tiny jitter; a second one ends its
    run.  When ``real`` (a real operator), a shift that is exactly real
    steps by the real part of its step and jitters along the axis.
    Every stage is elementwise or a gufunc stack, and every exit a mask,
    so a row's outcome does not depend on the other rows."""
    lam = np.array(starts, dtype=complex)
    n = lam.size
    code = np.full(n, Outcomes.LIVE)
    residual = np.full(n, math.inf)
    p0 = np.full(n, -1)
    warm = None  # the live rows' last roots: none before the first pass
    iters = np.zeros(n, dtype=np.int64)
    jittered = np.zeros(n, dtype=bool)
    classify = np.zeros(n, dtype=bool)
    prefix = np.zeros((n, cfg.vec_len), dtype=complex)
    live = np.arange(n)
    while live.size:
        code[live], stacks, roots = _bases_at(a, ctx, lam[live], p0[live], a_norm, cfg.method, warm)
        for rows, basis in stacks:
            idx = live[rows]
            p0[idx] = basis.p  # the start's component; later shifts must stay in it
            conv = classify[idx]
            if conv.any():
                done = idx[conv]
                got, res, vec = _classify(a, ctx, lam[done], basis[conv], cfg)
                code[done] = got
                ended = got != Outcomes.LIVE
                residual[done[ended]] = res[ended]
                prefix[done[_isolated(got)]] = vec
            go = code[idx] == Outcomes.LIVE
            spent = go & (iters[idx] >= cfg.maxit)
            code[idx[spent]] = _code(SolveStatus.MAX_ITERATIONS)
            go &= ~spent
            if not go.any():
                continue
            idx = idx[go]
            step, vanished = _newton_steps(*phi(ctx, basis[go], basis.p))
            code[idx[vanished & jittered[idx]]] = _code(SolveStatus.MAX_ITERATIONS)
            moved = idx[vanished & ~jittered[idx]]
            jittered[moved], classify[moved] = True, False
            on_axis = real & (lam[moved].imag == 0)
            lam[moved] = lam[moved] * (1 + 1e-8) + np.where(on_axis, 1e-8, 1e-8j)
            idx, step = idx[~vanished], step[~vanished]
            if real:
                step = np.where(lam[idx].imag == 0, step.real, step)
            iters[idx] += 1
            classify[idx] = np.abs(step) < STEP_TOL * np.maximum(1.0, np.abs(lam[idx]))
            lam[idx] -= step
        keep = code[live] == Outcomes.LIVE
        live, warm = live[keep], roots[keep]
    return Outcomes(code, lam, residual, iters, prefix)


def _run_newton(a, ctx, a_norm, lam0, cfg) -> EigRecord:
    """One Newton run: a batch of one of ``_run_batch``."""
    return _run_batch(a, ctx, a_norm, [complex(lam0)], cfg, _is_real(a)).record(0)


def _row_bytes(d: int, p: int, columns: int, vec_len: int) -> int:
    """The working memory of one row of a lockstep chunk's passes, in
    bytes, from the sizes a pass allocates: 650 whatever the sizes (its
    masks, outcome columns and shift), 52 d**2 for the degree-d
    companion stack and the roots the split keeps, 80 p per nonzero
    column of W for the stacked bases at W's columns and their
    derivatives, p = min(d, q) the widest basis the row can have, and
    39 per entry of the eigenvector prefix (the row's own, which every
    row holds, and ``_classify``'s vectors).  Fitted to tracemalloc's
    per-row peak of the passes of the first chunk ``_runs`` cuts on
    seven configurations, from the rank-one basins (d = 2, p = 1, two
    columns, a one-entry prefix) to the clustered roots (d = p = 12, 22
    columns), within 1.30x of each (its 1.35x guard prints the table and
    the worst ratio: ``pytest -s tests/test_solver.py -k row_bytes``).
    No four such terms do much better: how
    many of a chunk's rows reach ``_classify`` at once is the fixture's,
    not the sizes', and the fit's worst, 1.296x, is on the rank-one 24 x 24 grid
    at the default prefix (under); the best real-valued fit of this
    form is 1.270x on the same measurements."""
    return 650 + 52 * d * d + 80 * p * columns + 39 * vec_len


def _chunk_rows(d: int, p: int, columns: int, vec_len: int) -> int:
    """The size ``_chunk_bounds`` cuts lockstep chunks to: as many rows as
    fit in 4 MB of working memory by ``_row_bytes``, and at least 32, so
    that a wide W still steps enough rows per stacked call to amortise
    its overhead.  A cut chunk holds up to 1.5 x the size: the clustered
    roots' 165 starts (size 120) run as one chunk that peaks at 5.2 MB."""
    return max(32, 4_000_000 // _row_bytes(d, p, columns, vec_len))


def _chunk_bounds(n: int, size: int) -> list:
    """The (first, stop) bounds of the cut of n starts, in order, into
    n / size chunks, rounded half up and at least 1, whose lengths differ
    by at most 1, so that none exceeds 1.5 x size.  A remainder shorter
    than half a chunk joins the others instead of costing as many
    lockstep passes as a full chunk."""
    count = max(1, (2 * n + size) // (2 * size))
    return [(k * n // count, (k + 1) * n // count) for k in range(count)]


def _row_sizes(a: QTMatrix, ctx, vec_len: int) -> tuple:
    """The sizes (d = m + n, p = min(d, q), W's nonzero columns, vec_len)
    that ``_row_bytes`` reads for a row of ``a``'s runs on W (``ctx``)."""
    d = a.symbol.m + a.symbol.n
    return d, min(d, ctx.q), len(ctx.cols), vec_len


def _runs(a: QTMatrix, starts, cfg: SolverConfig) -> Outcomes:
    """The Outcomes of a sequence of starts, in order, run in the chunks
    ``_chunk_bounds`` cuts for ``_chunk_rows`` (``_row_sizes``) on one
    W, one row-sum norm and one realness test."""
    ctx, a_norm, real = build_w(a), norm_inf(a), _is_real(a)
    size = _chunk_rows(*_row_sizes(a, ctx, cfg.vec_len))
    return Outcomes.join([_run_batch(a, ctx, a_norm, starts[lo:hi], cfg, real)
                          for lo, hi in _chunk_bounds(len(starts), size)])


def _limit_index(lam: np.ndarray, limits: list, tol: float) -> np.ndarray:
    """For each shift of ``lam``, in order, the index of the first w in
    ``limits`` with |lam - w| <= tol * max(1, |lam|), the same limit.  A
    shift with none is appended to ``limits`` (a complex), so that the
    shifts after it may match it."""
    scale = tol * np.maximum(1.0, np.abs(lam))
    out = np.full(lam.size, -1)
    if limits:
        hit = np.abs(lam[:, None] - np.array(limits, dtype=complex)) <= scale[:, None]
        out = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    free = np.flatnonzero(out < 0)
    while free.size:  # the first shift no limit matched is a new limit
        first, rest = free[0], free[1:]
        out[first] = len(limits)
        limits.append(complex(lam[first]))
        hit = np.abs(lam[rest] - limits[-1]) <= scale[rest]
        out[rest[hit]] = out[first]
        free = rest[~hit]
    return out


def eig_single(a: QTMatrix, lam0: complex, cfg: SolverConfig | None = None) -> EigRecord:
    """Refine one starting shift by Newton's iteration and classify the
    outcome (isolated eigenvalue, continuous component, escape, ...)."""
    cfg = cfg or SolverConfig()
    try:
        start = complex(lam0)
        finite = math.isfinite(start.real) and math.isfinite(start.imag)
    except (TypeError, ValueError, OverflowError):  # no number, or an int past the floats
        finite = False
    if not finite:
        raise InvalidInputError(f"starting shift must be a finite number, got {lam0!r}")
    return _runs(a, [start], cfg).record(0)


def _representatives(lam: np.ndarray, residual: np.ndarray, tol: float, real: bool) -> np.ndarray:
    """Indices of one run per limit of the accepted shifts ``lam``, given
    in section order, in (real, imag) order of their shifts.  Sorted so
    (equal shifts in section order), the shifts take their limits from
    one ``_limit_index`` call: a limit is its first member.  Each keeps
    its smallest residual, the first of equals in that order, and on a
    real operator (``real``) its exactly real runs come first."""
    order = np.lexsort((lam.imag, lam.real))
    lam, residual = lam[order], residual[order]
    label = _limit_index(lam, [], tol)
    best = np.lexsort((residual, real & (lam.imag != 0), label))
    _, first = np.unique(label[best], return_index=True)
    return order[np.sort(best[first])]


def section_size(a: QTMatrix, gamma: float) -> int:
    """Seeding truncation level: gamma times the larger of the correction
    support and the bandwidth.  Raises InvalidInputError when it exceeds
    EIG_MAX_DIM, a product past the float range included."""
    sym = a.symbol
    corr = a.correction
    try:
        size = int(math.ceil(gamma * max(corr.k1, corr.k2, sym.m + sym.n)))
    except OverflowError:  # the product leaves the float range
        size = math.inf
    _check_eig_dim(size)
    return size


def eig_all(a: QTMatrix, cfg: SolverConfig | None = None) -> EigenSolveReport:
    """Find isolated eigenvalues by running Newton from every eigenvalue
    of a finite section, then deduplicating the converged limits.

    On a real operator the section's non-real eigenvalues come in exact
    conjugate pairs and the run from conj(lam) mirrors the run from lam,
    so only the starts with Im >= 0 run, and the accepted rows of the
    starts with Im > 0 join as rows of their conjugate starts: conjugate
    shifts and eigenvector prefixes, the same status, residual and step
    count.  ``_representatives`` keeps one accepted row per limit, an
    exactly real one first on a real operator; only those become records.

    Seeding from a finite truncation is a heuristic: eigenvalues whose
    basins the section misses are not found.
    """
    cfg = cfg or SolverConfig()
    size = section_size(a, cfg.gamma)  # checked before the section is built
    starts = np.array(eig_dense(finite_section(a, size)))
    mirrored = _is_real(a)
    if mirrored:
        starts = starts[starts.imag >= 0]
    out = _runs(a, starts, cfg)
    counts = np.bincount(out.code, minlength=len(Outcomes.STATUSES))
    if mirrored:
        up = np.flatnonzero(_isolated(out.code) & (starts.imag > 0))
        out = Outcomes.join([out, Outcomes(
            out.code[up], out.lam[up].conj(), out.residual[up], out.iterations[up],
            out.prefix[up].conj())])
        starts = np.concatenate([starts, starts[up].conj()])
    # the section's order, as if every start had run
    rows = np.flatnonzero(_isolated(out.code))
    rows = rows[np.lexsort((starts[rows].imag, starts[rows].real))]
    reps = rows[_representatives(out.lam[rows], out.residual[rows], cfg.dedupe_tol, mirrored)]
    return EigenSolveReport(
        records=tuple(out.record(k) for k in reps.tolist()),
        section_size=size,
        outcomes={s.value: int(n) for s, n in zip(Outcomes.STATUSES, counts) if n},
    )


def _pair(x, what: str, convert) -> tuple:
    """x's two entries through convert; ``what`` names x in the error."""
    try:
        lo, hi = (convert(v) for v in x)
    except (TypeError, ValueError):  # not iterable, not two entries, not numbers
        raise InvalidInputError(f"{what} {x!r} is not a pair of numbers") from None
    return lo, hi


def _grid_axes(re_range, im_range, resolution):
    if np.ndim(resolution) == 0:
        resolution = (resolution, resolution)
    n_re, n_im = _pair(resolution, "resolution", lambda r: _position(r, "resolution"))
    if n_re < 2 or n_im < 2:
        raise InvalidInputError("resolution must be at least 2 per axis")
    re0, re1 = _pair(re_range, "re_range", float)
    im0, im1 = _pair(im_range, "im_range", float)
    if not all(math.isfinite(x) for x in (re0, re1, im0, im1)):
        raise InvalidInputError("ranges must be finite")
    if re1 <= re0 or im1 <= im0:
        raise InvalidInputError("ranges must be increasing")
    if not (math.isfinite((re1 - re0) / n_re) and math.isfinite((im1 - im0) / n_im)):
        raise InvalidInputError("cell widths must be finite")
    with np.errstate(over="ignore"):  # refused just below
        res = re0 + (np.arange(n_re) + 0.5) * (re1 - re0) / n_re
        ims = im0 + (np.arange(n_im) + 0.5) * (im1 - im0) / n_im
    if not (np.isfinite(res).all() and np.isfinite(ims).all()):
        raise InvalidInputError("cell centres must be finite")
    return res, ims


def _curve_polygon(a: QTMatrix, res: np.ndarray, ims: np.ndarray) -> tuple:
    """The symbol curve sampled for the winding raster, and the band eps
    around the closed polygon through the samples beyond which a cell's
    winding number is the polygon's.

    On [t_j, t_j + h], h = 2 pi / nseg, the chord leaves the curve by at
    most delta = h**2 / 8 * sum k**2 |a_k| (linear interpolation of
    a(e^{it})), so the straight-line homotopy from polygon to curve keeps
    clear of every point farther than delta from the polygon.  nseg puts
    delta at 1/64 of the smaller cell side, up to _MAP_SAMPLES samples,
    past which the band widens instead.  eps adds to delta the rounding
    of the samples, crossings and ``_near_cells`` side lines, and 100
    SPLIT_BAND sum |k a_k|: a shift whose root the split puts within
    SPLIT_BAND of the circle lies within about SPLIT_BAND sum |k a_k| of
    the curve, so every on-curve cell is near, and beyond eps the count,
    whether root squaring or the split settles it, is the winding number.
    An overflow in these terms makes eps infinite, and every cell near.
    """
    k, c = np.array([(j, abs(v)) for j, v in a.symbol.terms()]).T
    with np.errstate(over="ignore"):
        s0, s1, s2 = (float(np.sum(np.abs(k) ** e * c)) for e in (0, 1, 2))
        cell = min(res[1] - res[0], ims[1] - ims[0])
        h = math.sqrt(cell / (8.0 * s2))  # the step that puts delta at cell / 64
        nseg = _MAP_SAMPLES
        if h * _MAP_SAMPLES > 2 * math.pi:
            nseg = max(8, math.ceil(2 * math.pi / h))
        box = max(abs(res[0]), abs(res[-1]), abs(ims[0]), abs(ims[-1]))
        rounding = 64 * (k.size + 8) * np.finfo(float).eps * (s0 + box)
        delta = (2 * math.pi / nseg) ** 2 / 8.0 * s2
    return symbol_curve(a, nseg), delta + rounding + 100 * SPLIT_BAND * s1


def _crossings(a0, a1, b0, b1, lines: np.ndarray) -> tuple:
    """The crossings of the polygon edges (a0, b0) -> (a1, b1) with the
    ascending lines a = lines[i]: an edge crosses the lines
    min(a0, a1) <= line < max(a0, a1).  Returns three flat arrays: each
    crossing's edge, line index and b coordinate."""
    lo = np.searchsorted(lines, np.minimum(a0, a1))
    counts = np.searchsorted(lines, np.maximum(a0, a1)) - lo
    edge = np.repeat(np.arange(lo.size), counts)
    line = np.arange(edge.size) - (np.cumsum(counts) - counts)[edge] + lo[edge]
    b = b0[edge] + (lines[line] - a0[edge]) / (a1[edge] - a0[edge]) * (b1[edge] - b0[edge])
    return edge, line, b


def _polygon_winding(f: np.ndarray, res: np.ndarray, ims: np.ndarray) -> np.ndarray:
    """Winding number of the closed polygon through f around every cell
    centre not on it, by the signed crossings of the cell's rightward ray
    (Hormann & Agathos, Comput. Geom. 20, 2001).  Each row crossing of
    an edge, upwards +1 and downwards -1, adds its sign to the cells left
    of it: one difference array along the rows, summed from the right."""
    x0, y0 = f.real, f.imag
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    edge, row, x = _crossings(y0, y1, x0, x1, ims)
    width = res.size + 1
    acc = np.bincount(row * width + np.searchsorted(res, x), weights=np.sign(y1 - y0)[edge],
                      minlength=ims.size * width).reshape(ims.size, width)
    return np.rint(np.cumsum(acc[:, ::-1], axis=1)[:, -2::-1]).astype(np.int64)


def _near_cells(f: np.ndarray, res: np.ndarray, ims: np.ndarray, eps: float) -> np.ndarray:
    """A mask holding every cell within eps of the closed polygon through
    f: the cells whose square of half-side eps about the centre (it holds
    the disk of radius eps) the polygon meets, with a vertex in it or an
    edge crossing a side line Im = ims -+ eps or Re = res -+ eps.  Each
    vertex and crossing marks one rectangle of cells in a 2-D difference
    array: O(segments + crossings) work for any eps.  Rounding moves the
    lines and crossings by a few ulps of the box, far inside the term
    64 (k + 8) eps_mach (s0 + box) that eps allows for it."""
    if not math.isfinite(eps):
        return np.ones((ims.size, res.size), dtype=bool)

    def near(axis, v):  # the span of centres on this axis within eps of v
        return np.searchsorted(axis, v - eps), np.searchsorted(axis, v + eps, side="right")
    x0, y0 = f.real, f.imag
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    rects = [near(ims, y0) + near(res, x0)]
    for side in (-eps, eps):
        _, row, x = _crossings(y0, y1, x0, x1, ims + side)
        rects.append((row, row + 1) + near(res, x))
        _, col, y = _crossings(x0, x1, y0, y1, res + side)
        rects.append(near(ims, y) + (col, col + 1))
    r0, r1, c0, c1 = (np.concatenate(v) for v in zip(*rects))
    cover = np.zeros((ims.size + 1, res.size + 1), dtype=np.int64)
    for r, c, sign in ((r0, c0, 1), (r1, c1, 1), (r0, c1, -1), (r1, c0, -1)):
        np.add.at(cover, (r, c), sign)
    return cover.cumsum(axis=0).cumsum(axis=1)[:-1, :-1] > 0


def winding_map(a: QTMatrix, re_range, im_range, resolution) -> np.ndarray:
    """Winding number of the symbol curve at every cell center of the box,
    with CURVE_SENTINEL marking cells that land on the curve.

    Returns an (n_im, n_re) integer grid; row k belongs to the k-th
    imaginary coordinate, column j to the j-th real coordinate.  The
    cells near the sampled curve (``_near_cells``) are counted by
    ``poly._count_rows``, at most _MAP_BLOCK grid rows' worth at a time,
    the others by the polygon's crossings (``_polygon_winding``).
    """
    res, ims = _grid_axes(re_range, im_range, resolution)
    sym = a.symbol
    f, eps = _curve_polygon(a, res, ims)
    out = _polygon_winding(f, res, ims)
    near = np.flatnonzero(_near_cells(f, res, ims, eps))
    block = _MAP_BLOCK * res.size
    for k in range(0, near.size, block):
        cells = near[k : k + block]
        lam = res[cells % res.size] + 1j * ims[cells // res.size]
        count, _, on_curve = _count_rows(_char_rows(sym, lam))
        out.flat[cells] = np.where(on_curve, CURVE_SENTINEL, count - sym.m)
    return out


def basins(a: QTMatrix, re_range, im_range, resolution, cfg: SolverConfig | None = None):
    """Label each cell center of the box by the limit of Newton's iteration
    started there: the index of the deduplicated limit eigenvalue,
    BASIN_CONTINUOUS for continuous-component cells, BASIN_NONCONV for
    everything else.

    Returns (labels, eigenvalues): the (n_im, n_re) label grid and the
    list of limit eigenvalues the nonnegative labels refer to.  It keeps
    no eigenvectors: the runs store a one-entry prefix, ``cfg.vec_len``
    ignored, so that ``_chunk_rows`` steps more cells at once.
    """
    cfg = cfg or SolverConfig()
    res, ims = _grid_axes(re_range, im_range, resolution)
    starts = np.empty((ims.size, res.size), dtype=complex)  # row-major, as labels
    starts.real, starts.imag = res, ims[:, None]
    out = _runs(a, starts.ravel(), dataclasses.replace(cfg, vec_len=1))
    labels = np.full(out.code.size, BASIN_NONCONV, dtype=np.int64)
    labels[out.code == _code(SolveStatus.CONTINUOUS_SET)] = BASIN_CONTINUOUS
    accepted = _isolated(out.code)
    limits: list = []
    labels[accepted] = _limit_index(out.lam[accepted], limits, cfg.dedupe_tol)
    return labels.reshape(starts.shape), limits

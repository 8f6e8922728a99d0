"""Newton's iteration on the determinant of the reduced pencil, its
drivers and the winding raster.  ``eig_single`` (one start), ``eig_all``
(the finite-section eigenvalues) and ``basins`` (the raster cells) run
their starts through one generator, ``_runs``, which builds W and the
row-sum norm once; ``_limit_index`` is the one "same limit" rule, for
deduplication and basin labels alike.

Each shift of a run is evaluated in one place, ``_basis_at``: it splits
the companion roots of z**m (a(z) - lam) at the unit circle once
(``poly._split``) and either names the exit that split forces or
builds the basis from the same roots.  The count p = m + winding must
not change along the run (the component), p > q flags a continuous
eigenvalue set, and shifts escaping the operator norm are stopped.  A
step below STEP_TOL (relative to max(1, |shift|)) sends the new shift
to classification from its own evaluation; the step is scale invariant
(``nep.newton_correction``), so one threshold serves every fixture.
The run is accepted only if the relative residual of the boundary
equations passes and, when p < q, the smallest singular value of W V
certifies rank deficiency; otherwise it keeps stepping from that same
evaluation until the budget runs out.

The winding raster takes its counts from the path of ``poly.winding``,
a few grid rows at a time: root squaring on all their cells at once,
and ``poly._split`` for the cells it does not settle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClusteredRootsError,
    DerivativeVanishesError,
    FactorizationUnstableError,
    InvalidInputError,
    OnCurveError,
    SingularMatrixError,
)
from .factor import wiener_hopf
from .linalg import _check_eig_dim, eig_dense
from .nep import (
    basis_frobenius,
    basis_vandermonde,
    build_w,
    eigvec_prefix,
    equilibrate,
    newton_correction,
    phi,
)
from .poly import _ldexp, _split, _windings, char_poly
from .qt import (
    EigRecord,
    QTMatrix,
    SolveStatus,
    _position,
    apply_prefix,
    finite_section,
    norm_inf,
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

# Grid rows per batch of the winding raster: bounds its working memory.
_MAP_BLOCK = 10


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for a Newton run.

    ``maxit`` counts Newton steps; the stop rule itself is the module
    constant STEP_TOL.
    """

    maxit: int = 20
    method: str = "frobenius"
    gamma: float = 3.0
    residual_tol: float = 1e-10
    dedupe_tol: float = 1e-8
    vec_len: int = 100

    def __post_init__(self):
        knobs = (self.gamma, self.residual_tol, self.dedupe_tol)
        if not all(math.isfinite(x) and x > 0 for x in knobs):
            raise InvalidInputError("tolerances and gamma must be positive and finite")
        for name in ("maxit", "vec_len"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise InvalidInputError(f"{name} must be an integer of at least 1")
        if self.method not in ("frobenius", "vandermonde"):
            raise InvalidInputError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class EigenSolveReport:
    """Deduplicated isolated eigenvalues plus bookkeeping for one driver run."""

    records: tuple
    section_size: int
    continuous_detected: bool

    @property
    def converged(self) -> int:
        return len(self.records)


def _failure(lam: complex, iterations: int, status: SolveStatus, residual=math.inf) -> EigRecord:
    return EigRecord(
        lam=complex(lam),
        beta=(),
        vec_prefix=(),
        residual=float(residual),
        iterations=iterations,
        status=status,
    )


def _null_direction(phi_mat: np.ndarray) -> np.ndarray:
    """Approximate null vector of a square matrix, of unit 2-norm: the
    last right singular vector of the equilibrated matrix, scaled back
    by the column factors."""
    scaled, _, c = equilibrate(phi_mat)
    y = _ldexp(np.linalg.svd(scaled)[2][-1].conj(), -c[0])
    return y / np.linalg.norm(y)


def _basis_at(a, ctx, lam, p0, a_norm, method):
    """Evaluate one shift of a run: the SolveStatus that ends the run
    there, or the basis of decaying solutions at it.

    Splits the companion roots at the unit circle once.  Their count p
    is checked against the component ``p0`` (None on the first
    evaluation, whose own count defines it), the row count q, the
    operator norm and p = 0, in that order, and the same roots build the
    basis.  The Vandermonde kind falls back to the G-power kind on
    clustered roots; a breakdown of the factorization ends the run as
    max_iterations."""
    sym = a.symbol
    b = char_poly(sym, lam)
    try:
        inside = _split(b, lam)
    except OnCurveError:
        return SolveStatus.ON_CURVE
    p = len(inside)
    if p0 is not None and p != p0:
        return SolveStatus.OUT_OF_COMPONENT
    if p > ctx.q:
        return SolveStatus.CONTINUOUS_SET
    if abs(lam) > a_norm:
        return SolveStatus.DIVERGED
    if p == 0:
        # no decaying solutions at all in this component: nothing to solve
        return SolveStatus.NO_CONVERGENCE_PLTQ
    if method == "vandermonde":
        try:
            return basis_vandermonde(sym, lam, ctx.width, inside)
        except ClusteredRootsError:
            pass
    try:
        return basis_frobenius(wiener_hopf(sym, lam, inside, b), ctx.width)
    except (FactorizationUnstableError, SingularMatrixError):
        # the factorization pipeline broke down at this shift; classified
        # as a failed run rather than escaping the driver
        return SolveStatus.MAX_ITERATIONS


def _classify(a, ctx, lam, basis, iterations, cfg):
    """Residual test and, for p < q, the rank certificate, at a converged
    shift with the basis its evaluation built.  Returns an EigRecord or
    None when not accepted."""
    sym = a.symbol
    q = ctx.q
    p = basis.p
    # W V, all q rows: Phi is its first p, the certificate reads it whole
    wv = ctx.w @ basis.v
    beta = _null_direction(wv[:p])
    res_len = max(q + sym.n, a.correction.k2)
    # one prefix serves the residual rows and the stored eigenvector:
    # both are leading entries of the same sequence
    full = eigvec_prefix(basis, beta, max(res_len, cfg.vec_len), sym)
    vec = full[:res_len]
    denom_q = float(np.linalg.norm(vec[:q]))
    if denom_q == 0.0:
        return None
    # rows are computed each on its own: r[:p] is the p-row residual
    r = apply_prefix(a, vec, q) - lam * vec[:q]
    res_q = float(np.linalg.norm(r)) / denom_q
    if p == q:
        if res_q > cfg.residual_tol:
            return None
        status = SolveStatus.ISOLATED_PQ
    else:
        denom_p = float(np.linalg.norm(vec[:p]))
        if denom_p == 0.0:
            return None
        res_p = float(np.linalg.norm(r[:p])) / denom_p
        if res_p > cfg.residual_tol:
            return None
        # W V is q x p: rank deficient when its smallest singular value
        # is at rounding level of ||W|| ||V||
        smin = np.linalg.svd(wv, compute_uv=False)[-1]
        tol = 1e-12 * q * ctx.norm2 * np.linalg.norm(basis.v, 2)
        if smin > tol or res_q > cfg.residual_tol:
            return _failure(lam, iterations, SolveStatus.NO_CONVERGENCE_PLTQ, res_q)
        status = SolveStatus.ISOLATED_PLTQ
    prefix = full[: cfg.vec_len]
    return EigRecord(
        lam=complex(lam),
        beta=tuple(beta),
        vec_prefix=tuple(prefix),
        residual=res_q,
        iterations=iterations,
        status=status,
    )


def _run_newton(a, ctx, a_norm, lam0, cfg) -> EigRecord:
    """One Newton run: each pass evaluates the shift, classifies it when
    the step that led there was below STEP_TOL, checks the budget and
    steps.  A vanishing trace moves the start once by a tiny jitter;
    a second one ends the run."""
    lam = complex(lam0)
    p0 = None
    iters = 0
    jittered = classify = False
    while True:
        basis = _basis_at(a, ctx, lam, p0, a_norm, cfg.method)
        if isinstance(basis, SolveStatus):
            return _failure(lam, iters, basis)
        p0 = basis.p  # the start's component; later shifts must stay in it
        if classify:
            record = _classify(a, ctx, lam, basis, iters, cfg)
            if record is not None:
                return record
        if iters >= cfg.maxit:
            break
        try:
            step = newton_correction(*phi(ctx, basis, p0))
        except DerivativeVanishesError:
            if jittered:
                break
            jittered, classify = True, False
            lam = lam * (1 + 1e-8) + 1e-8j
            continue
        iters += 1
        classify = abs(step) < STEP_TOL * max(1.0, abs(lam))
        lam = lam - step
    return _failure(lam, iters, SolveStatus.MAX_ITERATIONS)


def _runs(a: QTMatrix, starts, cfg: SolverConfig):
    """Generator of the Newton record of each start, in order, on one W
    and one row-sum norm, both built before the first run."""
    ctx, a_norm = build_w(a), norm_inf(a)
    return (_run_newton(a, ctx, a_norm, complex(s), cfg) for s in starts)


def _limit_index(lam: complex, limits, tol: float):
    """Index of the first w in ``limits`` with |lam - w| <= tol *
    max(1, |lam|), the same limit as lam; None if there is none."""
    scale = tol * max(1.0, abs(lam))
    return next((k for k, w in enumerate(limits) if abs(lam - w) <= scale), None)


def eig_single(a: QTMatrix, lam0: complex, cfg: SolverConfig | None = None) -> EigRecord:
    """Refine one starting shift by Newton's iteration and classify the
    outcome (isolated eigenvalue, continuous component, escape, ...)."""
    cfg = cfg or SolverConfig()
    start = complex(lam0)
    if not (math.isfinite(start.real) and math.isfinite(start.imag)):
        raise InvalidInputError("starting shift must be finite")
    return next(_runs(a, [start], cfg))


def _dedupe(records, tol):
    """Cluster isolated records by shift, keeping the representative with
    the smallest residual per cluster."""
    reps: list = []
    for rec in sorted(records, key=lambda r: (r.lam.real, r.lam.imag)):
        k = _limit_index(rec.lam, (rep.lam for rep in reps), tol)
        if k is None:
            reps.append(rec)
        elif rec.residual < reps[k].residual:
            reps[k] = rec
    return sorted(reps, key=lambda r: (r.lam.real, r.lam.imag))


def section_size(a: QTMatrix, gamma: float) -> int:
    """Seeding truncation level: gamma times the larger of the correction
    support and the bandwidth."""
    sym = a.symbol
    corr = a.correction
    return int(math.ceil(gamma * max(corr.k1, corr.k2, sym.m + sym.n)))


def eig_all(a: QTMatrix, cfg: SolverConfig | None = None) -> EigenSolveReport:
    """Find isolated eigenvalues by running Newton from every eigenvalue
    of a finite section, then deduplicating the converged limits.

    Seeding from a finite truncation is a heuristic: eigenvalues whose
    basins the section misses are not found.
    """
    cfg = cfg or SolverConfig()
    size = section_size(a, cfg.gamma)
    _check_eig_dim(size)  # before the section is built
    starts = eig_dense(finite_section(a, size))
    isolated, continuous = [], False
    for rec in _runs(a, starts, cfg):
        continuous |= rec.status is SolveStatus.CONTINUOUS_SET
        if rec.is_isolated:
            isolated.append(rec)
    return EigenSolveReport(
        records=tuple(_dedupe(isolated, cfg.dedupe_tol)),
        section_size=size,
        continuous_detected=continuous,
    )


def _grid_axes(re_range, im_range, resolution):
    if np.ndim(resolution) == 0:
        resolution = (resolution, resolution)
    n_re, n_im = (_position(r, "resolution") for r in resolution)
    if n_re < 2 or n_im < 2:
        raise InvalidInputError("resolution must be at least 2 per axis")
    re0, re1 = (float(x) for x in re_range)
    im0, im1 = (float(x) for x in im_range)
    if not all(math.isfinite(x) for x in (re0, re1, im0, im1)):
        raise InvalidInputError("ranges must be finite")
    if re1 <= re0 or im1 <= im0:
        raise InvalidInputError("ranges must be increasing")
    res = re0 + (np.arange(n_re) + 0.5) * (re1 - re0) / n_re
    ims = im0 + (np.arange(n_im) + 0.5) * (im1 - im0) / n_im
    return res, ims


def winding_map(a: QTMatrix, re_range, im_range, resolution) -> np.ndarray:
    """Winding number of the symbol curve at every cell center of the box,
    with CURVE_SENTINEL marking cells that land on the curve.

    Returns an (n_im, n_re) integer grid; row k belongs to the k-th
    imaginary coordinate, column j to the j-th real coordinate.  The
    cells of a few grid rows at a time go through ``poly.winding``'s
    path as one batch.
    """
    res, ims = _grid_axes(re_range, im_range, resolution)
    sym = a.symbol
    out = np.empty((ims.size, res.size), dtype=np.int64)
    for k in range(0, ims.size, _MAP_BLOCK):
        lam = (res[None, :] + 1j * ims[k : k + _MAP_BLOCK, None]).ravel()
        wind, on_curve = _windings(sym, lam)
        wind[on_curve] = CURVE_SENTINEL
        out[k : k + _MAP_BLOCK] = wind.reshape(-1, res.size)
    return out


def basins(a: QTMatrix, re_range, im_range, resolution, cfg: SolverConfig | None = None):
    """Label each cell center of the box by the limit of Newton's iteration
    started there: the index of the deduplicated limit eigenvalue,
    BASIN_CONTINUOUS for continuous-component cells, BASIN_NONCONV for
    everything else.

    Returns (labels, eigenvalues): the (n_im, n_re) label grid and the
    list of limit eigenvalues the nonnegative labels refer to.
    """
    cfg = cfg or SolverConfig()
    res, ims = _grid_axes(re_range, im_range, resolution)
    labels = np.full((ims.size, res.size), BASIN_NONCONV, dtype=np.int64)
    starts = (complex(x, y) for y in ims for x in res)  # row-major, as labels.flat
    limits: list = []
    for cell, rec in enumerate(_runs(a, starts, cfg)):
        if rec.status is SolveStatus.CONTINUOUS_SET:
            labels.flat[cell] = BASIN_CONTINUOUS
        elif rec.is_isolated:
            idx = _limit_index(rec.lam, limits, cfg.dedupe_tol)
            if idx is None:
                idx = len(limits)
                limits.append(rec.lam)
            labels.flat[cell] = idx
    return labels, limits

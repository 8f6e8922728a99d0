"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Two criteria encode published reference values that these fixtures
cannot reproduce and are expected to fail.  Both checks are kept
faithful rather than loosened.

Criterion 3, the N = 1600 section-distance target (7.3e-11) for the
eigenvalue near -0.58.  For every real shift checked in [-1.9, 0],
-0.5815 included, the 7th and 8th smallest root moduli of
z**7 (a(z) - lam) are equal, a conjugate pair (``TestLimitSet`` in
test_poly.py pins this at -0.5815; at the control -2.5 they are 0.98245
and 1.07541).  So that segment of the real axis lies in the limit set
of the Toeplitz section spectra (Schmidt & Spitzer, Math. Scand. 8,
1960; Boettcher & Grudsky, SIAM 2005): section eigenvalues fill it with
a spacing that shrinks as N grows, and cannot converge exponentially to
an eigenvalue on it.  From N = 500 to 1600 the two nearest section
eigenvalues straddle -0.5815, 0.8e-2 to 2.1e-2 apart, and up to
N = 1200 they are well conditioned (condition numbers 7.9e2 to 2.0e7,
so a rounding error below 3e-7): the distance, 6.3e-3 at N = 1600, is
truncation, not rounding.

Criterion 4, the modulus bands.  [15, 25] and [25, 35] are empty,
because every eigenvalue modulus is bounded by the row-sum norm 11.331.
[0.2, 2] holds 2 eigenvalues, not 4: the disk |lam| < 8.69 (the
smallest |a| on the symbol curve) is one winding component with
p = q = 12, and there the argument principle on the trace f'/f of
f = det Phi (trapezoid rule, 64 nodes, imaginary parts below 1e-11)
counts 2 eigenvalues inside |lam| = 0.2 and 4 inside |lam| = 2.  So
exactly 2 have modulus in [0.2, 2]: the 0.1585 +/- 0.3004i pair that
``eig_all`` finds.
"""

import math
import time

import numpy as np

import qteig as q
from qteig.errors import FactorizationUnstableError, OnCurveError
from qteig.factor import barnett_g, wiener_hopf
from qteig.linalg import eig_dense, roots_companion
from qteig.nep import basis_frobenius, basis_vandermonde, build_w, newton_correction, phi
from qteig.poly import char_poly, convolve
from qteig.solver import CURVE_SENTINEL

from conftest import poly_from_roots, random_symbol


def _tol_2sig(x: float) -> float:
    # half a unit in the second significant digit
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 1)


def _matches_2sig(z: complex, target: complex) -> bool:
    ok_re = abs(z.real - target.real) <= _tol_2sig(target.real)
    if target.imag == 0:
        return ok_re and abs(z.imag) <= 1e-8
    return ok_re and abs(z.imag - target.imag) <= _tol_2sig(target.imag)


def _finish(num: int, failures: list, elapsed: float) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} ({elapsed:.1f}s)"
          + ("" if not failures else " - " + "; ".join(failures)))
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_rank_one_fixture(fix_a):
    t0 = time.perf_counter()
    failures = []
    rep = q.eig_all(fix_a)
    if rep.converged != 1:
        failures.append(f"expected exactly 1 eigenvalue, got {rep.converged}")
    else:
        rec = rep.records[0]
        if abs(rec.lam) > 1e-10:
            failures.append(f"|lam| = {abs(rec.lam):.2e} > 1e-10")
        if rec.residual > 1e-12:
            failures.append(f"residual = {rec.residual:.2e} > 1e-12")
        v = np.asarray(rec.vec_prefix)
        ratio_err = np.abs(v[1:21] / v[:20] - 0.5).max()
        if ratio_err > 1e-8:
            failures.append(f"eigenvector ratio error {ratio_err:.2e} > 1e-8")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _finish(1, failures, elapsed)


TABLE1_PAIRS = [
    complex(-0.40, 1.2),
    complex(-0.31, 1.3),
    complex(-0.22, 1.5),
    complex(-0.14, 1.6),
    complex(-0.059, 1.6),
]


def test_criterion_2_band_fixture_pairs(test1_case1):
    t0 = time.perf_counter()
    failures = []
    rep = q.eig_all(test1_case1)
    found = [r.lam for r in rep.records]
    matched = []
    for target in TABLE1_PAIRS:
        for pair_member in (target, target.conjugate()):
            hits = [z for z in found if _matches_2sig(z, pair_member)]
            if not hits:
                failures.append(f"missing {pair_member}")
            else:
                matched.extend(hits)
    counts = [r.iterations for r in rep.records]
    if counts and not all(2 <= c <= 20 for c in counts):
        failures.append(f"iteration counts outside [2, 20]: {sorted(set(counts))}")
    avg = sum(counts) / len(counts) if counts else math.inf
    if avg > 12:
        failures.append(f"average iterations {avg:.1f} > 12")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _finish(2, failures, elapsed)


TABLE2_REALS = [-1.9, -1.6, -1.3, -9.6e-01, -5.8e-01, -8.5e-04]


def test_criterion_3_seven_band_fixture(test2_case1):
    t0 = time.perf_counter()
    failures = []
    rep = q.eig_all(test2_case1, q.SolverConfig(gamma=32))
    if rep.converged != 8:
        failures.append(f"expected 8 eigenvalues, got {rep.converged}")
    reals = sorted(
        (r.lam for r in rep.records if abs(r.lam.imag) <= 1e-8),
        key=lambda z: z.real,
    )
    if len(reals) != 6:
        failures.append(f"expected 6 real eigenvalues, got {len(reals)}")
    for target in TABLE2_REALS:
        if not any(_matches_2sig(z, complex(target)) for z in reals):
            failures.append(f"missing real eigenvalue {target}")

    # finite-section distances for the eigenvalue near -0.58; the table
    # values are (3.0e-03, 7.3e-11) at sizes 400 and 1600
    near = [r.lam for r in rep.records if abs(r.lam - (-0.58)) < 0.05]
    if not near:
        failures.append("no eigenvalue near -0.58 to test distances with")
    else:
        lam = near[0]
        dists = []
        for size, table in ((400, 3.0e-03), (1600, 7.3e-11)):
            vals = np.asarray(eig_dense(q.finite_section(test2_case1, size)))
            d = float(np.abs(vals - lam).min())
            dists.append(d)
            if not table / 10 <= d <= table * 10:
                failures.append(
                    f"dist at N={size} is {d:.2e}, not within one order of {table:.1e}"
                )
        if not dists[1] < dists[0]:
            failures.append(f"distances not decreasing: {dists[0]:.2e} -> {dists[1]:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _finish(3, failures, elapsed)


def _refined_reference(a, ctx, lam0, width):
    """Newton to step stagnation with extra refinement passes, tracking
    the shift with the smallest step (the reference oracle).  The seed
    is jittered so the oracle re-converges on its own."""
    lam = complex(lam0) * (1 + 1e-7) + 1e-8j
    best = (math.inf, lam)
    for _ in range(30):
        try:
            factors = wiener_hopf(a.symbol, lam)
            basis = basis_frobenius(factors, width)
            step = newton_correction(*phi(ctx, basis, basis.p))
        except q.QTEigError:
            break
        lam = lam - step
        if abs(step) < best[0]:
            best = (abs(step), lam)
        if abs(step) < 1e-15 * max(1.0, abs(lam)):
            break
    return best[1]


def test_criterion_4_cluster_fixture(test3):
    t0 = time.perf_counter()
    failures = []
    cfg_f = q.SolverConfig(method="frobenius", gamma=12.5,
                           residual_tol=1e-8, dedupe_tol=1e-4)
    cfg_v = q.SolverConfig(method="vandermonde", gamma=12.5,
                           residual_tol=1e-8, dedupe_tol=1e-4)
    rep_f = q.eig_all(test3, cfg_f)
    if rep_f.converged != 22:
        failures.append(f"expected 22 eigenvalues, got {rep_f.converged}")
    mods = np.sort([abs(r.lam) for r in rep_f.records])
    bands = {
        "[0.2, 2]": int(np.sum((0.2 <= mods) & (mods <= 2))),
        "[15, 25]": int(np.sum((15 <= mods) & (mods <= 25))),
        "[25, 35]": int(np.sum((25 <= mods) & (mods <= 35))),
    }
    for name, want in (("[0.2, 2]", 4), ("[15, 25]", 9), ("[25, 35]", 9)):
        if bands[name] != want:
            failures.append(f"modulus band {name}: {bands[name]} instead of {want}")

    # accuracy ordering on the four smallest-modulus eigenvalues, with
    # step-stagnation references seeded from the converged values
    rep_v = q.eig_all(test3, cfg_v)
    ctx = build_w(test3)
    frob = sorted(rep_f.records, key=lambda r: abs(r.lam))[:4]
    refs = [
        _refined_reference(test3, ctx, r.lam, ctx.width) for r in frob
    ]
    vand = [r.lam for r in rep_v.records]

    def max_rel_err(values):
        worst = 0.0
        for ref in refs:
            if not values:
                return math.inf
            err = min(abs(z - ref) for z in values) / abs(ref)
            worst = max(worst, err)
        return worst

    err_f = max_rel_err([r.lam for r in frob])
    err_v = max_rel_err(vand)
    print(f"\n  criterion 4 accuracy: frobenius {err_f:.2e} vs vandermonde {err_v:.2e}")
    if not err_f <= err_v:
        failures.append(
            f"frobenius error {err_f:.2e} not <= vandermonde error {err_v:.2e}"
        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _finish(4, failures, elapsed)


def test_criterion_5_winding_raster(fig2_symbol):
    t0 = time.perf_counter()
    failures = []
    a = q.QTMatrix(symbol=fig2_symbol, correction=q.Correction.zero())
    grid = q.winding_map(a, (-10, 10), (-10, 10), 200)
    values = set(grid.ravel().tolist()) - {CURVE_SENTINEL}
    if values != {0, 1, 2}:
        failures.append(f"attained winding values {sorted(values)} != {{0, 1, 2}}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _finish(5, failures, elapsed)


def test_criterion_6_continuous_detection():
    t0 = time.perf_counter()
    failures = []
    a = q.qt_new([0, 1], [0, 2])
    rec = q.eig_single(a, 0.0)
    if rec.status is not q.SolveStatus.CONTINUOUS_SET:
        failures.append(f"status {rec.status} != continuous_set")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _finish(6, failures, elapsed)


def test_criterion_7_property_suites(fix_a, test1_case2):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2024)

    # (a) factorization reconstruction on 100 random symbols
    done = 0
    while done < 100:
        sym = random_symbol(rng)
        z = 2 * (rng.standard_normal() + 1j * rng.standard_normal())
        try:
            f = wiener_hopf(sym, z)
        except (OnCurveError, FactorizationUnstableError):
            continue
        b = char_poly(sym, z)
        err = np.abs(np.asarray(convolve(f.s, f.u).coeffs) - np.asarray(b.coeffs)).sum()
        if err > 1e-10 * b.norm1():
            failures.append(f"(a) reconstruction error {err:.2e}")
            break
        done += 1

    # (b) factor derivatives against central finite differences
    done = 0
    h = 1e-6
    while done < 20:
        sym = random_symbol(rng, max_m=4, max_n=4)
        z = 1.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        try:
            f = wiener_hopf(sym, z)
            fp = wiener_hopf(sym, z + h)
            fm = wiener_hopf(sym, z - h)
        except (OnCurveError, FactorizationUnstableError):
            continue
        if f.p == 0 or fp.p != f.p or fm.p != f.p:
            continue
        roots = np.asarray(roots_companion(char_poly(sym, z)))
        sep = np.abs(roots[:, None] - roots[None, :]) + 10 * np.eye(roots.size)
        if sep.min() < 0.05:
            continue
        ds = (np.asarray(fp.s.coeffs[:-1]) - np.asarray(fm.s.coeffs[:-1])) / (2 * h)
        scale = max(1.0, float(np.abs(ds).max()))
        if np.abs(ds - np.asarray(f.s_prime)).max() > 1e-5 * scale:
            failures.append("(b) factor derivative mismatch")
            break
        done += 1

    # (c) trace correction against finite differences of the determinant
    def det_lu(mat):
        m = np.array(mat, dtype=complex)
        sign, acc = 1.0, 1.0 + 0j
        for k in range(m.shape[0]):
            piv = k + int(np.argmax(np.abs(m[k:, k])))
            if piv != k:
                m[[k, piv]] = m[[piv, k]]
                sign = -sign
            if m[k, k] == 0:
                return 0j
            acc *= m[k, k]
            m[k + 1 :, k + 1 :] -= np.outer(m[k + 1 :, k] / m[k, k], m[k, k + 1 :])
        return sign * acc

    for a, base in ((fix_a, 0.15 + 0.1j), (test1_case2, -1 + 0.5j)):
        ctx = build_w(a)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 200:
            attempts += 1
            lam = base + 0.05 * (rng.standard_normal() + 1j * rng.standard_normal())
            try:
                bas = basis_vandermonde(a.symbol, lam, ctx.width)
            except OnCurveError:
                continue
            if not 1 <= bas.p <= ctx.q:
                continue
            rows = bas.p

            def f_det(z):
                basz = basis_vandermonde(a.symbol, z, ctx.width)
                return det_lu(phi(ctx, basz, rows)[0])

            corr = newton_correction(*phi(ctx, bas, rows))
            hh = 1e-7
            fd = f_det(lam) * 2 * hh / (f_det(lam + hh) - f_det(lam - hh))
            if abs(corr - fd) > 1e-5 * max(1.0, abs(fd)):
                failures.append(f"(c) newton step vs determinant at {lam}")
                break
            checked += 1

    # (d) root counting against companion roots, 200 polynomials
    for _ in range(200):
        deg = int(rng.integers(1, 13))
        mods = np.where(
            rng.random(deg) < 0.5,
            rng.uniform(0.05, 0.95, deg),
            rng.uniform(1.05, 3.0, deg),
        )
        roots = mods * np.exp(2j * np.pi * rng.random(deg))
        b = poly_from_roots(roots)
        if q.count_inside(b).count != int(np.sum(mods < 1.0)):
            failures.append("(d) root count mismatch")
            break

    # (e) triangular Toeplitz identity against explicit companion powers
    for _ in range(30):
        p = int(rng.integers(1, 9))
        roots = rng.uniform(0.1, 0.9, p) * np.exp(2j * np.pi * rng.random(p))
        s = poly_from_roots(roots)
        comp = np.zeros((p, p), dtype=complex)
        if p > 1:
            comp[np.arange(p - 1), np.arange(1, p)] = 1.0
        comp[p - 1, :] = -np.asarray(s.coeffs[:p])
        if np.abs(barnett_g(s) - np.linalg.matrix_power(comp, p)).max() > 1e-10:
            failures.append("(e) companion power identity")
            break

    # (f) determinant relation between the two bases
    ctx = build_w(test1_case2)
    sym = test1_case2.symbol
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 100:
        attempts += 1
        lam = complex(rng.uniform(-2.5, 1.0), rng.uniform(-1.6, 1.6))
        try:
            bas_v = basis_vandermonde(sym, lam, ctx.width)
            if not 1 <= bas_v.p <= ctx.q:
                continue
            bas_f = basis_frobenius(wiener_hopf(sym, lam), ctx.width)
        except (OnCurveError, FactorizationUnstableError):
            continue
        p = bas_v.p
        f_v = det_lu(phi(ctx, bas_v, p)[0])
        f_f = det_lu(phi(ctx, bas_f, p)[0])
        det_vp = det_lu(bas_v.v[:p, :])
        if abs(f_v - f_f * det_vp) > 1e-8 * max(abs(f_v), abs(f_f * det_vp), 1e-300):
            failures.append(f"(f) determinant relation at {lam}")
            break
        checked += 1
    if checked < 10:
        failures.append("(f) too few usable shifts")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _finish(7, failures, elapsed)

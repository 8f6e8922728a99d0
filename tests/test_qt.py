import numpy as np
import pytest

import qteig as q
from qteig.errors import (
    InvalidInputError,
    InvalidSymbolError,
    OnCurveError,
    PrefixTooShortError,
    SectionTooSmallError,
)
from qteig.linalg import eig_dense
from qteig.qt import _apply_rows


class TestQtNew:
    def test_fix_a(self, fix_a):
        assert (fix_a.symbol.m, fix_a.symbol.n) == (1, 1)
        assert (fix_a.correction.k1, fix_a.correction.k2) == (1, 1)

    def test_band_fixture_support(self, test1_case2):
        assert (test1_case2.symbol.m, test1_case2.symbol.n) == (3, 2)
        assert (test1_case2.correction.k1, test1_case2.correction.k2) == (3, 100)

    def test_invalid_symbol(self):
        with pytest.raises(InvalidSymbolError):
            q.qt_new([1, 0], [1, 2])

    def test_non_finite_symbol(self):
        for bad in (float("nan"), complex(0, float("inf"))):
            with pytest.raises(InvalidSymbolError):
                q.qt_new([0, bad], [0, 1])

    def test_support_tightened(self):
        a = q.qt_new([5, -2], [5, -2], [(1, 1, -4), (7, 9, 0)])
        assert (a.correction.k1, a.correction.k2) == (1, 1)
        with pytest.raises(InvalidInputError):
            q.Correction.from_entries([(1, 1, 2), (1, 1, 3)])

    def test_non_finite_correction(self):
        for bad in (float("nan"), complex(1, float("-inf"))):
            with pytest.raises(InvalidInputError):
                q.Correction.from_entries([(1, 1, bad)])

    def test_dense_round_trip(self):
        block = np.array([[0, 2.0, 0], [1j, 0, 0]])
        corr = q.Correction.from_entries(
            (i + 1, j + 1, block[i, j]) for i in range(2) for j in range(3)
        )
        assert (corr.k1, corr.k2) == (2, 2)
        assert corr.entries == ((1, 2, 2.0), (2, 1, 1j))

    def test_positions_must_be_integral(self):
        corr = q.Correction.from_entries([(np.int64(2), 3.0, 1.0)])
        assert corr.entries == ((2, 3, 1.0),)
        for i, j in ((1.5, 2), (2, 2.9), (float("nan"), 1), (1, float("inf"))):
            with pytest.raises(InvalidInputError):
                q.Correction.from_entries([(i, j, 3.0)])

    def test_support_derived_and_entries_sorted(self):
        corr = q.Correction(((3, 1, 1.0), (1, 5, 2.0), (1, 2, 3j)))
        assert (corr.k1, corr.k2) == (3, 5)
        assert corr.entries == ((1, 2, 3j), (1, 5, 2.0), (3, 1, 1.0))


def test_sizes_take_integral_values_only(fix_a):
    # one rule for positions and sizes: ints, integral floats and numpy
    # integers pass, anything else raises InvalidInputError
    box = ((-1, 1), (-1, 1))
    for size in (3, 3.0, np.int64(3)):
        assert q.finite_section(fix_a, size).shape == (3, 3)
        assert q.apply_prefix(fix_a, np.ones(4), size).shape == (3,)
        assert q.symbol_curve(fix_a, size).shape == (3,)
        assert q.winding_map(fix_a, *box, size).shape == (3, 3)
    assert q.winding_map(fix_a, *box, (np.int64(4), 2.0)).shape == (2, 4)
    labels, _ = q.basins(fix_a, *box, np.int64(2))
    assert labels.shape == (2, 2)
    for bad in (2.7, 2.5, float("nan"), float("inf"), "3", None, 3 + 0j):
        with pytest.raises(InvalidInputError):
            q.finite_section(fix_a, bad)
        with pytest.raises(InvalidInputError):
            q.apply_prefix(fix_a, np.ones(8), bad)
        with pytest.raises(InvalidInputError):
            q.symbol_curve(fix_a, bad)
        for res in (bad, (4, bad)):
            with pytest.raises(InvalidInputError):
                q.winding_map(fix_a, *box, res)
            with pytest.raises(InvalidInputError):
                q.basins(fix_a, *box, res)


def test_booleans_are_not_integers(fix_a):
    # True == 1, but a flag is not a position, a size or a budget
    for flag in (True, np.bool_(True)):
        with pytest.raises(InvalidInputError):
            q.Correction.from_entries([(flag, 2, 1.0)])
        with pytest.raises(InvalidInputError):
            q.apply_prefix(fix_a, np.ones(4), flag)
        with pytest.raises(InvalidInputError):
            q.finite_section(fix_a, flag)
    for field in ("maxit", "vec_len"):
        with pytest.raises(InvalidInputError):
            q.SolverConfig(**{field: True})


@pytest.mark.parametrize("call, error, message", [
    (lambda a: q.Correction(((0, 1, 1.0),)), InvalidInputError, "1-based"),
    (lambda a: q.Correction(((1, 1, 0.0),)), InvalidInputError, "only nonzero values"),
    (lambda a: q.apply_prefix(a, np.ones((2, 4)), 1), InvalidInputError, "1-D vector"),
    (lambda a: q.apply_prefix(a, np.ones(4), -1), InvalidInputError, "nonnegative"),
    (lambda a: q.apply_prefix(a, np.ones(4), 1), PrefixTooShortError, "correction rows require 10"),
    (lambda a: q.symbol_curve(a, 1), InvalidInputError, "at least 2"),
], ids=["position_0", "zero_value", "prefix_2d", "negative_out_len", "short_prefix", "one_sample"])
def test_rejects_malformed_input(call, error, message):
    a = q.qt_new([5, -2], [5, -2], [(1, 10, 1.0)])  # a correction column past the prefix
    with pytest.raises(error, match=message):
        call(a)


class TestFiniteSection:
    def test_fix_a_3(self, fix_a):
        got = q.finite_section(fix_a, 3)
        assert np.allclose(got, [[1, -2, 0], [-2, 5, -2], [0, -2, 5]])

    def test_fix_a_positive_semidefinite(self, fix_a):
        # the corrected operator factors as U diag(0, 1, 1, ...) U*, so
        # every section is a sum of two positive semidefinite pieces
        vals = np.array(eig_dense(q.finite_section(fix_a, 12)))
        assert np.all(vals.real >= -1e-10)
        assert np.allclose(vals.imag, 0, atol=1e-10)

    def test_correction_block_placement(self, test1_case2):
        m = q.finite_section(test1_case2, 200)
        assert m.shape == (200, 200)
        assert m[0, 99] == 8
        assert m[2, 99] == 24
        assert m[0, 1] == -1  # a_1
        assert m[3, 0] == -1  # a_-3
        assert m[120, 119] == -1  # band far from the correction

    def test_too_small(self, test1_case2):
        with pytest.raises(SectionTooSmallError):
            q.finite_section(test1_case2, 50)


class TestApplyPrefix:
    def test_decaying_eigenvector_row(self, fix_a):
        v = 0.5 ** np.arange(1, 11)
        out = q.apply_prefix(fix_a, v, 1)
        assert abs(out[0]) < 1e-15

    def test_shift_symbol(self):
        a = q.qt_new([1, 1e-30], [1, 1])  # constant + z with negligible z**-1
        out = q.apply_prefix(a, [1.0, 2.0, 3.0, 4.0], 2)
        assert np.allclose(out, [3.0, 5.0])

    def test_first_column(self, fix_a):
        out = q.apply_prefix(fix_a, [1.0, 0, 0, 0], 2)
        assert np.allclose(out, [1.0, -2.0])

    def test_prefix_too_short(self, fix_a):
        with pytest.raises(PrefixTooShortError):
            q.apply_prefix(fix_a, [1.0, 2.0], 2)

    def test_stack_rounds_as_scalar_products(self):
        # complex correction entries: each row of the stack equals, bit for
        # bit, the product of the prefix taken entry by entry in scalars
        a = q.qt_new([2, 0.5 - 1j], [2, 0.25j, -1], [(1, 3, 0.3 - 0.7j), (1, 5, 2j), (3, 1, -1.5)])
        rng = np.random.default_rng(9)
        vec = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
        stack = _apply_rows(a, vec, 4, range(8))
        for v, got in zip(vec, stack):
            want = np.zeros(4, dtype=complex)
            for d, c in a.symbol.terms():
                start = max(0, -d)
                want[start:] += c * v[start + d : 4 + d]
            for i, j, v_e in a.correction.entries:
                want[i - 1] += v_e * v[j - 1]
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == q.apply_prefix(a, v, 4).tobytes()

    def test_agrees_with_section(self, test1_case2):
        rng = np.random.default_rng(8)
        n = 150
        v = np.zeros(200, dtype=complex)
        v[: n - 2] = rng.standard_normal(n - 2)
        section = q.finite_section(test1_case2, n)
        assert np.allclose(section @ v[:n], q.apply_prefix(test1_case2, v, n))


class TestNormInf:
    def test_fix_a(self, fix_a):
        assert q.norm_inf(fix_a) == pytest.approx(9.0)

    def test_band_only(self):
        assert q.norm_inf(q.qt_new([0, 1], [0, 2])) == pytest.approx(3.0)

    def test_correction_rows(self, test1_case2):
        # row i sums the truncated band plus the correction entry 8i in
        # column 100; row 3 dominates: |1| + |-1| + 0 + |-1| + |-1| + 24
        expected = max(5.0, 2 + 8, 3 + 16, 4 + 24)
        assert q.norm_inf(test1_case2) == pytest.approx(expected)

    def test_matches_section_row_sums(self):
        # reference: the generic band sum or the largest absolute row sum
        # over the first max(k1, m) rows of a section wide enough to hold
        # every corrected row whole
        rng = np.random.default_rng(21)
        for _ in range(60):
            m, n = (int(x) for x in rng.integers(1, 4, size=2))
            neg = list(rng.standard_normal(m + 1))
            pos = [neg[0]] + list(rng.standard_normal(n))
            sym = q.LaurentSymbol(neg=tuple(neg), pos=tuple(pos))
            entries = {}
            for _ in range(int(rng.integers(1, 8))):
                i = int(rng.integers(1, 9))
                kind = rng.integers(0, 4)
                if kind == 0:  # on the band, cancelling its coefficient
                    j = max(1, i + int(rng.integers(-m, n + 1)))
                    entries[i, j] = -sym.coeff(j - i) or 1.0
                elif kind == 1:  # on the band
                    entries[i, max(1, i + int(rng.integers(-m, n + 1)))] = rng.standard_normal()
                elif kind == 2:  # off the band
                    entries[i, i + n + int(rng.integers(1, 30))] = complex(*rng.standard_normal(2))
                else:  # in a row <= m
                    entries[int(rng.integers(1, m + 1)), int(rng.integers(1, 12))] = 2.0
            a = q.qt_new(neg, pos, [(i, j, v) for (i, j), v in entries.items()])
            k1, k2 = a.correction.k1, a.correction.k2
            section = q.finite_section(a, max(k1 + n, k2, m + n))
            rows = np.abs(section[: max(k1, m)]).sum(axis=1).max()
            ref = max(float(np.abs(sym.coeffs()).sum()), rows)
            assert q.norm_inf(a) == pytest.approx(ref, rel=1e-14)

    def test_far_column(self):
        # row 1 is |5| + |-2| + |4| with the entry in column 10**300
        a = q.qt_new([5, -2], [5, -2], [(1, 10**300, 4.0)])
        assert q.norm_inf(a) == 11.0

    def test_bounds_sections(self, fix_a, test1_case2):
        for a in (fix_a, test1_case2):
            bound = q.norm_inf(a)
            for n in (110, 160):
                section = q.finite_section(a, n)
                assert np.abs(section).sum(axis=1).max() <= bound + 1e-12


class TestSymbolCurve:
    def test_cosine(self):
        a = q.qt_new([0, 1], [0, 1])
        assert np.allclose(q.symbol_curve(a, 4), [2, 0, -2, 0], atol=1e-14)

    def test_fix_a(self, fix_a):
        assert np.allclose(q.symbol_curve(fix_a, 4), [1, 5, 9, 5], atol=1e-13)

    def test_real_coefficients_conjugate_symmetry(self, test1_case2):
        pts = q.symbol_curve(test1_case2, 64)
        assert np.allclose(pts, np.conj(pts[np.r_[0, 63:0:-1]]), atol=1e-13)

    def test_crossing_changes_winding(self, fig2_symbol):
        a = q.QTMatrix(symbol=fig2_symbol, correction=q.Correction.zero())
        pts = q.symbol_curve(a, 64)
        # outward normal estimated from neighboring samples
        flips = 0
        for k in range(0, 64, 4):
            tangent = pts[(k + 1) % 64] - pts[k - 1]
            if abs(tangent) == 0:
                continue
            normal = 1j * tangent / abs(tangent)
            try:
                w_plus = q.winding(fig2_symbol, pts[k] + 1e-2 * normal)
                w_minus = q.winding(fig2_symbol, pts[k] - 1e-2 * normal)
            except OnCurveError:
                continue
            if w_plus != w_minus:
                flips += 1
        assert flips >= 1

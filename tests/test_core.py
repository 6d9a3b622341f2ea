import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opens.core import (_LOG_SINHC, Geometry, SymmetricCirculant, log_sinhc, quadratic_form_cn,
                        replica_log_det)
from opens.errors import GeometryError, RegimeWarning, SingularMatrixError
from oracles import circulant_determinant, circulant_inverse_row_sum


class TestGeometry:
    def test_valid(self):
        g = Geometry(10.0, 30.0, 130.0, 0.5, 4)
        assert g.ell2 == 100.0
        assert g.d == 20.0

    @pytest.mark.parametrize(
        "L,a,b",
        [(10.0, 10.0, 20.0), (10.0, 5.0, 20.0), (10.0, 30.0, 25.0), (-1.0, 3.0, 5.0)],
    )
    def test_ordering_rejected(self, L, a, b):
        with pytest.raises(GeometryError):
            Geometry(L, a, b, 0.5)

    def test_adjacent_intervals_rejected(self):
        # L = a (B starting where A ends) is not a valid layout
        with pytest.raises(GeometryError):
            Geometry(10.0, 10.0, 20.0, 0.5)

    def test_bad_cutoff_and_replicas(self):
        with pytest.raises(GeometryError):
            Geometry(10.0, 20.0, 30.0, 0.0)
        with pytest.raises(GeometryError):
            Geometry(10.0, 20.0, 30.0, 0.5, 0)

    def test_cutoff_regime_warning(self):
        with pytest.warns(RegimeWarning) as caught:
            Geometry(10.0, 20.0, 21.0, 0.6)
        # the warning names the line that built the geometry, not the
        # dataclass's generated __init__
        assert caught[0].filename == __file__


def dense_det(row):
    return np.linalg.det(SymmetricCirculant(row).dense())


class TestCirculant:
    def test_non_palindromic_rejected(self):
        with pytest.raises(ValueError):
            SymmetricCirculant([1.0, 2.0, 3.0])

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError, match="empty circulant row"):
            SymmetricCirculant([])

    def test_det_1x1(self):
        assert circulant_determinant(SymmetricCirculant([3.5])) == pytest.approx(3.5)

    def test_det_2x2(self):
        d, o = 4.0, 1.5
        assert circulant_determinant(SymmetricCirculant([d, o])) == pytest.approx(d * d - o * o)

    def test_det_matches_dense_n4(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            half = rng.normal(size=3)
            row = [half[0] + 5.0, half[1], half[2], half[1]]
            c = SymmetricCirculant(row)
            assert circulant_determinant(c) == pytest.approx(dense_det(row), rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_det_matches_dense_property(self, n, seed):
        rng = np.random.default_rng(seed)
        half = rng.uniform(-1.0, 1.0, size=n // 2 + 1)
        row = [half[min(j, n - j)] for j in range(n)]
        row[0] += n + 2.0  # diagonally dominant: well conditioned
        c = SymmetricCirculant(row)
        assert circulant_determinant(c) == pytest.approx(dense_det(row), rel=1e-10)

    def test_inverse_row_sum_identity(self):
        row = [1.0] + [0.0] * 5
        assert circulant_inverse_row_sum(SymmetricCirculant(row)) == 1.0

    def test_inverse_row_sum_411(self):
        assert circulant_inverse_row_sum(SymmetricCirculant([4.0, 1.0, 1.0])) == pytest.approx(1.0 / 6.0)

    def test_inverse_row_sum_matches_dense(self):
        rng = np.random.default_rng(11)
        half = rng.uniform(-1.0, 1.0, size=3)
        row = [6.0, half[1], half[2], half[2], half[1]]
        c = SymmetricCirculant(row)
        inv = np.linalg.inv(c.dense())
        sums = inv.sum(axis=0)
        assert circulant_inverse_row_sum(c) == pytest.approx(sums[0], rel=1e-10)
        # column independence of the dense inverse row sums
        assert np.allclose(sums, sums[0], rtol=1e-10)

    def test_inverse_row_sum_singular(self):
        with pytest.raises(SingularMatrixError):
            circulant_inverse_row_sum(SymmetricCirculant([1.0, -0.5, -0.5]))


class TestQuadraticForm:
    def test_identity(self):
        assert quadratic_form_cn(np.eye(5)) == pytest.approx(5.0)

    def test_scalar(self):
        assert quadratic_form_cn(np.array([[4.0]])) == pytest.approx(0.25)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3))
        M = A @ A.T + 3.0 * np.eye(3)
        v = np.ones(3)
        expected = v @ np.linalg.inv(M) @ v
        assert quadratic_form_cn(M) == pytest.approx(expected, rel=1e-10)

    def test_circulant_identity(self):
        # v M^{-1} v^T = n * inverse row sum for any circulant
        row = [5.0, 0.7, -0.2, -0.2, 0.7]
        c = SymmetricCirculant(row)
        assert quadratic_form_cn(c.dense()) == pytest.approx(
            c.n * circulant_inverse_row_sum(c), rel=1e-12
        )

    def test_singular_reports(self):
        M = np.ones((3, 3))
        with pytest.raises(SingularMatrixError):
            quadratic_form_cn(M)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"square matrix required, got shape {shape}")):
            quadratic_form_cn(np.ones(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        M = np.eye(3)
        M[1, 2] = value
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            quadratic_form_cn(M)

    def test_ill_conditioned_reports(self):
        # the solve succeeds, but cond ~ 4e15 is past the 1e14 bound
        M = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(SingularMatrixError, match="numerically singular, cond = "):
            quadratic_form_cn(M)

    def test_complex_result_rejected(self):
        # 1 + 1/i = 1 - i: well conditioned, and not real
        with pytest.raises(ValueError, match=r"quadratic form not real: \(1-1j\)"):
            quadratic_form_cn(np.diag([1.0, 1j]))


def palindromes(rng, count, n):
    """``count`` random palindromic rows of length n, row[j] == row[n - j]."""
    half = rng.uniform(-1.0, 1.0, (count, n // 2 + 1))
    return np.concatenate((half, half[:, 1:(n + 1) // 2][:, ::-1]), axis=1)


class TestReplicaLogDet:
    def test_matches_the_dense_determinant(self):
        rows, m1 = palindromes(np.random.default_rng(5), 4, 5), np.array([3.0, 4.0, 5.0, 6.0])
        log_det, cn_excess, failures = replica_log_det(rows, m1)
        assert failures == [None] * 4
        for row, m, ld, ce in zip(rows, m1, log_det, cn_excess):
            M = SymmetricCirculant(row).dense() + m * np.eye(5)
            assert ld == pytest.approx(np.log(np.linalg.det(M)) - 5 * np.log(m), rel=1e-12)
            assert ce == pytest.approx(quadratic_form_cn(M) - 5 / m, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_a_row_gives_the_same_bits_alone_and_in_a_stack(self, n):
        rng = np.random.default_rng([29, n])
        rows = palindromes(rng, 12, n)
        rows[3, n // 2] = np.nan  # a nan entry: the palindrome error
        m1 = 10.0 ** rng.uniform(1.0, 10.0, 12)  # above every |eigenvalue| of a row
        rows[5, 0], m1[5] = -n, 1e-3  # every eigenvalue of M below zero: singular
        stack = replica_log_det(rows, m1)
        for i in range(len(rows)):
            alone = replica_log_det(rows[i:i + 1], m1[i:i + 1])
            for got, want in zip(alone[:2], stack[:2]):
                assert got.tobytes() == want[i:i + 1].tobytes(), (n, i)
            (got,), want = alone[2], stack[2][i]
            assert type(got) is type(want) and str(got) == str(want), (n, i)
        assert str(stack[2][3]).startswith("first row is not palindromic at j=")
        assert type(stack[2][5]) is SingularMatrixError
        assert str(stack[2][5]) == f"non-positive replica eigenvalue at n = {n}"
        assert sum(f is None for f in stack[2]) == 10


def test_log_sinhc_series_constants_are_the_zeta_expression():
    # the literal coefficients are the ones special.zeta gave, bit for bit
    from scipy import special

    built = tuple(
        (-1) ** (k + 1) * float(special.zeta(2 * k)) / (k * np.pi ** (2 * k)) for k in range(12, 0, -1)
    )
    assert len(_LOG_SINHC) == 12
    assert all(type(c) is float for c in _LOG_SINHC)
    assert np.array(_LOG_SINHC).tobytes() == np.array(built).tobytes()


class TestLogSinhcEntries:
    """A batch of log sinhc holds, entry by entry, the bits of a call on that
    entry's own scalar, the one the per-point references make."""

    @staticmethod
    def assert_entrywise(y):
        want = np.array([log_sinhc(v) for v in y.ravel()]).reshape(y.shape)
        got = log_sinhc(y)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_seeded_complex_array_flat_and_reshaped(self):
        rng = np.random.default_rng(35)
        y = rng.normal(scale=0.5, size=60) + 1j * rng.normal(scale=0.5, size=60)
        assert (np.abs(y) < 0.5).any() and (np.abs(y) >= 0.5).any()  # both branches
        self.assert_entrywise(y)
        self.assert_entrywise(y.reshape(6, 10))

    def test_entries_one_ulp_either_side_of_one_half(self):
        # on each axis and off them, where the modulus is the hypot of the
        # parts; on the circle |y| = 1/2, np.abs of an array can round to the
        # other side of 1/2 than the scalar abs
        below, above = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
        im = np.array([0.4, np.nextafter(0.4, 0.0), np.nextafter(0.4, 1.0)])
        y = np.concatenate(([below, 0.5, above, -below, -above],
                            [1j * below, 1j * above, -1j * above], 0.3 + 1j * im,
                            0.5 * np.exp(1j * np.linspace(0.05, 1.5, 16))))
        modulus = np.hypot(y.real, y.imag)
        assert (modulus < 0.5).any() and (modulus == 0.5).any() and (modulus > 0.5).any()
        self.assert_entrywise(y)

    def test_zeros_and_entries_on_an_axis(self):
        y = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), 0.25, -0.75, 2.0,
                      0.25j, -0.75j, 2j, complex(-3.0, 0.0)])
        self.assert_entrywise(y)
        self.assert_entrywise(y.reshape(2, 5))

    def test_real_array(self):
        y = np.random.default_rng(36).normal(scale=0.6, size=(4, 15))
        y[0, :3] = 0.0, np.nextafter(0.5, 0.0), 0.5
        self.assert_entrywise(y)

import math
from itertools import combinations

import numpy as np
import pytest

from vcdetect.geometry import (
    SubspaceBasis,
    elementary_symmetric,
    incremental_volume_factor,
    orthonormalize,
    principal_angles,
    residual_log_volume,
    volume,
    volume_correlation,
)


def random_basis(rng, n, d):
    return orthonormalize(rng.standard_normal((n, d)), tol=1e-12)


def off_span(A, B):
    """B - A A^T B: the part of B off span(A), whose sines give log Vol([A, B])."""
    return B.basis - A.basis @ (A.basis.T @ B.basis)


def gram_volume(X, d):
    """Brute-force oracle: sqrt(det(X^T X)) restricted to the first d columns."""
    X = np.asarray(X, float)
    assert d == X.shape[1]
    return math.sqrt(max(np.linalg.det(X.T @ X), 0.0))


def oracle_principal_angles(A, B, iters=2000, restarts=5, seed=0):
    """Sequential maximization of u^T v with orthogonality constraints.

    Alternating maximization over coefficient vectors, deflating each found
    direction; independent of the SVD route under test.
    """
    rng = np.random.default_rng(seed)
    M = A.basis.T @ B.basis
    d1, d2 = M.shape
    found_a, found_b = [], []
    angles = []
    for _ in range(min(d1, d2)):
        Pa = np.eye(d1) - sum(np.outer(a, a) for a in found_a) if found_a else np.eye(d1)
        Pb = np.eye(d2) - sum(np.outer(b, b) for b in found_b) if found_b else np.eye(d2)
        best = (-1.0, None, None)
        for _ in range(restarts):
            a = Pa @ rng.standard_normal(d1)
            b = Pb @ rng.standard_normal(d2)
            b /= np.linalg.norm(b)
            for _ in range(iters):
                a = Pa @ (M @ b)
                na = np.linalg.norm(a)
                if na < 1e-300:
                    break
                a /= na
                b = Pb @ (M.T @ a)
                nb = np.linalg.norm(b)
                if nb < 1e-300:
                    break
                b /= nb
            val = float(a @ M @ b)
            if val > best[0]:
                best = (val, a, b)
        angles.append(math.acos(min(max(best[0], 0.0), 1.0)))
        found_a.append(best[1])
        found_b.append(best[2])
    return np.array(angles)


class TestOrthonormalize:
    def test_identity_passes_through(self):
        b = orthonormalize(np.eye(3))
        assert b.dim == 3
        np.testing.assert_allclose(b.basis, np.eye(3), atol=1e-14)

    def test_proportional_columns_collapse(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        b = orthonormalize(X, tol=1e-8)
        assert b.dim == 1
        expected = np.array([1.0, 2.0, 0.0]) / math.sqrt(5)
        np.testing.assert_allclose(np.abs(b.basis[:, 0]), expected, atol=1e-12)

    def test_random_full_rank(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((6, 3))
        b = orthonormalize(X)
        assert b.dim == 3
        np.testing.assert_allclose(b.basis.T @ b.basis, np.eye(3), atol=1e-10)
        # orthonormal basis spans a unit-volume parallelotope
        assert gram_volume(b.basis, 3) == pytest.approx(1.0, rel=1e-10)

    def test_zero_matrix_gives_empty_basis(self):
        assert orthonormalize(np.zeros((4, 2))).dim == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            orthonormalize(np.array([[np.nan], [1.0]]))

    def test_bad_tol_rejected(self):
        # NaN fails every comparison, so a "tol <= 0" test alone lets it through;
        # at tol = 1 or inf a rank-3 matrix would get a 0-dimensional basis.
        X = np.random.default_rng(0).standard_normal((6, 3))
        for tol in (0.0, float("nan"), 1.0, float("inf")):
            with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
                orthonormalize(X, tol=tol)

    @staticmethod
    def two_pass_loop(X, tol):
        """Reference: classical Gram-Schmidt applied twice, written out column by column."""
        n = X.shape[0]
        scale = np.linalg.norm(X)
        cols = []
        if scale == 0.0:
            return np.empty((n, 0))
        for j in range(X.shape[1]):
            v = X[:, j].copy()
            for _ in range(2):
                if cols:
                    Q = np.column_stack(cols)
                    v -= Q @ (Q.T @ v)
            nrm = np.linalg.norm(v)
            if nrm >= tol * scale:
                cols.append(v / nrm)
        return np.column_stack(cols) if cols else np.empty((n, 0))

    @pytest.mark.parametrize("tol", [1e-12, 1e-8])
    def test_matches_two_pass_loop_bit_for_bit(self, tol):
        rng = np.random.default_rng(7)
        cases = [np.zeros((5, 3))]
        for n, d in [(2, 1), (2, 2), (7, 3), (64, 30), (256, 25), (1024, 50), (1100, 60)]:
            X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-5, 5)
            cases.append(X)
            if d > 2:
                dependent, zero = X.copy(), X.copy()
                dependent[:, -1] = 2.0 * X[:, 0] - X[:, 1]
                zero[:, d // 2] = 0.0
                cases += [dependent, zero]
        for X in cases:
            got = orthonormalize(X, tol).basis
            want = self.two_pass_loop(X, tol)
            assert got.shape == want.shape and np.array_equal(got, want), X.shape


class TestVolume:
    def test_identity(self):
        assert volume(np.eye(4), 4) == pytest.approx(1.0)

    def test_orthogonal_columns(self):
        X = np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
        assert volume(X, 2) == pytest.approx(12.0)

    def test_rank_deficient_is_zero(self):
        assert volume(np.array([[1.0, 2.0], [2.0, 4.0]]), 2) == 0.0

    def test_matches_gram_determinant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X = rng.standard_normal((8, 3))
            assert volume(X, 3) == pytest.approx(gram_volume(X, 3), rel=1e-9)

    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError):
            volume(np.eye(3), 4)


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        b = SubspaceBasis(np.eye(4)[:, :2])
        np.testing.assert_allclose(principal_angles(b, b), [0.0, 0.0], atol=1e-7)

    def test_orthogonal_lines(self):
        e1 = SubspaceBasis(np.eye(3)[:, :1])
        e2 = SubspaceBasis(np.eye(3)[:, 1:2])
        np.testing.assert_allclose(principal_angles(e1, e2), [math.pi / 2])

    def test_shared_direction(self):
        A = SubspaceBasis(np.eye(4)[:, :2])
        B = SubspaceBasis(np.eye(4)[:, 1:3])
        np.testing.assert_allclose(principal_angles(A, B), [0.0, math.pi / 2], atol=1e-7)

    def test_matches_sequential_maximization_oracle(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            A = random_basis(rng, 10, 2)
            B = random_basis(rng, 10, 2)
            got = principal_angles(A, B)
            want = oracle_principal_angles(A, B, seed=seed)
            np.testing.assert_allclose(got, np.sort(want), atol=1e-6)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            principal_angles(SubspaceBasis(np.eye(3)[:, :1]), SubspaceBasis(np.eye(4)[:, :1]))

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="dimension >= 1"):
            principal_angles(SubspaceBasis(np.zeros((4, 0))), SubspaceBasis(np.eye(4)[:, :1]))


class TestVolumeCorrelation:
    def test_orthogonal_subspaces_give_one(self):
        A = SubspaceBasis(np.eye(6)[:, :2])
        B = SubspaceBasis(np.eye(6)[:, 3:5])
        assert volume_correlation(A, B) == pytest.approx(1.0)

    def test_intersecting_subspaces_give_zero(self):
        A = SubspaceBasis(np.eye(6)[:, :2])
        B = SubspaceBasis(np.eye(6)[:, 1:3])
        assert volume_correlation(A, B) == pytest.approx(0.0, abs=1e-12)

    def test_empty_basis_gives_one(self):
        # The product of no sines: an empty span meets every span trivially.
        empty = SubspaceBasis(np.zeros((6, 0)))
        B = SubspaceBasis(np.eye(6)[:, :2])
        assert volume_correlation(empty, B) == 1.0
        assert volume_correlation(B, empty) == 1.0

    def test_dimensions_past_ambient_give_exact_zero(self):
        rng = np.random.default_rng(17)
        assert volume_correlation(random_basis(rng, 6, 4), random_basis(rng, 6, 3)) == 0.0

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError, match="ambient"):
            volume_correlation(SubspaceBasis(np.eye(3)[:, :1]), SubspaceBasis(np.eye(4)[:, :1]))

    def test_two_lines_at_30_degrees(self):
        theta = math.pi / 6
        A = SubspaceBasis(np.array([[1.0], [0.0]]))
        B = SubspaceBasis(np.array([[math.cos(theta)], [math.sin(theta)]]))
        assert volume_correlation(A, B) == pytest.approx(0.5, rel=1e-12)

    def test_sine_product_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            A = random_basis(rng, 16, 3)
            B = random_basis(rng, 16, 4)
            sines = np.prod(np.sin(principal_angles(A, B)))
            assert abs(volume_correlation(A, B) - sines) < 1e-10

    def test_basis_change_invariance(self):
        rng = np.random.default_rng(14)
        A = random_basis(rng, 12, 3)
        B = random_basis(rng, 12, 2)
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        A2 = SubspaceBasis(A.basis @ rot)
        assert volume_correlation(A2, B) == pytest.approx(volume_correlation(A, B), abs=1e-10)

    def test_range(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            A = random_basis(rng, 10, 3)
            B = random_basis(rng, 10, 3)
            assert 0.0 <= volume_correlation(A, B) <= 1.0

    def test_stacked_log_volume_consistent(self):
        rng = np.random.default_rng(16)
        A = random_basis(rng, 14, 3)
        B = random_basis(rng, 14, 4)
        assert math.exp(residual_log_volume(off_span(A, B))) == pytest.approx(
            volume_correlation(A, B), rel=1e-10
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_stacked_log_volume_of_meeting_spans_is_minus_inf(self, seed):
        # B shares a direction with span(A). Sines taken as sqrt(1 - cos^2)
        # stop near 1e-8 there, above the 1e-12 floor, on some seeds.
        rng = np.random.default_rng(seed)
        A = random_basis(rng, 12, 3)
        shared = A.basis @ rng.standard_normal(3)
        B = orthonormalize(np.column_stack([shared, rng.standard_normal((12, 2))]), tol=1e-12)
        assert residual_log_volume(off_span(A, B)) == -math.inf

    @pytest.mark.parametrize("seed", range(10))
    def test_meeting_spans_give_zero_sine(self, seed):
        # Same geometry: the residual sines keep the shared direction's sine at
        # rounding level in volume_correlation and principal_angles too.
        rng = np.random.default_rng(seed)
        A = random_basis(rng, 12, 3)
        shared = A.basis @ rng.standard_normal(3)
        B = orthonormalize(np.column_stack([shared, rng.standard_normal((12, 2))]), tol=1e-12)
        assert volume_correlation(A, B) < 1e-12
        assert volume_correlation(B, A) < 1e-12
        assert principal_angles(A, B)[0] < 1e-12


class TestIncrementalVolumeFactor:
    def test_orthogonal_unit_vector(self):
        X = np.eye(5)[:, :2]
        Yprev = np.eye(5)[:, 2:3]
        assert incremental_volume_factor(X, Yprev, np.eye(5)[:, 4]) == pytest.approx(1.0)

    def test_vector_in_span(self):
        X = np.eye(5)[:, :2]
        Yprev = np.eye(5)[:, 2:3]
        y = np.array([1.0, 2.0, 3.0, 0.0, 0.0])
        assert incremental_volume_factor(X, Yprev, y) == pytest.approx(0.0, abs=1e-12)

    def test_matches_volume_ratio(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((10, 3))
        Yprev = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        whole = volume(np.column_stack([X, Yprev, y]), 6)
        base = volume(np.hstack([X, Yprev]), 5)
        assert incremental_volume_factor(X, Yprev, y) == pytest.approx(whole / base, rel=1e-9)

    def test_chain_product_equals_direct_volume(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((12, 2))
        ys = [rng.standard_normal(12) for _ in range(4)]
        prod = volume(X, 2)
        cols = np.empty((12, 0))
        for y in ys:
            prod *= incremental_volume_factor(X, cols, y)
            cols = np.column_stack([cols, y])
        direct = volume(np.hstack([X, cols]), 6)
        assert prod == pytest.approx(direct, rel=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            incremental_volume_factor(np.eye(4)[:, :1], np.eye(4)[:, 1:2], np.ones(3))


class TestElementarySymmetric:
    def test_small_case(self):
        assert elementary_symmetric([1.0, 2.0, 3.0], 2) == pytest.approx(11.0)

    def test_k_zero_is_one(self):
        assert elementary_symmetric([5.0, 7.0], 0) == 1.0

    def test_equal_values(self):
        assert elementary_symmetric([2.0] * 4, 3) == pytest.approx(32.0)

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(26)
        vals = rng.uniform(0.1, 3.0, size=6)
        for k in range(7):
            brute = sum(np.prod(c) for c in combinations(vals, k)) if k else 1.0
            assert elementary_symmetric(vals, k) == pytest.approx(brute, rel=1e-10)

    def test_generating_function_identity(self):
        rng = np.random.default_rng(27)
        vals = rng.uniform(0.0, 2.0, size=7)
        lhs = np.prod(1.0 + vals)
        rhs = sum(elementary_symmetric(vals, k) for k in range(8))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            elementary_symmetric([1.0], 2)


class TestTypes:
    def test_subspace_basis_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_subspace_basis_rejects_too_many_columns(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.ones((2, 3)))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from glra import linalg
from glra.linalg import (
    DEFAULT_TOL,
    DomainError,
    InputError,
    Tolerances,
    Uniqueness,
    hs_inner,
    hs_norm,
    numerical_rank,
    pinv,
    proj_kernel_perp,
    proj_range,
    psd_sqrt,
    rank_factors,
    svd,
    trace,
    truncated_svd,
)

ATOL = DEFAULT_TOL.check_abs


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(2))
        np.testing.assert_allclose(f.u, np.eye(2))
        np.testing.assert_allclose(f.sigma, [1.0, 1.0])
        np.testing.assert_allclose(f.v, np.eye(2))

    def test_anisotropic_factor_spectrum(self):
        b = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        np.testing.assert_allclose(svd(b).sigma, [1.0, 0.5], atol=1e-15)

    def test_reconstruction(self):
        a = rng(1).standard_normal((5, 3))
        f = svd(a)
        assert hs_norm(f.reconstruct() - a) < ATOL
        assert np.max(np.abs(f.u.T @ f.u - np.eye(3))) < ATOL
        assert np.max(np.abs(f.v.T @ f.v - np.eye(3))) < ATOL

    def test_sign_convention_deterministic(self):
        a = rng(2).standard_normal((4, 4))
        f1, f2 = svd(a), svd(a.copy())
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.v, f2.v)
        for j in range(4):
            col = f1.u[:, j]
            assert col[np.nonzero(col)[0][0]] > 0

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            svd(np.array([[1.0, np.nan]]))


class TestRankFactors:
    def test_cut_at_numerical_rank(self):
        g = rng(4)
        a = g.standard_normal((6, 2)) @ g.standard_normal((2, 5))
        f = rank_factors(a)
        assert f.u.shape == (6, 2) and f.sigma.shape == (2,) and f.v.shape == (5, 2)
        assert hs_norm(f.reconstruct() - a) < ATOL
        np.testing.assert_array_equal(f.u, svd(a).u[:, :2])

    def test_zero_matrix_has_no_columns(self):
        f = rank_factors(np.zeros((3, 4)))
        assert f.u.shape == (3, 0) and f.sigma.shape == (0,) and f.v.shape == (4, 0)


class TestPinv:
    def test_fixture_inverse(self):
        c = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
        np.testing.assert_allclose(
            pinv(c), np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), atol=1e-14
        )

    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-14)

    def test_zero_matrix(self):
        assert pinv(np.zeros((2, 5))).shape == (5, 2)
        assert hs_norm(pinv(np.zeros((2, 5)))) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_moore_penrose_equations(self, seed):
        a = rng(seed).standard_normal((4, 6))
        if seed % 2:
            a[:, -1] = a[:, 0]
        ap = pinv(a)
        assert hs_norm(a @ ap @ a - a) < ATOL
        assert hs_norm(ap @ a @ ap - ap) < ATOL
        assert hs_norm((a @ ap) - (a @ ap).T) < ATOL
        assert hs_norm((ap @ a) - (ap @ a).T) < ATOL


class TestProjectors:
    def test_full_row_rank_factor_projects_to_identity(self):
        b = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        np.testing.assert_allclose(proj_range(b), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(proj_kernel_perp(b.T), np.eye(2), atol=1e-14)

    def test_zero_matrix(self):
        assert hs_norm(proj_range(np.zeros((3, 3)))) == 0.0
        assert hs_norm(proj_kernel_perp(np.zeros((3, 3)))) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_projector_algebra(self, seed):
        a = rng(seed).standard_normal((5, 4))
        p = proj_range(a)
        assert hs_norm(p @ p - p) < ATOL
        assert hs_norm(p - p.T) < ATOL
        assert hs_norm(p @ a - a) < ATOL
        assert hs_norm(proj_kernel_perp(a) - pinv(a) @ a) < ATOL

    def test_kernel_range_duality(self):
        a = rng(9).standard_normal((6, 3)) @ rng(10).standard_normal((3, 5))
        assert hs_norm(proj_range(a.T) - proj_kernel_perp(a)) < ATOL


class TestTruncatedSvd:
    def test_tied_identity_is_flagged(self):
        t = truncated_svd(np.eye(2), 1)
        assert t.uniqueness is Uniqueness.NON_UNIQUE
        recon = t.matrix()
        candidates = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert any(hs_norm(recon - c) < ATOL for c in candidates)

    def test_rank_saturation(self):
        a = rng(3).standard_normal((4, 2)) @ rng(4).standard_normal((2, 5))
        t = truncated_svd(a, 3)
        assert t.uniqueness is Uniqueness.UNIQUE_BY_RANK
        assert hs_norm(t.matrix() - a) < ATOL
        assert t.discarded_head < 1e-12

    def test_distinct_diagonal(self):
        t = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert t.uniqueness is Uniqueness.UNIQUE_BY_GAP
        np.testing.assert_allclose(t.matrix(), np.diag([3.0, 2.0, 0.0]), atol=1e-14)
        assert t.discarded_head == pytest.approx(1.0)

    def test_rejects_zero_rank(self):
        with pytest.raises(InputError):
            truncated_svd(np.eye(2), 0)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_residual_identity(self, r):
        a = rng(5).standard_normal((6, 4))
        sigma = np.linalg.svd(a, compute_uv=False)
        t = truncated_svd(a, r)
        assert hs_norm(a - t.matrix()) ** 2 == pytest.approx(
            float(np.sum(sigma[r:] ** 2)), abs=ATOL
        )


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_squares_back(self):
        g = rng(6).standard_normal((5, 5))
        gram = g.T @ g
        s = psd_sqrt(gram)
        assert hs_norm(s @ s - gram) < ATOL
        assert hs_norm(s - s.T) == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite_naming_eigenvalue(self):
        with pytest.raises(DomainError, match="-1"):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_clamps_rounding_negatives(self):
        a = np.diag([1.0, -1e-12])
        s = psd_sqrt(a)
        assert s[1, 1] == 0.0

    def test_kernel_matches_input_kernel(self):
        g = rng(7).standard_normal((5, 2))
        gram = g @ g.T  # rank 2 in dimension 5
        s = psd_sqrt(gram)
        assert numerical_rank(s) == numerical_rank(gram) == 2


class TestHsOps:
    def test_identity_norm(self):
        assert hs_norm(np.eye(7)) ** 2 == pytest.approx(7.0)

    def test_branch_b_norm(self, x_branch_b):
        assert hs_norm(x_branch_b) == pytest.approx(4.0)

    def test_norm_from_singular_values(self):
        a = rng(8).standard_normal((4, 6))
        gram_sigma = np.linalg.svd(a.T @ a, compute_uv=False)
        assert hs_norm(a) ** 2 == pytest.approx(float(np.sum(gram_sigma)), abs=ATOL)

    def test_inner_is_trace_form(self):
        a = rng(11).standard_normal((3, 4))
        b = rng(12).standard_normal((3, 4))
        assert hs_inner(a, b) == pytest.approx(trace(b.T @ a), abs=ATOL)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            hs_inner(np.eye(2), np.eye(3))
        with pytest.raises(InputError):
            trace(np.ones((2, 3)))


class TestRankDecisions:
    def test_rank_composition(self):
        s = rng(13).standard_normal((5, 2)) @ rng(14).standard_normal((2, 6))
        t = rng(15).standard_normal((4, 5))
        assert numerical_rank(t @ s) <= numerical_rank(s)

    def test_tolerances_validate(self):
        with pytest.raises(InputError):
            Tolerances(rank_rel=0.0)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
        elements=st.floats(-10, 10),
    )
)
def test_hs_norm_squared_equals_gram_trace(a):
    assert hs_norm(a) ** 2 == pytest.approx(trace(a.T @ a), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
        elements=st.floats(-10, 10),
    ),
    st.integers(min_value=1, max_value=6),
)
def test_truncation_never_exceeds_rank_bound(a, r):
    t = truncated_svd(a, r)
    assert numerical_rank(t.matrix()) <= r

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import identity_truncation
from glra import checks, linalg, regression, sequences
from glra.checks import _ref_projectors
from glra.linalg import (
    DomainError,
    InputError,
    NumericalError,
    Tolerances,
    Uniqueness,
    hs_norm,
    pinv,
    psd_sqrt,
    rank_factors,
    svd,
)
from glra.solver import GlraProblem

ATOL = 1e-10


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


def loop_sign_svd(a):
    """The column loop the vectorised sign rule of linalg._svd replaced."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.T
    for j in range(u.shape[1]):
        nz = np.nonzero(u[:, j])[0]
        if nz.size and u[nz[0], j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, s, v


def block_diagonal():
    a = np.zeros((5, 5))
    a[:2, :2] = rng(11).standard_normal((2, 2))
    a[2:, 2:] = rng(12).standard_normal((3, 3))
    return a


class TestSignRule:
    """linalg._svd flips the same columns as the loop, bit for bit."""

    @pytest.mark.parametrize(
        "a",
        [
            rng(20).standard_normal((7, 4)),
            rng(21).standard_normal((4, 7)),
            rng(22).standard_normal((5, 5)),
            rng(23).standard_normal((6, 2)) @ rng(24).standard_normal((2, 5)),
            np.outer(rng(25).standard_normal(4), rng(26).standard_normal(4)),
            np.zeros((3, 4)),
            block_diagonal(),
            np.eye(4)[[2, 0, 3, 1]],
            np.diag([-3.0, 2.0, -1.0, 0.5]),
            -np.eye(3),
            np.zeros((3, 0)),
            np.zeros((0, 3)),
        ],
        ids=[
            "tall", "wide", "square", "rank-2", "rank-1", "zero", "block-diagonal",
            "permutation", "negative-diagonal", "minus-identity", "empty-k-by-0",
            "empty-0-by-k",
        ],
    )
    def test_matches_the_column_loop(self, a):
        u, s, v = loop_sign_svd(a.copy())
        f = linalg._svd(a.copy())
        assert np.array_equal(f.u, u) and np.array_equal(f.v, v)
        assert np.array_equal(f.sigma, s)
        # the signs of zeros too: a flipped zero is -0.0 in both
        assert np.array_equal(np.signbit(f.u), np.signbit(u))
        assert np.array_equal(np.signbit(f.v), np.signbit(v))
        assert f.u.shape == u.shape and f.v.shape == v.shape

    def test_zero_in_row_0_takes_the_argmax_search(self):
        a = block_diagonal()
        u0, s, vh = np.linalg.svd(a, full_matrices=False)
        assert not u0[0].all()  # so _svd cannot read every sign off row 0
        cols = np.arange(u0.shape[1])
        sign = np.where(u0[np.argmax(u0 != 0.0, axis=0), cols] < 0.0, -1.0, 1.0)
        f = linalg._svd(a.copy())
        assert np.array_equal(f.u, u0 * sign) and np.array_equal(f.v, vh.T * sign)
        assert np.array_equal(np.signbit(f.u), np.signbit(u0 * sign))
        assert np.array_equal(f.sigma, s)
        assert (f.u[np.argmax(f.u != 0.0, axis=0), cols] >= 0.0).all()


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
        # the finiteness guard keeps every bit of the factor product
        want = linalg._pinv(rank_factors(a))
        assert ap.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert hs_norm(a @ ap @ a - a) < ATOL
        assert hs_norm(ap @ a @ ap - ap) < ATOL
        assert hs_norm((a @ ap) - (a @ ap).T) < ATOL
        assert hs_norm((ap @ a) - (ap @ a).T) < ATOL

    def test_subnormal_input_is_numerical_without_warning(self):
        # the rank cutoff of a subnormal A is subnormal too, so 1/sigma overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="pinv is not finite"):
                pinv(1e-310 * np.eye(2))


class TestProjectors:
    """The checks' reference projectors, and the library's pinv and bases against them."""

    def test_full_row_rank_factor_projects_to_identity(self):
        b = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        np.testing.assert_allclose(_ref_projectors(b)[0], np.eye(2), atol=1e-14)
        np.testing.assert_allclose(_ref_projectors(b.T)[1], np.eye(2), atol=1e-14)

    def test_zero_matrix(self):
        for proj in _ref_projectors(np.zeros((3, 3))):
            assert hs_norm(proj) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_projector_algebra(self, seed):
        a = rng(seed).standard_normal((5, 4))
        p, pk = _ref_projectors(a)
        assert hs_norm(p @ p - p) < ATOL
        assert hs_norm(p - p.T) < ATOL
        assert hs_norm(p @ a - a) < ATOL
        assert hs_norm(pk - pinv(a) @ a) < ATOL

    def test_kernel_range_duality(self):
        a = rng(9).standard_normal((6, 3)) @ rng(10).standard_normal((3, 5))
        u = rank_factors(a.T).u
        assert hs_norm(u @ u.T - _ref_projectors(a)[1]) < ATOL


class TestTruncatedSvd:
    """The rank-r truncation, reached through the B = I, C = I problem."""

    def test_tied_identity_is_flagged(self):
        t = identity_truncation(np.eye(2), 1)
        assert t.uniqueness is Uniqueness.NON_UNIQUE
        recon = t.matrix()
        candidates = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert any(hs_norm(recon - c) < ATOL for c in candidates)

    def test_rank_saturation(self):
        a = rng(3).standard_normal((4, 2)) @ rng(4).standard_normal((2, 5))
        t = identity_truncation(a, 3)
        assert t.uniqueness is Uniqueness.UNIQUE_BY_RANK
        assert hs_norm(t.matrix() - a) < ATOL
        assert t.discarded_head < 1e-12
        # only the two triplets above the rank cutoff are kept, not r = 3
        assert t.factors.sigma.size == t.numerical_rank == 2

    def test_distinct_diagonal(self):
        t = identity_truncation(np.diag([3.0, 2.0, 1.0]), 2)
        assert t.uniqueness is Uniqueness.UNIQUE_BY_GAP
        np.testing.assert_allclose(t.matrix(), np.diag([3.0, 2.0, 0.0]), atol=1e-14)
        assert t.discarded_head == pytest.approx(1.0)

    def test_rejects_zero_rank(self):
        with pytest.raises(InputError):
            identity_truncation(np.eye(2), 0)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_residual_identity(self, r):
        a = rng(5).standard_normal((6, 4))
        sigma = np.linalg.svd(a, compute_uv=False)
        t = identity_truncation(a, r)
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
        with pytest.raises(DomainError, match=r"asymmetry 1\.000e\+00"):
            psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_strong_asymmetry_without_warning(self):
        # A - A^T would overflow; its halves do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="needs a symmetric matrix"):
                psd_sqrt(np.array([[0.0, 1e308], [-1e308, 0.0]]))

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
        assert rank_factors(s).sigma.size == rank_factors(gram).sigma.size == 2

    def test_factors_split_range_and_kernel(self):
        g = rng(8).standard_normal((5, 2))
        gram = g @ g.T
        f, kernel = linalg._psd_factors(gram, linalg.DEFAULT_TOL)
        assert f.sigma.size == 2 and kernel.shape == (5, 3)
        assert np.all(np.diff(f.sigma) <= 0.0)
        basis = np.hstack([f.u, kernel])
        assert hs_norm(basis.T @ basis - np.eye(5)) < ATOL
        assert hs_norm(gram @ kernel) < ATOL
        np.testing.assert_allclose(f.reconstruct() @ f.reconstruct(), gram, atol=ATOL)
        assert hs_norm(linalg._pinv(f) - pinv(psd_sqrt(gram))) < ATOL


class TestHsOps:
    def test_identity_norm(self):
        assert hs_norm(np.eye(7)) ** 2 == pytest.approx(7.0)

    def test_branch_b_norm(self, x_branch_b):
        assert hs_norm(x_branch_b) == pytest.approx(4.0)

    def test_norm_from_singular_values(self):
        a = rng(8).standard_normal((4, 6))
        gram_sigma = np.linalg.svd(a.T @ a, compute_uv=False)
        assert hs_norm(a) ** 2 == pytest.approx(float(np.sum(gram_sigma)), abs=ATOL)

    def test_finite_entries_whose_squares_overflow(self):
        # the rescale answers numpy's overflow, so no warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hs_norm(np.full((3, 3), 1e300)) == pytest.approx(3e300, rel=1e-15)

    def test_ordinary_input_keeps_numpys_bits(self):
        a = rng(9).standard_normal((5, 7))
        assert hs_norm(a) == float(np.linalg.norm(a))

    @pytest.mark.parametrize(
        "a, want",
        [(1e-200 * np.eye(2), np.sqrt(2.0) * 1e-200), ([[1e-160, 1e-160]], np.sqrt(2.0) * 1e-160)],
        ids=["identity_1e-200", "row_1e-160"],
    )
    def test_entries_whose_squares_underflow(self, a, want):
        assert abs(hs_norm(a) - want) <= 1e-15 * want

    def test_zero_matrix_needs_no_division(self):
        with np.errstate(all="raise"):
            assert hs_norm(np.zeros((2, 3))) == 0.0


def _layouts(a):
    """a in C order, in Fortran order, transposed and as a strided view.

    The strided view of its first row ravels to a strided vector, not a copy.
    """
    big = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
    big[::2, ::3] = a
    return {"C": a, "F": np.asfortranarray(a), "T": a.T, "strided": big[::2, ::3],
            "strided-row": big[:1, ::3]}


class TestHsNormContract:
    """hs_norm keeps numpy's bits in every layout and rescales silently."""

    @pytest.mark.parametrize("n", [*range(1, 13), 300])
    def test_bit_equal_to_numpy(self, n):
        a = rng(40 + n).standard_normal((n, n))
        for layout, view in _layouts(a).items():
            assert hs_norm(view) == float(np.linalg.norm(view)), layout

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_rescale_is_silent_and_unchanged(self, scale):
        a = scale * np.ones((4, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = hs_norm(a)
        top = float(np.max(np.abs(a)))
        assert norm == top * float(np.linalg.norm(a / top))


class TestRankDecisions:
    def test_rank_composition(self):
        s = rng(13).standard_normal((5, 2)) @ rng(14).standard_normal((2, 6))
        t = rng(15).standard_normal((4, 5))
        assert rank_factors(t @ s).sigma.size <= rank_factors(s).sigma.size

    @pytest.mark.parametrize(
        "call, name",
        [
            # sigma_1 = 3e308 and lambda_max = 1.8e308 of finite matrices: at an
            # inf cutoff no value was kept, so both read as rank 0
            (lambda: rank_factors(np.full((2, 2), 1.5e308)), "sigma_1"),
            (lambda: psd_sqrt(np.full((2, 2), 9.0e307)), "lambda_max"),
            (lambda: psd_sqrt(np.full((2, 2), -1.5e308)), "lambda_max"),
        ],
        ids=["svd", "eigh", "eigh-negative"],
    )
    def test_overflowing_spectrum_is_numerical(self, call, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"{name} is not finite"):
                call()

    def test_psd_symmetrisation_keeps_every_bit(self):
        # halving before the sum is exact for normal entries
        g = rng(16).standard_normal((6, 6))
        gram = g @ g.T
        gram[0, 1] = np.nextafter(gram[1, 0], np.inf)
        f = linalg._psd_factors(gram, linalg.DEFAULT_TOL)[0]
        want = np.linalg.eigh((gram + gram.T) / 2.0)[0][::-1]
        assert np.array_equal(f.sigma, np.sqrt(want[: f.sigma.size]))

    def test_tolerances_validate(self):
        with pytest.raises(InputError):
            Tolerances(rank_rel=0.0)

    @pytest.mark.parametrize("name", ["rank_rel", "tie_rel"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_tolerances_are_finite(self, name, value):
        # an infinite cutoff keeps no singular value, and an infinite gap
        # ties every pair
        with pytest.raises(InputError, match=f"{name} must be strictly positive and finite"):
            Tolerances(**{name: value})
        assert getattr(Tolerances(**{name: np.finfo(float).max}), name) == np.finfo(float).max


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
        elements=st.floats(-10, 10),
    )
)
def test_hs_norm_squared_equals_gram_trace(a):
    assert hs_norm(a) ** 2 == pytest.approx(np.trace(a.T @ a), abs=1e-9)


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
    t = identity_truncation(a, r)
    assert rank_factors(t.matrix()).sigma.size <= r


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (
            lambda: linalg.as_matrix(np.ones(3), "Z"),
            InputError,
            r"Z must be a 2-D matrix, got shape \(3,\)",
        ),
        (
            lambda: linalg.as_matrix((1 + 1j) * np.eye(2), "Z"),
            InputError,
            "Z is not a real numeric array: complex entries are not supported",
        ),
        (
            lambda: linalg.as_matrix([[1 + 1j]], "Z"),
            InputError,
            "Z is not a real numeric array: complex entries are not supported",
        ),
        (
            lambda: linalg.as_matrix([["a"]], "Z"),
            InputError,
            "Z is not a real numeric array: could not convert string to float",
        ),
        (
            lambda: linalg.as_matrix([[1, 2], [3]], "Z"),
            InputError,
            "Z is not a real numeric array: .*inhomogeneous",
        ),
        (lambda: psd_sqrt(np.ones((2, 3))), DomainError, r"needs a square matrix, got \(2, 3\)"),
        (lambda: hs_norm(np.array([[1.0, np.nan]])), InputError, "non-finite"),
        (lambda: hs_norm(np.array([[np.inf, -np.inf]])), InputError, "non-finite"),
        (lambda: hs_norm(np.array([[np.nan, 1e200]])), InputError, "non-finite"),
        (lambda: hs_norm(np.ones(3)), InputError, r"2-D matrix, got shape \(3,\)"),
        (lambda: hs_norm(np.zeros((0, 3))), InputError, r"2-D matrix, got shape \(0, 3\)"),
    ],
    ids=[
        "as-matrix-1d", "as-matrix-complex-array", "as-matrix-complex-list",
        "as-matrix-string", "as-matrix-ragged", "psd-sqrt-non-square", "hs-norm-nan", "hs-norm-inf-minus-inf",
        "hs-norm-nan-beside-1e200", "hs-norm-1d", "hs-norm-empty",
    ],
)
def test_rejected_input(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def _fitted_check(seed):
    g = rng(1)
    samples = regression.SampleSet(xs=g.standard_normal((20, 2)), ys=g.standard_normal((20, 3)))
    cov = regression.empirical_covariances(samples)
    return regression.maximal_kernel_check(regression.fit(cov, 1), cov, trials=1, seed=seed)


@pytest.mark.parametrize(
    "seed, message",
    [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5")],
    ids=["negative", "fractional"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda seed: sequences.nested_chain(np.eye(3), 3, seed=seed),
        lambda seed: checks.run_suites(["mp"], 1, seed),
        lambda seed: sequences.approximate_minimizers(
            GlraProblem(m=np.eye(3), b=np.eye(3), c=np.eye(3), r=1), [0.1], seed=seed
        ),
        _fitted_check,
    ],
    ids=["nested-chain", "run-suites", "approximate-minimizers", "maximal-kernel-check"],
)
def test_seeded_functions_reject_a_seed_numpy_cannot_take(call, seed, message):
    # numpy's default_rng takes only integers >= 0; its ValueError or TypeError
    # would surface as an internal error
    with pytest.raises(InputError, match=message):
        call(seed)


def _fitted():
    g = rng(1)
    samples = regression.SampleSet(xs=g.standard_normal((20, 2)), ys=g.standard_normal((20, 3)))
    cov = regression.empirical_covariances(samples)
    return regression.fit(cov, 1), cov


_EYE_PROBLEM = GlraProblem(m=np.eye(3), b=np.eye(3), c=np.eye(3), r=1)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: sequences.SequenceSpec(2.0, 1.0, n=10.5),
            "dimension n must be an integer, got 10.5",
        ),
        (
            lambda: sequences.unboundedness_sweep(sequences.SequenceSpec(2.0, 1.0), [10.5], [2]),
            "dimension n must be an integer, got 10.5",
        ),
        (
            lambda: sequences.unboundedness_sweep(sequences.SequenceSpec(2.0, 1.0), ["20"], [2]),
            "dimension n must be an integer, got '20'",
        ),
        (
            lambda: sequences.unboundedness_sweep(sequences.SequenceSpec(2.0, 1.0), [20], [2.5]),
            "probe indices must be an integer, got 2.5",
        ),
        (lambda: sequences.nested_chain(np.eye(4), 2.5), "steps must be an integer, got 2.5"),
        (lambda: checks.run_suites(["mp"], 1.5, 0), "trials must be an integer, got 1.5"),
        (
            lambda: regression.maximal_kernel_check(*_fitted(), trials=2.5),
            "trials must be an integer, got 2.5",
        ),
        (
            lambda: checks.als_oracles([_EYE_PROBLEM], 1.5, 3, [0]),
            "restarts must be an integer, got 1.5",
        ),
        (lambda: checks.als_oracles([_EYE_PROBLEM], 1, 3, [-1]), "seed must be >= 0, got -1"),
        (
            lambda: sequences.approximate_minimizers(_EYE_PROBLEM, ["a"]),
            "epsilons is not a real numeric array: could not convert string to float",
        ),
        (
            lambda: sequences.SequenceSpec("2", 1.0),
            "gamma_exponent is not a real numeric array: numeric strings are not supported",
        ),
        (
            lambda: sequences.SequenceSpec(2.0, 1.0, mu_head=("a",)),
            "mu_head is not a real numeric array: could not convert string to float",
        ),
        (
            lambda: Tolerances(rank_rel="1e-12"),
            "tolerance rank_rel must be strictly positive and finite",
        ),
        (
            lambda: linalg.as_matrix([["1"]], "Z"),
            "Z is not a real numeric array: numeric strings are not supported",
        ),
    ],
    ids=[
        "spec-fractional-n", "sweep-fractional-n", "sweep-string-n", "sweep-fractional-probe",
        "chain-fractional-steps", "suites-fractional-trials", "kernel-check-fractional-trials",
        "als-fractional-restarts", "als-negative-seed", "epsilon-string", "spec-numeric-string",
        "spec-mu-head-string", "tolerance-string", "as-matrix-numeric-string",
    ],
)
def test_every_count_and_real_a_caller_passes_is_checked(call, message):
    # each of these was accepted, or died inside numpy with a TypeError,
    # IndexError or ValueError, before _count and _finite checked it
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: sequences.SequenceSpec(2.0, 1.0, mu_head=1.0),
            "mu_head must be finite and 1-D, got 1.0",
        ),
        (
            lambda: sequences.SequenceSpec(2.0, 1.0, mu_head=[[1.0, 0.5]]),
            r"mu_head must be finite and 1-D, got \[\[1.0, 0.5\]\]",
        ),
        (
            lambda: sequences.SequenceSpec((2.0,), 1.0),
            r"gamma_exponent must be finite and scalar, got \(2.0,\)",
        ),
        (
            lambda: sequences.approximate_minimizers(_EYE_PROBLEM, 0.1),
            "epsilons must be finite and 1-D, got 0.1",
        ),
        (
            lambda: sequences.unboundedness_sweep(sequences.SequenceSpec(2.0, 1.0), 20, [2]),
            "in lists; got n_values=20",
        ),
        (
            lambda: sequences.unboundedness_sweep(sequences.SequenceSpec(2.0, 1.0), [20], 2),
            "in lists; got probes=2",
        ),
    ],
    ids=[
        "spec-scalar-mu-head", "spec-nested-mu-head", "spec-sequence-exponent",
        "scalar-epsilons", "sweep-scalar-n", "sweep-scalar-probe",
    ],
)
def test_a_scalar_for_a_sequence_or_the_reverse_is_checked(call, message):
    # each of these died inside numpy with an IndexError, ValueError or
    # TypeError before the shape of a real or of a list of counts was checked
    with pytest.raises(InputError, match=message):
        call()


def test_as_matrix_takes_a_float_array_as_it_is():
    # a float64 ndarray is not copied; other real input is converted to float64
    a = np.eye(3)
    assert linalg.as_matrix(a) is a
    for other in (np.eye(3, dtype=np.float32), np.eye(3, dtype=int), [[1, 0], [0, 1]]):
        converted = linalg.as_matrix(other)
        assert converted.dtype == np.float64
        assert np.array_equal(converted, np.asarray(other, dtype=float))


def test_tolerances_are_read_by_the_two_rules_only():
    # every rank and tie decision goes through linalg._cutoff and linalg._tied;
    # cli only declares its options and turns them into a Tolerances
    allowed = {
        ("linalg", "_cutoff"),
        ("linalg", "_tied"),
        ("linalg", "Tolerances"),
        ("cli", "_add_tolerances"),
        ("cli", "_tolerances"),
    }
    readers = set()
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("rank_rel", "tie_rel"):
                    readers.add((path.stem, getattr(top, "name", "<module>")))
    assert readers <= allowed
    assert {("linalg", "_cutoff"), ("linalg", "_tied")} <= readers

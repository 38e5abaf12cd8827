import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import identity_truncation
from glra.checks import _ref_projectors, als_oracles
from glra.linalg import (
    DEFAULT_TOL,
    InputError,
    NumericalError,
    Tolerances,
    Uniqueness,
    _psd_factors,
    hs_norm,
    pinv,
    psd_sqrt,
    rank_factors,
)
from glra.regression import (
    CovarianceBundle,
    RrrModel,
    SampleSet,
    empirical_covariances,
    fit,
    maximal_kernel_check,
    model_to_dict,
    mse_monte_carlo,
    mse_trace,
    predict,
    save_model,
)
from glra import regression
from glra.solver import GlraProblem, minimality_defect

ATOL = 1e-10


def transposed_problem(cov, r, w_x, w_a, w_y, tol=DEFAULT_TOL):
    """The problem (M, B, C, r) that fit solves for A_hat^T, from psd_sqrt and pinv."""
    half = psd_sqrt(cov.c_y, tol)
    return GlraProblem(
        m=pinv(half, tol) @ cov.c_yx @ w_x.T, b=half @ w_y.T, c=w_a.T, r=r, tol=tol
    )


def gaussian_samples(seed, count=200, dim_f=4, dim_g=5, noise=0.2, deficient_y=False):
    g = np.random.default_rng(seed)
    if deficient_y:
        latent = g.standard_normal((count, dim_g - 2))
        ys = latent @ g.standard_normal((dim_g - 2, dim_g))
    else:
        ys = g.standard_normal((count, dim_g))
    xs = ys @ g.standard_normal((dim_g, dim_f)) + noise * g.standard_normal(
        (count, dim_f)
    )
    return SampleSet(xs=xs, ys=ys)


class TestEmpiricalCovariances:
    def test_single_sample_outer_products(self):
        s = SampleSet(xs=np.array([[1.0, 0.0]]), ys=np.array([[0.0, 2.0]]))
        cov = empirical_covariances(s)
        np.testing.assert_allclose(cov.c_x, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(cov.c_y, [[0.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(cov.c_xy, [[0.0, 2.0], [0.0, 0.0]])

    def test_trace_is_mean_squared_norm(self):
        s = gaussian_samples(0)
        cov = empirical_covariances(s)
        assert np.trace(cov.c_x) == pytest.approx(
            float(np.mean(np.sum(s.xs**2, axis=1))), abs=1e-9
        )
        assert np.trace(cov.c_y) == pytest.approx(
            float(np.mean(np.sum(s.ys**2, axis=1))), abs=1e-9
        )

    def test_linear_transform_commutes(self):
        s = gaussian_samples(1)
        cov = empirical_covariances(s)
        q = np.random.default_rng(2).standard_normal((3, 4))
        transformed = empirical_covariances(SampleSet(xs=s.xs @ q.T, ys=s.ys))
        np.testing.assert_allclose(transformed.c_xy, q @ cov.c_xy, atol=1e-12)

    def test_mismatched_counts(self):
        with pytest.raises(InputError):
            SampleSet(xs=np.ones((3, 2)), ys=np.ones((4, 2)))


class TestFit:
    def test_self_reconstruction_is_range_projector(self):
        s = gaussian_samples(3, dim_f=4, dim_g=4)
        same = SampleSet(xs=s.ys.copy(), ys=s.ys)
        cov = empirical_covariances(same)
        model = fit(cov, r=4)
        np.testing.assert_allclose(model.a_hat, _ref_projectors(cov.c_y)[0], atol=1e-9)
        assert model.fit_report.objective_mse == pytest.approx(0.0, abs=1e-9)

    def test_identity_weights_match_direct_formula(self):
        cov = empirical_covariances(gaussian_samples(4))
        r = 2
        model = fit(cov, r)
        half = psd_sqrt(cov.c_y)
        target = _ref_projectors(half)[0] @ pinv(half) @ cov.c_yx
        direct = (pinv(half) @ identity_truncation(target, r).matrix()).T
        np.testing.assert_allclose(model.a_hat, direct, atol=1e-12)
        explicit = fit(
            cov,
            r,
            weights=(np.eye(cov.c_x.shape[0]), np.eye(cov.c_x.shape[0]), np.eye(cov.c_y.shape[0])),
        )
        np.testing.assert_allclose(model.a_hat, explicit.a_hat, atol=1e-12)

    def test_weighted_fit_matches_composed_formula(self):
        cov = empirical_covariances(gaussian_samples(5, dim_f=3, dim_g=4))
        g = np.random.default_rng(6)
        w_x = g.standard_normal((3, 3))
        w_a = g.standard_normal((3, 3))
        w_y = g.standard_normal((4, 4))
        r = 2
        model = fit(cov, r, weights=(w_x, w_a, w_y))
        half = psd_sqrt(cov.c_y)
        b_op = half @ w_y.T
        target = (
            _ref_projectors(b_op)[0] @ pinv(half) @ cov.c_yx @ w_x.T @ _ref_projectors(w_a)[0]
        )
        direct = pinv(w_a) @ (pinv(b_op) @ identity_truncation(target, r).matrix()).T
        np.testing.assert_allclose(model.a_hat, direct, atol=1e-10)
        # A_hat^T is minimal for the transposed problem the fit solves
        prob = transposed_problem(cov, r, w_x, w_a, w_y)
        assert minimality_defect(model.a_hat.T, prob) < ATOL

    def test_fit_beats_rank_constrained_oracle(self):
        cov = empirical_covariances(gaussian_samples(7, dim_f=3, dim_g=4))
        model = fit(cov, r=1)
        prob = transposed_problem(cov, 1, np.eye(3), np.eye(3), np.eye(4))
        oracle = als_oracles([prob], 20, 200, [8])[0]
        const = hs_norm(psd_sqrt(cov.c_x)) ** 2 - hs_norm(prob.m) ** 2
        assert model.fit_report.objective_mse <= const + oracle**2 + 1e-6

    @pytest.mark.parametrize("weighted, svds", [(False, 1), (True, 3)], ids=["identity", "weighted"])
    def test_fit_factor_counts(self, svd_calls, eigh_calls, weighted, svds):
        # one eigh of C_y gives C_y^(1/2), its pseudo-inverse and, with identity
        # weights, B's factors, so only the core is an SVD; weighted B and C are new
        cov = empirical_covariances(gaussian_samples(19, count=60, dim_f=3, dim_g=4))
        g = np.random.default_rng(20)
        weights = tuple(g.standard_normal((d, d)) for d in (3, 3, 4)) if weighted else None
        fit(cov, r=2, weights=weights)
        assert len(eigh_calls) == 1
        assert len(svd_calls) == svds

    @pytest.mark.parametrize("seed", range(30))
    def test_power_of_two_samples_scale_a_hat_exactly(self, seed):
        # (2^a X, 2^b Y) -> A_hat 2^(a-b) bit for bit: every rank and tie
        # decision is relative and every product scales by a power of two
        s = gaussian_samples(seed, count=30, dim_f=3, dim_g=4)
        ys = s.ys.copy()
        if seed % 3 == 0:
            ys[:, -1] = ys[:, 0]
        r = seed % 3 + 1
        base = fit(empirical_covariances(SampleSet(xs=s.xs, ys=ys)), r)
        for a, b in [(1, 0), (0, 1), (-3, 5), (200, 0), (0, -200), (150, -150), (-200, 200)]:
            scaled = SampleSet(xs=np.ldexp(s.xs, a), ys=np.ldexp(ys, b))
            model = fit(empirical_covariances(scaled), r)
            assert np.array_equal(model.a_hat, np.ldexp(base.a_hat, a - b)), (a, b)
            assert model.fit_report.uniqueness is base.fit_report.uniqueness

    def test_overflowing_covariance_spectrum_is_numerical(self):
        # C_y = y y^T holds 9.0e307 and is finite, its eigenvalue 1.8e308 is
        # not; a fit cut at an inf eigenvalue kept nothing and gave A_hat = 0
        cov = empirical_covariances(SampleSet(xs=[[1.0]], ys=[[9.49e153, 9.49e153]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="lambda_max is not finite"):
                fit(cov, r=1)

    def test_uniqueness_reported(self):
        cov = empirical_covariances(gaussian_samples(9))
        assert fit(cov, r=1).fit_report.uniqueness in (
            Uniqueness.UNIQUE_BY_GAP,
            Uniqueness.UNIQUE_BY_RANK,
        )


class TestPredict:
    def test_zero_model(self):
        model = RrrModel(
            a_hat=np.zeros((2, 3)), r=1, weights=None, fit_report=None
        )
        np.testing.assert_allclose(predict(model, np.ones(3)), np.zeros(2))

    def test_linearity(self):
        cov = empirical_covariances(gaussian_samples(10))
        model = fit(cov, r=2)
        y = np.random.default_rng(11).standard_normal(cov.c_y.shape[0])
        np.testing.assert_allclose(
            predict(model, 3.0 * y), 3.0 * predict(model, y), atol=1e-12
        )

    def test_self_reconstruction_predicts_projection(self):
        s = gaussian_samples(12, dim_f=4, dim_g=4)
        same = SampleSet(xs=s.ys.copy(), ys=s.ys)
        cov = empirical_covariances(same)
        model = fit(cov, r=4)
        p_ran = _ref_projectors(cov.c_y)[0]
        for row in same.ys[:5]:
            np.testing.assert_allclose(predict(model, row), p_ran @ row, atol=1e-9)

    def test_length_mismatch(self):
        cov = empirical_covariances(gaussian_samples(13))
        model = fit(cov, r=1)
        with pytest.raises(InputError):
            predict(model, np.ones(model.a_hat.shape[1] + 1))


def mse_via_residual(model, cov, tol=DEFAULT_TOL):
    """Same quantity as mse_trace, via c + ||M - B A^T C||_HS^2."""
    w_x, w_a, w_y = regression._weight_triplet(cov.c_x.shape[0], cov.c_y.shape[0], model.weights)
    prob = transposed_problem(cov, model.r, w_x, w_a, w_y, tol)
    const = hs_norm(w_x @ psd_sqrt(cov.c_x, tol)) ** 2 - hs_norm(prob.m) ** 2
    return const + hs_norm(prob.m - prob.b @ model.a_hat.T @ prob.c) ** 2


class TestMse:
    def test_zero_model_trace(self):
        cov = empirical_covariances(gaussian_samples(14))
        model = RrrModel(
            a_hat=np.zeros((cov.c_x.shape[0], cov.c_y.shape[0])),
            r=1,
            weights=None,
            fit_report=None,
        )
        assert mse_trace(model, cov) == pytest.approx(
            float(np.trace(cov.c_x)), abs=1e-10
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_equals_monte_carlo_on_training_data(self, seed):
        s = gaussian_samples(seed + 20)
        cov = empirical_covariances(s)
        model = fit(cov, r=2)
        assert mse_trace(model, cov) == pytest.approx(
            mse_monte_carlo(model, s), abs=1e-10
        )

    def test_residual_form_agrees(self):
        cov = empirical_covariances(gaussian_samples(15))
        model = fit(cov, r=2)
        assert mse_via_residual(model, cov) == pytest.approx(
            mse_trace(model, cov), abs=1e-10
        )

    def test_weighted_trace_equals_monte_carlo(self):
        s = gaussian_samples(16, dim_f=3, dim_g=3)
        cov = empirical_covariances(s)
        g = np.random.default_rng(17)
        weights = (
            g.standard_normal((3, 3)),
            g.standard_normal((3, 3)),
            g.standard_normal((3, 3)),
        )
        model = fit(cov, r=1, weights=weights)
        assert mse_trace(model, cov) == pytest.approx(
            mse_monte_carlo(model, s), abs=1e-10
        )

    def test_weighted_model_on_samples_of_wrong_width(self):
        s = gaussian_samples(16, dim_f=3, dim_g=3)
        g = np.random.default_rng(17)
        weights = tuple(g.standard_normal((3, 3)) for _ in range(3))
        model = fit(empirical_covariances(s), r=1, weights=weights)
        wide = SampleSet(xs=np.hstack([s.xs, s.xs[:, :1]]), ys=s.ys)
        with pytest.raises(InputError, match="W_x"):
            mse_monte_carlo(model, wide)

    def test_zero_samples_zero_model(self):
        s = SampleSet(xs=np.zeros((5, 2)), ys=np.ones((5, 3)))
        model = RrrModel(a_hat=np.zeros((2, 3)), r=1, weights=None, fit_report=None)
        assert mse_monte_carlo(model, s) == 0.0

    def test_duplicated_mass_reweights_exactly(self):
        s = gaussian_samples(18, count=40)
        cov = empirical_covariances(s)
        model = fit(cov, r=2)
        base = mse_monte_carlo(model, s)
        doubled = SampleSet(
            xs=np.vstack([s.xs, s.xs]), ys=np.vstack([s.ys, s.ys])
        )
        assert mse_monte_carlo(model, doubled) == pytest.approx(base, abs=1e-12)
        residual = np.linalg.norm(
            s.xs[0] - model.a_hat @ s.ys[0]
        ) ** 2
        appended = SampleSet(
            xs=np.vstack([s.xs, s.xs[:1]]), ys=np.vstack([s.ys, s.ys[:1]])
        )
        count = s.xs.shape[0]
        expected = (count * base + residual) / (count + 1)
        assert mse_monte_carlo(model, appended) == pytest.approx(expected, abs=1e-12)


class TestMaximalKernel:
    def test_zero_perturbation_is_identity(self):
        cov = empirical_covariances(gaussian_samples(21, deficient_y=True))
        model = fit(cov, r=2)
        kernel = np.zeros((cov.c_y.shape[0], cov.c_y.shape[0]))
        perturbed = model.a_hat + np.zeros((cov.c_y.shape[0], cov.c_x.shape[0])).T @ kernel
        np.testing.assert_allclose(perturbed, model.a_hat)

    def test_full_rank_passes_vacuously(self):
        cov = empirical_covariances(gaussian_samples(22))
        model = fit(cov, r=2)
        report = maximal_kernel_check(model, cov, trials=10, seed=0)
        assert report.passed and report.kernel_dim == 0

    def test_rank_deficient_case(self):
        cov = empirical_covariances(gaussian_samples(23, deficient_y=True))
        model = fit(cov, r=2)
        report = maximal_kernel_check(model, cov, trials=30, seed=1)
        assert report.passed
        assert report.kernel_dim == 2
        assert report.annihilation_residual < ATOL
        assert report.max_mse_deviation < ATOL
        assert report.min_shrink_norm > ATOL

    def test_check_factorises_nothing(self, svd_calls, eigh_calls):
        # ker(C_y) is the fit's, read from the model
        cov = empirical_covariances(gaussian_samples(23, deficient_y=True))
        model = fit(cov, r=2)
        svd_calls.clear()
        eigh_calls.clear()
        maximal_kernel_check(model, cov, trials=3, seed=1)
        assert not eigh_calls
        assert not svd_calls

    def test_kernel_and_fit_make_one_rank_decision(self):
        # lambda_4 sits at the rank cutoff 5e-12 * lambda_1, where an eigen cut
        # and an SVD cut of C_y can disagree
        g = np.random.default_rng(4)
        q = np.linalg.qr(g.standard_normal((5, 5)))[0]
        lam = np.array([1.0, 0.7, 0.3, 5e-12 * (1.0 + g.uniform(-3e-4, 3e-4)), 0.0])
        a = g.standard_normal((3, 5))
        c_y = q @ np.diag(lam) @ q.T
        c_y = (c_y + c_y.T) / 2.0
        cov = CovarianceBundle(c_x=a @ c_y @ a.T + np.eye(3), c_y=c_y, c_xy=a @ c_y)
        report = maximal_kernel_check(fit(cov, 2), cov, trials=0)
        assert report.kernel_dim + rank_factors(psd_sqrt(cov.c_y)).sigma.size == 5

    def test_judges_with_the_fit_tolerances(self):
        # lambda_min(C_y) is about 1e-13 lambda_max: rank under rank_rel = 1e-16,
        # kernel under the default cutoff, which the model's A_hat does not annihilate
        g = np.random.default_rng(3)
        ys = g.standard_normal((200, 3)) * np.array([1.0, 0.5, 10**-6.5])
        xs = ys @ g.standard_normal((3, 3)) + 0.01 * g.standard_normal((200, 3))
        cov = empirical_covariances(SampleSet(xs=xs, ys=ys))
        model = fit(cov, 3, tol=Tolerances(rank_rel=1e-16))
        report = maximal_kernel_check(model, cov, trials=5)
        assert report.kernel_dim == 0
        assert report.passed

    @pytest.mark.parametrize("case", ["deficient-default", "fit-tolerances"])
    def test_model_keeps_the_kernel_its_fit_cut(self, case):
        # the fit is the one place ker(C_y) is cut; the second case is that of
        # test_judges_with_the_fit_tolerances, whose C_y has a kernel only
        # under the default cutoff
        if case == "deficient-default":
            samples, tol, dim = gaussian_samples(23, deficient_y=True), DEFAULT_TOL, 2
        else:
            g = np.random.default_rng(3)
            ys = g.standard_normal((200, 3)) * np.array([1.0, 0.5, 10**-6.5])
            xs = ys @ g.standard_normal((3, 3)) + 0.01 * g.standard_normal((200, 3))
            samples, tol, dim = SampleSet(xs=xs, ys=ys), Tolerances(rank_rel=1e-16), 0
        cov = empirical_covariances(samples)
        if case == "fit-tolerances":
            assert _psd_factors(cov.c_y, DEFAULT_TOL)[1].shape[1] == 1
        kernel = fit(cov, 3, tol=tol).kernel
        assert kernel.shape[1] == dim
        assert np.array_equal(kernel, _psd_factors(cov.c_y, tol)[1])

    def test_rejects_models_not_built_by_fit(self):
        cov = empirical_covariances(gaussian_samples(24, dim_f=3, dim_g=3))
        model = replace(fit(cov, r=1), kernel=None)
        with pytest.raises(InputError, match="identity-weight models from fit"):
            maximal_kernel_check(model, cov)

    def test_rejects_weighted_models(self):
        cov = empirical_covariances(gaussian_samples(24, dim_f=3, dim_g=3))
        weights = (np.eye(3), np.eye(3), np.eye(3))
        model = fit(cov, r=1, weights=weights)
        with pytest.raises(InputError):
            maximal_kernel_check(model, cov)


    def test_runs_without_dense_projectors(self, no_projectors):
        samples = gaussian_samples(12, deficient_y=True)
        cov = empirical_covariances(samples)
        model = fit(cov, 2)
        report = maximal_kernel_check(model, cov, trials=5, seed=2)
        assert report.passed and report.kernel_dim == 2


class TestCovarianceFactorisation:
    @pytest.mark.parametrize("deficient", [False, True])
    def test_contraction_and_sandwich(self, deficient):
        cov = empirical_covariances(gaussian_samples(25, deficient_y=deficient))
        half_y = psd_sqrt(cov.c_y)
        half_x = psd_sqrt(cov.c_x)
        u = pinv(half_y) @ cov.c_yx @ pinv(half_x)
        assert np.linalg.svd(u, compute_uv=False)[0] <= 1.0 + 1e-8
        sandwiched = _ref_projectors(half_y)[0] @ u @ _ref_projectors(half_x)[0]
        assert hs_norm(sandwiched - u) < 1e-8

    def test_half_power_range_identity(self):
        cov = empirical_covariances(gaussian_samples(26, deficient_y=True))
        half = psd_sqrt(cov.c_y)
        assert hs_norm(half @ pinv(half) @ cov.c_yx - cov.c_yx) < 1e-9

    def test_half_power_kernel_matches(self):
        cov = empirical_covariances(gaussian_samples(27, deficient_y=True))
        half = psd_sqrt(cov.c_y)
        assert hs_norm(_ref_projectors(half)[1] - _ref_projectors(cov.c_y)[1]) < 1e-8


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        cov = empirical_covariances(gaussian_samples(28))
        model = fit(cov, r=2)
        path = tmp_path / "model.json"
        save_model(str(path), model)
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
        a_hat = np.array(doc["A_hat"]).reshape(doc["dims"]["rows"], doc["dims"]["cols"])
        assert np.array_equal(a_hat, model.a_hat)
        assert doc["r"] == model.r
        assert doc["fit_report"]["uniqueness"] == model.fit_report.uniqueness.value
        assert doc["fit_report"]["objective_mse"] == model.fit_report.objective_mse

    def test_weighted_round_trip(self, tmp_path):
        cov = empirical_covariances(gaussian_samples(29, dim_f=3, dim_g=3))
        weights = tuple(
            np.random.default_rng(30).standard_normal((3, 3)) for _ in range(3)
        )
        model = fit(cov, r=1, weights=weights)
        doc = model_to_dict(model)
        for orig, name in zip(model.weights, ("W_x", "W_A", "W_y")):
            entry = doc["weights"][name]
            back = np.array(entry["entries"]).reshape(entry["rows"], entry["cols"])
            assert np.array_equal(orig, back)


def small_cov():
    return empirical_covariances(gaussian_samples(31, count=50))


class TestInputErrors:
    @pytest.mark.parametrize(
        "call, fragment",
        [
            (
                lambda: CovarianceBundle(c_x=np.ones((2, 3)), c_y=np.eye(2), c_xy=np.ones((2, 2))),
                "C_x and C_y must be square",
            ),
            (
                lambda: CovarianceBundle(c_x=np.eye(2), c_y=np.eye(3), c_xy=np.ones((3, 2))),
                r"C_xy must be 2 x 3, got \(3, 2\)",
            ),
            (
                lambda: fit(small_cov(), 1, weights=(np.eye(4), np.eye(4), np.eye(6))),
                "W_y must have 5 columns, got 6",
            ),
            (
                lambda: fit(small_cov(), 1, weights=(np.eye(4), np.ones((3, 4)), np.eye(5))),
                "W_A must map into the same space as W_x",
            ),
            (
                lambda: predict(fit(small_cov(), 1), [1.0, np.nan, 0.0, 0.0, 0.0]),
                "y contains non-finite entries",
            ),
            (
                lambda: predict(fit(small_cov(), 1), np.array([1j, 0, 0, 0, 0])),
                "y is not a real numeric array: complex entries",
            ),
            (
                lambda: predict(fit(small_cov(), 1), ["a", "0", "0", "0", "0"]),
                "y is not a real numeric array",
            ),
            (
                lambda: predict(fit(small_cov(), 1), [[1.0], 0, 0, 0, 0]),
                "y is not a real numeric array",
            ),
            (
                lambda: mse_trace(
                    fit(small_cov(), 1), empirical_covariances(gaussian_samples(32, dim_g=6))
                ),
                r"model expects dimensions \(4, 5\), data have \(4, 6\)",
            ),
            (
                lambda: maximal_kernel_check(
                    fit(small_cov(), 1), empirical_covariances(gaussian_samples(33, dim_f=3))
                ),
                r"model expects dimensions \(4, 5\), data have \(3, 5\)",
            ),
            (
                # a model may carry an A_hat that W_A A_hat W_y cannot hold
                lambda: mse_monte_carlo(
                    replace(
                        fit(small_cov(), 1, weights=(np.eye(4), np.eye(4), np.eye(5))),
                        a_hat=np.zeros((4, 2)),
                    ),
                    gaussian_samples(31, count=50),
                ),
                r"model expects dimensions \(4, 2\), data have \(4, 5\)",
            ),
        ],
        ids=[
            "c-x-not-square",
            "c-xy-shape",
            "w-y-columns",
            "w-a-rows",
            "predict-non-finite",
            "predict-complex",
            "predict-string",
            "predict-ragged",
            "mse-trace-dimensions",
            "kernel-check-dimensions",
            "monte-carlo-a-hat-shape",
        ],
    )
    def test_rejected(self, call, fragment):
        with pytest.raises(InputError, match=fragment):
            call()
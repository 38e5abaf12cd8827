import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import CONDITIONED_KINDS, conditioned_problem, low_rank_target
from glra import cli, sequences
from glra.checks import _ref_lower_bound, _ref_projectors
from glra.linalg import (
    DEFAULT_TOL,
    InputError,
    NumericalError,
    SvdFactors,
    Tolerances,
    _rank,
    check_bound,
    hs_norm,
    pinv,
    rank_factors,
)
from glra.sequences import (
    SequenceSpec,
    SubspaceChain,
    approximate_minimizers,
    bounded_approximation_sequence,
    build_instance,
    full_chain,
    lower_bound_constant,
    nested_chain,
    outer_inverse_chain,
    unboundedness_sweep,
)
from glra.solver import GlraProblem, _reduce, objective, solution_set_sample, solve

ATOL = 1e-10


def diag_spec(**kwargs):
    base = dict(gamma_exponent=2.0, alpha_exponent=1.0, mu_head=(1.0, 0.5), n=50, r=1)
    base.update(kwargs)
    return SequenceSpec(**base)


class TestSpec:
    def test_requires_square_summable_weights(self):
        with pytest.raises(InputError):
            SequenceSpec(gamma_exponent=1.0, alpha_exponent=0.6)

    def test_requires_monotone_mu(self):
        with pytest.raises(InputError):
            diag_spec(mu_head=(1.0, 2.0))

    def test_minimum_dimension(self):
        with pytest.raises(InputError):
            diag_spec(n=2)

    @pytest.mark.parametrize("r", [1.5, 1.0, "1"])
    def test_non_integer_rank_rejected(self, r):
        with pytest.raises(InputError):
            diag_spec(r=r)

    def test_numpy_integer_rank_accepted(self):
        assert diag_spec(r=np.int64(2)).r == 2

    def test_mu_tail_extends_nonincreasingly(self):
        mu = diag_spec(mu_head=(2.0, 1.0), mu_tail_exponent=1.0).mu_values(6)
        np.testing.assert_allclose(mu, [2.0, 1.0, 2 / 3, 0.5, 0.4, 1 / 3])

    # NaN passes every comparison of the other checks, and an infinite value
    # overflows the construction; each is named before anything is built
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(mu_head=(np.nan, 1.0)), "mu_head"),
            (dict(mu_head=(1.0, np.nan)), "mu_head"),
            (dict(mu_head=(np.inf, 1.0)), "mu_head"),
            (dict(mu_tail_exponent=np.nan), "mu_tail_exponent"),
            (dict(mu_tail_exponent=-np.inf), "mu_tail_exponent"),
            (dict(gamma_exponent=np.inf), "gamma_exponent"),
            (dict(gamma_exponent=np.nan), "gamma_exponent"),
            (dict(alpha_exponent=np.nan), "alpha_exponent"),
            (dict(alpha_exponent=-np.inf), "alpha_exponent"),
        ],
    )
    def test_non_finite_parameter_is_named(self, kwargs, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"{name} must be finite"):
                diag_spec(**kwargs)


class TestBuildInstance:
    def test_weight_vector_finite_sum(self):
        inst = build_instance(diag_spec(n=4))
        # sum_{k=2..4} (k * k^-2)^2 = 1/4 + 1/9 + 1/16
        assert np.linalg.norm(inst.w) ** 2 == pytest.approx(
            1 / 4 + 1 / 9 + 1 / 16, abs=1e-15
        )
        assert inst.w[0] == 0.0

    def test_second_direction_is_first_axis(self):
        inst = build_instance(diag_spec(n=6))
        np.testing.assert_allclose(inst.f_basis[:, 1], np.eye(6)[:, 0])

    def test_target_is_read_only_and_shared_with_the_problem(self):
        inst = build_instance(diag_spec(n=7))
        m = inst.m
        # M alone builds no problem; the problem's M is a view of it
        assert not m.flags.writeable and "problem" not in vars(inst)
        assert np.shares_memory(inst.problem.m, m) and inst.problem.m.tobytes() == m.tobytes()

    def test_target_spectrum(self):
        inst = build_instance(diag_spec(n=7, mu_head=(2.0, 1.0)))
        evals = np.sort(np.linalg.eigvalsh(inst.problem.m))[::-1]
        np.testing.assert_allclose(evals, inst.mu, atol=1e-12)
        assert np.max(np.abs(inst.f_basis.T @ inst.f_basis - np.eye(7))) < ATOL


class TestUnboundednessSweep:
    def test_growth_law(self):
        sweep = unboundedness_sweep(diag_spec(n=60), [20, 60], [5, 10])
        for row in sweep.rows:
            assert row.norm == pytest.approx(row.predicted_norm, abs=1e-10)
            assert row.norm * sweep.w_norms[row.n] / row.m == pytest.approx(
                1.0, abs=1e-10
            )
        assert not sweep.tie and not sweep.bounded_rows

    def test_linear_probe_growth(self):
        sweep = unboundedness_sweep(diag_spec(n=80), [80], [8, 80])
        by_probe = {row.m: row.norm for row in sweep.rows}
        assert by_probe[80] / by_probe[8] == pytest.approx(10.0, abs=1e-8)

    def test_tie_reports_both_branches(self):
        sweep = unboundedness_sweep(diag_spec(mu_head=(1.0, 1.0), n=20), [20], [1, 5])
        assert sweep.tie
        bounded = {row.m: row.norm for row in sweep.bounded_rows}
        assert bounded[1] == pytest.approx(1.0, abs=1e-12)  # mu_2 / gamma_1
        assert bounded[5] == pytest.approx(0.0, abs=1e-12)
        growing = {row.m: row.norm for row in sweep.rows}
        assert growing[1] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_rank_above_one(self):
        with pytest.raises(InputError):
            unboundedness_sweep(diag_spec(r=2), [20], [5])

    def test_probes_enter_once_dimension_reaches_them(self):
        sweep = unboundedness_sweep(diag_spec(n=40), [10, 40], [8, 30])
        seen = {(row.n, row.m) for row in sweep.rows}
        assert seen == {(10, 8), (40, 8), (40, 30)}

    def test_probe_beyond_largest_dimension_rejected(self):
        with pytest.raises(InputError):
            unboundedness_sweep(diag_spec(n=20), [10, 20], [25])

    # the probe norms 2.6e-300 and 2.6e300 are representable, although the
    # squares of their columns' entries are not
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_probe_norms_follow_the_law_at_extreme_scales(self, scale, tied):
        spec = diag_spec(mu_head=(scale, scale if tied else scale / 2), n=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = unboundedness_sweep(spec, [20, 50], [2, 5])
        assert sweep.tie is tied and len(sweep.bounded_rows) == (4 if tied else 0)
        for row in sweep.rows + sweep.bounded_rows:
            assert abs(row.norm - row.predicted_norm) <= check_bound(row.n, row.predicted_norm)
        assert all(row.norm > 0 for row in sweep.rows)

    @pytest.mark.parametrize("a", [-40, -3, 5, 100])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_power_of_two_mu_scales_rows_exactly(self, a, tied):
        # mu -> 2^a mu scales X, its probe norms and their law by 2^a, bit
        # for bit, and leaves the lower bounds, which read only C, equal
        mu_head = (1.0, 1.0 if tied else 0.5)
        spec = diag_spec(mu_head=mu_head, n=40)
        scaled = replace(spec, mu_head=tuple(np.ldexp(mu_head, a)))
        base, moved = (unboundedness_sweep(s, [10, 40], [2, 7, 30]) for s in (spec, scaled))
        assert moved.tie is base.tie is tied
        assert len(moved.rows + moved.bounded_rows) == len(base.rows + base.bounded_rows)
        for old, new in zip(base.rows + base.bounded_rows, moved.rows + moved.bounded_rows):
            assert (new.n, new.m) == (old.n, old.m)
            assert new.norm == np.ldexp(old.norm, a)
            assert new.predicted_norm == np.ldexp(old.predicted_norm, a)
        assert moved.lower_bounds == base.lower_bounds
        assert moved.w_norms == base.w_norms

    # the assembled minimiser leaves the float range, or only the norm of
    # probe column 50 and its law, 1.9e308, do
    @pytest.mark.parametrize(
        "mu_head, probes, name",
        [
            ((1e308, 1e307), [2, 5], "x_a"),
            ((1e308, 1e308), [2, 5], "x_a"),
            ((1.7e308, 1e308), [2, 5], "x_a"),
            ((3e306, 1e306), [2, 50], "probe norm"),
            ((3e306, 3e306), [2, 50], "probe norm"),
        ],
    )
    def test_overflow_is_numerical_without_warning(self, mu_head, probes, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"{name} is not finite"):
                unboundedness_sweep(diag_spec(mu_head=mu_head, n=50), [20, 50], probes)

    # x_a overflows only in columns no probe reads, and the tied step forms
    # only the probe columns: mu_1 alpha_400 / ||w|| overflows column 400,
    # beyond probe 2, and with the decreasing alpha_m = m^-0.3 column 2
    # overflows, below probe 40
    @pytest.mark.parametrize(
        "alpha_exp, mu, n_values, probes",
        [(1.0, 5e307, [50, 400], [2]), (-0.3, 1e308, [50, 200], [40])],
        ids=["beyond-the-probe", "below-the-probe"],
    )
    def test_tied_far_overflow_returns_the_probe_rows(self, alpha_exp, mu, n_values, probes):
        spec = diag_spec(alpha_exponent=alpha_exp, mu_head=(mu, mu), n=max(n_values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = unboundedness_sweep(spec, n_values, probes)
        assert sweep.tie and len(sweep.rows) == len(sweep.bounded_rows) == 2
        for row in sweep.rows + sweep.bounded_rows:
            assert np.isfinite(row.norm)
            assert abs(row.norm - row.predicted_norm) <= check_bound(row.n, row.predicted_norm)

    def test_overflowing_target_is_numerical(self):
        # M's symmetrisation overflows, whatever the sweep does with it
        inst = build_instance(diag_spec(mu_head=(1.7e308, 1e308), n=20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="M is not finite"):
                inst.problem

    def test_sampled_members_dominate_canonical_probes(self):
        inst = build_instance(diag_spec(n=15, mu_head=(2.0, 1.0)))
        sol = solve(inst.problem)
        g = np.random.default_rng(0)
        member = solution_set_sample(
            sol,
            inst.problem,
            g.standard_normal(inst.problem.x_shape),
            g.standard_normal(inst.problem.x_shape),
        )
        for m in (2, 7, 14):
            assert np.linalg.norm(member[:, m - 1]) >= np.linalg.norm(
                sol.x_hat[:, m - 1]
            ) - ATOL


class TestApproximateMinimizers:
    def test_zero_perturbation_recovers_solution(self):
        inst = build_instance(diag_spec(n=10))
        sol = solve(inst.problem)
        seq = approximate_minimizers(inst.problem, [0.0])
        assert hs_norm(seq.steps[0].x - sol.x_hat) < ATOL
        assert seq.steps[0].objective == pytest.approx(sol.objective, abs=ATOL)

    def test_deviation_identity_and_bound(self):
        g = np.random.default_rng(3)
        m = g.standard_normal((6, 5))
        m *= 0.8 / np.linalg.svd(m, compute_uv=False)[0]
        p = GlraProblem(m=m, b=g.standard_normal((6, 4)), c=g.standard_normal((5, 5)), r=2)
        eps = [1.0 / n for n in range(1, 21)]
        seq = approximate_minimizers(p, eps, seed=11)
        lam = seq.lambdas
        for step in seq.steps:
            expected = float(np.sum(lam**2)) * step.epsilon**2
            assert step.deviation_sq == pytest.approx(expected, abs=1e-9)
            assert step.deviation_sq <= p.r * lam[0] * step.epsilon**2 + ATOL

    def test_objectives_decrease_to_optimum(self):
        inst = build_instance(diag_spec(n=12, mu_head=(0.9, 0.45)))
        sol = solve(inst.problem)
        eps = [1.0 / n for n in range(1, 15)] + [0.0]
        seq = approximate_minimizers(inst.problem, eps, seed=2)
        objs = [s.objective for s in seq.steps]
        assert all(objs[i + 1] <= objs[i] + ATOL for i in range(len(objs) - 1))
        assert objs[-1] == pytest.approx(sol.objective, abs=ATOL)

    def test_minimality_at_every_step(self):
        inst = build_instance(diag_spec(n=10))
        seq = approximate_minimizers(inst.problem, [0.5, 0.1, 0.01], seed=4)
        from glra.solver import minimality_defect

        for step in seq.steps:
            assert minimality_defect(step.x, inst.problem) < ATOL

    @pytest.mark.parametrize("seed", range(40))
    def test_zero_step_is_the_solvers_minimiser(self, seed):
        g = np.random.default_rng(seed)
        m_rows, n_cols, p_cols, q_rows = g.integers(2, 8, size=4)
        p = GlraProblem(
            m=g.standard_normal((m_rows, n_cols)),
            b=g.standard_normal((m_rows, p_cols)),
            c=g.standard_normal((q_rows, n_cols)),
            r=int(g.integers(1, 4)),
        )
        sol = solve(p)
        seq = approximate_minimizers(p, [0.5, 0.0], seed=seed)
        assert np.array_equal(seq.steps[1].x, sol.x_hat)
        assert seq.steps[1].objective == sol.objective

    @pytest.mark.parametrize("seed", range(40))
    def test_zero_step_is_the_minimiser_beyond_the_core_rank(self, seed):
        # r exceeds G's numerical rank, so solve keeps fewer than r triplets
        p = low_rank_target(seed)
        sol = solve(p)
        seq = approximate_minimizers(p, [0.5, 0.0], seed=seed)
        assert seq.lambdas.size == sol.truncation.numerical_rank < p.r
        assert np.array_equal(seq.steps[1].x, sol.x_hat)
        assert seq.steps[1].objective == sol.objective

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_non_finite_epsilon_is_an_input_error(self, eps):
        # a bad epsilon is no overflow of finite inputs
        inst = build_instance(diag_spec(n=10))
        with pytest.raises(InputError, match="epsilons must be finite"):
            approximate_minimizers(inst.problem, [0.5, eps])


class TestApproximateMinimizersOverflow:
    # the minimiser 1e150 I is finite, although S_B^-1 Sigma_K = 1e350 is not
    TINY_B_HUGE_C = (1e150 * np.eye(2), 1e-200 * np.eye(2), 1e200 * np.eye(2))

    def test_tiny_b_huge_c_steps_are_finite(self):
        m, b, c = self.TINY_B_HUGE_C
        p = GlraProblem(m=m, b=b, c=c, r=2)
        seq = approximate_minimizers(p, [0.5, 0.0])
        for step in seq.steps:
            assert np.all(np.isfinite(step.x))
            assert np.isfinite(step.objective) and np.isfinite(step.deviation_sq)
        assert np.array_equal(seq.steps[1].x, solve(p).x_hat)

    def test_huge_b_tiny_c_steps_come_from_the_factors(self):
        # the minimiser 1e150 I is finite, but B X overflows before C scales
        # it back; the steps' objectives take B L and R^T C instead
        m, c, b = self.TINY_B_HUGE_C
        p = GlraProblem(m=m, b=b, c=c, r=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="objective"):
                objective(p, 1e150 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = approximate_minimizers(p, [0.5, 0.0])
        for step in seq.steps:
            assert np.all(np.isfinite(step.x)) and np.isfinite(step.objective)
        sol = solve(p)
        assert np.array_equal(seq.steps[1].x, sol.x_hat)
        assert seq.steps[1].objective == sol.objective

    def test_huge_m_deviation_is_numerical(self):
        # ||Y - Y_eps|| ~ 1e160 is finite and its square is not; no warning escapes
        g = np.random.default_rng(1)
        p = GlraProblem(
            m=1e160 * g.standard_normal((4, 5)),
            b=g.standard_normal((4, 4)),
            c=g.standard_normal((4, 5)),
            r=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="deviation_sq is not finite"):
                approximate_minimizers(p, [0.5])


    def test_overflowing_perturbed_target_is_numerical(self):
        # X_eps = 1e10 (1 + 1e300 d) is finite, Y_eps = 1e20 (f + 1e300 d) is not
        p = GlraProblem(m=1e20 * np.eye(3), b=1e10 * np.eye(3), c=1e10 * np.eye(3), r=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="y_eps is not finite"):
                approximate_minimizers(p, [1e300])

    @pytest.mark.parametrize("eps, name", [(2.0, "y_eps"), (-2.0, "deviation")])
    def test_overflowing_deviation_is_numerical(self, eps, name):
        # Y = 1e308 and the seed-0 direction d = 1: Y_eps = (1 + eps) 1e308
        # overflows at eps = 2, and at eps = -2 it is finite, but Y - Y_eps is not
        p = GlraProblem(m=[[1e308]], b=[[1e10]], c=[[1.0]], r=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"{name} is not finite"):
                approximate_minimizers(p, [eps])


class TestOuterInverseChain:
    def test_single_step_full_chain_is_pinv(self):
        g = np.random.default_rng(5)
        c = g.standard_normal((5, 4))
        step = outer_inverse_chain(c, full_chain(c))[0]
        assert hs_norm(step.c_sharp - pinv(c)) < ATOL

    def test_diagonal_fixture(self):
        c = np.diag([1.0, 0.5, 1.0 / 3.0])
        steps = outer_inverse_chain(c, SubspaceChain(bases=(np.eye(3)[:, :1], np.eye(3)[:, :2])))
        np.testing.assert_allclose(steps[0].c_sharp, np.diag([1.0, 0.0, 0.0]), atol=ATOL)
        np.testing.assert_allclose(steps[1].c_sharp, np.diag([1.0, 2.0, 0.0]), atol=ATOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_outer_inverse_identity(self, seed):
        g = np.random.default_rng(seed)
        c = g.standard_normal((6, 5))
        steps = outer_inverse_chain(c, nested_chain(c, steps=3, seed=seed))
        c_pinv = pinv(c)
        for st in steps:
            assert hs_norm(st.c_sharp @ c @ st.c_sharp - st.c_sharp) < 1e-8
            q = st.x_basis @ st.x_basis.T
            assert hs_norm(st.c_sharp - q @ c_pinv) < 1e-8

    def test_tiny_c_is_judged_as_c(self):
        # the escape scale has degree 0 in C, so scaling C by 1e-300 keeps it
        c = 1e-300 * np.diag([1.0, 1.0, 0.0])
        escaping = np.array([[0.6], [0.0], [0.8]])
        with pytest.raises(InputError, match="escapes ran"):
            outer_inverse_chain(c, SubspaceChain(bases=(escaping,)))
        inside = np.array([[0.6], [0.8], [0.0]])
        steps = outer_inverse_chain(c, SubspaceChain(bases=(inside,)))
        assert np.all(np.isfinite(steps[0].c_sharp))

    def test_rejects_chain_outside_range(self):
        c = np.zeros((3, 3))
        c[0, 0] = 1.0
        y = np.zeros((3, 1))
        y[1, 0] = 1.0
        with pytest.raises(InputError):
            outer_inverse_chain(c, SubspaceChain(bases=(y,)))

    def test_ill_conditioned_range_accepts_generated_chain_only(self):
        # rank 20 in dimension 40, cond 20^6: ran(C) is known only to the
        # angle eps ||C|| / sigma_k along its k-th direction
        g = np.random.default_rng(0)
        sigma = np.arange(1, 41, dtype=float) ** -6.0
        sigma[20:] = 0.0
        q_rot, _ = np.linalg.qr(g.standard_normal((40, 40)))
        c = (q_rot * sigma) @ q_rot.T
        gens, _ = np.linalg.qr(c @ g.standard_normal((40, 3)))
        steps = outer_inverse_chain(c, SubspaceChain(bases=(gens[:, :1], gens[:, :3])))
        assert len(steps) == 2
        escaping = gens[:, :1] + 1e-9 * q_rot[:, 20:21]
        with pytest.raises(InputError, match="escapes ran"):
            outer_inverse_chain(c, SubspaceChain(bases=(escaping / np.linalg.norm(escaping),)))

    def test_more_columns_than_rank_escape(self):
        # under rank_rel = 1e-16 the kept sigma = 1e-14 loosens the escape
        # scale past 1, but three orthonormal columns never lie in a range of rank 2
        c = np.diag([1.0, 1e-14, 0.0])
        with pytest.raises(InputError, match="chain step 1 escapes ran"):
            outer_inverse_chain(c, SubspaceChain(bases=(np.eye(3),)), Tolerances(rank_rel=1e-16))

    @pytest.mark.parametrize("n, seed", [(3, 30), (5, 104), (5, 221)])
    @pytest.mark.parametrize("kind", ["full", "nested"])
    def test_near_cut_chain_reaches_pinv(self, n, seed, kind):
        # C's smallest kept sigma lies within 0.1% of the cutoff 1e-12 * n, where
        # a rank decision on C^T Y_n of its own could disagree with C's cut
        g = np.random.default_rng(seed)
        u, _ = np.linalg.qr(g.standard_normal((n, n)))
        v, _ = np.linalg.qr(g.standard_normal((n, n)))
        s = np.ones(n)
        s[-1] = 1e-12 * n * (1.0 + g.uniform(-1e-3, 1e-3))
        c = (u * s) @ v.T
        chain = full_chain(c) if kind == "full" else nested_chain(c, 3, seed=seed)
        # the premise: C's cut keeps all n singular values
        assert chain.bases[-1].shape[1] == n
        steps = outer_inverse_chain(c, chain)
        c_pinv = np.linalg.pinv(c, rcond=1e-13)
        assert hs_norm(steps[-1].c_sharp - c_pinv) <= check_bound(
            n, hs_norm(c_pinv) ** 2 * hs_norm(c)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_the_svd_route(self, seed):
        # the step built in C's coordinates against X_n from an SVD of C^T Y_n
        # and C_n# = X_n (Y_n^T C X_n)^-1 Y_n^T, on C of rank 4 in 7 x 6
        g = np.random.default_rng(seed)
        c = g.standard_normal((7, 4)) @ g.standard_normal((4, 6))
        for st in outer_inverse_chain(c, nested_chain(c, 3, seed=seed)):
            y = st.y_basis
            x = np.linalg.svd(c.T @ y, full_matrices=False)[0]
            want = x @ np.linalg.solve(y.T @ c @ x, y.T)
            scale = hs_norm(want) * hs_norm(c)
            assert hs_norm(st.c_sharp - want) <= check_bound(7, hs_norm(want) * scale)
            assert hs_norm(st.x_basis @ st.x_basis.T - x @ x.T) <= check_bound(7, scale)


class TestBoundedApproximation:
    @pytest.mark.parametrize("kind", range(4), ids=CONDITIONED_KINDS)
    def test_factored_steps_match_the_dense_formulas(self, kind):
        # X_n = L (R^T C) C_n# against (x_hat C) C_n#, and the tail from
        # (B L)(W_n C) against ||(G)_r - B X_n C||, on B and C of condition
        # up to 1e8 (see conftest.conditioned_problem)
        for seed in range(kind, 80, 4):
            p = conditioned_problem(seed)
            dim = max(p.m.shape + p.b.shape + p.c.shape)
            res = bounded_approximation_sequence(p, nested_chain(p.c, 3, seed=seed))
            x_hat = res.solution.x_hat
            g_r = res.solution.truncation.matrix()
            for st in res.steps:
                c_sharp = st.outer.c_sharp
                x_scale = hs_norm(x_hat) * hs_norm(p.c) * hs_norm(c_sharp)
                assert hs_norm(st.x - (x_hat @ p.c) @ c_sharp) <= check_bound(dim, x_scale)
                dense_tail = hs_norm(g_r - p.b @ st.x @ p.c)
                tail_scale = hs_norm(g_r) + hs_norm(p.b) * hs_norm(st.x) * hs_norm(p.c)
                assert abs(np.sqrt(st.tail_error) - dense_tail) <= check_bound(dim, tail_scale)

    def test_exhaustive_single_step(self):
        g = np.random.default_rng(6)
        p = GlraProblem(
            m=g.standard_normal((4, 5)),
            b=g.standard_normal((4, 3)),
            c=g.standard_normal((4, 5)),
            r=2,
        )
        res = bounded_approximation_sequence(p, full_chain(p.c))
        assert len(res.steps) == 1
        assert res.steps[0].tail_error < ATOL
        assert hs_norm(res.steps[0].x - res.solution.x_hat) < ATOL

    def test_diagonal_instance_tail_decreases_to_zero(self):
        inst = build_instance(diag_spec(n=50, mu_head=(2.0, 1.0)))
        chain = SubspaceChain(bases=tuple(np.eye(50)[:, :k] for k in range(1, 51)))
        res = bounded_approximation_sequence(inst.problem, chain)
        tails = [s.tail_error for s in res.steps]
        assert all(tails[i + 1] <= tails[i] + ATOL for i in range(len(tails) - 1))
        assert tails[0] > tails[-1]
        assert tails[-1] == pytest.approx(0.0, abs=ATOL)
        # step norms grow as the outer inverses reach further down C's spectrum
        norms = [hs_norm(s.x) for s in res.steps]
        assert norms[-1] > norms[0]
        assert all(np.isfinite(n) for n in norms)

    @pytest.mark.parametrize("seed", range(3))
    def test_tail_identity_and_step_properties(self, seed):
        g = np.random.default_rng(seed + 20)
        p = GlraProblem(
            m=g.standard_normal((5, 6)),
            b=g.standard_normal((5, 4)),
            c=g.standard_normal((5, 6)),
            r=2,
        )
        chain = nested_chain(p.c, steps=4, seed=seed)
        res = bounded_approximation_sequence(p, chain)
        g_r = solve(p).truncation.matrix()
        pk = _ref_projectors(p.c)[1]
        for st in res.steps:
            q = st.outer.x_basis @ st.outer.x_basis.T
            # product identity B X_n C = (G)_r Q_n
            assert hs_norm(p.b @ st.x @ p.c - g_r @ q) < ATOL
            # tail equals the adapted-basis sum over directions not yet covered
            evals, evecs = np.linalg.eigh(pk - q)
            tail_basis = evecs[:, evals > 0.5]
            tail_sum = float(
                sum(
                    np.linalg.norm(g_r @ tail_basis[:, i]) ** 2
                    for i in range(tail_basis.shape[1])
                )
            )
            assert st.tail_error == pytest.approx(tail_sum, abs=ATOL)
            from glra.solver import minimality_defect

            assert minimality_defect(st.x, p) < 1e-8


class TestLowerBoundConstant:
    def test_trivial_kernel_of_z(self):
        res = lower_bound_constant(np.diag([1.0, 0.5]), np.zeros((2, 2)))
        assert res.constant == pytest.approx(0.5)
        assert res.subspace_dim == 2

    def test_decays_with_compression(self):
        for n in (10, 50, 200):
            inst = build_instance(diag_spec(n=n))
            z = inst.mu[0] * np.outer(inst.f_basis[:, 0], inst.f_basis[:, 0])
            res = lower_bound_constant(inst.problem.c, z)
            gamma_n = float(n) ** -2.0
            assert res.constant == pytest.approx(gamma_n, rel=0.1)

    @pytest.mark.parametrize("case", ["gaussian", "rotated_diagonal"])
    def test_zero_z_full_column_rank_c(self, case):
        # ker(Z) is everything, so the constant is sigma_min(C) on all of R^4
        if case == "gaussian":
            c = np.random.default_rng(0).standard_normal((6, 4))
        else:
            q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))
            c = q @ np.diag([1.0, 0.5, 0.25, 0.125]) @ q.T
        res = lower_bound_constant(c, np.zeros((4, 4)))
        sigma_min = np.linalg.svd(c, compute_uv=False)[-1]
        assert res.constant == pytest.approx(sigma_min, rel=1e-12)
        assert res.subspace_dim == 4

    def test_empty_intersection(self):
        res = lower_bound_constant(np.eye(2), np.eye(2))
        assert res.constant == 0.0
        assert res.subspace_dim == 0

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            lower_bound_constant(np.eye(3), np.eye(2))

    def test_zero_c(self):
        # ker(C)-perp is {0}, so the intersection is empty
        z = np.random.default_rng(2).standard_normal((2, 4))
        res = lower_bound_constant(np.zeros((3, 4)), z)
        assert res.constant == 0.0
        assert res.subspace_dim == 0

    def test_zero_z_rank_deficient_c(self):
        # ker(Z) is everything, so the constant is C's smallest nonzero singular value
        c = low_rank(np.random.default_rng(3), 6, 5, 3)
        res = lower_bound_constant(c, np.zeros((2, 5)))
        sigma = rank_factors(c).sigma
        assert res.subspace_dim == sigma.size == 3
        assert res.constant == sigma[-1]

    @pytest.mark.parametrize("zero_at", [0, 3])
    def test_rank_one_z_with_deflated_coordinate(self, zero_at):
        # e_(zero_at) lies in ker(Z) and is a right vector of C, so the
        # secular matrix has no weight on it
        c = np.diag([1.0, 0.5, 0.25, 0.125])
        z = np.ones((1, 4))
        z[0, zero_at] = 0.0
        want, want_dim = _ref_lower_bound(c, z)
        res = lower_bound_constant(c, z)
        assert res.subspace_dim == want_dim == 3
        assert abs(res.constant - want) <= check_bound(4, hs_norm(c))
        if zero_at == 3:
            # the bottom axis is in the intersection, so sigma_4 is attained
            assert abs(res.constant - 0.125) <= check_bound(4, hs_norm(c))


def low_rank(g, rows, cols, rank):
    return g.standard_normal((rows, rank)) @ g.standard_normal((rank, cols))


def lower_bound_cases():
    """Name -> (C, Z, dimension of ker(Z) int ker(C)-perp)."""
    g = np.random.default_rng(21)
    tall_c = low_rank(g, 9, 6, 4)
    wide_c = low_rank(g, 4, 7, 3)
    # rank(Z) = 5 > rank(C) = 2, with one direction of ker(C)-perp inside ker(Z)
    c_low = low_rank(g, 6, 8, 2)
    v = np.linalg.svd(c_low)[2][0]
    z_high = g.standard_normal((5, 8)) @ (np.eye(8) - np.outer(v, v))
    cases = {
        "tall_c": (tall_c, g.standard_normal((2, 6)), 2),
        "wide_c": (wide_c, g.standard_normal((2, 7)), 1),
        "zero_z": (tall_c, np.zeros((3, 6)), 4),
        "full_column_rank_z": (wide_c, g.standard_normal((9, 7)), 0),
        "rank_z_above_rank_c": (c_low, z_high, 1),
        "rank_z_above_rank_c_generic": (c_low, g.standard_normal((5, 8)), 0),
    }
    for n in (10, 50, 200):
        inst = build_instance(diag_spec(n=n))
        cases[f"diagonal_{n}"] = (inst.problem.c, inst.mu[0] * inst.f_basis[:, :1].T, n - 1)
    # k' = 5 and 20 at rank C = 200 and 400, above the stress set's rank C < 30
    for n in (200, 400):
        c = np.diag(np.arange(1.0, n + 1) ** -2.0)
        for k in (5, 20):
            cases[f"diagonal_{n}_z{k}"] = (c, g.standard_normal((k, n)), n - k)
    return cases


class TestLowerBoundEquivalence:
    """The ker(C)-perp-side principal angles agree with the ker(Z)-side ones."""

    CASES = lower_bound_cases()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_kernel_side_reference(self, name):
        c, z, dim = self.CASES[name]
        want, want_dim = _ref_lower_bound(c, z)
        res = lower_bound_constant(c, z)
        assert res.subspace_dim == want_dim == dim
        assert abs(res.constant - want) <= check_bound(c.shape[1], hs_norm(c))


def stress_case(g):
    """A seeded (C, Z) with rank(C) < 30: ties, a deflated axis, k' from 0 to rank(C).

    The spectrum of C may tie at the bottom and inside.  With a deflated
    axis, e_1 is a right singular vector of C and lies in ker(Z).  Rank(Z)
    runs from 0 to the column count, and C is scaled by 1e-250, 1 or 1e250.
    """
    n = int(g.integers(2, 30))
    rho = int(g.integers(1, n + 1))
    sigma = np.sort(g.uniform(0.05, 1.0, rho))[::-1]
    if rho > 1 and g.random() < 0.3:
        sigma[-1] = sigma[-2]
    if rho > 2 and g.random() < 0.3:
        i = int(g.integers(0, rho - 1))
        sigma[i + 1] = sigma[i]
    deflate = g.random() < 0.3
    basis = g.standard_normal((n, n))
    if deflate:
        basis[:, 0] = np.eye(n)[:, 0]
    v = np.linalg.qr(basis)[0][:, :rho]
    u = np.linalg.qr(g.standard_normal((rho + int(g.integers(0, 3)), rho)))[0]
    c = (u * sigma) @ v.T * 10.0 ** float(g.choice([-250, 0, 250]))
    k = int(g.integers(0, n + 1))
    z = g.standard_normal((max(k, 1), n)) * (k > 0)
    if deflate:
        z[:, 0] = 0.0
    return c, z


@pytest.mark.parametrize("seed", range(8))
def test_lower_bound_stress_matches_kernel_side_reference(seed):
    g = np.random.default_rng(1000 + seed)
    for _ in range(500):
        c, z = stress_case(g)
        want, want_dim = _ref_lower_bound(c, z)
        res = lower_bound_constant(c, z)
        assert res.subspace_dim == want_dim
        assert abs(res.constant - want) <= check_bound(c.shape[1], hs_norm(c))


def svd_route_lower_bound(c, z):
    """The constant by an SVD of S_C Y over the null vectors Y of the sines R^T V_C."""
    fc = rank_factors(c)
    sines = rank_factors(z).v.T @ fc.v
    _, s, vh = np.linalg.svd(sines, full_matrices=True)
    y = vh[np.count_nonzero(s > DEFAULT_TOL.rank_rel * c.shape[1]):].T
    return float(np.linalg.svd(fc.sigma[:, None] * y, compute_uv=False)[-1])


@pytest.mark.parametrize("gamma_exp", [2.0, 4.0])
def test_sweep_lower_bounds_match_svd_route(gamma_exp):
    # the tied sweep takes the same lower bound and skips the solver's
    # cross-check, which the default rank cut fails at N = 400, gamma = 4
    n_values = [10, 50, 200, 400]
    spec = diag_spec(gamma_exponent=gamma_exp, mu_head=(1.0, 1.0))
    sweep = unboundedness_sweep(spec, n_values, [5])
    for n in n_values:
        inst = build_instance(replace(spec, n=n))
        want = svd_route_lower_bound(inst.problem.c, inst.mu[0] * inst.f_basis[:, :1].T)
        assert sweep.lower_bounds[n] == pytest.approx(want, rel=1e-14, abs=0.0)


def secular_case(rho, case, scale, rotated):
    """(C, Z) with rank(C) = rho in R^7 and Z = (V_C w)^T, so that W = w (k' = 1).

    ``case`` zeroes w_rho or w_(rho-1), makes w_rho 1e-300, or ties
    sigma_rho to sigma_(rho-1).  V_C is the leading axes, or the leading
    columns of a seeded orthogonal matrix.
    """
    n = 7
    g = np.random.default_rng(rho)
    sigma = np.array([1.0, 0.7, 0.45, 0.3, 0.2])[:rho]
    w = g.uniform(0.3, 1.0, rho) * g.choice([-1.0, 1.0], rho)
    if case == "w_rho_zero":
        w[-1] = 0.0
    elif case == "w_next_zero":
        w[-2] = 0.0
    elif case == "w_rho_1e-300":
        w[-1] = 1e-300
    elif case == "tie":
        sigma[-1] = sigma[-2]
    w /= np.linalg.norm(w)
    basis = np.linalg.qr(g.standard_normal((n, n)))[0] if rotated else np.eye(n)
    v = basis[:, :rho]
    c = (np.linalg.qr(g.standard_normal((rho, rho)))[0] * sigma) @ v.T * scale
    return c, (v @ w)[None, :]


class TestSecularNewton:
    """The k' = 1 constant at the secular equation's deflations, ties and scales."""

    @pytest.mark.parametrize("rotated", [False, True], ids=["axes", "rotated"])
    @pytest.mark.parametrize("scale", [1e-250, 1.0, 1e250])
    @pytest.mark.parametrize(
        "rho, case",
        [
            (5, "generic"),
            (5, "w_rho_zero"),
            (5, "w_next_zero"),
            (5, "w_rho_1e-300"),
            (5, "tie"),
            (2, "generic"),
            (2, "w_rho_zero"),
            (2, "w_next_zero"),
        ],
    )
    def test_matches_kernel_side_reference(self, rho, case, scale, rotated):
        c, z = secular_case(rho, case, scale, rotated)
        want, want_dim = _ref_lower_bound(c, z)
        res = lower_bound_constant(c, z)
        assert res.subspace_dim == want_dim == rho - 1
        assert abs(res.constant - want) <= check_bound(c.shape[1], hs_norm(c))
        if case in ("w_rho_zero", "w_rho_1e-300", "tie") and not rotated:
            # the bottom axis lies in the intersection: sigma_rho, bit for bit
            assert res.constant == rank_factors(c).sigma[-1]
        if case == "w_next_zero" and not rotated:
            # the next axis lies in the intersection and caps the constant
            assert res.constant <= rank_factors(c).sigma[-2]

    @pytest.mark.parametrize("seed", range(4))
    def test_far_from_both_ends(self, seed):
        # the root well inside [sigma_rho, sigma_(rho-1)]: a start on the wrong
        # side of it, or a stop short of convergence, shows here
        g = np.random.default_rng(seed)
        rho = int(g.integers(3, 40))
        sigma = np.sort(10.0 ** g.uniform(-6, 0, rho))[::-1]
        w = g.standard_normal(rho)
        w[-2] *= 1e-3
        c = np.diag(sigma)
        want, _ = _ref_lower_bound(c, w[None, :])
        res = lower_bound_constant(c, w[None, :])
        assert res.constant == pytest.approx(want, rel=1e-13, abs=0.0)
        assert sigma[-1] * (1.0 + 1e-6) < res.constant < sigma[-2]


class TestThinBases:
    """Factor counts and the absence of dense projectors."""

    @staticmethod
    def problem():
        g = np.random.default_rng(8)
        return GlraProblem(
            m=g.standard_normal((6, 7)),
            b=g.standard_normal((6, 4)),
            c=g.standard_normal((5, 7)),
            r=2,
        )

    @pytest.mark.parametrize("count", [1, 4, 20])
    def test_approximate_minimizers_makes_three_svds(self, svd_calls, count):
        approximate_minimizers(self.problem(), [1.0 / (j + 1) for j in range(count)], seed=1)
        assert len(svd_calls) == 3

    def test_lower_bound_constant_has_no_full_tall_svd(self, svd_calls):
        inst = build_instance(diag_spec(n=40))
        z = inst.mu[0] * np.outer(inst.f_basis[:, 0], inst.f_basis[:, 0])
        lower_bound_constant(inst.problem.c, z)
        g = np.random.default_rng(9)
        lower_bound_constant(g.standard_normal((6, 4)), np.zeros((7, 4)))
        lower_bound_constant(g.standard_normal((6, 4)), g.standard_normal((2, 4)))
        full_tall = [
            shape
            for shape, full, uv in svd_calls
            if full and uv and shape[0] > shape[1]
        ]
        assert svd_calls and not full_tall

    # the core (untied only), Z and the sines matrix; Z sees one direction of
    # ker(C)-perp, so the lower bound itself is Newton's method on the
    # secular equation, with no SVD
    @pytest.mark.parametrize("mu_head, count", [((1.0, 0.5), 3), ((1.0, 1.0), 2)])
    def test_sweep_step_svd_count(self, svd_calls, mu_head, count):
        unboundedness_sweep(diag_spec(mu_head=mu_head, n=20), [20], [5])
        assert len(svd_calls) == count

    # the untied step truncates the instance's M for the cross-check and
    # the tied step reads only the construction's pieces: neither builds a
    # problem
    @pytest.mark.parametrize("mu_head", [(1.0, 0.5), (1.0, 1.0)])
    def test_sweep_step_problem_count(self, monkeypatch, mu_head):
        built = []

        class Counting(GlraProblem):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(sequences, "GlraProblem", Counting)
        unboundedness_sweep(diag_spec(mu_head=mu_head, n=20), [20], [5])
        assert built == []

    # the tied branches are read only at the probe columns, so a step forms
    # those columns and no other, whatever N is; a step smaller than every
    # probe forms empty branches
    @pytest.mark.parametrize(
        "n_values, probes, shapes",
        [
            ([400], [2, 10, 50], [(400, 3), (400, 3)]),
            ([400], [2], [(400, 1), (400, 1)]),
            ([20, 400], [50], [(20, 0), (20, 0), (400, 1), (400, 1)]),
        ],
        ids=["probes_2_10_50", "probe_2", "step_below_every_probe"],
    )
    def test_tied_step_forms_only_the_probe_columns(self, monkeypatch, n_values, probes, shapes):
        outer = np.outer
        recorded = []

        def recording(a, b, *args, **kwargs):
            out = outer(a, b, *args, **kwargs)
            recorded.append(out.shape)
            return out

        monkeypatch.setattr(np, "outer", recording)
        sweep = unboundedness_sweep(diag_spec(mu_head=(1.0, 1.0), n=400), n_values, probes)
        live = sum(m <= n for n in n_values for m in probes)
        assert sweep.tie and len(sweep.rows) == len(sweep.bounded_rows) == live
        assert recorded == shapes

    def test_rank_one_view_takes_no_other_factorisation(self, svd_calls, monkeypatch):
        # k' = 1: the SVDs of Z and of the sines, then no LAPACK call at all;
        # Z is built from f1, as F would take a QR
        inst = build_instance(diag_spec(n=200))
        gamma = inst.gamma[: _c_factors(inst).sigma.size]
        z = inst.mu[0] * inst.f1[None, :]

        def forbidden(*args, **kwargs):
            raise AssertionError("factorisation beyond the SVDs of Z and the sines")

        for name in ("eig", "eigh", "eigvals", "eigvalsh", "qr", "solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        sines = rank_factors(z, DEFAULT_TOL).v[: gamma.size].T
        res = sequences._lower_bound(gamma, sines, 200, DEFAULT_TOL)
        assert res.subspace_dim == 199
        assert len(svd_calls) == 2

    @pytest.mark.parametrize("mu_head", [(1.0, 0.5), (1.0, 1.0)])
    def test_sweep_never_factorises_b_or_c(self, monkeypatch, mu_head):
        n_values = [10, 20]
        problems = [build_instance(diag_spec(n=n)).problem for n in n_values]
        svd = np.linalg.svd
        seen = []

        def recording(a, *args, **kwargs):
            seen.append(np.array(a, copy=True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        unboundedness_sweep(diag_spec(mu_head=mu_head, n=20), n_values, [5])
        assert seen
        for operand in (x for p in problems for x in (p.b, p.c)):
            assert not any(a.shape == operand.shape and np.array_equal(a, operand) for a in seen)

    def test_outer_approx_svd_count(self, svd_calls):
        g = np.random.default_rng(12)
        p = GlraProblem(
            m=g.standard_normal((24, 24)),
            b=g.standard_normal((24, 24)),
            c=g.standard_normal((24, 24)),
            r=3,
        )
        chain = nested_chain(p, 5, seed=4)
        res = bounded_approximation_sequence(p, chain)
        assert len(res.steps) == 5
        # B, C and the core, in the reduction the chain is drawn from and the
        # solve reads; the steps are built from C's factors with no SVD of their own
        assert len(svd_calls) == 3

    def test_no_dense_projectors(self, no_projectors):
        p = self.problem()
        unboundedness_sweep(diag_spec(n=20), [10, 20], [5])
        unboundedness_sweep(diag_spec(mu_head=(1.0, 1.0), n=20), [20], [1, 5])
        approximate_minimizers(p, [0.5, 0.1], seed=3)
        lower_bound_constant(p.c, p.m[:3])


class TestKnownFactors:
    """The sweep reads B = I and C = diag(gamma) as vectors, to the bits of the solver."""

    # the vector read rests on LAPACK's factors of such a diagonal being its
    # leading coordinate axes and d, cut where the sweep's own _rank cuts d
    @pytest.mark.parametrize("n", [3, 20, 260, 300])
    @pytest.mark.parametrize("gamma_exp", [None, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize(
        "tol", [DEFAULT_TOL, Tolerances(rank_rel=1e-14)], ids=["default", "rank_rel_1e-14"]
    )
    def test_diagonal_factors_equal_rank_factors(self, n, gamma_exp, tol):
        idx = np.arange(1, n + 1, dtype=float)
        d = np.ones(n) if gamma_exp is None else idx**-gamma_exp
        got = _axis_factors(d, tol)
        want = rank_factors(np.diag(d), tol)
        assert _rank(d, (n, n), tol) == want.sigma.size
        for a, b in ((got.u, want.u), (got.sigma, want.sigma), (got.v, want.v)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_rank_cut_case_is_covered(self):
        d = np.arange(1, 301, dtype=float) ** -4.0
        assert _rank(d, (300, 300), DEFAULT_TOL) == _axis_factors(d, DEFAULT_TOL).sigma.size == 240
        assert _rank(d, (300, 300), Tolerances(rank_rel=1e-14)) == 300

    # the untied step's core is M's leading rank(C) columns, a view that
    # truncates to the bits of solver._reduce on the instance's problem,
    # which factorises B and C and forms the products U_B^T M V_C; gamma = 4
    # at N = 300 is the rank-cut case, whose cross-check then fails
    @pytest.mark.parametrize("gamma_exp, cut", [(2.0, False), (4.0, True)])
    def test_sweep_core_is_a_view_of_m(self, monkeypatch, gamma_exp, cut):
        real_build, real_svd, real_truncate = (
            sequences.build_instance, sequences._svd, sequences._truncate
        )
        seen = {"instance": [], "core": [], "truncation": []}

        def building(spec):
            seen["instance"].append(real_build(spec))
            return seen["instance"][-1]

        def factorising(a):
            seen["core"].append(a)
            return real_svd(a)

        def truncating(*args):
            seen["truncation"].append(real_truncate(*args))
            return seen["truncation"][-1]

        monkeypatch.setattr(sequences, "build_instance", building)
        monkeypatch.setattr(sequences, "_svd", factorising)
        monkeypatch.setattr(sequences, "_truncate", truncating)
        spec = diag_spec(gamma_exponent=gamma_exp, n=300)
        if cut:
            with pytest.raises(NumericalError, match="deviates from assembled form"):
                unboundedness_sweep(spec, [300], [10, 50])
        else:
            unboundedness_sweep(spec, [300], [10, 50])
        [inst], [core], [t] = seen["instance"], seen["core"], seen["truncation"]
        p = inst.problem
        k = _c_factors(inst).sigma.size
        assert k == (240 if cut else 300)
        assert core.shape == (300, k) and np.shares_memory(core, p.m)
        # the instance's problem, reduced by the solver
        assert p._reduction is None
        _, _, want_core, want = _reduce(p)
        assert np.ascontiguousarray(core).tobytes() == want_core.tobytes()
        for a, b in zip(
            (t.factors.u, t.factors.sigma, t.factors.v),
            (want.factors.u, want.factors.sigma, want.factors.v),
        ):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (t.r, t.discarded_head, t.numerical_rank, t.uniqueness) == (
            want.r, want.discarded_head, want.numerical_rank, want.uniqueness
        )

    # rank_rel * N >= 1 cuts every axis of C = diag(gamma), whose head is
    # 1: a step with no kept axis is a NumericalError, tied or not
    @pytest.mark.parametrize("mu", ["1,0.5", "1,1"], ids=["untied", "tied"])
    def test_sweep_with_no_axis_of_c_is_numerical(self, capsys, mu):
        spec = diag_spec(mu_head=tuple(float(v) for v in mu.split(",")), n=20)
        with pytest.raises(NumericalError, match="keeps none of its 10 axes"):
            unboundedness_sweep(spec, [10, 20], [2], Tolerances(rank_rel=0.5))
        argv = ["demo-unbounded", "--N", "10,20", "--probes", "2", "--rank-rel", "0.5",
                "--mu", mu, "--no-timestamp"]
        assert cli.main(argv) == 3
        assert "keeps none of its 10 axes" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_sweep_norms_equal_the_solvers(self, n):
        spec = diag_spec(n=n)
        probes = [1, 2, n // 2, n]
        sweep = unboundedness_sweep(spec, [n], probes)
        x_hat = solve(build_instance(spec).problem).x_hat
        want = [float(np.linalg.norm(x_hat[:, m - 1])) for m in probes]
        assert [row.norm for row in sweep.rows] == want


def _axis_factors(d, tol=DEFAULT_TOL):
    """diag(d)'s rank-cut factors, written out: its leading k axes and d_1..k.

    d is positive and nonincreasing with d_1 = 1, so the rank rule keeps
    the d_j above rank_rel * n.
    """
    n = d.size
    axes = np.eye(n)[:, : np.count_nonzero(d > tol.rank_rel * n)]
    return SvdFactors(u=axes, sigma=d[: axes.shape[1]], v=axes)


def _c_factors(inst, tol=DEFAULT_TOL):
    """C = diag(gamma)'s rank-cut factors, written out; gamma_1 = 1."""
    return _axis_factors(inst.gamma, tol)


def _generic_route(inst, tol=DEFAULT_TOL):
    """mu_j f_j (f_j^T C^+) whole, as outer products, and the lower bound, through C's factors.

    The rows are (f^T V_C S_C^-1) U_C^T with C's factors from _c_factors,
    the sines R^T V_C a product with V_C, and F is the instance's
    completed basis.
    """
    fc = _c_factors(inst, tol)
    f = inst.f_basis
    pinv_rows = (f[:, :2].T @ (fc.v / fc.sigma)) @ fc.u.T
    outers = [np.outer(f[:, j], pinv_rows[j]) for j in (0, 1)]
    sines = rank_factors(inst.mu[0] * f[:, :1].T, tol).v.T @ fc.v
    return outers, sequences._lower_bound(fc.sigma, sines, inst.spec.n, tol).constant


class TestDiagonalRead:
    """A sweep step reads C = diag(gamma) as gamma and holds no n x n array it does not read."""

    # gamma = 4 cuts C at N = 300 and 400, where the untied cross-check fails
    @pytest.mark.parametrize("n", [50, 300, 400])
    @pytest.mark.parametrize("gamma_exp", [2.0, 4.0])
    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
    def test_rows_and_lower_bounds_match_the_generic_route(self, monkeypatch, n, gamma_exp, tied):
        spec = diag_spec(gamma_exponent=gamma_exp, mu_head=(1.0, 1.0 if tied else 0.5), n=n)
        probes = [2, 10, 50]
        inst = build_instance(spec)
        (out_a, out_b), want_lower = _generic_route(inst)
        cut = _c_factors(inst).sigma.size < n
        assert cut is (gamma_exp == 4.0 and n > 50)
        outer, formed = np.outer, []

        def recording(a, b, *args, **kwargs):
            formed.append(outer(a, b, *args, **kwargs))
            return formed[-1]

        monkeypatch.setattr(np, "outer", recording)
        if cut and not tied:
            with pytest.raises(NumericalError, match="deviates from assembled form"):
                unboundedness_sweep(spec, [n], probes)
        else:
            sweep = unboundedness_sweep(spec, [n], probes)
            assert sweep.lower_bounds[n] == want_lower
        at = np.array(probes) - 1
        if tied:
            assert [a.tobytes() for a in formed] == [
                np.ascontiguousarray(o[:, at]).tobytes() for o in (out_a, out_b)
            ]
            branches = ((sweep.rows, inst.mu[0] * out_a), (sweep.bounded_rows, inst.mu[1] * out_b))
            for rows, x in branches:
                assert [row.norm for row in rows] == [hs_norm(x[:, m - 1 : m]) for m in probes]
        else:
            # the cross-check forms x_a whole; the rows are x_hat's
            [x_a] = formed
            assert x_a.tobytes() == out_a.tobytes()

    def test_tied_step_at_n_1e5_stays_small(self):
        # at 10^5 an n x n array takes 80 GB
        n = 10**5
        tracemalloc.start()
        try:
            sweep = unboundedness_sweep(diag_spec(mu_head=(1.0, 1.0), n=n), [n], [2, 10, 50])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert sweep.tie and len(sweep.rows) == len(sweep.bounded_rows) == 3
        for row in sweep.rows + sweep.bounded_rows:
            assert abs(row.norm - row.predicted_norm) <= check_bound(n, row.predicted_norm)

    def test_untied_core_factorisation_sees_only_m(self, monkeypatch):
        # the core's SVD comes before the identity factors, F, the rows
        # f^T C^+ and x_a are formed, so M is the only n x n array live then
        real, live = sequences._svd, []

        def spying(a):
            live.append((tracemalloc.get_traced_memory()[0], a.base))
            return real(a)

        monkeypatch.setattr(sequences, "_svd", spying)
        tracemalloc.start()
        try:
            unboundedness_sweep(diag_spec(n=400), [400], [2, 10, 50])
        finally:
            tracemalloc.stop()
        [(traced, m)] = live
        assert m.shape == (400, 400)
        assert traced <= m.nbytes + 64 * 1024

    def test_untied_step_forms_no_identity(self, monkeypatch):
        # B = I and C = diag(gamma) are read as vectors: the only np.eye of
        # a step is the row e_1 that F is completed from
        eye, shapes = np.eye, []

        def recording(rows, cols=None, *args, **kwargs):
            shapes.append((rows, rows if cols is None else cols))
            return eye(rows, cols, *args, **kwargs)

        monkeypatch.setattr(np, "eye", recording)
        sweep = unboundedness_sweep(diag_spec(n=40), [40], [2, 10])
        assert not sweep.tie
        assert shapes == [(1, 40)]


def _reference_nested_bases(basis, steps, seed):
    """nested_chain's bases from an orthonormal basis of ran(C), written out."""
    d = basis.shape[1]
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    mixed = basis @ q
    cuts = sorted(set(int(np.ceil(d * (k + 1) / steps)) for k in range(steps)))
    return tuple(mixed[:, :cut] for cut in cuts)


def _bits(arrays):
    """Each array or number as uint64 words."""
    return [np.ascontiguousarray(a).reshape(-1).view(np.uint64).tolist() for a in arrays]


def _bounded_bits(res):
    """Every array and number of a bounded sequence, as uint64 words."""
    arrays = [res.solution.x_hat, np.float64(res.solution.objective)]
    for st in res.steps:
        o = st.outer
        arrays += [st.x, np.float64(st.tail_error), o.c_sharp, o.y_basis, o.x_basis]
    return _bits(arrays)


class TestChainsDrawnFromTheProblem:
    """A chain drawn from p takes U_C from p's reduction; one drawn from a bare C factorises it."""

    # C (9 x 12) of rank 6 whose sixth singular value, 1e-10 of the first,
    # is kept at the default rank_rel 1e-12 (cutoff 1.2e-11) and cut at
    # rank_rel 1e-10 (cutoff 1.2e-9)
    LOOSE = Tolerances(rank_rel=1e-10)

    @staticmethod
    def arrays():
        g = np.random.default_rng(31)
        u, _ = np.linalg.qr(g.standard_normal((9, 6)))
        v, _ = np.linalg.qr(g.standard_normal((12, 6)))
        c = (u * np.array([1.0, 0.7, 0.4, 0.2, 0.1, 1e-10])) @ v.T
        return g.standard_normal((8, 12)), g.standard_normal((8, 5)), c

    def reduced_route(self, bases_of):
        """bounded_approximation_sequence after _reduce(p), along a plain chain of its U_C."""
        m, b, c = self.arrays()
        p = GlraProblem(m=m, b=b, c=c, r=2)
        fc = _reduce(p)[1]
        return bounded_approximation_sequence(p, SubspaceChain(bases=bases_of(fc.u)))

    @pytest.mark.parametrize("steps", [None, 1, 4])
    def test_chain_of_p_takes_three_svds(self, svd_calls, steps):
        def draw(source):
            return full_chain(source) if steps is None else nested_chain(source, steps, seed=2)

        m, b, c = self.arrays()
        p = GlraProblem(m=m, b=b, c=c, r=2)
        res = bounded_approximation_sequence(p, draw(p))
        # B, C and the core, once each, in p's one reduction
        assert [shape for shape, _, _ in svd_calls] == [(8, 5), (9, 12), (5, 6)]
        want = self.reduced_route(
            (lambda u: (u,)) if steps is None else (lambda u: _reference_nested_bases(u, steps, 2))
        )
        assert _bounded_bits(res) == _bounded_bits(want)
        # the same chain drawn from the bare p.c costs one more SVD of C, and
        # keeps every bit
        svd_calls.clear()
        bare = GlraProblem(m=m, b=b, c=c, r=2)
        res = bounded_approximation_sequence(bare, draw(bare.c))
        assert [shape for shape, _, _ in svd_calls] == [(9, 12), (8, 5), (9, 12), (5, 6)]
        assert _bounded_bits(res) == _bounded_bits(want)

    @pytest.mark.parametrize("case", ["other-tol", "equal-copy", "array-not-view"])
    def test_other_chains_factorise_c_afresh(self, svd_calls, case):
        m, b, c = self.arrays()
        p = GlraProblem(m=m, b=b, c=c, r=2)
        if case == "other-tol":
            # the chain's factors keep five axes, p's tolerances six
            chain = nested_chain(p.c, 3, seed=5, tol=self.LOOSE)
            assert chain.bases[-1].shape[1] == 5
        else:
            chain = nested_chain(p.c.copy() if case == "equal-copy" else c, 3, seed=5)
        res = bounded_approximation_sequence(p, chain)
        assert [shape for shape, _, _ in svd_calls] == [(9, 12), (8, 5), (9, 12), (5, 6)]
        assert p._reduction[1].sigma.size == 6
        assert _bounded_bits(res) == _bounded_bits(self.reduced_route(lambda u: chain.bases))

    def test_solved_problem_keeps_its_reduction(self, svd_calls):
        m, b, c = self.arrays()
        p = GlraProblem(m=m, b=b, c=c, r=2)
        solve(p)
        reduction = p._reduction
        svd_calls.clear()
        chain = nested_chain(p, 3, seed=5)
        res = bounded_approximation_sequence(p, chain)
        # the chain and the steps both read the stored factors
        assert svd_calls == []
        assert p._reduction is reduction
        assert _bits(chain.bases) == _bits(_reference_nested_bases(reduction[1].u, 3, 5))
        assert _bounded_bits(res) == _bounded_bits(self.reduced_route(lambda u: chain.bases))

    def test_chain_is_cut_at_the_problems_tolerances(self):
        m, b, c = self.arrays()
        loose = GlraProblem(m=m, b=b, c=c, r=2, tol=self.LOOSE)
        # tol=None means p.tol for a problem and DEFAULT_TOL for a bare C
        assert nested_chain(loose, 3).bases[-1].shape[1] == 5
        assert nested_chain(loose.c, 3).bases[-1].shape[1] == 6
        assert full_chain(loose, self.LOOSE).bases[0].shape[1] == 5
        p = GlraProblem(m=m, b=b, c=c, r=2)
        for draw in (lambda: full_chain(p, self.LOOSE), lambda: nested_chain(p, 3, tol=self.LOOSE)):
            with pytest.raises(InputError, match="cut at the problem's tolerances"):
                draw()
        with pytest.raises(InputError, match="cut at the problem's tolerances"):
            nested_chain(loose, 3, tol=DEFAULT_TOL)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_steps_beyond_the_rank_give_the_rank_chain(self, seed):
        # C has rank 6, so a chain of 10**18 steps is the chain of 6
        m, b, c = self.arrays()
        p = GlraProblem(m=m, b=b, c=c, r=2)
        for source in (c, p):
            want = nested_chain(source, 6, seed=seed)
            assert _bits(nested_chain(source, 10**18, seed=seed).bases) == _bits(want.bases)
            assert _bits(nested_chain(source, 7, seed=seed).bases) == _bits(want.bases)


class TestSweepRows:
    """A tied sweep's rows against mu_j f_j (f_j^T C^+) with the general pinv of C."""

    @pytest.mark.parametrize(
        "tol", [DEFAULT_TOL, Tolerances(rank_rel=1e-14)], ids=["default", "rank_rel_1e-14"]
    )
    @pytest.mark.parametrize("gamma_exp", [1.5, 2.0, 3.0, 4.0, 8.0])
    def test_probe_norms_match_the_pseudo_inverse(self, gamma_exp, tol):
        n_values, probes = [3, 20, 100, 400], [1, 2, 3, 20, 100]
        spec = diag_spec(gamma_exponent=gamma_exp, alpha_exponent=0.5, mu_head=(1.0, 1.0))
        sweep = unboundedness_sweep(spec, n_values, probes, tol)
        live = sum(m <= n for n in n_values for m in probes)
        assert sweep.tie and len(sweep.rows) == len(sweep.bounded_rows) == live
        for n in n_values:
            inst = build_instance(replace(spec, n=n))
            c_pinv = pinv(np.diag(inst.gamma), tol)
            for j, rows in enumerate((sweep.rows, sweep.bounded_rows)):
                f = inst.f_basis[:, j]
                x = inst.mu[j] * np.outer(f, f @ c_pinv)
                for row in (row for row in rows if row.n == n):
                    col = hs_norm(x[:, row.m - 1 : row.m])
                    assert abs(row.norm - col) <= check_bound(n, hs_norm(x))


E1, E2 = np.eye(3)[:, :1], np.eye(3)[:, 1:2]


class TestInputErrors:
    @pytest.mark.parametrize(
        "call, fragment",
        [
            (
                lambda: SequenceSpec(gamma_exponent=0.0, alpha_exponent=-1.0),
                "gamma_exponent must be positive",
            ),
            (lambda: diag_spec(mu_head=()), "mu_head must contain at least one value"),
            (
                lambda: unboundedness_sweep(diag_spec(n=10), [10], [0, 2]),
                "probe indices must be >= 1",
            ),
            (
                lambda: unboundedness_sweep(diag_spec(n=10), [], [5]),
                "at least one dimension and one probe index",
            ),
            (
                lambda: unboundedness_sweep(diag_spec(n=10), [20], []),
                "at least one dimension and one probe index",
            ),
            (lambda: SubspaceChain(bases=()), "chain needs at least one step"),
            (
                lambda: outer_inverse_chain(np.eye(3), SubspaceChain(bases=(np.eye(4)[:, :1],))),
                "chain step 1 lives in dimension 4, expected 3",
            ),
            (
                lambda: outer_inverse_chain(np.eye(3), SubspaceChain(bases=(2.0 * E1,))),
                "chain step 1 columns are not orthonormal",
            ),
            (
                lambda: outer_inverse_chain(np.eye(3), SubspaceChain(bases=(E1, E2))),
                "chain step 2 does not contain step 1",
            ),
            (lambda: nested_chain(np.eye(3), steps=0), "steps must be >= 1"),
            (lambda: full_chain(np.zeros((30, 20))), r"C has rank 0, and ran\(C\) = \{0\}"),
            (lambda: nested_chain(np.zeros((30, 20)), 3), r"C has rank 0, and ran\(C\) = \{0\}"),
        ],
        ids=[
            "gamma-exponent-zero",
            "empty-mu-head",
            "probe-zero",
            "no-dimensions",
            "no-probes",
            "empty-chain",
            "step-dimension",
            "step-not-orthonormal",
            "step-not-nested",
            "nested-chain-no-steps",
            "full-chain-zero-c",
            "nested-chain-zero-c",
        ],
    )
    def test_rejected(self, call, fragment):
        with pytest.raises(InputError, match=fragment):
            call()

import numpy as np
import pytest

from glra.linalg import DEFAULT_TOL, InputError, hs_norm, pinv, proj_kernel_perp
from glra.sequences import (
    SequenceSpec,
    SubspaceChain,
    approximate_minimizers,
    bounded_approximation_sequence,
    build_instance,
    canonical_chain,
    full_chain,
    lower_bound_constant,
    nested_chain,
    outer_inverse_chain,
    unboundedness_sweep,
)
from glra.solver import GlraProblem, projected_truncation, solution_set_sample, solve

ATOL = DEFAULT_TOL.check_abs


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
            assert (
                minimality_defect(step.x, inst.problem.b, inst.problem.c) < ATOL
            )

    def test_rejects_directions_outside_range(self):
        # B's range is the first coordinate axis; a direction along the
        # second axis cannot be represented
        b = np.zeros((3, 3))
        b[0, 0] = 1.0
        p = GlraProblem(m=np.diag([1.0, 0.0, 0.0]), b=b, c=np.eye(3), r=1)
        bad = np.zeros((3, 1))
        bad[1, 0] = 1.0
        with pytest.raises(InputError):
            approximate_minimizers(p, [0.1], directions=bad)


class TestOuterInverseChain:
    def test_single_step_full_chain_is_pinv(self):
        g = np.random.default_rng(5)
        c = g.standard_normal((5, 4))
        step = outer_inverse_chain(c, full_chain(c))[0]
        assert hs_norm(step.c_sharp - pinv(c)) < ATOL

    def test_diagonal_fixture(self):
        c = np.diag([1.0, 0.5, 1.0 / 3.0])
        steps = outer_inverse_chain(c, canonical_chain(c, [1, 2]))
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

    def test_rejects_chain_outside_range(self):
        c = np.zeros((3, 3))
        c[0, 0] = 1.0
        y = np.zeros((3, 1))
        y[1, 0] = 1.0
        with pytest.raises(InputError):
            outer_inverse_chain(c, SubspaceChain(bases=(y,)))


class TestBoundedApproximation:
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
        chain = canonical_chain(inst.problem.c, list(range(1, 51)))
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
        _, tsvd = projected_truncation(p)
        g_r = tsvd.matrix()
        pk = proj_kernel_perp(p.c)
        for st in res.steps:
            q = st.x_basis @ st.x_basis.T
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

            assert minimality_defect(st.x, p.b, p.c) < 1e-8


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

    def test_empty_intersection(self):
        res = lower_bound_constant(np.eye(2), np.eye(2))
        assert res.constant == 0.0
        assert res.subspace_dim == 0

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            lower_bound_constant(np.eye(3), np.eye(2))

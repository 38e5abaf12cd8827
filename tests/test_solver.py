import ast
import inspect
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glra
from conftest import (
    CONDITIONED_KINDS,
    _conditioned,
    branch_member,
    conditioned_problem,
    identity_truncation,
    low_rank_target,
)
from glra.linalg import (
    InputError,
    NumericalError,
    SvdFactors,
    Tolerances,
    Uniqueness,
    check_bound,
    hs_norm,
    pinv,
)
from glra.checks import _ref_projectors, als_oracles
from glra.sequences import bounded_approximation_sequence, nested_chain
from glra.solver import (
    GlraProblem,
    _reduce,
    canonicalize,
    minimality_defect,
    objective,
    optimal_error,
    solution_set_sample,
    solve,
    solve_adjoint,
)

ATOL = 1e-10


def rng(seed=0):
    return np.random.default_rng(seed)


def random_problem(seed, dims=(4, 4, 3, 4), r=2):
    g = rng(seed)
    m_rows, n_cols, p_cols, q_rows = dims
    return GlraProblem(
        m=g.standard_normal((m_rows, n_cols)),
        b=g.standard_normal((m_rows, p_cols)),
        c=g.standard_normal((q_rows, n_cols)),
        r=r,
    )


def tiny_sigma_problem():
    """A problem under rank_rel = 1e-16 whose B has singular values 1, 0.5 and 1e-13.

    sigma_3(B) is rank under that cutoff but kernel under the default one.
    Returns the problem and the generator that drew it, for later draws.
    """
    g = rng(7)
    b = np.zeros((3, 4))
    b[:, :3] = np.diag([1.0, 0.5, 1e-13])
    c = g.standard_normal((4, 3))
    tol = Tolerances(rank_rel=1e-16)
    return GlraProblem(m=b @ g.standard_normal((4, 4)) @ c, b=b, c=c, r=3, tol=tol), g


class TestSolve:
    def test_tied_fixture(self, tied_problem, x_branch_a, x_branch_b):
        sol = solve(tied_problem)
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        assert sol.uniqueness is Uniqueness.NON_UNIQUE
        branches = [x_branch_a, x_branch_b]
        assert any(hs_norm(sol.x_hat - x) < ATOL for x in branches)
        assert minimality_defect(sol.x_hat, tied_problem) < ATOL

    def test_identity_factors_reduce_to_truncation(self):
        m = rng(1).standard_normal((5, 4))
        p = GlraProblem(m=m, b=np.eye(5), c=np.eye(4), r=2)
        sol = solve(p)
        u, s, vh = np.linalg.svd(m)
        assert hs_norm(sol.x_hat - (u[:, :2] * s[:2]) @ vh[:2]) < ATOL

    def test_objective_matches_oracle(self):
        p = random_problem(2)
        sol = solve(p)
        oracle = als_oracles([p], 20, 200, [5])[0]
        assert sol.objective <= oracle + 1e-6

    def test_solution_invariants(self):
        for seed in range(6):
            p = random_problem(seed, dims=(5, 4, 4, 3), r=min(2, 3))
            sol = solve(p)
            assert minimality_defect(sol.x_hat, p) < ATOL
            assert sol.objective**2 + sol.delta == pytest.approx(
                hs_norm(p.m) ** 2, abs=ATOL
            )

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            GlraProblem(m=np.eye(2), b=np.eye(3), c=np.eye(2), r=1)


class TestObjective:
    def test_zero_candidate(self, tied_problem):
        x = np.zeros((3, 3))
        assert objective(tied_problem, x) == pytest.approx(hs_norm(tied_problem.m))

    def test_padding_entries_do_not_matter(self, tied_problem, x_branch_a):
        for alpha in ([0.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]):
            x = branch_member(x_branch_a, alpha)
            assert objective(tied_problem, x) == pytest.approx(1.0, abs=1e-12)

    def test_consistent_with_solve(self, tied_problem):
        sol = solve(tied_problem)
        assert objective(tied_problem, sol.x_hat) == pytest.approx(
            sol.objective, abs=ATOL
        )


class TestMinimality:
    def test_canonical_branch_is_minimal(self, tied_problem, x_branch_a):
        assert minimality_defect(x_branch_a, tied_problem) < ATOL

    def test_padded_member_defect(self, tied_problem, x_branch_a):
        x = branch_member(x_branch_a, [1.0] * 5)
        defect = minimality_defect(x, tied_problem)
        assert defect == pytest.approx(np.sqrt(5.0), abs=ATOL)

    def test_zero_matrix(self, tied_problem):
        assert minimality_defect(np.zeros((3, 3)), tied_problem) == 0.0

    def test_defect_uses_the_solving_tolerances(self):
        # cut at the default tolerances, B loses the direction x_hat uses
        # and the defect of x_hat reads 1.8, where its bound is 6e-14
        p, _ = tiny_sigma_problem()
        sol = solve(p)
        dim = max(p.m.shape + p.x_shape)
        assert minimality_defect(sol.x_hat, p) <= check_bound(dim, hs_norm(sol.x_hat))


class TestSolutionMinimalityDefect:
    """x_hat is minimal: the public minimality_defect of it is rounding, with no warning."""

    @staticmethod
    def assert_agrees(p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(p)
            defect = minimality_defect(sol.x_hat, p)
        dim = max(p.m.shape + p.x_shape)
        assert defect <= check_bound(dim, hs_norm(sol.x_hat))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_deficient_problems(self, seed, r):
        self.assert_agrees(deficient_problem(seed, r))

    def test_seeded_draws(self):
        from glra.checks import random_problem as draw

        g = rng(8)
        for i in range(40):
            self.assert_agrees(draw(g, max_dim=9, max_rank=4, deficient=(i % 2 == 0)))

    @pytest.mark.parametrize("r", [1, 2])
    def test_tiny_b_huge_c(self, r):
        # L = V_B S_B^-1 U_K holds 1e200, and Sigma_K scales R instead
        self.assert_agrees(
            GlraProblem(m=1e150 * np.eye(2), b=1e-200 * np.eye(2), c=1e200 * np.eye(2), r=r)
        )


class TestFactoredObjective:
    """solve's objective, from x_hat's factors L and R, against the dense objective(p, x_hat)."""

    @staticmethod
    def assert_agrees(p):
        sol = solve(p)
        dim = max(p.m.shape + p.b.shape + p.c.shape)
        scale = hs_norm(p.m) + hs_norm(p.b) * hs_norm(sol.x_hat) * hs_norm(p.c)
        assert abs(sol.objective - objective(p, sol.x_hat)) <= check_bound(dim, scale)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_deficient_problems(self, seed, r):
        self.assert_agrees(deficient_problem(seed, r))

    @pytest.mark.parametrize("kind", range(4), ids=CONDITIONED_KINDS)
    def test_conditioned_draws(self, kind):
        # B and C of condition up to 1e8; see conftest.conditioned_problem
        for seed in range(kind, 160, 4):
            self.assert_agrees(conditioned_problem(seed))


def x_hat_by_the_ratio_rule(p: GlraProblem) -> np.ndarray:
    """x_hat with Sigma_K on L_0 unless sigma_1 / sigma_min(B) leaves the float range.

    The side rule x_hat was formed with before its factors were stored on
    the solution, which read B's and the core's singular values.
    """
    fb, fc, _, t = _reduce(p)
    f = t.factors
    with np.errstate(over="ignore", invalid="ignore"):
        left = (fb.v / fb.sigma) @ f.u
        right = (fc.u / fc.sigma) @ f.v
        if f.sigma.size and f.sigma[0] / fb.sigma[-1] > np.finfo(float).max:
            right = right * f.sigma
        else:
            left = left * f.sigma
        return left @ right.T


EXTREME_PROBLEMS = {
    # L_0 Sigma_K = 1e350 overflows and Sigma_K goes on R_0
    "b-1e-200-c-1e200": (1e150 * np.eye(2), 1e-200 * np.eye(2), 1e200 * np.eye(2)),
    # R_0 = 1e200 I, and L_0 Sigma_K = 1e-50 I carries Sigma_K
    "b-1e200-c-1e-200": (1e150 * np.eye(2), 1e200 * np.eye(2), 1e-200 * np.eye(2)),
}


def factored_problems(kind):
    """Ten conditioned_problem draws of a kind, or one of the EXTREME_PROBLEMS at r = 1 and 2."""
    if kind in EXTREME_PROBLEMS:
        m, b, c = EXTREME_PROBLEMS[kind]
        return [GlraProblem(m=m, b=b, c=c, r=r) for r in (1, 2)]
    return [conditioned_problem(seed) for seed in range(CONDITIONED_KINDS.index(kind), 40, 4)]


class TestSolutionFactors:
    """solve(p).factors = (L_0, Sigma_K, R_0), with x_hat = L_0 Sigma_K R_0^T."""

    KINDS = [*CONDITIONED_KINDS, *EXTREME_PROBLEMS]

    @pytest.mark.parametrize("kind", KINDS)
    def test_x_hat_keeps_the_bits_of_the_ratio_rule(self, kind):
        # the side rule now reads only the factors; both put Sigma_K on the
        # same side wherever sigma_1 / sigma_min(B) is representable
        for p in factored_problems(kind):
            want = x_hat_by_the_ratio_rule(p)
            assert np.array_equal(solve(p).x_hat, want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_factors_lie_in_span_vb_and_span_uc(self, kind):
        for p in factored_problems(kind):
            f = solve(p).factors
            fb, fc, _, _ = _reduce(p)
            dim = max(p.x_shape)
            assert hs_norm(f.u - fb.v @ (fb.v.T @ f.u)) <= check_bound(dim, hs_norm(f.u))
            assert hs_norm(f.v - fc.u @ (fc.u.T @ f.v)) <= check_bound(dim, hs_norm(f.v))

    @pytest.mark.parametrize("kind", KINDS)
    def test_factors_multiply_back_to_x_hat(self, kind):
        # formed at unit scale, so that no product of the three overflows where
        # x_hat does not; entrywise rounding is bounded by ||L_0|| ||Sigma_K|| ||R_0||
        for p in factored_problems(kind):
            sol = solve(p)
            f = sol.factors
            nu, nv = hs_norm(f.u), hs_norm(f.v)
            product = (((f.u / nu) * f.sigma) @ (f.v / nv).T) * (nu * nv)
            scale = nu * nv * np.linalg.norm(f.sigma)
            assert hs_norm(product - sol.x_hat) <= check_bound(max(p.x_shape), scale)


class TestRecordsCompareByIdentity:
    """Records that hold arrays neither raise on == nor refuse to hash."""

    @staticmethod
    def records():
        from glra.regression import SampleSet, empirical_covariances, fit
        from glra.sequences import (
            SequenceSpec,
            approximate_minimizers,
            bounded_approximation_sequence,
            build_instance,
            full_chain,
        )

        p = deficient_problem(3, 2)
        sol = solve(p)
        samples = SampleSet(xs=rng(1).standard_normal((20, 3)), ys=rng(2).standard_normal((20, 4)))
        cov = empirical_covariances(samples)
        bounded = bounded_approximation_sequence(p, full_chain(p.c))
        approx = approximate_minimizers(p, [0.5])
        return [
            p,
            sol,
            sol.truncation,
            sol.truncation.factors,
            build_instance(SequenceSpec(gamma_exponent=2.0, alpha_exponent=1.0, n=6)),
            approx,
            approx.steps[0],
            full_chain(p.c),
            bounded,
            bounded.steps[0],
            bounded.steps[0].outer,
            samples,
            cov,
            fit(cov, 1),
        ]

    def test_equal_only_to_itself(self):
        first, second = self.records(), self.records()
        for a, b in zip(first, second):
            assert (a == b) is False, type(a).__name__
            assert a == a
            assert len({a, b}) == 2

    def test_tolerances_keep_value_equality(self):
        # Tolerances is a value: equal ones make the same rank and tie decisions
        assert Tolerances(rank_rel=1e-10) == Tolerances(rank_rel=1e-10)
        assert len({Tolerances(), Tolerances()}) == 1


class TestCanonicalize:
    def test_strips_padding(self, tied_problem, x_branch_a):
        x = branch_member(x_branch_a, [3.0, -1.0, 2.0, 0.5, 7.0])
        np.testing.assert_allclose(
            canonicalize(x, tied_problem), x_branch_a, atol=ATOL
        )

    def test_identity_factors_change_nothing(self):
        x = rng(3).standard_normal((4, 4))
        p = GlraProblem(m=np.zeros((4, 4)), b=np.eye(4), c=np.eye(4), r=1)
        np.testing.assert_allclose(canonicalize(x, p), x, atol=ATOL)

    def test_idempotent(self):
        g = rng(4)
        x = g.standard_normal((4, 3))
        b = g.standard_normal((5, 4))
        c = g.standard_normal((3, 6))
        p = GlraProblem(m=np.zeros((5, 6)), b=b, c=c, r=1)
        once = canonicalize(x, p)
        assert hs_norm(canonicalize(once, p) - once) < ATOL


class TestSolutionSet:
    def test_zero_offsets_return_x_hat(self, tied_problem):
        sol = solve(tied_problem)
        z = np.zeros((3, 3))
        np.testing.assert_allclose(
            solution_set_sample(sol, tied_problem, z, z), sol.x_hat
        )

    def test_reproduces_padded_member(self, tied_problem, x_branch_a):
        sol = solve(tied_problem)
        alpha = [1.0, 2.0, 3.0, 4.0, 5.0]
        t = np.zeros((3, 3))
        t[2, :] = alpha[2:]
        s = np.zeros((3, 3))
        s[0, 2], s[1, 2] = alpha[:2]
        member = solution_set_sample(sol, tied_problem, t, s)
        np.testing.assert_allclose(member, branch_member(x_branch_a, alpha), atol=ATOL)
        assert objective(tied_problem, member) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_objective_invariance_and_round_trip(self, seed):
        p = random_problem(seed, dims=(5, 4, 4, 3), r=2)
        sol = solve(p)
        g = rng(seed + 50)
        member = solution_set_sample(
            sol, p, g.standard_normal(p.x_shape), g.standard_normal(p.x_shape)
        )
        assert objective(p, member) == pytest.approx(sol.objective, abs=ATOL)
        assert hs_norm(canonicalize(member, p) - sol.x_hat) < ATOL
        assert hs_norm(member) >= hs_norm(sol.x_hat) - ATOL

    def test_sample_uses_the_solving_tolerances(self):
        # sampling, or canonicalizing, with the default cutoff would move x_hat
        p, g = tiny_sigma_problem()
        sol = solve(p)
        member = solution_set_sample(
            sol, p, g.standard_normal(p.x_shape), g.standard_normal(p.x_shape)
        )
        assert hs_norm(canonicalize(member, p) - sol.x_hat) < ATOL
        assert hs_norm(member) >= hs_norm(sol.x_hat) - ATOL


class TestRankAboveCore:
    """Beyond G's numerical rank the minimiser is B^+ G C^+, whatever r is."""

    @pytest.mark.parametrize("seed", range(40))
    def test_answer_is_the_one_at_the_numerical_rank(self, seed):
        # a kept sub-cutoff triplet would enter x_hat amplified by B^+ and C^+
        p = low_rank_target(seed)
        sol = solve(p)
        rank = sol.truncation.numerical_rank
        assert 1 <= rank < p.r and sol.truncation.factors.sigma.size == rank
        at_rank = solve(replace(p, r=rank))
        assert np.array_equal(sol.x_hat, at_rank.x_hat)
        assert sol.objective == at_rank.objective and sol.delta == at_rank.delta
        assert sol.uniqueness is at_rank.uniqueness is Uniqueness.UNIQUE_BY_RANK

    @pytest.mark.parametrize("seed", range(10))
    def test_ill_conditioned_recovery_ignores_a_larger_rank(self, seed):
        # M = B x_0 C with rank-one x_0 and B, C of condition 1e8: a second
        # triplet of rounding noise once cost x_hat up to 0.26 relative error
        g = rng(seed)
        p_cols, q_rows = (int(d) for d in g.integers(2, 7, size=2))
        b = _conditioned(g, p_cols + 2, p_cols, 1e8, p_cols)
        c = _conditioned(g, q_rows, q_rows + 2, 1e8, q_rows)
        x_0 = np.outer(g.standard_normal(p_cols), g.standard_normal(q_rows))
        x_1, x_2 = (solve(GlraProblem(m=b @ x_0 @ c, b=b, c=c, r=r)).x_hat for r in (1, 2))
        assert hs_norm(x_2 - x_0) == hs_norm(x_1 - x_0)
        assert np.array_equal(x_2, x_1)


class TestOptimalError:
    def test_tied_fixture_values(self, tied_problem):
        res = optimal_error(tied_problem)
        assert res.delta == pytest.approx(1.0, abs=1e-12)
        assert res.error == pytest.approx(1.0, abs=1e-12)

    def test_exact_recovery(self):
        m = rng(6).standard_normal((4, 4))
        p = GlraProblem(m=m, b=np.eye(4), c=np.eye(4), r=4)
        assert optimal_error(p).error < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_variants_agree_and_match_solver(self, seed):
        p = random_problem(seed)
        res = optimal_error(p)
        for variant in res.delta_variants:
            assert variant == pytest.approx(res.delta, abs=ATOL)
        assert res.error == pytest.approx(solve(p).objective, abs=ATOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_variants_agree_beyond_the_core_rank(self, seed):
        # r = 5 exceeds rank(K) = 2: K K^T (3 x 3) has a zero eigenvalue, which
        # comes out as a rounding-level value of either sign and enters the sums
        p = deficient_problem(seed, 5)
        res = optimal_error(p)
        bound = check_bound(max(p.m.shape + p.x_shape), hs_norm(p.m) ** 2)
        for variant in res.delta_variants:
            assert abs(variant - res.delta) <= bound

    def test_error_is_the_residual_on_exact_fits(self):
        # sqrt(||M||^2 - delta) cancels on nearly exact fits: draws 47, 54
        # and 59 read 4e-8 to 7e-8 that way, where the residual is 2e-15
        from glra.checks import random_problem as draw

        g = rng(7)
        eps = np.finfo(float).eps
        for i in range(60):
            p = draw(g, deficient=(i % 3 == 0))
            bound = 10 * eps * max(p.m.shape) * hs_norm(p.m)
            assert abs(optimal_error(p).error - solve(p).objective) <= bound, i


class TestAdjoint:
    def test_identity_factors_transpose(self):
        m = rng(7).standard_normal((4, 5))
        p = GlraProblem(m=m, b=np.eye(4), c=np.eye(5), r=2)
        adj = solve_adjoint(p)
        assert hs_norm(adj.x_hat - identity_truncation(m, 2).matrix().T) < ATOL

    def test_tied_fixture(self, tied_problem, x_branch_a, x_branch_b):
        adj = solve_adjoint(tied_problem)
        assert adj.objective == pytest.approx(1.0, abs=1e-12)
        back = canonicalize(adj.x_hat.T, tied_problem)
        branches = [x_branch_a, x_branch_b]
        assert any(hs_norm(back - x) < ATOL for x in branches)

    @pytest.mark.parametrize("seed", range(8))
    def test_objective_equality(self, seed):
        p = random_problem(seed, dims=(5, 3, 4, 4), r=2)
        assert solve_adjoint(p).objective == pytest.approx(
            solve(p).objective, abs=ATOL
        )


class TestClassify:
    def test_tie(self, tied_problem):
        assert solve(tied_problem).uniqueness is Uniqueness.NON_UNIQUE

    def test_rank_saturation(self, tied_problem):
        p = GlraProblem(m=tied_problem.m, b=tied_problem.b, c=tied_problem.c, r=2)
        assert solve(p).uniqueness is Uniqueness.UNIQUE_BY_RANK

    def test_gap(self):
        p = GlraProblem(m=np.diag([2.0, 1.0]), b=np.eye(2), c=np.eye(2), r=1)
        assert solve(p).uniqueness is Uniqueness.UNIQUE_BY_GAP


class TestAlsOracle:
    def test_eckart_young_value(self):
        p = GlraProblem(m=np.diag([3.0, 2.0, 1.0]), b=np.eye(3), c=np.eye(3), r=1)
        assert als_oracles([p], 10, 100, [0])[0] == pytest.approx(
            np.sqrt(5.0), abs=1e-6
        )

    def test_exact_fit_when_rank_suffices(self):
        g = rng(8)
        m = g.standard_normal((3, 3))
        p = GlraProblem(m=m, b=g.standard_normal((3, 3)), c=g.standard_normal((3, 3)), r=3)
        assert als_oracles([p], 5, 100, [0])[0] < 1e-6

    def test_tied_fixture(self, tied_problem):
        assert als_oracles([tied_problem], 10, 100, [0])[0] == pytest.approx(
            1.0, abs=1e-6
        )

    def test_deterministic(self, tied_problem):
        a = als_oracles([tied_problem], 4, 30, [9])[0]
        b = als_oracles([tied_problem], 4, 30, [9])[0]
        assert a == b


class TestProjectedProblemIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_split_constant(self, seed):
        p = random_problem(seed, dims=(5, 4, 3, 4), r=2)
        g_mat = _ref_projectors(p.b)[0] @ p.m @ _ref_projectors(p.c)[1]
        const = hs_norm(p.m) ** 2 - hs_norm(g_mat) ** 2
        gen = rng(seed + 100)
        x = gen.standard_normal((p.x_shape[0], p.r)) @ gen.standard_normal(
            (p.r, p.x_shape[1])
        )
        lhs = objective(p, x) ** 2
        rhs = hs_norm(g_mat - p.b @ x @ p.c) ** 2 + const
        assert lhs == pytest.approx(rhs, abs=1e-9)


def deficient_problem(seed, r):
    """M 7 x 8 with B 7 x 5 of rank 3 and C 6 x 8 of rank 2."""
    g = rng(seed)

    def low_rank(rows, cols, k):
        return g.standard_normal((rows, k)) @ g.standard_normal((k, cols))

    return GlraProblem(m=g.standard_normal((7, 8)), b=low_rank(7, 5, 3), c=low_rank(6, 8, 2), r=r)


def zero_factor_problem(which):
    g = rng(30)
    b = np.zeros((5, 3)) if which == "B" else g.standard_normal((5, 3))
    c = np.zeros((4, 6)) if which == "C" else g.standard_normal((4, 6))
    return GlraProblem(m=g.standard_normal((5, 6)), b=b, c=c, r=2)


CLOSED_FORM_CASES = {
    **{f"full-rank-{s}": (lambda s=s: random_problem(s, dims=(6, 7, 4, 5), r=2)) for s in range(4)},
    **{f"deficient-r{r}": (lambda r=r: deficient_problem(10 + r, r)) for r in (1, 2, 3)},
    "zero-B": lambda: zero_factor_problem("B"),
    "zero-C": lambda: zero_factor_problem("C"),
}


class TestClosedForm:
    """solve() against the dense closed form B^+ (P_ran(B) M P_ker(C)-perp)_r C^+."""

    @staticmethod
    def reference(p):
        g = _ref_projectors(p.b)[0] @ p.m @ _ref_projectors(p.c)[1]
        tsvd = identity_truncation(g, p.r)
        return pinv(p.b) @ tsvd.matrix() @ pinv(p.c), tsvd

    def check(self, p):
        x_ref, tsvd = self.reference(p)
        sol = solve(p)
        eps = np.finfo(float).eps
        dim = max(p.m.shape + p.b.shape + p.c.shape)
        m_norm = hs_norm(p.m)
        x_scale = hs_norm(pinv(p.b)) * m_norm * hs_norm(pinv(p.c))
        assert hs_norm(sol.x_hat - x_ref) <= 10 * eps * dim * x_scale
        assert abs(sol.objective - hs_norm(p.m - p.b @ x_ref @ p.c)) <= 10 * eps * dim * m_norm
        assert abs(sol.delta - np.sum(tsvd.factors.sigma**2)) <= 10 * eps * dim * m_norm**2
        assert sol.uniqueness is tsvd.uniqueness
        assert hs_norm(sol.truncation.matrix() - tsvd.matrix()) <= 10 * eps * dim * m_norm
        return sol

    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_matches_dense_closed_form(self, case):
        self.check(CLOSED_FORM_CASES[case]())

    def test_tied_fixture(self, tied_problem):
        assert self.check(tied_problem).uniqueness is Uniqueness.NON_UNIQUE

    @pytest.mark.parametrize("which", ["B", "C"])
    def test_zero_factor(self, which):
        p = zero_factor_problem(which)
        sol = self.check(p)
        assert not np.any(sol.x_hat)
        assert sol.objective == hs_norm(p.m)
        assert sol.delta == 0.0
        assert sol.uniqueness is Uniqueness.UNIQUE_BY_RANK


class TestFactorOnce:
    """Each operand is factorised once: B, C and the reduced core."""

    @staticmethod
    def count_lapack(monkeypatch):
        calls = {"svd": 0, "eig": 0}
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls["svd"] += 1
            return svd(*args, **kwargs)

        def make_counting_eig(fn):
            def counting(*args, **kwargs):
                calls["eig"] += 1
                return fn(*args, **kwargs)

            return counting

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, make_counting_eig(getattr(np.linalg, name)))
        return calls

    def test_solve_makes_three_svds(self, monkeypatch):
        p = deficient_problem(3, 2)
        calls = self.count_lapack(monkeypatch)
        solve(p)
        assert calls == {"svd": 3, "eig": 0}

    def test_cli_solve_makes_three_svds(self, monkeypatch, tmp_path, capsys):
        from glra.cli import main
        from glra.matio import write_matrix

        p = random_problem(5, dims=(6, 7, 4, 5), r=2)
        for name, a in (("M", p.m), ("B", p.b), ("C", p.c)):
            write_matrix(str(tmp_path / f"{name}.csv"), a)
        argv = ["solve", "--rank", "2", "--out", str(tmp_path / "x.csv"), "--no-timestamp"]
        for name in ("M", "B", "C"):
            argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
        calls = self.count_lapack(monkeypatch)
        assert main(argv) == 0
        assert calls == {"svd": 3, "eig": 0}

    def test_optimal_error_after_solve_reuses_the_reduction(self, monkeypatch):
        p = deficient_problem(3, 2)
        fresh = optimal_error(deficient_problem(3, 2))
        calls = self.count_lapack(monkeypatch)
        solve(p)
        err = optimal_error(p)
        # only the eigvalsh, eigvalsh and eigvals of its variants
        assert calls == {"svd": 3, "eig": 3}
        assert err == fresh

    def test_solution_set_sample_after_solve_factorises_nothing(self, monkeypatch):
        p = deficient_problem(3, 2)
        sol = solve(p)
        calls = self.count_lapack(monkeypatch)
        z = np.zeros(p.x_shape)
        np.testing.assert_array_equal(solution_set_sample(sol, p, z, z), sol.x_hat)
        assert calls == {"svd": 0, "eig": 0}

    def test_solve_adjoint_factorises_its_own_operands(self, monkeypatch):
        # guard: the adjoint objective stays an independent recomputation
        p = deficient_problem(3, 2)
        solve(p)
        calls = self.count_lapack(monkeypatch)
        solve_adjoint(p)
        solve_adjoint(p)
        assert calls == {"svd": 6, "eig": 0}

    def test_other_tolerances_factorise_again(self, monkeypatch):
        # guard: a problem with other tolerances does not reuse the reduction
        p = deficient_problem(3, 2)
        solve(p)
        calls = self.count_lapack(monkeypatch)
        solve(replace(p, tol=Tolerances(rank_rel=1e-10)))
        assert calls == {"svd": 3, "eig": 0}
        solve(p)
        assert calls == {"svd": 3, "eig": 0}

    def test_problem_tolerances_share_one_factorisation(self, monkeypatch):
        # sigma_3(B) = 1e-13 is rank under rank_rel = 1e-16 but kernel under
        # the default cutoff, so x_hat's third row shows which cut was used
        g = rng(7)
        b = np.zeros((3, 4))
        b[:, :3] = np.diag([1.0, 0.5, 1e-13])
        c = g.standard_normal((4, 3))
        m = b @ g.standard_normal((4, 4)) @ c
        p = GlraProblem(m=m, b=b, c=c, r=3, tol=Tolerances(rank_rel=1e-16))
        chain = nested_chain(c, 2, seed=1, tol=p.tol)
        calls = self.count_lapack(monkeypatch)
        sol = solve(p)
        optimal_error(p)
        z = np.zeros(p.x_shape)
        solution_set_sample(sol, p, z, z)
        bounded = bounded_approximation_sequence(p, chain)
        # B, C and K once, which the chain's steps share; the three error variants
        assert calls == {"svd": 3, "eig": 3}
        assert np.any(sol.x_hat[2])
        np.testing.assert_array_equal(bounded.solution.x_hat, sol.x_hat)
        assert not np.any(solve(replace(p, tol=Tolerances())).x_hat[2])
        assert calls["svd"] == 6

    def test_known_factors_skip_their_factorisation(self, monkeypatch):
        # B = I comes with its factors: only C and K are factorised, and the
        # solution keeps the bits of the one that factorises I as well
        g = rng(8)
        p = GlraProblem(
            m=g.standard_normal((4, 5)), b=np.eye(4), c=g.standard_normal((3, 5)), r=2
        )
        fresh = solve(replace(p))
        calls = self.count_lapack(monkeypatch)
        _reduce(p, SvdFactors(u=np.eye(4), sigma=np.ones(4), v=np.eye(4)))
        assert calls == {"svd": 2, "eig": 0}
        np.testing.assert_array_equal(solve(p).x_hat, fresh.x_hat)
        # guard: factors passed to a problem that is already reduced are not used
        half = SvdFactors(u=np.eye(4), sigma=np.full(4, 0.5), v=np.eye(4))
        assert _reduce(p, half)[0] is not half

    def test_replace_starts_afresh(self):
        # guard: dataclasses.replace does not carry the rank-1 reduction over
        p = deficient_problem(3, 1)
        solve(p)
        sol = solve(replace(p, r=2))
        assert sol.truncation.factors.sigma.size == 2
        np.testing.assert_array_equal(sol.x_hat, solve(deficient_problem(3, 2)).x_hat)

    @pytest.mark.parametrize("name", ["m", "b", "c"])
    def test_inputs_are_read_only_views(self, name):
        g = rng(4)
        given = {
            "m": g.standard_normal((3, 4)),
            "b": g.standard_normal((3, 2)),
            "c": g.standard_normal((2, 4)),
        }
        p = GlraProblem(**given, r=1)
        with pytest.raises(ValueError, match="read-only"):
            getattr(p, name)[0, 0] = 1.0
        # a view, not a copy, and the caller's own array stays writeable
        assert np.shares_memory(getattr(p, name), given[name])
        given[name][0, 0] = 1.0


class TestRankBound:
    @pytest.mark.parametrize("r", [1.5, 2.0, "2", None])
    def test_non_integer_rejected(self, r):
        with pytest.raises(InputError):
            GlraProblem(m=np.eye(3), b=np.eye(3), c=np.eye(3), r=r)

    @pytest.mark.parametrize("r", [2, np.int64(2), np.int32(2)])
    def test_integers_accepted(self, r):
        assert GlraProblem(m=np.eye(3), b=np.eye(3), c=np.eye(3), r=r).r == 2


class TestOverflow:
    def problem(self):
        g = rng(3)
        return GlraProblem(
            m=1e200 * g.standard_normal((4, 5)),
            b=g.standard_normal((4, 3)),
            c=g.standard_normal((3, 5)),
            r=1,
        )

    @pytest.mark.parametrize("func", [solve, optimal_error])
    def test_non_finite_results_raise(self, func):
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="not finite"):
            func(self.problem())

    @pytest.mark.parametrize(
        "m, b, c, name",
        [
            # finite inputs whose minimiser M C^+ holds 1e299 / 1e-10
            (np.diag([1e300, 1e299]), np.eye(2), np.diag([1.0, 1e-10]), "x_hat"),
        ],
    )
    def test_overflowing_minimiser_is_numerical(self, m, b, c, name):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match=name):
            solve(GlraProblem(m=m, b=b, c=c, r=2))

    def test_huge_b_tiny_c_objective_from_the_factors(self):
        # B x_hat = 1e350 would overflow, but the objective takes B L = 1e150 I
        # and R^T C = I from the factors of the minimiser 1e150 I
        p = GlraProblem(m=1e150 * np.eye(2), b=1e200 * np.eye(2), c=1e-200 * np.eye(2), r=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(p)
        np.testing.assert_allclose(sol.x_hat, 1e150 * np.eye(2), rtol=1e-14, atol=0.0)
        assert sol.objective == 0.0

    def test_overflowing_objective_warns_nothing(self):
        p = GlraProblem(m=np.eye(2), b=1e200 * np.eye(2), c=1e200 * np.eye(2), r=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="objective"):
                objective(p, np.eye(2))

    @pytest.mark.parametrize(
        "func, m, b",
        [
            # numpy returns sigma_1 = inf for these finite B and M; at an inf
            # cutoff nothing was kept, and solve answered x_hat = 0
            (solve, np.eye(2), np.full((2, 2), 1.5e308)),
            (optimal_error, np.full((2, 2), 1.5e308), np.eye(2)),
        ],
        ids=["solve-huge-b", "optimal-error-huge-m"],
    )
    def test_overflowing_spectrum_is_numerical(self, func, m, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="sigma_1 is not finite"):
                func(GlraProblem(m=m, b=b, c=np.eye(2), r=1))

    def test_objective_of_representable_residual(self):
        # the squares of the residual's entries overflow, its norm 3e300 does not
        p = GlraProblem(m=1e300 * np.ones((3, 3)), b=np.eye(3), c=np.eye(3), r=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert objective(p, np.zeros((3, 3))) == pytest.approx(3e300, rel=1e-15)
            # solve still raises: delta, the sum of the squared singular values, overflows
            for func in (solve, optimal_error):
                with pytest.raises(NumericalError, match="delta"):
                    func(p)

    # S_B^-1 Sigma_K = 1e350 would overflow, but the minimiser 1e150 I is finite
    TINY_B_HUGE_C = (1e150 * np.eye(2), 1e-200 * np.eye(2), 1e200 * np.eye(2))

    def test_tiny_b_huge_c_minimiser_is_finite(self):
        m, b, c = self.TINY_B_HUGE_C
        sol = solve(GlraProblem(m=m, b=b, c=c, r=2))
        np.testing.assert_allclose(sol.x_hat, 1e150 * np.eye(2), rtol=1e-14, atol=0.0)

    def test_adjoint_of_huge_b_tiny_c_is_finite(self):
        m, b, c = self.TINY_B_HUGE_C
        sol = solve_adjoint(GlraProblem(m=m, b=c, c=b, r=2))
        np.testing.assert_allclose(sol.x_hat, 1e150 * np.eye(2), rtol=1e-14, atol=0.0)

    def test_cli_solves_tiny_b_huge_c(self, tmp_path, capsys):
        from glra.cli import main
        from glra.matio import read_matrix, write_matrix

        argv = ["solve", "--rank", "2", "--out", str(tmp_path / "x.csv"), "--no-timestamp"]
        for name, a in zip(("M", "B", "C"), self.TINY_B_HUGE_C):
            write_matrix(str(tmp_path / f"{name}.csv"), a)
            argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        x_hat = read_matrix(str(tmp_path / "x.csv"))
        np.testing.assert_allclose(x_hat, 1e150 * np.eye(2), rtol=1e-14, atol=0.0)


problem_draws = st.tuples(
    st.integers(0, 2**32 - 1),
    st.tuples(*[st.integers(1, 8)] * 4),
    st.integers(1, 3),
)


def drawn_problem(draw):
    seed, (m_rows, n_cols, p_cols, q_rows), r = draw
    g = rng(seed)
    return GlraProblem(
        m=g.standard_normal((m_rows, n_cols)),
        b=g.standard_normal((m_rows, p_cols)),
        c=g.standard_normal((q_rows, n_cols)),
        r=r,
    ), g


def minimiser_scale(p: GlraProblem, x_hat: np.ndarray) -> float:
    """How far rounding of M, B and C can move x_hat, per unit of eps * dim.

    A change of M moves x_hat by ||B^+|| ||M|| ||C^+|| times sigma_1 / gap
    of G at r; a change of B or C moves it by ||x_hat|| times the
    condition number ||B|| ||B^+|| or ||C|| ||C^+||.
    """
    b_pinv, c_pinv = pinv(p.b), pinv(p.c)
    g = _ref_projectors(p.b)[0] @ p.m @ _ref_projectors(p.c)[1]
    sigma = np.linalg.svd(g, compute_uv=False)
    amplification = 1.0
    if p.r < sigma.size and sigma[p.r] > check_bound(max(p.m.shape), sigma[0]):
        amplification = sigma[0] / (sigma[p.r - 1] - sigma[p.r])
    conditioning = hs_norm(p.b) * hs_norm(b_pinv) + hs_norm(p.c) * hs_norm(c_pinv)
    return (
        hs_norm(b_pinv) * hs_norm(p.m) * hs_norm(c_pinv) * amplification
        + hs_norm(x_hat) * conditioning
    )


class TestScaleAndBasisProperties:
    """solve commutes with scaling M and with orthogonal changes of basis."""

    @settings(max_examples=30, deadline=None)
    @given(problem_draws, st.integers(-150, 150))
    def test_scale_equivariance(self, draw, k):
        p, _ = drawn_problem(draw)
        s = 10.0**k
        dim = max(p.m.shape + p.b.shape + p.c.shape)
        sol = solve(p)
        scaled = solve(GlraProblem(m=s * p.m, b=p.b, c=p.c, r=p.r))
        assert scaled.uniqueness == sol.uniqueness
        x_bound = check_bound(dim, s * minimiser_scale(p, sol.x_hat))
        assert hs_norm(scaled.x_hat - s * sol.x_hat) <= x_bound
        op_scale = hs_norm(p.m) + hs_norm(p.b) * hs_norm(sol.x_hat) * hs_norm(p.c)
        assert abs(scaled.objective - s * sol.objective) <= check_bound(dim, s * op_scale)
        assert abs(scaled.delta - s**2 * sol.delta) <= check_bound(dim, s**2 * hs_norm(p.m) ** 2)

    @settings(max_examples=30, deadline=None)
    @given(problem_draws)
    def test_orthogonal_invariance(self, draw):
        p, g = drawn_problem(draw)
        u, _ = np.linalg.qr(g.standard_normal((p.m.shape[0],) * 2))
        v, _ = np.linalg.qr(g.standard_normal((p.m.shape[1],) * 2))
        dim = max(p.m.shape + p.b.shape + p.c.shape)
        sol = solve(p)
        rotated = solve(GlraProblem(m=u @ p.m @ v, b=u @ p.b, c=p.c @ v, r=p.r))
        assert hs_norm(rotated.x_hat - sol.x_hat) <= check_bound(dim, minimiser_scale(p, sol.x_hat))
        op_scale = hs_norm(p.m) + hs_norm(p.b) * hs_norm(sol.x_hat) * hs_norm(p.c)
        assert abs(rotated.objective - sol.objective) <= check_bound(dim, op_scale)


def _sample_with(t_shape, s_shape):
    p = random_problem(0)
    return solution_set_sample(solve(p), p, np.zeros(t_shape), np.zeros(s_shape))


class TestInputErrors:
    @pytest.mark.parametrize(
        "call, fragment",
        [
            (
                lambda: GlraProblem(m=np.ones((2, 3)), b=np.eye(2), c=np.ones((2, 4)), r=1),
                "C has 4 columns but M has 3",
            ),
            (
                lambda: objective(random_problem(0), np.zeros((5, 5))),
                r"X must have shape \(3, 4\), got \(5, 5\)",
            ),
            (lambda: _sample_with((4, 3), (3, 4)), r"T and S must have shape \(3, 4\)"),
            (lambda: _sample_with((3, 4), (3, 5)), r"T and S must have shape \(3, 4\)"),
            (
                lambda: canonicalize(np.zeros((4, 3)), random_problem(0)),
                r"X must have shape \(3, 4\), got \(4, 3\)",
            ),
            (
                lambda: minimality_defect(np.zeros((3, 5)), random_problem(0)),
                r"X must have shape \(3, 4\), got \(3, 5\)",
            ),
            (
                # cast to its real part, M = (1+1j) I would be solved as M = I
                lambda: GlraProblem(m=(1 + 1j) * np.eye(2), b=np.eye(2), c=np.eye(2), r=1),
                "M is not a real numeric array: complex entries are not supported",
            ),
            (
                lambda: objective(random_problem(0), [[1j] * 4] * 3),
                "X is not a real numeric array: complex entries are not supported",
            ),
        ],
        ids=[
            "c-columns",
            "objective-x-shape",
            "sample-t-shape",
            "sample-s-shape",
            "canonicalize-x-shape",
            "defect-x-shape",
            "complex-m",
            "complex-x",
        ],
    )
    def test_rejected(self, call, fragment):
        with pytest.raises(InputError, match=fragment):
            call()


def test_one_truncation_and_one_solution_builder():
    # every truncation of a problem is cut in solver._reduce, at its
    # tolerances; the growth sweep's untied step truncates its core, a view
    # of M, as _reduce would.  solver.solve builds every GlraSolution
    callers = {"_truncate": set(), "GlraSolution": set()}
    for path in sorted(Path(glra.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in callers:
                        callers[name].add((path.stem, getattr(top, "name", "<module>")))
    assert callers == {
        "_truncate": {("solver", "_reduce"), ("sequences", "unboundedness_sweep")},
        "GlraSolution": {("solver", "solve")},
    }


def test_reduce_takes_known_factors_only():
    # a caller may hand over the factors of B, never those of C or the core
    assert list(inspect.signature(glra.solver._reduce).parameters) == ["p", "fb"]


def test_rank_factors_only_in_the_reduction():
    # the solver factorises B and C once per problem, in solver._reduce;
    # canonicalize and minimality_defect take V_B and U_C from it
    callers = set()
    path = Path(glra.solver.__file__)
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "rank_factors":
                    callers.add(getattr(top, "name", "<module>"))
    assert callers == {"_reduce"}


def test_sequences_cuts_only_its_operands():
    # sequences factorises only the matrices a caller hands it, a bare C
    # and the lower bound's Z (which lower_bound_constant and the sweep
    # factorise to form the sines for _lower_bound), and takes a problem's
    # C from its reduction; a chain step is built from C's factors and
    # makes no rank decision of its own
    callers = set()
    path = Path(glra.sequences.__file__)
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "rank_factors":
                    callers.add(getattr(top, "name", "<module>"))
    assert callers == {
        "_range_basis",
        "outer_inverse_chain",
        "lower_bound_constant",
        "unboundedness_sweep",
    }


def test_front_ends_leave_the_reduction_to_the_library():
    # cli and checks draw their chains from the problem with full_chain and
    # nested_chain, which take U_C from its reduction themselves; and they
    # build no regression problem of their own, so they read no private
    # name of regression
    for name in ("cli.py", "checks.py"):
        tree = ast.parse((Path(glra.__file__).parent / name).read_text())
        attributes = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
        assert "_reduce" not in {n.attr for n in attributes}
        private = [
            n.attr for n in attributes
            if isinstance(n.value, ast.Name) and n.value.id == "regression"
            and n.attr.startswith("_")
        ]
        assert private == []
        imported = [
            alias.name for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and (n.module or "").endswith("regression")
            for alias in n.names if alias.name.startswith("_")
        ]
        assert imported == []

import numpy as np
import pytest

from conftest import branch_member
from glra.linalg import (
    DEFAULT_TOL,
    InputError,
    Uniqueness,
    hs_norm,
    pinv,
    proj_kernel_perp,
    proj_range,
    truncated_svd,
)
from glra.solver import (
    GlraProblem,
    als_oracle,
    canonicalize,
    classify_uniqueness,
    minimality_defect,
    objective,
    optimal_error,
    solution_set_sample,
    solve,
    solve_adjoint,
)

ATOL = DEFAULT_TOL.check_abs


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


class TestSolve:
    def test_tied_fixture(self, tied_problem, x_branch_a, x_branch_b):
        sol = solve(tied_problem)
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        assert sol.uniqueness is Uniqueness.NON_UNIQUE
        branches = [x_branch_a, x_branch_b]
        assert any(hs_norm(sol.x_hat - x) < ATOL for x in branches)
        assert sol.minimality_defect < ATOL

    def test_identity_factors_reduce_to_truncation(self):
        m = rng(1).standard_normal((5, 4))
        p = GlraProblem(m=m, b=np.eye(5), c=np.eye(4), r=2)
        sol = solve(p)
        assert hs_norm(sol.x_hat - truncated_svd(m, 2).matrix()) < ATOL

    def test_objective_matches_oracle(self):
        p = random_problem(2)
        sol = solve(p)
        oracle = als_oracle(p, restarts=20, iters=200, seed=5)
        assert sol.objective <= oracle + 1e-6

    def test_solution_invariants(self):
        for seed in range(6):
            p = random_problem(seed, dims=(5, 4, 4, 3), r=min(2, 3))
            sol = solve(p)
            assert sol.minimality_defect < ATOL
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
        assert minimality_defect(x_branch_a, tied_problem.b, tied_problem.c) < ATOL

    def test_padded_member_defect(self, tied_problem, x_branch_a):
        x = branch_member(x_branch_a, [1.0] * 5)
        defect = minimality_defect(x, tied_problem.b, tied_problem.c)
        assert defect == pytest.approx(np.sqrt(5.0), abs=ATOL)

    def test_zero_matrix(self, tied_problem):
        assert minimality_defect(np.zeros((3, 3)), tied_problem.b, tied_problem.c) == 0.0


class TestCanonicalize:
    def test_strips_padding(self, tied_problem, x_branch_a):
        x = branch_member(x_branch_a, [3.0, -1.0, 2.0, 0.5, 7.0])
        np.testing.assert_allclose(
            canonicalize(x, tied_problem.b, tied_problem.c), x_branch_a, atol=ATOL
        )

    def test_identity_factors_change_nothing(self):
        x = rng(3).standard_normal((4, 4))
        np.testing.assert_allclose(canonicalize(x, np.eye(4), np.eye(4)), x, atol=ATOL)

    def test_idempotent(self):
        g = rng(4)
        x = g.standard_normal((4, 3))
        b = g.standard_normal((5, 4))
        c = g.standard_normal((3, 6))
        once = canonicalize(x, b, c)
        assert hs_norm(canonicalize(once, b, c) - once) < ATOL


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
        assert hs_norm(canonicalize(member, p.b, p.c) - sol.x_hat) < ATOL
        assert hs_norm(member) >= hs_norm(sol.x_hat) - ATOL


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


class TestAdjoint:
    def test_identity_factors_transpose(self):
        m = rng(7).standard_normal((4, 5))
        p = GlraProblem(m=m, b=np.eye(4), c=np.eye(5), r=2)
        adj = solve_adjoint(p)
        assert hs_norm(adj.x_hat - truncated_svd(m, 2).matrix().T) < ATOL

    def test_tied_fixture(self, tied_problem, x_branch_a, x_branch_b):
        adj = solve_adjoint(tied_problem)
        assert adj.objective == pytest.approx(1.0, abs=1e-12)
        back = canonicalize(adj.x_hat.T, tied_problem.b, tied_problem.c)
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
        assert classify_uniqueness(tied_problem) is Uniqueness.NON_UNIQUE

    def test_rank_saturation(self, tied_problem):
        p = GlraProblem(m=tied_problem.m, b=tied_problem.b, c=tied_problem.c, r=2)
        assert classify_uniqueness(p) is Uniqueness.UNIQUE_BY_RANK

    def test_gap(self):
        p = GlraProblem(m=np.diag([2.0, 1.0]), b=np.eye(2), c=np.eye(2), r=1)
        assert classify_uniqueness(p) is Uniqueness.UNIQUE_BY_GAP


class TestAlsOracle:
    def test_eckart_young_value(self):
        p = GlraProblem(m=np.diag([3.0, 2.0, 1.0]), b=np.eye(3), c=np.eye(3), r=1)
        assert als_oracle(p, restarts=10, iters=100, seed=0) == pytest.approx(
            np.sqrt(5.0), abs=1e-6
        )

    def test_exact_fit_when_rank_suffices(self):
        g = rng(8)
        m = g.standard_normal((3, 3))
        p = GlraProblem(m=m, b=g.standard_normal((3, 3)), c=g.standard_normal((3, 3)), r=3)
        assert als_oracle(p, restarts=5, iters=100, seed=0) < 1e-6

    def test_tied_fixture(self, tied_problem):
        assert als_oracle(tied_problem, restarts=10, iters=100, seed=0) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_deterministic(self, tied_problem):
        a = als_oracle(tied_problem, restarts=4, iters=30, seed=9)
        b = als_oracle(tied_problem, restarts=4, iters=30, seed=9)
        assert a == b


class TestProjectedProblemIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_split_constant(self, seed):
        from glra.linalg import proj_kernel_perp, proj_range

        p = random_problem(seed, dims=(5, 4, 3, 4), r=2)
        g_mat = proj_range(p.b) @ p.m @ proj_kernel_perp(p.c)
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
        g = proj_range(p.b) @ p.m @ proj_kernel_perp(p.c)
        tsvd = truncated_svd(g, p.r)
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


class TestRankBound:
    @pytest.mark.parametrize("r", [1.5, 2.0, "2", None])
    def test_non_integer_rejected(self, r):
        with pytest.raises(InputError):
            GlraProblem(m=np.eye(3), b=np.eye(3), c=np.eye(3), r=r)

    @pytest.mark.parametrize("r", [2, np.int64(2), np.int32(2)])
    def test_integers_accepted(self, r):
        assert GlraProblem(m=np.eye(3), b=np.eye(3), c=np.eye(3), r=r).r == 2

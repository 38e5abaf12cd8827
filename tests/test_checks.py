import inspect
from dataclasses import replace

import numpy as np
import pytest

import glra
from glra import checks, linalg, sequences, solver
from glra.linalg import (
    DEFAULT_TOL,
    InputError,
    SvdFactors,
    Tolerances,
    check_bound,
    hs_norm,
    pinv,
)


class TestInvariantResult:
    @pytest.mark.parametrize(
        "residuals", [[np.nan, 1e-16], [1e-16, np.nan]], ids=["nan-first", "nan-last"]
    )
    def test_nan_residual_is_the_maximum(self, residuals):
        res = checks.InvariantResult("x")
        for r in residuals:
            res.record(r, 1.0)
        assert res.trials == 2 and res.failures == 1
        assert np.isnan(res.max_residual)

    def test_nan_inside_one_trial(self):
        res = checks.InvariantResult("x")
        res.record_all([(1e-16, 1.0), (np.nan, 1.0), (1e-15, 1.0)])
        res.record(1e-14, 1.0)
        assert res.failures == 1 and np.isnan(res.max_residual)


class TestFixturePair:
    """The Moore-Penrose bounds scale with the stored pair, not with its units."""

    @pytest.fixture
    def pair(self):
        a = np.random.default_rng(5).standard_normal((5, 3))
        return a, pinv(a)

    @pytest.mark.parametrize("s", [1e-100, 1.0, 1e100])
    def test_true_pair_passes(self, pair, s):
        a, a_pinv = pair
        assert checks.check_fixture_pair(s * a, a_pinv / s).failures == 0

    @pytest.mark.parametrize("s", [1e-100, 1.0, 1e100])
    def test_corrupted_pair_fails(self, pair, s):
        a, a_pinv = pair
        assert checks.check_fixture_pair(s * a, 1.1 * a_pinv / s).failures == 1

    @pytest.mark.parametrize("shape", [(5, 3), (2, 3)])
    def test_pinv_of_wrong_shape_is_input_error(self, pair, shape):
        a = pair[0]
        with pytest.raises(InputError, match=r"\(3, 5\)") as info:
            checks.check_fixture_pair(a, np.ones(shape))
        assert str(shape) in str(info.value)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_all_suites_pass_beyond_the_benchmark_seed(seed):
    # the bounds' constant has a narrow window: on seeds 0-10 with 25 trials,
    # mp's Moore-Penrose residuals need CHECK_C >= 17.7, and CHECK_C <= 23.9
    # keeps every suite bound no looser than the absolute one it replaced
    report = checks.run_suites(list(checks.SUITE_NAMES), trials=10, seed=seed)
    failed = [
        f"{suite}.{res.name}" for suite, results in report.suites.items()
        for res in results if res.failures
    ]
    assert failed == []


def test_approx_minimizer_bound_is_lambda_squared(monkeypatch):
    # approximate_minimizers documents deviation_sq <= r lambda_1^2 eps^2; a
    # deviation 10% beyond it must fail although the suite's lambda_1 = 0.8
    # keeps it below r lambda_1 eps^2
    real = sequences.approximate_minimizers

    def inflated(p, epsilons, *args, **kwargs):
        res = real(p, epsilons, *args, **kwargs)
        lam1 = float(res.lambdas[0])
        steps = [
            replace(st, deviation_sq=1.1 * p.r * lam1**2 * st.epsilon**2) for st in res.steps
        ]
        return replace(res, steps=steps)

    monkeypatch.setattr(sequences, "approximate_minimizers", inflated)
    results = {res.name: res for res in checks.check_seq(trials=2, seed=0)}
    bound = results["approx_minimizer_deviation_bound"]
    assert bound.trials > 0
    assert bound.failures == bound.trials


@pytest.fixture
def rank_cut_one_short(monkeypatch):
    """rank_factors, as checks, the solver and the chain builders call it, one triplet short."""
    real = linalg.rank_factors

    def one_short(a, tol=DEFAULT_TOL):
        f = real(a, tol)
        k = max(f.sigma.size - 1, 0)
        return SvdFactors(u=f.u[:, :k], sigma=f.sigma[:k], v=f.v[:, :k])

    for module in (linalg, solver, sequences):
        monkeypatch.setattr(module, "rank_factors", one_short)


def test_duality_sees_a_wrong_rank_cut(rank_cut_one_short):
    # a library rank cut one short must fail against the reference, which
    # shares no factorisation or cutoff with rank_factors
    results = {res.name: res for res in checks.check_mp(trials=25, seed=0)}
    assert results["kernel_range_duality"].failures > 0


def test_rank_composition_sees_a_wrong_rank_cut(rank_cut_one_short):
    # rank(T A) comes from the reference, rank(A) from the library
    results = {res.name: res for res in checks.check_svd(trials=25, seed=0)}
    assert results["rank_composition"].failures > 0


def test_exhaustive_step_sees_a_wrong_rank_cut(rank_cut_one_short):
    # the library's factors of C, one triplet short, give a chain whose last
    # step misses a direction of ran(C) that the reference C^+ keeps
    results = {res.name: res for res in checks.check_seq(trials=25, seed=0)}
    assert results["exhaustive_outer_inverse_is_pinv"].failures == 25


def test_seq_factorises_each_c_once(svd_calls):
    # each trial's chain and bounded sequence share solver._reduce's factors
    # of B, C and the core (3 SVDs), and the chain's
    # 3 steps are built from C's factors with none of their own; the reference
    # C^+ takes one SVD, the sweep factorises its core, Z and the sines (3),
    # the reference lower bound Z, C, its sines and C on the intersection (4)
    # and approximate_minimizers reduces its rescaled problem (3): 14 a trial
    checks.check_seq(trials=2, seed=0)
    assert len(svd_calls) == 28


def test_seq_sees_a_wrong_lower_bound(monkeypatch):
    # the bracket's bottom sigma_rho in place of the constant: the sweep
    # runs, and only the reference lower bound tells
    real = sequences._lower_bound

    def bracket_bottom(sigma, sines, dim, tol):
        return replace(real(sigma, sines, dim, tol), constant=float(sigma[-1]))

    monkeypatch.setattr(sequences, "_lower_bound", bracket_bottom)
    report = checks.run_suites(list(checks.SUITE_NAMES), trials=25, seed=0)
    failed = {
        res.name: res.failures for results in report.suites.values()
        for res in results if res.failures
    }
    assert failed == {"lower_bound_matches_reference": 25}


@pytest.mark.parametrize(
    "func",
    [checks.run_suites, checks.check_mp, checks.check_svd, checks.check_glra, checks.check_seq,
     checks.check_rrr],
)
def test_suites_take_no_tolerances(func):
    # the library runs at DEFAULT_TOL, which the references are written against
    assert "tol" not in inspect.signature(func).parameters


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scale_law_holds_bit_for_bit(seed):
    results = {res.name: res for res in checks.check_glra(trials=25, seed=seed)}
    law = results["scale_equivariance_exact"]
    assert (law.trials, law.failures, law.max_residual) == (25, 0, 0.0)


def test_scale_law_sees_a_scale_blind_cutoff(monkeypatch):
    # a cutoff rank_rel * dim, without sigma_1, cuts (2^a M, 2^b B, 2^c C)
    # where it does not cut (M, B, C); no other invariant of the suite
    # scales its inputs, so the exact law alone tells
    monkeypatch.setattr(linalg, "_cutoff", lambda scale, dim, tol: tol.rank_rel * dim)
    failed = {res.name for res in checks.check_glra(trials=25, seed=0) if res.failures}
    assert failed == {"scale_equivariance_exact"}


@pytest.mark.parametrize("suite", [checks.check_glra, checks.check_seq])
def test_member_optimality_sees_a_wrong_rank_cut(rank_cut_one_short, suite):
    # a member sampled with B and C cut one short misses the optimum, which
    # objective computes without a rank decision
    results = {res.name: res for res in suite(trials=25, seed=0)}
    assert results["solution_set_member_is_optimal"].failures == 25


def test_member_optimality_sees_a_wrong_cut_of_the_identity(monkeypatch):
    # the seq suite's B is the identity; cut one short, it fails no other
    # invariant, and its C, whose factors feed the chain, is cut right
    real = linalg.rank_factors

    def identity_one_short(a, tol=DEFAULT_TOL):
        f = real(a, tol)
        if not np.array_equal(a, np.eye(*np.shape(a))):
            return f
        k = f.sigma.size - 1
        return SvdFactors(u=f.u[:, :k], sigma=f.sigma[:k], v=f.v[:, :k])

    for module in (linalg, solver):
        monkeypatch.setattr(module, "rank_factors", identity_one_short)
    results = {res.name: res for res in checks.check_seq(trials=25, seed=0)}
    assert results["solution_set_member_is_optimal"].failures == 25
    assert results["exhaustive_outer_inverse_is_pinv"].failures == 0


def _loop_oracle(p, restarts, iters, seed):
    """The oracle one restart at a time, with the stopping rule 1e-13 (1 + obj)."""
    tol = Tolerances(rank_rel=1e-12)
    rng = np.random.default_rng(seed)
    pp, qq = p.x_shape
    r = min(p.r, pp, qq)
    b_pinv = pinv(p.b, tol)
    c_pinv = pinv(p.c, tol)
    best = np.inf
    for _ in range(restarts):
        u = rng.standard_normal((pp, r))
        v = rng.standard_normal((qq, r))
        prev = np.inf
        for _ in range(iters):
            u = b_pinv @ p.m @ pinv(v.T @ p.c, tol)
            lhs = p.b @ u
            v = (pinv(lhs, tol) @ p.m @ c_pinv).T
            obj = hs_norm(p.m - lhs @ v.T @ p.c)
            if abs(prev - obj) <= 1e-13 * (1.0 + obj):
                break
            prev = obj
        best = min(best, hs_norm(p.m - p.b @ u @ v.T @ p.c))
    return float(best)


def _suite_draws(count=40):
    rng = np.random.default_rng(0)
    return [checks.random_problem(rng, deficient=(k % 3 == 0)) for k in range(count)]


class TestAlsOracle:
    """The batched oracle against the loop it replaced, under scaling, and alone."""

    def test_equals_one_restart_at_a_time(self):
        worst = max(
            abs(checks.als_oracles([p], 6, 80, [k])[0] - _loop_oracle(p, 6, 80, k)) / hs_norm(p.m)
            for k, p in enumerate(_suite_draws())
        )
        assert worst <= 1e-12

    def test_equals_one_restart_at_a_time_on_the_rrr_suite(self, monkeypatch):
        # the transposed problems of the identity-weight fits, as check_rrr
        # hands them to the batch, with their seeds
        calls = []
        real = checks.als_oracles

        def recording(problems, restarts, iters, seeds):
            calls.extend(zip(problems, seeds))
            return real(problems, restarts, iters, seeds)

        monkeypatch.setattr(checks, "als_oracles", recording)
        checks.check_rrr(trials=25, seed=0)
        monkeypatch.undo()
        worst = max(
            abs(checks.als_oracles([p], 6, 80, [k])[0] - _loop_oracle(p, 6, 80, k)) / hs_norm(p.m)
            for p, k in calls
        )
        assert len(calls) == 25
        assert worst <= 1e-12

    @pytest.mark.parametrize("suite", [checks.check_svd, checks.check_glra, checks.check_rrr])
    def test_suites_hand_over_bounded_batches(self, monkeypatch, suite):
        # memory does not grow with the trial count: ten trials go as 4, 4
        # and 2 problems, and the report is that of a single batch, up to
        # the rounding of the padding
        whole = suite(trials=10, seed=0)
        sizes = []
        real = checks.als_oracles

        def recording(problems, *args):
            sizes.append(len(problems))
            return real(problems, *args)

        monkeypatch.setattr(checks, "als_oracles", recording)
        monkeypatch.setattr(checks, "ORACLE_BATCH", 4)
        parts = suite(trials=10, seed=0)
        assert sizes == [4, 4, 2]
        assert [(r.name, r.trials, r.failures) for r in parts] == [
            (r.name, r.trials, r.failures) for r in whole
        ]
        assert [r.max_residual for r in parts] == pytest.approx(
            [r.max_residual for r in whole], rel=1e-3, abs=1e-15
        )

    def test_batch_equals_each_problem_alone(self):
        # every member is zero-padded to the batch's largest shapes, and cut
        # and stopped by the rules of its own
        draws = _suite_draws(40)
        batch = checks.als_oracles(draws, 6, 80, list(range(40)))
        worst = max(
            abs(value - checks.als_oracles([p], 6, 80, [k])[0]) / hs_norm(p.m)
            for k, (p, value) in enumerate(zip(draws, batch))
        )
        assert worst <= 1e-12

    def test_zero_member_leaves_its_neighbours(self):
        draws = _suite_draws(3)
        zero = solver.GlraProblem(m=np.zeros((7, 2)), b=np.ones((7, 3)), c=np.eye(2), r=2)
        alone = checks.als_oracles(draws, 6, 80, [0, 1, 2])
        assert checks.als_oracles([draws[0], zero, *draws[1:]], 6, 80, [0, 9, 1, 2]) == [
            alone[0], 0.0, *alone[1:]
        ]

    @pytest.mark.parametrize("count", [1, 4])
    def test_takes_two_stacked_svds_a_step(self, svd_calls, count):
        # B^+ and C^+ once, then per step one SVD of the stack A = V^T C and
        # one of L = B U, however many problems the batch holds; draws 1, 4,
        # 7 and 8, seeded with their index, run all six restarts through
        # three steps
        picks = [1, 4, 7, 8][:count]
        draws = _suite_draws(9)
        checks.als_oracles([draws[k] for k in picks], 6, 3, picks)
        assert len(svd_calls) == 2 + 2 * 3
        assert [shape[0] for shape, _, _ in svd_calls] == [count] * 2 + [6 * count] * (2 * 3)

    # draws 1 and 30 stop early under the rule 1e-13 (1 + obj) at s = 1e-8,
    # by 1e5 and 5e6 times the bound
    @pytest.mark.parametrize("draw", [1, 30])
    @pytest.mark.parametrize("s", [1e-8, 1e8])
    def test_scaled_target_stays_within_the_bound(self, draw, s):
        p = _suite_draws(draw + 1)[draw]
        q = solver.GlraProblem(m=s * p.m, b=p.b, c=p.c, r=p.r)
        sol = solver.solve(q)
        dim = max(q.m.shape + q.b.shape + q.c.shape)
        op_scale = hs_norm(q.m) + hs_norm(q.b) * hs_norm(sol.x_hat) * hs_norm(q.c)
        gap = abs(checks.als_oracles([q], 6, 80, [draw])[0] - sol.objective)
        assert gap <= check_bound(dim, op_scale)

    def test_tiny_target_does_not_underflow(self):
        p = solver.GlraProblem(m=1e-200 * np.eye(3), b=np.eye(3), c=np.eye(3), r=1)
        assert checks.als_oracles([p], 4, 60, [0])[0] == pytest.approx(
            np.sqrt(2.0) * 1e-200, rel=1e-12, abs=0.0
        )

    def test_zero_target(self):
        p = solver.GlraProblem(m=np.zeros((3, 2)), b=np.eye(3), c=np.eye(2), r=1)
        assert checks.als_oracles([p], 20, 200, [0])[0] == 0.0

    def test_needs_no_library_factorisation(self, monkeypatch):
        draws = _suite_draws(4)
        expected = checks.als_oracles(draws, 6, 80, [0, 1, 2, 3])
        alone = checks.als_oracles([draws[0]], 6, 80, [0])[0]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the library")

        for owner in (glra, linalg, solver):
            for name in ("pinv", "rank_factors"):
                if hasattr(owner, name):
                    monkeypatch.setattr(owner, name, refuse)
        assert checks.als_oracles(draws, 6, 80, [0, 1, 2, 3]) == expected
        assert checks.als_oracles([draws[0]], 6, 80, [0])[0] == alone

    @pytest.mark.parametrize("restarts, iters", [(0, 5), (3, 0)])
    def test_rejects_empty_search(self, restarts, iters):
        with pytest.raises(InputError):
            checks.als_oracles([_suite_draws(1)[0]], restarts, iters, [0])[0]


@pytest.mark.parametrize("trials", [0, -3])
def test_run_suites_rejects_no_trials(trials):
    with pytest.raises(InputError):
        checks.run_suites(["mp"], trials=trials, seed=0)


def test_unknown_suite_rejected():
    with pytest.raises(InputError, match="unknown suite 'nope'"):
        checks.run_suites(["nope"], trials=1, seed=0)

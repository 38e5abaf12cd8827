from dataclasses import replace

import numpy as np
import pytest

from glra import checks, sequences
from glra.linalg import DEFAULT_TOL, pinv


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
    results = {res.name: res for res in checks.check_seq(trials=2, seed=0, tol=DEFAULT_TOL)}
    bound = results["approx_minimizer_deviation_bound"]
    assert bound.trials > 0
    assert bound.failures == bound.trials

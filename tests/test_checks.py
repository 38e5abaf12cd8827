import numpy as np
import pytest

from glra import checks
from glra.linalg import pinv


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

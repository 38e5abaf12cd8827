"""A mutation matrix for ``glra check``: named faults and the invariants that see them.

Each row of MUTANTS is a fault put into the library by monkeypatching
one of its functions, and the kills it must show when every suite runs
at TRIALS trials from seed 0: an invariant that fails at least once, as
"suite.invariant", or a suite that raises, as "suite raises <exception>".
A row lists every kill its mutant has, so an invariant that leaves a
suite, or one that starts to see a fault, changes the table.  UNKILLED
lists the invariants that no row kills.  SURVIVORS lists the faults that
no invariant sees yet, with the reason; they are not run, and nothing
asserts that they survive.  (DeMillo, Lipton & Sayward, "Hints on test
data selection", Computer 11(4), 1978.)
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from glra import checks, cli, linalg, regression, sequences, solver
from glra.linalg import SvdFactors

TRIALS = 10
SEED = 0
# a relative error far above rounding, and far below what any answer's
# size would show by eye
NUDGE = 1.0 + 1e-6


def _swap(monkeypatch, name: str, make: Callable[[Callable], Callable]) -> None:
    """Put make(real) for the function ``name`` in every glra module that holds it."""
    real = next(
        getattr(m, name) for m in (linalg, solver, sequences, regression) if hasattr(m, name)
    )
    fake = make(real)
    for module in (linalg, solver, sequences, regression, checks, cli):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, fake)


def rank_one_short(real):
    return lambda sigma, shape, tol: max(real(sigma, shape, tol) - 1, 0)


def rank_one_long(real):
    return lambda sigma, shape, tol: min(real(sigma, shape, tol) + 1, sigma.size)


def psd_one_short(real):
    def mutant(a, tol):
        f, kernel = real(a, tol)
        k = max(f.sigma.size - 1, 0)
        cut = SvdFactors(u=f.u[:, :k], sigma=f.sigma[:k], v=f.v[:, :k])
        return cut, np.hstack([f.u[:, k:], kernel])

    return mutant


def minimiser_without_sigma(real):
    return lambda fb, fc, f: real(fb, fc, replace(f, sigma=np.ones_like(f.sigma)))


def x_hat_apart_from_its_factors(real):
    def mutant(x):
        x_hat, left, right = real(x)
        return x_hat * NUDGE, left, right

    return mutant


def pinv_nudged(real):
    return lambda f: real(f) * NUDGE


def pinv_plus_off_range(real):
    # + (V S^-1 1) n^T with n, the part of e_1 outside ran(A), in ker(A^T):
    # A A^+ loses its symmetry, and the other three equations still hold
    def mutant(f):
        n = np.eye(f.u.shape[0])[0] - f.u @ f.u[0]
        return real(f) + np.outer(f.v @ (1.0 / f.sigma), n)

    return mutant


def pinv_plus_in_kernel(real):
    # + n' (U S^-1 1)^T with n', the part of e_1 outside ker(A)-perp, in
    # ker(A): A^+ A loses its symmetry, and the other three equations still hold
    def mutant(f):
        n = np.eye(f.v.shape[0])[0] - f.v @ f.v[0]
        return real(f) + np.outer(n, f.u @ (1.0 / f.sigma))

    return mutant


def svd_first_left_vector_flipped(real):
    # the right vector is left as it is, so U S V^T is no longer A
    def mutant(arr):
        f = real(arr)
        u = f.u.copy()
        u[:, :1] *= -1.0
        return replace(f, u=u)

    return mutant


def delta_unsquared(real):
    return lambda t: float(np.sum(t.factors.sigma))


def residual_norm_nudged(real):
    return lambda *args, **kwargs: real(*args, **kwargs) * NUDGE


def probe_reads_next_column(real):
    return lambda n, probes, x, predicted: real(n, probes, x[:, 1:], predicted)


def canonicalize_nudged(real):
    return lambda x, p: real(x, p) * NUDGE


def sample_inside_ker_b_perp(real):
    # the T term keeps its part in ker(B)-perp = span V_B, so the member
    # leaves the solution set
    def mutant(sol, p, t, s):
        vb = solver._reduce(p)[0].v
        return real(sol, p, t, s) + vb @ (vb.T @ np.asarray(t, dtype=float))

    return mutant


def outer_inverses_nudged(real):
    return lambda fc, chain: [
        replace(step, c_sharp=step.c_sharp * NUDGE) for step in real(fc, chain)
    ]


def first_two_steps_swapped(real):
    def mutant(fc, chain):
        steps = real(fc, chain)
        return steps[1::-1] + steps[2:]

    return mutant


def mse_monte_carlo_nudged(real):
    return lambda model, samples: real(model, samples) * NUDGE


def approximate_at_one_and_a_half_eps(real):
    # the steps are taken at 1.5 eps and labelled eps
    def mutant(p, epsilons, seed=0):
        seq = real(p, [1.5 * eps for eps in epsilons], seed)
        return replace(
            seq, steps=[replace(st, epsilon=float(eps)) for st, eps in zip(seq.steps, epsilons)]
        )

    return mutant


def adjoint_at_rank_one(real):
    return lambda p: real(replace(p, r=1))


def lower_bound_at_sigma_rho(real):
    return lambda fc, z, tol: replace(real(fc, z, tol), constant=float(fc.sigma[-1]))


class Mutant(NamedTuple):
    name: str
    target: str
    make: Callable[[Callable], Callable]
    kills: frozenset[str]


def _m(name, target, make, *kills):
    return Mutant(name, target, make, frozenset(kills))


MUTANTS = [
    _m("rank-one-short", "_rank", rank_one_short,
       "mp.moore_penrose_eq1", "mp.projector_consistency", "mp.kernel_range_duality",
       "svd.truncation_residual_identity", "svd.eckart_young_vs_oracle", "svd.rank_composition",
       "glra.solve_beats_als_oracle", "glra.solution_set_member_is_optimal",
       "glra.optimal_error_consistency",
       "seq raises NumericalError",
       "rrr.half_power_range_identity", "rrr.fit_beats_als_oracle"),
    _m("rank-one-long", "_rank", rank_one_long,
       "mp.moore_penrose_eq1", "mp.moore_penrose_eq2", "glra.optimal_error_consistency",
       "rrr.fit_beats_als_oracle"),
    _m("psd-factors-one-short", "_psd_factors", psd_one_short,
       "svd.psd_sqrt_squares_back", "rrr.half_power_range_identity", "rrr.fit_beats_als_oracle",
       "rrr.kernel_of_half_power"),
    _m("minimiser-without-sigma-k", "_minimiser", minimiser_without_sigma,
       "glra.solution_reconstructs_truncation", "glra.solve_beats_als_oracle",
       "glra.optimal_error_consistency", "glra.scale_equivariance_exact",
       "rrr.fit_beats_als_oracle"),
    _m("x-hat-apart-from-its-factors", "_x_hat", x_hat_apart_from_its_factors,
       "glra.solution_reconstructs_truncation", "glra.solution_set_member_is_optimal",
       "seq raises NumericalError", "rrr.fit_beats_als_oracle"),
    _m("pinv-nudged", "_pinv", pinv_nudged,
       "mp.moore_penrose_eq1", "mp.moore_penrose_eq2", "mp.projector_consistency",
       "rrr.half_power_range_identity", "rrr.fit_beats_als_oracle"),
    _m("pinv-plus-off-range", "_pinv", pinv_plus_off_range,
       "mp.moore_penrose_eq3"),
    _m("pinv-plus-in-kernel", "_pinv", pinv_plus_in_kernel,
       "mp.moore_penrose_eq4", "mp.projector_consistency",
       "rrr.cross_covariance_factorisation"),
    _m("svd-first-left-vector-flipped", "_svd", svd_first_left_vector_flipped,
       "mp.moore_penrose_eq1", "mp.moore_penrose_eq2", "mp.projector_consistency",
       "svd.svd_reconstruction", "svd.truncation_residual_identity",
       "svd.eckart_young_vs_oracle",
       "glra.solution_reconstructs_truncation", "glra.solve_beats_als_oracle",
       "glra.optimal_error_consistency",
       "seq raises NumericalError",
       "rrr.half_power_range_identity", "rrr.fit_beats_als_oracle"),
    _m("delta-unsquared", "_delta", delta_unsquared,
       "glra.optimal_error_consistency"),
    _m("residual-norm-nudged", "_residual_norm", residual_norm_nudged,
       "glra.projected_problem_identity", "glra.solve_beats_als_oracle",
       "glra.optimal_error_consistency"),
    _m("canonicalize-nudged", "canonicalize", canonicalize_nudged,
       "glra.canonicalize_round_trip"),
    _m("adjoint-at-rank-one", "solve_adjoint", adjoint_at_rank_one,
       "glra.adjoint_objective_equality"),
    _m("probe-reads-next-column", "_probe_rows", probe_reads_next_column,
       "seq.sweep_matches_growth_law"),
    _m("sample-inside-ker-b-perp", "solution_set_sample", sample_inside_ker_b_perp,
       "glra.minimality_within_family", "glra.canonicalize_round_trip",
       "glra.solution_set_member_is_optimal", "seq.sampled_solutions_dominate_canonical",
       "seq.solution_set_member_is_optimal"),
    _m("outer-inverses-nudged", "_outer_inverse_chain", outer_inverses_nudged,
       "seq.outer_inverse_identity", "seq.outer_inverse_equals_projected_pinv",
       "seq.exhaustive_outer_inverse_is_pinv", "seq.bounded_step_product_identity"),
    _m("first-two-steps-swapped", "_outer_inverse_chain", first_two_steps_swapped,
       "seq.tail_error_monotone"),
    _m("approximate-at-one-and-a-half-eps", "approximate_minimizers",
       approximate_at_one_and_a_half_eps,
       "seq.approx_minimizer_deviation_bound"),
    _m("lower-bound-at-sigma-rho", "_lower_bound", lower_bound_at_sigma_rho,
       "seq.lower_bound_matches_reference"),
    _m("mse-monte-carlo-nudged", "mse_monte_carlo", mse_monte_carlo_nudged,
       "rrr.trace_equals_monte_carlo"),
]

# The invariants that no row kills: the first candidates for removal,
# or for a mutant of their own.  Every invariant has a kill now.
UNKILLED: frozenset[str] = frozenset()

SURVIVORS = {
    "tied-always": (
        "_tied forced to True flags every truncation NON_UNIQUE; no invariant "
        "compares the flag with a decision of its own"
    ),
    "tied-never": (
        "_tied forced to False flags no truncation NON_UNIQUE, for the same reason"
    ),
}


def kills(trials: int = TRIALS, seed: int = SEED) -> set[str]:
    """Every kill of the library as it stands: failing invariants and suites that raise."""
    found = set()
    for name in checks.SUITE_NAMES:
        try:
            report = checks.run_suites([name], trials=trials, seed=seed)
        except Exception as exc:  # a suite that raises has seen the fault
            found.add(f"{name} raises {type(exc).__name__}")
            continue
        found.update(f"{name}.{res.name}" for res in report.suites[name] if res.failures)
    return found


def test_the_library_as_it_stands_fails_nothing():
    assert kills() == set()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_has_its_kills(monkeypatch, mutant):
    _swap(monkeypatch, mutant.target, mutant.make)
    assert kills() == mutant.kills


def test_unkilled_invariants_are_listed():
    report = checks.run_suites(list(checks.SUITE_NAMES), trials=1, seed=SEED)
    names = {f"{suite}.{res.name}" for suite, results in report.suites.items() for res in results}
    killed = set().union(*(m.kills for m in MUTANTS))
    assert UNKILLED == names - killed
    assert UNKILLED <= names


def test_rows_and_survivors_are_named_once():
    names = [m.name for m in MUTANTS] + list(SURVIVORS)
    assert len(names) == len(set(names))

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
criterion is also a separate test so ``pytest -v`` gives one verdict per
criterion.
"""

import time

import numpy as np

from conftest import branch_member, identity_truncation
from glra import checks
from glra.checks import _ref_projectors, als_oracles
from glra.linalg import hs_norm, pinv
from glra.regression import (
    SampleSet,
    empirical_covariances,
    fit,
    maximal_kernel_check,
    mse_monte_carlo,
    mse_trace,
)
from glra.sequences import (
    SequenceSpec,
    SubspaceChain,
    approximate_minimizers,
    bounded_approximation_sequence,
    build_instance,
    outer_inverse_chain,
    unboundedness_sweep,
)
from glra.solver import (
    GlraProblem,
    minimality_defect,
    objective,
    optimal_error,
    solution_set_sample,
    solve,
    solve_adjoint,
)
from glra.linalg import psd_sqrt


def _verdict(num, text, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {text}")
    assert ok, f"acceptance {num}: {text}"


def test_01_two_branch_fixture(tied_problem, x_branch_a, x_branch_b):
    started = time.perf_counter()
    sol = solve(tied_problem)
    ok = abs(sol.objective - 1.0) <= 1e-12
    ok &= sol.uniqueness.value == "NonUnique"
    # both canonical tie-branch minimisers, assembled from the two optimal
    # rank-1 truncations of the projected matrix (the 2x2 identity)
    bp = pinv(tied_problem.b)
    cp = pinv(tied_problem.c)
    x_a = bp @ np.diag([1.0, 0.0]) @ cp
    x_b = bp @ np.diag([0.0, 1.0]) @ cp
    norms = sorted([hs_norm(x_a), hs_norm(x_b)])
    ok &= abs(norms[0] - 1.0) <= 1e-12 and abs(norms[1] - 4.0) <= 1e-12
    ok &= hs_norm(sol.x_hat - x_a) < 1e-10 or hs_norm(sol.x_hat - x_b) < 1e-10
    for x in (x_a, x_b):
        ok &= minimality_defect(x, tied_problem) < 1e-10
    rng = np.random.default_rng(0)
    for _ in range(20):
        member = solution_set_sample(
            sol,
            tied_problem,
            rng.standard_normal((3, 3)),
            rng.standard_normal((3, 3)),
        )
        ok &= abs(objective(tied_problem, member) - 1.0) <= 1e-10
    for alpha in ([1.0, 2.0, 3.0, 4.0, 5.0], [0.5] * 5):
        ok &= (
            abs(objective(tied_problem, branch_member(x_branch_a, alpha)) - 1.0)
            <= 1e-10
        )
        ok &= (
            abs(objective(tied_problem, branch_member(x_branch_b, alpha)) - 1.0)
            <= 1e-10
        )
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    _verdict(1, f"two-branch fixture (norms 1 and 4, objective 1, {elapsed:.2f}s)", ok)


def test_02_moore_penrose_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(200):
        a = checks.random_matrix(rng, max_dim=12, deficient=(k % 3 == 0))
        ap = pinv(a)
        worst = max(
            worst,
            hs_norm(a @ ap @ a - a),
            hs_norm(ap @ a @ ap - ap),
            hs_norm((a @ ap) - (a @ ap).T),
            hs_norm((ap @ a) - (ap @ a).T),
        )
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 5.0
    _verdict(2, f"Moore-Penrose suite (200 matrices, worst {worst:.2e}, {elapsed:.2f}s)", ok)


def test_03_optimal_error_consistency():
    rng = np.random.default_rng(3)
    worst_spread = 0.0
    worst_identity = 0.0
    for k in range(100):
        p = checks.random_problem(rng, max_dim=6, max_rank=3)
        res = optimal_error(p)
        values = (res.delta,) + res.delta_variants
        worst_spread = max(
            worst_spread, max(abs(a - b) for a in values for b in values)
        )
        sol = solve(p)
        worst_identity = max(
            worst_identity, abs(sol.objective**2 + res.delta - hs_norm(p.m) ** 2)
        )
    ok = worst_spread < 1e-10 and worst_identity < 1e-10
    _verdict(
        3,
        f"optimal-error consistency (spread {worst_spread:.2e}, identity {worst_identity:.2e})",
        ok,
    )


def test_04_oracle_optimality():
    rng = np.random.default_rng(4)
    worst_gap = -np.inf
    for k in range(50):
        p = checks.random_problem(rng, max_dim=6, max_rank=2)
        sol = solve(p)
        oracle = als_oracles([p], 20, 200, [1000 + k])[0]
        worst_gap = max(worst_gap, sol.objective - oracle)
    worst_ey = 0.0
    for k in range(10):
        m = rng.standard_normal((int(rng.integers(2, 7)), int(rng.integers(2, 7))))
        r = int(rng.integers(1, 3))
        p = GlraProblem(m=m, b=np.eye(m.shape[0]), c=np.eye(m.shape[1]), r=r)
        sigma = np.linalg.svd(m, compute_uv=False)
        expected = float(np.sqrt(np.sum(sigma[r:] ** 2)))
        worst_ey = max(worst_ey, abs(solve(p).objective - expected))
    ok = worst_gap <= 1e-6 and worst_ey <= 1e-10
    _verdict(
        4,
        f"oracle optimality (gap {worst_gap:.2e}, Eckart-Young dev {worst_ey:.2e})",
        ok,
    )


def test_05_unboundedness_growth_law():
    spec = SequenceSpec(
        gamma_exponent=2.0, alpha_exponent=1.0, mu_head=(1.0, 0.5), n=200, r=1
    )
    sweep = unboundedness_sweep(spec, [200], [10, 50, 100])
    worst = max(
        abs(row.norm * sweep.w_norms[row.n] / row.m - 1.0) for row in sweep.rows
    )
    ok = worst <= 1e-8
    tie_sweep = unboundedness_sweep(
        SequenceSpec(gamma_exponent=2.0, alpha_exponent=1.0, mu_head=(1.0, 1.0), n=200, r=1),
        [200],
        [10, 50, 100],
    )
    ok &= tie_sweep.tie
    bounded_norms = [row.norm for row in tie_sweep.bounded_rows]
    ok &= max(bounded_norms) - min(bounded_norms) <= 1e-12  # constant over probes
    _verdict(5, f"growth law at N=200 (worst relative dev {worst:.2e}; tied branch flat)", ok)


def test_06_outer_inverse_convergence():
    spec = SequenceSpec(
        gamma_exponent=2.0, alpha_exponent=1.0, mu_head=(2.0, 1.0), n=50, r=1
    )
    inst = build_instance(spec)
    chain = SubspaceChain(bases=tuple(np.eye(50)[:, :k] for k in range(1, 51)))
    outer = outer_inverse_chain(inst.problem.c, chain)
    worst_outer = max(
        hs_norm(st.c_sharp @ inst.problem.c @ st.c_sharp - st.c_sharp) for st in outer
    )
    res = bounded_approximation_sequence(inst.problem, chain)
    g_r = solve(inst.problem).truncation.matrix()
    pk = _ref_projectors(inst.problem.c)[1]
    worst_tail_identity = 0.0
    for st in res.steps:
        q = st.outer.x_basis @ st.outer.x_basis.T
        evals, evecs = np.linalg.eigh(pk - q)
        tail_basis = evecs[:, evals > 0.5]
        tail_sum = float(
            sum(
                np.linalg.norm(g_r @ tail_basis[:, i]) ** 2
                for i in range(tail_basis.shape[1])
            )
        )
        worst_tail_identity = max(worst_tail_identity, abs(tail_sum - st.tail_error))
    tails = [st.tail_error for st in res.steps]
    nonincreasing = all(tails[i + 1] <= tails[i] + 1e-10 for i in range(len(tails) - 1))
    ok = (
        worst_outer <= 1e-10
        and worst_tail_identity <= 1e-10
        and nonincreasing
        and abs(tails[-1]) <= 1e-10
    )
    _verdict(
        6,
        "outer-inverse convergence (50-step chain, identities "
        f"{worst_outer:.2e}/{worst_tail_identity:.2e}, final tail {tails[-1]:.2e})",
        ok,
    )


def test_07_approximate_minimizers():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((7, 6))
    p0 = GlraProblem(
        m=m, b=rng.standard_normal((7, 5)), c=rng.standard_normal((6, 6)), r=2
    )
    scale = 0.9 / solve(p0).truncation.factors.sigma[0]
    p = GlraProblem(m=m * scale, b=p0.b, c=p0.c, r=2)
    epsilons = [1.0 / n for n in range(1, 21)]
    seq = approximate_minimizers(p, epsilons, seed=7)
    lam1 = float(seq.lambdas[0])
    ok = lam1 <= 1.0
    worst_defect = 0.0
    for step in seq.steps:
        ok &= step.deviation_sq <= p.r * lam1 * step.epsilon**2
        worst_defect = max(worst_defect, minimality_defect(step.x, p))
    ok &= worst_defect < 1e-10
    _verdict(
        7,
        f"approximate minimisers (bound r*lambda1/n^2 held for n=1..20, defect {worst_defect:.2e})",
        ok,
    )


def test_08_regression_identities():
    rng = np.random.default_rng(8)
    ok = True
    worst_agree = 0.0
    worst_formula = 0.0
    worst_gap = -np.inf
    for k in range(5):
        dim_f = int(rng.integers(2, 9))
        dim_g = int(rng.integers(2, 9))
        count = 500
        ys = rng.standard_normal((count, dim_g))
        xs = ys @ rng.standard_normal((dim_g, dim_f)) + 0.3 * rng.standard_normal(
            (count, dim_f)
        )
        samples = SampleSet(xs=xs, ys=ys)
        cov = empirical_covariances(samples)
        r = int(rng.integers(1, min(dim_f, dim_g) + 1))
        model = fit(cov, r)
        worst_agree = max(
            worst_agree, abs(mse_trace(model, cov) - mse_monte_carlo(model, samples))
        )
        half = psd_sqrt(cov.c_y)
        # the transposed problem the identity-weight fit solves
        prob = GlraProblem(m=pinv(half) @ cov.c_yx, b=half, c=np.eye(dim_f), r=r)
        oracle = als_oracles([prob], 20, 200, [800 + k])[0]
        const = hs_norm(psd_sqrt(cov.c_x)) ** 2 - hs_norm(prob.m) ** 2
        worst_gap = max(
            worst_gap, model.fit_report.objective_mse - (const + oracle**2)
        )
        target = _ref_projectors(half)[0] @ pinv(half) @ cov.c_yx
        direct = (pinv(half) @ identity_truncation(target, r).matrix()).T
        weighted = fit(
            cov, r, weights=(np.eye(dim_f), np.eye(dim_f), np.eye(dim_g))
        )
        worst_formula = max(
            worst_formula,
            float(np.max(np.abs(weighted.a_hat - direct))),
        )
    ok &= worst_agree <= 1e-10 and worst_gap <= 1e-6 and worst_formula <= 1e-12
    _verdict(
        8,
        "regression identities (trace=MC "
        f"{worst_agree:.2e}, oracle gap {worst_gap:.2e}, formula dev {worst_formula:.2e})",
        ok,
    )


def test_09_maximal_kernel():
    rng = np.random.default_rng(9)
    latent = rng.standard_normal((500, 3))
    ys = latent @ rng.standard_normal((3, 6))
    xs = ys @ rng.standard_normal((6, 4)) + 0.1 * rng.standard_normal((500, 4))
    samples = SampleSet(xs=xs, ys=ys)
    cov = empirical_covariances(samples)
    model = fit(cov, r=2)
    report = maximal_kernel_check(model, cov, trials=50, seed=9)
    ok = (
        report.passed
        and report.kernel_dim == 3
        and report.annihilation_residual < 1e-10
        and report.max_mse_deviation <= 1e-10
        and report.min_shrink_norm > 1e-10
    )
    _verdict(
        9,
        "maximal kernel (50 perturbations, annihilation "
        f"{report.annihilation_residual:.2e}, mse dev {report.max_mse_deviation:.2e})",
        ok,
    )


def test_10_adjoint_equality():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        p = checks.random_problem(rng, max_dim=6, max_rank=3)
        worst = max(worst, abs(solve(p).objective - solve_adjoint(p).objective))
    ok = worst <= 1e-10
    _verdict(10, f"adjoint equality (50 problems, worst {worst:.2e})", ok)

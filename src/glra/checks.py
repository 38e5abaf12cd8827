"""Seeded invariant suites behind the ``check`` command.

Each suite draws random instances and verifies identities that hold in
exact arithmetic (Moore-Penrose equations, projector algebra, truncation
residuals, solver optimality against the alternating-least-squares
oracle, covariance factorisations).  Results are per-invariant pass
counts with the worst residual seen, so a report is reproducible from
the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg, regression, sequences, solver
from .linalg import DEFAULT_TOL, Tolerances, hs_norm

__all__ = ["CheckReport", "InvariantResult", "SUITE_NAMES", "check_fixture_pair", "run_suites"]

SUITE_NAMES = ("mp", "svd", "glra", "seq", "rrr")

ORACLE_SLACK = 1e-6


@dataclass
class InvariantResult:
    name: str
    trials: int = 0
    failures: int = 0
    max_residual: float = 0.0

    def record(self, residual: float, bound: float) -> None:
        self.trials += 1
        self.max_residual = max(self.max_residual, residual)
        if not residual <= bound:
            self.failures += 1


@dataclass(frozen=True)
class CheckReport:
    suites: dict[str, list[InvariantResult]]

    @property
    def passed(self) -> bool:
        return all(r.failures == 0 for results in self.suites.values() for r in results)


def random_matrix(rng: np.random.Generator, max_dim: int = 12, deficient: bool = False) -> np.ndarray:
    rows = int(rng.integers(1, max_dim + 1))
    cols = int(rng.integers(1, max_dim + 1))
    if deficient and min(rows, cols) > 1:
        inner = int(rng.integers(1, min(rows, cols)))
        return rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
    return rng.standard_normal((rows, cols))


def random_problem(
    rng: np.random.Generator, max_dim: int = 6, max_rank: int = 2, deficient: bool = False
) -> solver.GlraProblem:
    m_rows = int(rng.integers(2, max_dim + 1))
    n_cols = int(rng.integers(2, max_dim + 1))
    p_cols = int(rng.integers(2, max_dim + 1))
    q_rows = int(rng.integers(2, max_dim + 1))
    b = rng.standard_normal((m_rows, p_cols))
    c = rng.standard_normal((q_rows, n_cols))
    if deficient:
        if p_cols > 1:
            b[:, -1] = b[:, 0]
        if q_rows > 1:
            c[-1, :] = c[0, :]
    return solver.GlraProblem(
        m=rng.standard_normal((m_rows, n_cols)),
        b=b,
        c=c,
        r=int(rng.integers(1, max_rank + 1)),
    )


def check_mp(trials: int, seed: int, tol: Tolerances) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    eq = [InvariantResult(f"moore_penrose_eq{i}") for i in range(1, 5)]
    proj = InvariantResult("projector_consistency")
    dual = InvariantResult("kernel_range_duality")
    for k in range(trials):
        a = random_matrix(rng, deficient=(k % 3 == 0))
        a_pinv = linalg.pinv(a, tol)
        eq[0].record(hs_norm(a @ a_pinv @ a - a), tol.check_abs)
        eq[1].record(hs_norm(a_pinv @ a @ a_pinv - a_pinv), tol.check_abs)
        eq[2].record(hs_norm((a @ a_pinv) - (a @ a_pinv).T), tol.check_abs)
        eq[3].record(hs_norm((a_pinv @ a) - (a_pinv @ a).T), tol.check_abs)
        pk = linalg.proj_kernel_perp(a, tol)
        pr = linalg.proj_range(a, tol)
        proj.record(
            max(hs_norm(pk - a_pinv @ a), hs_norm(pr @ a - a)), tol.check_abs
        )
        dual.record(hs_norm(linalg.proj_range(a.T, tol) - pk), tol.check_abs)
    return eq + [proj, dual]


def check_svd(trials: int, seed: int, tol: Tolerances) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    recon = InvariantResult("svd_reconstruction")
    residual = InvariantResult("truncation_residual_identity")
    eckart = InvariantResult("eckart_young_vs_oracle")
    rank_comp = InvariantResult("rank_composition")
    sqrt_check = InvariantResult("psd_sqrt_squares_back")
    for k in range(trials):
        a = random_matrix(rng, max_dim=8, deficient=(k % 4 == 0))
        f = linalg.svd(a)
        recon.record(hs_norm(f.reconstruct() - a), tol.check_abs)
        r = int(rng.integers(1, 4))
        tsvd = linalg.truncated_svd(a, r, tol)
        sigma = np.linalg.svd(a, compute_uv=False)
        residual.record(
            abs(hs_norm(a - tsvd.matrix()) ** 2 - float(np.sum(sigma[r:] ** 2))),
            tol.check_abs,
        )
        prob = solver.GlraProblem(
            m=a, b=np.eye(a.shape[0]), c=np.eye(a.shape[1]), r=r
        )
        oracle = solver.als_oracle(prob, restarts=4, iters=60, seed=seed + k)
        eckart.record(hs_norm(a - tsvd.matrix()) - oracle, ORACLE_SLACK)
        t = rng.standard_normal((int(rng.integers(1, 7)), a.shape[0]))
        rank_comp.record(
            float(linalg.numerical_rank(t @ a, tol) - linalg.numerical_rank(a, tol)), 0.0
        )
        gram = a.T @ a
        s = linalg.psd_sqrt(gram, tol)
        sqrt_check.record(hs_norm(s @ s - gram), max(tol.check_abs, 1e-12 * hs_norm(gram)))
    return [recon, residual, eckart, rank_comp, sqrt_check]


def check_glra(trials: int, seed: int, tol: Tolerances) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    projected = InvariantResult("projected_problem_identity")
    charact = InvariantResult("solution_reconstructs_truncation")
    optimal = InvariantResult("solve_beats_als_oracle")
    minimal = InvariantResult("minimality_within_family")
    round_trip = InvariantResult("canonicalize_round_trip")
    adjoint = InvariantResult("adjoint_objective_equality")
    err_consist = InvariantResult("optimal_error_consistency")
    for k in range(trials):
        p = random_problem(rng, deficient=(k % 3 == 0))
        sol = solver.solve(p, tol)
        g, _ = solver.projected_truncation(p, tol)
        const = hs_norm(p.m) ** 2 - hs_norm(g) ** 2
        u = rng.standard_normal((p.x_shape[0], p.r))
        v = rng.standard_normal((p.x_shape[1], p.r))
        x_rand = u @ v.T
        projected.record(
            abs(
                solver.objective(p, x_rand) ** 2
                - hs_norm(g - p.b @ x_rand @ p.c) ** 2
                - const
            ),
            max(tol.check_abs, 1e-12 * hs_norm(p.m) ** 2),
        )
        charact.record(
            hs_norm(p.b @ sol.x_hat @ p.c - sol.truncation.matrix()), tol.check_abs
        )
        oracle = solver.als_oracle(p, restarts=6, iters=80, seed=seed + k)
        optimal.record(sol.objective - oracle, ORACLE_SLACK)
        t = rng.standard_normal(p.x_shape)
        s = rng.standard_normal(p.x_shape)
        member = solver.solution_set_sample(sol, p, t, s)
        minimal.record(hs_norm(sol.x_hat) - hs_norm(member), tol.check_abs)
        round_trip.record(
            hs_norm(solver.canonicalize(member, p.b, p.c, tol) - sol.x_hat),
            tol.check_abs,
        )
        adjoint.record(
            abs(sol.objective - solver.solve_adjoint(p, tol).objective), tol.check_abs
        )
        opt = solver.optimal_error(p, tol)
        spread = max(
            abs(opt.delta - var) for var in opt.delta_variants
        )
        err_consist.record(
            max(spread, abs(sol.objective**2 + opt.delta - hs_norm(p.m) ** 2)),
            tol.check_abs,
        )
    return [projected, charact, optimal, minimal, round_trip, adjoint, err_consist]


def check_seq(trials: int, seed: int, tol: Tolerances) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    growth = InvariantResult("sweep_matches_growth_law")
    outer = InvariantResult("outer_inverse_identity")
    agrees = InvariantResult("outer_inverse_equals_projected_pinv")
    tail_mono = InvariantResult("tail_error_monotone")
    bxc_ident = InvariantResult("bounded_step_product_identity")
    step_min = InvariantResult("bounded_step_minimality")
    family = InvariantResult("sampled_solutions_dominate_canonical")
    approx_bound = InvariantResult("approx_minimizer_deviation_bound")
    spec = sequences.SequenceSpec(gamma_exponent=2.0, alpha_exponent=1.0)
    for k in range(trials):
        n = int(rng.integers(8, 20))
        inst = sequences.build_instance(replace(spec, n=n))
        sweep = sequences.unboundedness_sweep(
            replace(spec, n=n), [n], [2, max(2, n // 2)], tol
        )
        worst = max(
            abs(row.norm - row.predicted_norm) for row in sweep.rows
        )
        growth.record(worst, 1e-10)
        chain = sequences.nested_chain(inst.problem.c, steps=3, seed=seed + k, tol=tol)
        steps = sequences.outer_inverse_chain(inst.problem.c, chain, tol)
        c_pinv = linalg.pinv(inst.problem.c, tol)
        for st in steps:
            outer.record(
                hs_norm(st.c_sharp @ inst.problem.c @ st.c_sharp - st.c_sharp),
                max(tol.check_abs, 1e-10 * max(1.0, hs_norm(st.c_sharp))),
            )
            q_n = st.x_basis @ st.x_basis.T
            agrees.record(
                hs_norm(st.c_sharp - q_n @ c_pinv),
                max(tol.check_abs, 1e-10 * max(1.0, hs_norm(c_pinv))),
            )
        bounded = sequences.bounded_approximation_sequence(inst.problem, chain, tol)
        tails = [st.tail_error for st in bounded.steps]
        tail_mono.record(
            max(
                (tails[i + 1] - tails[i] for i in range(len(tails) - 1)),
                default=0.0,
            ),
            tol.check_abs,
        )
        g_r = bounded.solution.truncation.matrix()
        for st in bounded.steps:
            q_n = st.x_basis @ st.x_basis.T
            bxc_ident.record(
                hs_norm(inst.problem.b @ st.x @ inst.problem.c - g_r @ q_n),
                tol.check_abs,
            )
            step_min.record(
                solver.minimality_defect(st.x, inst.problem.b, inst.problem.c, tol),
                max(tol.check_abs, 1e-10 * max(1.0, hs_norm(st.x))),
            )
        sol = bounded.solution
        t = rng.standard_normal(inst.problem.x_shape)
        s = rng.standard_normal(inst.problem.x_shape)
        member = solver.solution_set_sample(sol, inst.problem, t, s)
        probes = [2, n - 1]
        canon_sup = max(np.linalg.norm(sol.x_hat[:, m - 1]) for m in probes)
        member_sup = max(np.linalg.norm(member[:, m - 1]) for m in probes)
        family.record(canon_sup - member_sup, tol.check_abs)
        scaled = solver.GlraProblem(
            m=inst.problem.m / (inst.mu[0] * 1.25),
            b=inst.problem.b,
            c=inst.problem.c,
            r=1,
        )
        seq_res = sequences.approximate_minimizers(
            scaled, [1.0 / (j + 1) for j in range(6)], tol, seed=seed + k
        )
        lam1 = float(seq_res.lambdas[0])
        for st in seq_res.steps:
            approx_bound.record(
                st.deviation_sq - scaled.r * lam1 * st.epsilon**2, tol.check_abs
            )
    return [growth, outer, agrees, tail_mono, bxc_ident, step_min, family, approx_bound]


def check_rrr(trials: int, seed: int, tol: Tolerances) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    factor = InvariantResult("cross_covariance_factorisation")
    range_id = InvariantResult("half_power_range_identity")
    contain = InvariantResult("truncation_range_containment")
    optimal = InvariantResult("fit_beats_als_oracle")
    kernels = InvariantResult("kernel_of_half_power")
    agree = InvariantResult("trace_equals_monte_carlo")
    for k in range(trials):
        dim_f = int(rng.integers(2, 6))
        dim_g = int(rng.integers(2, 6))
        count = int(rng.integers(20, 60))
        xs = rng.standard_normal((count, dim_f))
        ys = xs @ rng.standard_normal((dim_f, dim_g)) + 0.3 * rng.standard_normal(
            (count, dim_g)
        )
        if k % 3 == 0 and dim_g > 2:
            ys[:, -1] = ys[:, 0]
        samples = regression.SampleSet(xs=xs, ys=ys)
        cov = regression.empirical_covariances(samples)
        c_y_half = linalg.psd_sqrt(cov.c_y, tol)
        c_x_half = linalg.psd_sqrt(cov.c_x, tol)
        u = linalg.pinv(c_y_half, tol) @ cov.c_yx @ linalg.pinv(c_x_half, tol)
        op_norm = float(np.linalg.svd(u, compute_uv=False)[0]) if u.size else 0.0
        sandwich = (
            linalg.proj_range(c_y_half, tol) @ u @ linalg.proj_range(c_x_half, tol)
        )
        factor.record(
            max(op_norm - 1.0, hs_norm(sandwich - u)), max(tol.check_abs, 1e-8)
        )
        range_id.record(
            hs_norm(c_y_half @ linalg.pinv(c_y_half, tol) @ cov.c_yx - cov.c_yx),
            max(tol.check_abs, 1e-10 * max(1.0, hs_norm(cov.c_yx))),
        )
        r = int(rng.integers(1, min(dim_f, dim_g) + 1))
        model = regression.fit(cov, r, tol=tol)
        contain.record(model.fit_report.containment_residual, tol.check_abs)
        prob = regression._transposed_problem(
            cov, r, np.eye(dim_f), np.eye(dim_f), np.eye(dim_g), tol
        )
        oracle_obj = solver.als_oracle(prob, restarts=6, iters=80, seed=seed + k)
        c_half_norm = hs_norm(c_x_half)
        const = c_half_norm**2 - hs_norm(prob.m) ** 2
        optimal.record(
            model.fit_report.objective_mse - (const + oracle_obj**2), ORACLE_SLACK
        )
        kernels.record(
            hs_norm(
                linalg.proj_kernel_perp(c_y_half, tol)
                - linalg.proj_kernel_perp(cov.c_y, tol)
            ),
            max(tol.check_abs, 1e-7),
        )
        agree.record(
            abs(
                regression.mse_trace(model, cov)
                - regression.mse_monte_carlo(model, samples)
            ),
            max(tol.check_abs, 1e-12 * max(1.0, hs_norm(cov.c_x) ** 2)),
        )
    return [factor, range_id, contain, optimal, kernels, agree]


_SUITE_FUNCS = {
    "mp": check_mp,
    "svd": check_svd,
    "glra": check_glra,
    "seq": check_seq,
    "rrr": check_rrr,
}


def run_suites(
    names: list[str], trials: int, seed: int, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    results: dict[str, list[InvariantResult]] = {}
    for name in names:
        if name not in _SUITE_FUNCS:
            raise linalg.InputError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
        results[name] = _SUITE_FUNCS[name](trials, seed, tol)
    return CheckReport(suites=results)


def check_fixture_pair(a: np.ndarray, a_pinv: np.ndarray, tol: Tolerances) -> InvariantResult:
    """Verify a stored (A, A^+) pair against the four Moore-Penrose equations."""
    result = InvariantResult("fixture_moore_penrose")
    residual = max(
        hs_norm(a @ a_pinv @ a - a),
        hs_norm(a_pinv @ a @ a_pinv - a_pinv),
        hs_norm((a @ a_pinv) - (a @ a_pinv).T),
        hs_norm((a_pinv @ a) - (a_pinv @ a).T),
    )
    result.record(residual, tol.check_abs)
    return result

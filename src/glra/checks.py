"""Seeded invariant suites behind the ``check`` command.

Each suite draws random instances and verifies identities that hold in
exact arithmetic (Moore-Penrose equations, projector algebra, truncation
residuals, solver optimality against the alternating-least-squares
oracle, covariance factorisations).  Results are per-invariant pass
counts with the worst residual seen, so a report is reproducible from
the same seed.  The svd, glra and rrr suites hold their trials' oracle
searches and run them as one zero-padded stack (``als_oracles``), at
most ORACLE_BATCH trials at a time, recording the oracle invariants
from its answers; every other invariant is recorded as its trial runs.

The references the invariants compare the library with are written in
numpy alone and share no factorisation or rank cutoff with the library
they check: the oracle (``als_oracles``) is a brute-force search,
``_ref_projectors`` gives P_ran(A) and P_ker(A)-perp from the bases of
one numpy SVD, ``_pinv_stack`` gives A^+ (the C^+ that the seq suite
compares its outer inverses with) from another, and ``_ref_lower_bound``
gives the seq suite's lower-bound constant from ker(Z)'s side.  All of
them cut at ORACLE_RANK_REL, written out here, so a wrong rank decision
in the library does not pass by checking it against itself.  The library
runs at DEFAULT_TOL, the tolerances these references are written against.

An invariant stays in a suite while some fault in the library makes it
fail; the mutation matrix in tests/test_mutations.py records which.  The
suites call only public names of the library: ``check_rrr`` builds the
transposed problem that its oracle searches from its own ``psd_sqrt``
and ``pinv``, and ``check_seq`` applies the projector Q_n onto X_n
through its orthonormal basis, forming no n x n matrix.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, regression, sequences, solver
from .linalg import check_bound, hs_norm

__all__ = [
    "CheckReport",
    "InvariantResult",
    "SUITE_NAMES",
    "als_oracles",
    "check_fixture_pair",
    "run_suites",
]

SUITE_NAMES = ("mp", "svd", "glra", "seq", "rrr")

# The references' own rank cutoff, 1e-12 * sigma_1 * max(shape) per matrix
# (see _ref_keep), written out so that the library's DEFAULT_TOL cannot move it.
ORACLE_RANK_REL = 1e-12
# The oracle stops a restart once its objective moves by at most
# 1e-13 * objective + eps * max(M.shape) in units of ||M||: the additive
# floor is the rounding of one objective evaluation, so an exact fit,
# whose objective is rounding noise, stops as soon as the noise settles.
ORACLE_STOP_REL = 1e-13
# A suite hands the oracle at most this many trials' problems at once, so
# the stack's memory does not grow with the trial count.
ORACLE_BATCH = 64


@dataclass
class InvariantResult:
    name: str
    trials: int = 0
    failures: int = 0
    max_residual: float = 0.0

    def record(self, residual: float, bound: float) -> None:
        self.record_all([(residual, bound)])

    def record_all(self, pairs: list[tuple[float, float]]) -> None:
        """One trial of several residuals, each checked against its own bound."""
        self.trials += 1
        for res, _ in pairs:
            # a NaN residual becomes the maximum and stays it; max() drops it
            if math.isnan(res) or res > self.max_residual:
                self.max_residual = res
        if not all(res <= bound for res, bound in pairs):
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
        b[:, -1] = b[:, 0]
        c[-1, :] = c[0, :]
    return solver.GlraProblem(
        m=rng.standard_normal((m_rows, n_cols)),
        b=b,
        c=c,
        r=int(rng.integers(1, max_rank + 1)),
    )


def _ref_keep(s: np.ndarray, dim: int | np.ndarray) -> np.ndarray:
    """Which singular values of a matrix, or of each matrix in a stack, count as nonzero.

    Those above ORACLE_RANK_REL * sigma_1 * dim of their own matrix, where
    dim is max(shape): one number, or one per member of a stack, shaped
    (..., 1), when the members are zero-padded matrices of other shapes.
    """
    return s > ORACLE_RANK_REL * dim * s[..., :1]


def _ref_projectors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reference P_ran(A) and P_ker(A)-perp from one numpy SVD.

    They are the products of the orthonormal bases of ran(A) and
    ker(A)-perp that the singular vectors kept by _ref_keep form.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    k = int(np.count_nonzero(_ref_keep(s, max(a.shape))))
    u, vh = u[:, :k], vh[:k]
    return u @ u.T, vh.T @ vh


def _pinv_stack(a: np.ndarray, dim: int | np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a matrix or of each matrix in a stack, from one SVD.

    Singular values that _ref_keep drops at dim count as zero.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    inv = np.divide(1.0, s, out=np.zeros(s.shape), where=_ref_keep(s, dim))
    return (vh.swapaxes(-1, -2) * inv[..., None, :]) @ u.swapaxes(-1, -2)


def _ref_lower_bound(c: np.ndarray, z: np.ndarray) -> tuple[float, int]:
    """The smallest singular value of C on ker(Z) int ker(C)-perp, and its dimension.

    By principal angles from ker(Z)'s side, where the library works from
    ker(C)-perp's: with K a basis of ker(Z) and R one of ker(C)-perp, the
    intersection is K y over the null vectors y of K - R R^T K, whose
    singular values are the sines of the angles between ker(Z) and
    ker(C)-perp.  Those sines, of unit scale, are cut at
    ORACLE_RANK_REL * max(shape); an empty intersection gives (0, 0).
    """
    _, s_z, vh_z = np.linalg.svd(z, full_matrices=True)
    ker_z = vh_z[np.count_nonzero(_ref_keep(s_z, max(z.shape))):].T
    _, s_c, vh_c = np.linalg.svd(c, full_matrices=False)
    row_c = vh_c[: np.count_nonzero(_ref_keep(s_c, max(c.shape)))].T
    sines = ker_z - row_c @ (row_c.T @ ker_z)
    _, s, vh = np.linalg.svd(sines, full_matrices=False)
    w = ker_z @ vh[np.count_nonzero(s > ORACLE_RANK_REL * max(sines.shape)):].T
    if w.shape[1] == 0:
        return 0.0, 0
    return float(np.linalg.svd(c @ w, compute_uv=False)[-1]), w.shape[1]


def als_oracles(
    problems: Sequence[solver.GlraProblem], restarts: int, iters: int, seeds: Sequence[int]
) -> list[float]:
    """Best objective found by alternating least squares over X = U V^T, for each problem.

    A brute-force reference for the closed-form solver: U (p x r) and
    V (q x r) are updated by exact least-squares steps,
    U = B^+ M (V^T C)^+ and V^T = (B U)^+ M C^+, from ``restarts`` random
    initialisations per problem, drawn from ``default_rng`` of its seed
    (U_0, V_0, U_1, V_1, ... in that order).  The iterates are the images
    L = B U (m x r) and A = V^T C (r x n), not U and V: with P = B B^+ M
    and N = M C^+ C formed once, the steps are L = P A^+ and A = L^+ N
    and the objective is ||M - L A||, the same iterates in exact
    arithmetic, as B U = B B^+ M (V^T C)^+ and V^T C = (B U)^+ M C^+ C.
    Each problem runs on M / ||M||, so its result is degree 1 in M; a
    restart stops, frozen, once its objective moves by at most
    ORACLE_STOP_REL * objective + eps * max(M.shape) there, or after
    ``iters`` steps.  Deterministic for fixed seeds.

    Every restart of every problem runs in one stack, two SVD calls a
    step.  M / ||M||, B, C and the V_0 are zero-padded to the problems'
    largest shapes, with r = min(r, p, q) each; the padding stays exactly
    zero through every step.  Each member keeps its own rules: B, C, L
    and A are cut by _ref_keep at its own max(shape), which drops the
    padding's zero singular values, and it stops at its own floor.  A
    problem with M = 0 gives 0 and does not enter the stack.
    """
    linalg._count(restarts, "restarts", 1)
    linalg._count(iters, "iters", 1)
    seeds = [linalg._count(seed, "seed", 0) for seed in seeds]
    scales = [hs_norm(p.m) for p in problems]
    held = [(p, scale, seed) for p, scale, seed in zip(problems, scales, seeds) if scale != 0.0]
    if not held:
        return [0.0] * len(problems)
    dims = np.array([(*p.m.shape, *p.x_shape, min(p.r, *p.x_shape)) for p, _, _ in held])
    # each (held, 1): M is rows x cols, B rows x pp, C qq x cols, U pp x r, V qq x r
    rows, cols, pp, qq, r = dims.T[..., None]
    big_rows, big_cols, big_pp, big_qq, big_r = dims.max(axis=0)
    m = _padded([p.m / scale for p, scale, _ in held], (big_rows, big_cols))
    b = _padded([p.b for p, _, _ in held], (big_rows, big_pp))
    c = _padded([p.c for p, _, _ in held], (big_qq, big_cols))
    v = np.zeros((len(held), restarts, big_qq, big_r))
    for v_i, (_, _, seed), (_, _, pp_i, qq_i, r_i) in zip(v, held, dims):
        rng = np.random.default_rng(seed)
        for k in range(restarts):
            rng.standard_normal((pp_i, r_i))  # U_k keeps the draw order; the first step replaces it
            v_i[k, :qq_i, :r_i] = rng.standard_normal((qq_i, r_i))
    proj_m = b @ (_pinv_stack(b, np.maximum(rows, pp)) @ m)
    m_proj = (m @ _pinv_stack(c, np.maximum(qq, cols))) @ c
    a = (v.swapaxes(-1, -2) @ c[:, None]).reshape(-1, big_r, big_cols)
    floor = float(np.finfo(float).eps) * np.maximum(rows, cols)[:, 0]
    prev = np.full(len(a), np.inf)
    obj = np.empty(len(a))
    # the members still running, restart k of held problem j at j * restarts + k;
    # a stopped one leaves only its objective
    active = np.arange(len(a))
    for _ in range(iters):
        own = active // restarts
        lhs = proj_m[own] @ _pinv_stack(a, np.maximum(r, cols)[own])
        a = _pinv_stack(lhs, np.maximum(rows, r)[own]) @ m_proj[own]
        res = m[own] - lhs @ a
        cur = np.sqrt(np.einsum("kij,kij->k", res, res))
        obj[active] = cur
        done = np.abs(prev - cur) <= ORACLE_STOP_REL * cur + floor[own]
        active, a, prev = active[~done], a[~done], cur[~done]
        if not active.size:
            break
    lows = iter(obj.reshape(len(held), restarts).min(axis=1))
    return [0.0 if scale == 0.0 else scale * float(next(lows)) for scale in scales]


def _padded(mats: list[np.ndarray], shape: tuple[int, int]) -> np.ndarray:
    """The matrices as one stack, each zero-padded to shape."""
    out = np.zeros((len(mats), *shape))
    for o, mat in zip(out, mats):
        o[: mat.shape[0], : mat.shape[1]] = mat
    return out


class _OracleGaps:
    """One invariant's gaps to the ALS oracle, searched ORACLE_BATCH trials at a time.

    A trial adds its problem, the oracle's seed, its gap as a function of
    the oracle's value, and the bound; the held searches run as one
    als_oracles stack once ORACLE_BATCH are held and at flush, and each
    gap is recorded then.  Recording order does not move a result.
    """

    def __init__(self, result: InvariantResult, restarts: int, iters: int) -> None:
        self.result, self.restarts, self.iters = result, restarts, iters
        self.held: list[tuple[solver.GlraProblem, int, Callable[[float], float], float]] = []

    def add(
        self, p: solver.GlraProblem, seed: int, gap: Callable[[float], float], bound: float
    ) -> None:
        self.held.append((p, seed, gap, bound))
        if len(self.held) == ORACLE_BATCH:
            self.flush()

    def flush(self) -> None:
        held, self.held = self.held, []
        values = als_oracles([h[0] for h in held], self.restarts, self.iters, [h[1] for h in held])
        for (_, _, gap, bound), value in zip(held, values):
            self.result.record(gap(value), bound)


def _moore_penrose_checks(a: np.ndarray, a_pinv: np.ndarray) -> list[tuple[float, float]]:
    """The four Moore-Penrose residuals of (A, A^+), each with its bound."""
    dim = max(a.shape)
    a_norm = hs_norm(a)
    pinv_norm = hs_norm(a_pinv)
    return [
        (hs_norm(a @ a_pinv @ a - a), check_bound(dim, a_norm)),
        (hs_norm(a_pinv @ a @ a_pinv - a_pinv), check_bound(dim, pinv_norm)),
        (hs_norm((a @ a_pinv) - (a @ a_pinv).T), check_bound(dim, a_norm * pinv_norm)),
        (hs_norm((a_pinv @ a) - (a_pinv @ a).T), check_bound(dim, a_norm * pinv_norm)),
    ]


def check_mp(trials: int, seed: int) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    eq = [InvariantResult(f"moore_penrose_eq{i}") for i in range(1, 5)]
    proj = InvariantResult("projector_consistency")
    dual = InvariantResult("kernel_range_duality")
    for k in range(trials):
        a = random_matrix(rng, deficient=(k % 3 == 0))
        a_pinv = linalg.pinv(a)
        mp_checks = _moore_penrose_checks(a, a_pinv)
        for eq_k, pair in zip(eq, mp_checks):
            eq_k.record(*pair)
        # the bounds of eq1 (degree 1, ||A||) and eq3 (projector, ||A|| ||A^+||)
        a_bound, proj_bound = mp_checks[0][1], mp_checks[2][1]
        pr, pk = _ref_projectors(a)
        proj.record_all([(hs_norm(pk - a_pinv @ a), proj_bound), (hs_norm(pr @ a - a), a_bound)])
        # ran(A^T) = ker(A)-perp: the library's basis of the one against the reference
        u = linalg.rank_factors(a.T).u
        dual.record(hs_norm(u @ u.T - pk), proj_bound)
    return eq + [proj, dual]


def check_svd(trials: int, seed: int) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    recon = InvariantResult("svd_reconstruction")
    residual = InvariantResult("truncation_residual_identity")
    eckart = InvariantResult("eckart_young_vs_oracle")
    rank_comp = InvariantResult("rank_composition")
    sqrt_check = InvariantResult("psd_sqrt_squares_back")
    eckart_gaps = _OracleGaps(eckart, restarts=4, iters=60)
    for k in range(trials):
        a = random_matrix(rng, max_dim=8, deficient=(k % 4 == 0))
        dim = max(a.shape)
        a_norm = hs_norm(a)
        f = linalg.svd(a)
        recon.record(hs_norm(f.reconstruct() - a), check_bound(dim, a_norm))
        r = int(rng.integers(1, 4))
        # (A)_r is the truncation of the B = I, C = I problem
        prob = solver.GlraProblem(m=a, b=np.eye(a.shape[0]), c=np.eye(a.shape[1]), r=r)
        a_r = solver.solve(prob).truncation.matrix()
        sigma = np.linalg.svd(a, compute_uv=False)
        err = hs_norm(a - a_r)
        residual.record(
            abs(err**2 - float(np.sum(sigma[r:] ** 2))), check_bound(dim, a_norm**2)
        )
        eckart_gaps.add(
            prob, seed + k, lambda oracle, err=err: err - oracle, check_bound(dim, a_norm)
        )
        # rank(T A) <= rank(A): the reference's rank of T A against the library's of A
        ta = rng.standard_normal((int(rng.integers(1, 7)), a.shape[0])) @ a
        ref_rank = np.count_nonzero(_ref_keep(np.linalg.svd(ta, compute_uv=False), max(ta.shape)))
        rank_comp.record(float(ref_rank - linalg.rank_factors(a).sigma.size), 0.0)
        gram = a.T @ a
        s = linalg.psd_sqrt(gram)
        sqrt_check.record(hs_norm(s @ s - gram), check_bound(dim, hs_norm(gram)))
    eckart_gaps.flush()
    return [recon, residual, eckart, rank_comp, sqrt_check]


def _member_optimality(
    p: solver.GlraProblem, sol: solver.GlraSolution, member: np.ndarray, dim: int
) -> tuple[float, float]:
    """|objective(member) - objective(x_hat)| for a sampled member of the solution set.

    objective makes no rank decision, so a member drawn with a wrong cut
    of B or C misses the optimum.  The bound is that of B X C's rounding.
    """
    scale = hs_norm(p.m) + hs_norm(p.b) * hs_norm(member) * hs_norm(p.c)
    return abs(solver.objective(p, member) - sol.objective), check_bound(dim, scale)


def _scale_mismatches(p: solver.GlraProblem, sol: solver.GlraSolution, exps: np.ndarray) -> int:
    """How many outputs of solving (2^a M, 2^b B, 2^c C) miss the exact scaling law.

    The law is x_hat 2^(a-b-c), objective 2^a and the same uniqueness, bit
    for bit: scaling by a power of two is exact, and so are the rank and
    tie rules of a scale-aware library, so this needs no tolerance.  The
    count is over x_hat's entries, the objective and the uniqueness flag.
    """
    a, b, c = (int(e) for e in exps)
    scaled = solver.solve(
        solver.GlraProblem(m=np.ldexp(p.m, a), b=np.ldexp(p.b, b), c=np.ldexp(p.c, c), r=p.r)
    )
    want = np.ldexp(sol.x_hat, a - b - c)
    return (
        int(np.count_nonzero(scaled.x_hat.view(np.uint64) != want.view(np.uint64)))
        + (scaled.objective != math.ldexp(sol.objective, a))
        + (scaled.uniqueness != sol.uniqueness)
    )


def check_glra(trials: int, seed: int) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    projected = InvariantResult("projected_problem_identity")
    charact = InvariantResult("solution_reconstructs_truncation")
    optimal = InvariantResult("solve_beats_als_oracle")
    minimal = InvariantResult("minimality_within_family")
    round_trip = InvariantResult("canonicalize_round_trip")
    member_opt = InvariantResult("solution_set_member_is_optimal")
    adjoint = InvariantResult("adjoint_objective_equality")
    err_consist = InvariantResult("optimal_error_consistency")
    scaling = InvariantResult("scale_equivariance_exact")
    # the exponents have a generator of their own, so the other draws keep theirs
    exp_rng = np.random.default_rng([seed, 1])
    optimal_gaps = _OracleGaps(optimal, restarts=6, iters=80)
    for k in range(trials):
        p = random_problem(rng, deficient=(k % 3 == 0))
        dim = max(p.m.shape + p.b.shape + p.c.shape)
        sol = solver.solve(p)
        m_norm = hs_norm(p.m)
        x_norm = hs_norm(sol.x_hat)
        # ||B|| ||x_hat|| ||C|| bounds the rounding of B x_hat C, which can
        # exceed ||M|| by the conditioning of B and C
        op_scale = m_norm + hs_norm(p.b) * x_norm * hs_norm(p.c)
        # G from its definition with the reference projectors, independent
        # of the solver's reduced core
        g = _ref_projectors(p.b)[0] @ p.m @ _ref_projectors(p.c)[1]
        const = m_norm**2 - hs_norm(g) ** 2
        u = rng.standard_normal((p.x_shape[0], p.r))
        v = rng.standard_normal((p.x_shape[1], p.r))
        x_rand = u @ v.T
        obj_rand = solver.objective(p, x_rand)
        # G carries dim-long inner products (scale ||M|| obj); the shared
        # ||B x C||^2 parts of both squares cancel up to elementwise rounding
        projected.record(
            abs(obj_rand**2 - hs_norm(g - p.b @ x_rand @ p.c) ** 2 - const),
            check_bound(dim, m_norm * obj_rand) + check_bound(1, obj_rand**2),
        )
        charact.record(
            hs_norm(p.b @ sol.x_hat @ p.c - sol.truncation.matrix()),
            check_bound(dim, op_scale),
        )
        optimal_gaps.add(
            p, seed + k, lambda oracle, obj=sol.objective: obj - oracle, check_bound(dim, op_scale)
        )
        t = rng.standard_normal(p.x_shape)
        s = rng.standard_normal(p.x_shape)
        member = solver.solution_set_sample(sol, p, t, s)
        member_norm = hs_norm(member)
        minimal.record(x_norm - member_norm, check_bound(dim, member_norm))
        round_trip.record(
            hs_norm(solver.canonicalize(member, p) - sol.x_hat),
            check_bound(dim, member_norm),
        )
        member_opt.record(*_member_optimality(p, sol, member, dim))
        adjoint.record(
            abs(sol.objective - solver.solve_adjoint(p).objective),
            check_bound(dim, op_scale),
        )
        opt = solver.optimal_error(p)
        spread = max(
            abs(opt.delta - var) for var in opt.delta_variants
        )
        err_consist.record(
            max(spread, abs(sol.objective**2 + opt.delta - m_norm**2)),
            check_bound(dim, m_norm**2),
        )
        scaling.record(float(_scale_mismatches(p, sol, exp_rng.integers(-300, 300, size=3))), 0.0)
    optimal_gaps.flush()
    return [
        projected, charact, optimal, minimal, round_trip, member_opt, adjoint, err_consist, scaling,
    ]


def check_seq(trials: int, seed: int) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    growth = InvariantResult("sweep_matches_growth_law")
    lower_bound = InvariantResult("lower_bound_matches_reference")
    outer = InvariantResult("outer_inverse_identity")
    agrees = InvariantResult("outer_inverse_equals_projected_pinv")
    exhaustive = InvariantResult("exhaustive_outer_inverse_is_pinv")
    tail_mono = InvariantResult("tail_error_monotone")
    bxc_ident = InvariantResult("bounded_step_product_identity")
    family = InvariantResult("sampled_solutions_dominate_canonical")
    member_opt = InvariantResult("solution_set_member_is_optimal")
    approx_bound = InvariantResult("approx_minimizer_deviation_bound")
    spec = sequences.SequenceSpec(gamma_exponent=2.0, alpha_exponent=1.0)
    for k in range(trials):
        n = int(rng.integers(8, 20))
        inst = sequences.build_instance(replace(spec, n=n))
        prob = inst.problem
        sweep = sequences.unboundedness_sweep(replace(spec, n=n), [n], [2, max(2, n // 2)])
        worst = max(
            abs(row.norm - row.predicted_norm) for row in sweep.rows
        )
        c_norm = hs_norm(prob.c)
        # the reference C^+, which shares no factorisation or rank cut with the library
        c_pinv = _pinv_stack(prob.c, max(prob.c.shape))
        # the probe columns of x_hat carry C^+ applied to M
        growth.record(worst, check_bound(n, hs_norm(prob.m) * hs_norm(c_pinv)))
        # the sweep's truncation mu_1 f1 f1^T has the kernel of mu_1 f1^T
        want = _ref_lower_bound(prob.c, inst.mu[0] * inst.f1[None, :])[0]
        lower_bound.record(abs(sweep.lower_bounds[n] - want), check_bound(n, c_norm))
        # the chain is drawn from the problem, whose one reduction the bounded
        # sequence then reads, so C is factorised once
        chain = sequences.nested_chain(prob, 3, seed + k)
        bounded = sequences.bounded_approximation_sequence(prob, chain)
        g_r = bounded.solution.truncation.matrix()
        for st in bounded.steps:
            c_sharp = st.outer.c_sharp
            # C# is degree -1 in C, formed by a solve whose error grows with ||C|| ||C#||
            sharp_scale = hs_norm(c_sharp) ** 2 * c_norm
            outer.record(
                hs_norm(c_sharp @ prob.c @ c_sharp - c_sharp),
                check_bound(n, sharp_scale),
            )
            # Q_n C^+ and (G)_r Q_n through the basis of X_n, with no n x n Q_n
            x_basis = st.outer.x_basis
            agrees.record(
                hs_norm(c_sharp - x_basis @ (x_basis.T @ c_pinv)), check_bound(n, sharp_scale)
            )
            bxc_ident.record(
                hs_norm(prob.b @ st.x @ prob.c - (g_r @ x_basis) @ x_basis.T),
                check_bound(n, hs_norm(st.x) * c_norm),
            )
        # the last step spans ran(C), so its outer inverse is C^+ itself
        exhaustive.record(
            hs_norm(bounded.steps[-1].outer.c_sharp - c_pinv),
            check_bound(n, hs_norm(c_pinv) ** 2 * c_norm),
        )
        tails = [st.tail_error for st in bounded.steps]
        tail_mono.record(
            max((later - earlier for earlier, later in zip(tails, tails[1:])), default=0.0),
            check_bound(n, bounded.solution.delta),
        )
        sol = bounded.solution
        t = rng.standard_normal(prob.x_shape)
        s = rng.standard_normal(prob.x_shape)
        member = solver.solution_set_sample(sol, prob, t, s)
        probes = [2, n - 1]
        canon_sup = max(np.linalg.norm(sol.x_hat[:, m - 1]) for m in probes)
        member_sup = max(np.linalg.norm(member[:, m - 1]) for m in probes)
        family.record(canon_sup - member_sup, check_bound(n, hs_norm(member)))
        member_opt.record(*_member_optimality(prob, sol, member, n))
        scaled = replace(prob, m=prob.m / (inst.mu[0] * 1.25), r=1)
        seq_res = sequences.approximate_minimizers(
            scaled, [1.0 / (j + 1) for j in range(6)], seed=seed + k
        )
        lam1 = float(seq_res.lambdas[0])
        target_sq = hs_norm(seq_res.target_y) ** 2
        for st in seq_res.steps:
            approx_bound.record(
                st.deviation_sq - scaled.r * lam1**2 * st.epsilon**2,
                check_bound(n, target_sq),
            )
    return [
        growth, lower_bound, outer, agrees, exhaustive, tail_mono, bxc_ident, family, member_opt,
        approx_bound,
    ]


def check_rrr(trials: int, seed: int) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    factor = InvariantResult("cross_covariance_factorisation")
    range_id = InvariantResult("half_power_range_identity")
    optimal = InvariantResult("fit_beats_als_oracle")
    kernels = InvariantResult("kernel_of_half_power")
    agree = InvariantResult("trace_equals_monte_carlo")
    optimal_gaps = _OracleGaps(optimal, restarts=6, iters=80)
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
        dim = dim_f + dim_g
        c_y_half = linalg.psd_sqrt(cov.c_y)
        c_x_half = linalg.psd_sqrt(cov.c_x)
        c_y_half_pinv = linalg.pinv(c_y_half)
        c_x_half_pinv = linalg.pinv(c_x_half)
        yx_norm = hs_norm(cov.c_yx)
        u = c_y_half_pinv @ cov.c_yx @ c_x_half_pinv
        op_norm = float(np.linalg.svd(u, compute_uv=False)[0]) if u.size else 0.0
        ran_y_half, ker_perp_y_half = _ref_projectors(c_y_half)
        sandwich = ran_y_half @ u @ _ref_projectors(c_x_half)[0]
        factor.record(
            max(op_norm - 1.0, hs_norm(sandwich - u)),
            check_bound(dim, hs_norm(c_y_half_pinv) * yx_norm * hs_norm(c_x_half_pinv)),
        )
        range_id.record(
            hs_norm(c_y_half @ c_y_half_pinv @ cov.c_yx - cov.c_yx),
            check_bound(dim, hs_norm(c_y_half) * hs_norm(c_y_half_pinv) * yx_norm),
        )
        r = int(rng.integers(1, min(dim_f, dim_g) + 1))
        model = regression.fit(cov, r)
        # the transposed problem of the identity-weight fit, for the oracle
        prob = solver.GlraProblem(m=c_y_half_pinv @ cov.c_yx, b=c_y_half, c=np.eye(dim_f), r=r)
        c_half_norm = hs_norm(c_x_half)
        const = c_half_norm**2 - hs_norm(prob.m) ** 2
        # the traces of the MSE: tr(C_x) and tr(A C_y A^T) up to rounding
        mse_scale = hs_norm(cov.c_x) + hs_norm(model.a_hat) ** 2 * hs_norm(cov.c_y)
        mse = model.fit_report.objective_mse
        optimal_gaps.add(
            prob, seed + k, lambda oracle, mse=mse, const=const: mse - (const + oracle**2),
            check_bound(dim, mse_scale),
        )
        # both kernels are known to the angle eps ||C_y|| ||C_y^+||, and
        # ||C_y^+|| <= ||(C_y^(1/2))^+||^2
        kernels.record(
            hs_norm(ker_perp_y_half - _ref_projectors(cov.c_y)[1]),
            check_bound(dim, hs_norm(cov.c_y) * hs_norm(c_y_half_pinv) ** 2),
        )
        agree.record(
            abs(
                regression.mse_trace(model, cov)
                - regression.mse_monte_carlo(model, samples)
            ),
            check_bound(dim, mse_scale),
        )
    optimal_gaps.flush()
    return [factor, range_id, optimal, kernels, agree]


_SUITE_FUNCS = {
    "mp": check_mp,
    "svd": check_svd,
    "glra": check_glra,
    "seq": check_seq,
    "rrr": check_rrr,
}


def run_suites(names: list[str], trials: int, seed: int) -> CheckReport:
    linalg._count(trials, "trials", 1)
    linalg._count(seed, "seed", 0)
    results: dict[str, list[InvariantResult]] = {}
    for name in names:
        if name not in _SUITE_FUNCS:
            raise linalg.InputError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
        results[name] = _SUITE_FUNCS[name](trials, seed)
    return CheckReport(suites=results)


def check_fixture_pair(a: np.ndarray, a_pinv: np.ndarray) -> InvariantResult:
    """Verify a stored (A, A^+) pair against the four Moore-Penrose equations.

    Raises InputError unless A^+ has the shape of A^T.
    """
    if a_pinv.shape != a.T.shape:
        raise linalg.InputError(f"A^+ is {a_pinv.shape}, expected A^T's shape {a.T.shape}")
    result = InvariantResult("fixture_moore_penrose")
    result.record_all(_moore_penrose_checks(a, a_pinv))
    return result

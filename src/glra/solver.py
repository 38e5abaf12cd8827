"""Rank-constrained approximation of M by B X C in Hilbert-Schmidt norm.

Solves ``min ||M - B X C||_HS`` over matrices X with rank(X) <= r.  The
closed-form solution is ``X = B^+ (G)_r C^+`` with the projected matrix
``G = P_ran(B) M P_ker(C)-perp``.  B and C are factorised once each and
cut at their numerical ranks, ``B = U_B S_B V_B^T`` and
``C = U_C S_C V_C^T``; then ``G = U_B K V_C^T`` with the rank(B) x
rank(C) core ``K = U_B^T M V_C``, so only K is truncated and
``X = V_B S_B^-1 (K)_r S_C^-1 U_C^T``, with no projector formed.  X
satisfies the minimality property ``X = P_ker(B)-perp X P_ran(C)`` (all
blocks of X outside the ran(C) -> ker(B)-perp corner vanish), which is
what survives of the often-quoted but generally false minimal-Frobenius-
norm property.  The full solution set, the optimal-error identities, the
adjoint problem and an alternating-least-squares oracle for testing live
here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    InputError,
    SvdFactors,
    Tolerances,
    TruncatedSvd,
    Uniqueness,
    _check_rank_bound,
    _svd,
    _truncate,
    as_matrix,
    hs_norm,
    pinv,
    rank_factors,
)

__all__ = [
    "GlraProblem",
    "GlraSolution",
    "OptimalError",
    "adjoint_problem",
    "als_oracle",
    "canonicalize",
    "classify_uniqueness",
    "minimality_defect",
    "objective",
    "optimal_error",
    "projected_truncation",
    "solution_set_sample",
    "solve",
    "solve_adjoint",
]


@dataclass(frozen=True)
class GlraProblem:
    """The data (M, B, C, r) of one approximation problem.

    Shapes: M is m x n, B is m x p, C is q x n, and the unknown X is
    p x q so that B X C matches M.
    """

    m: np.ndarray
    b: np.ndarray
    c: np.ndarray
    r: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", as_matrix(self.m, "M"))
        object.__setattr__(self, "b", as_matrix(self.b, "B"))
        object.__setattr__(self, "c", as_matrix(self.c, "C"))
        if self.b.shape[0] != self.m.shape[0]:
            raise InputError(
                f"B has {self.b.shape[0]} rows but M has {self.m.shape[0]}"
            )
        if self.c.shape[1] != self.m.shape[1]:
            raise InputError(
                f"C has {self.c.shape[1]} columns but M has {self.m.shape[1]}"
            )
        _check_rank_bound(self.r)

    @property
    def x_shape(self) -> tuple[int, int]:
        return (self.b.shape[1], self.c.shape[0])


@dataclass(frozen=True)
class GlraSolution:
    """A solved problem: the minimiser, its image, and diagnostics.

    ``truncation`` is the chosen rank-r truncation of the projected matrix
    G in full coordinates, and ``y = B x_hat C`` equals its matrix;
    ``objective**2 + delta`` recovers ``||M||_HS**2``.
    """

    x_hat: np.ndarray
    y: np.ndarray
    objective: float
    delta: float
    uniqueness: Uniqueness
    minimality_defect: float
    truncation: TruncatedSvd


def _reduce(
    p: GlraProblem, tol: Tolerances
) -> tuple[SvdFactors, SvdFactors, np.ndarray, TruncatedSvd]:
    """Factor B and C once and truncate the core K = U_B^T M V_C.

    Returns the rank-cut factors of B and C, K, and the rank-r truncation
    of K in core coordinates.  K has the nonzero singular values of G,
    whose shape is M's, so the rank is decided with G's cutoff.
    """
    fb = rank_factors(p.b, tol)
    fc = rank_factors(p.c, tol)
    core = fb.u.T @ p.m @ fc.v
    return fb, fc, core, _truncate(_svd(core), p.r, p.m.shape, tol)


def _lift(fb: SvdFactors, fc: SvdFactors, t: TruncatedSvd) -> TruncatedSvd:
    """A core truncation as the truncation of G: left vectors U_B u, right V_C v."""
    f = t.factors
    return replace(t, factors=SvdFactors(u=fb.u @ f.u, sigma=f.sigma, v=fc.v @ f.v))


def _minimal_part(x: np.ndarray, vb: np.ndarray, uc: np.ndarray) -> np.ndarray:
    """P_ker(B)-perp X P_ran(C) from the thin bases V_B and U_C."""
    return vb @ (vb.T @ x @ uc) @ uc.T


def projected_truncation(
    p: GlraProblem, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, TruncatedSvd]:
    """The projected matrix G = P_ran(B) M P_ker(C)-perp and its rank-r truncation."""
    fb, fc, core, t = _reduce(p, tol)
    return fb.u @ core @ fc.v.T, _lift(fb, fc, t)


def solve(p: GlraProblem, tol: Tolerances = DEFAULT_TOL) -> GlraSolution:
    """Closed-form minimiser of ||M - B X C||_HS over rank(X) <= r.

    When the truncation is not unique the deterministic canonical one is
    used and the solution is flagged ``NON_UNIQUE``.
    """
    fb, fc, _, t = _reduce(p, tol)
    f = t.factors
    x_hat = (((fb.v / fb.sigma) @ f.u) * f.sigma) @ ((fc.u / fc.sigma) @ f.v).T
    y = p.b @ x_hat @ p.c
    return GlraSolution(
        x_hat=x_hat,
        y=y,
        objective=hs_norm(p.m - y),
        delta=float(np.sum(f.sigma**2)),
        uniqueness=t.uniqueness,
        minimality_defect=hs_norm(x_hat - _minimal_part(x_hat, fb.v, fc.u)),
        truncation=_lift(fb, fc, t),
    )


def objective(p: GlraProblem, x) -> float:
    """||M - B X C||_HS for a candidate X of shape p x q."""
    xa = as_matrix(x, "X")
    if xa.shape != p.x_shape:
        raise InputError(f"X must have shape {p.x_shape}, got {xa.shape}")
    return hs_norm(p.m - p.b @ xa @ p.c)


def minimality_defect(x, b, c, tol: Tolerances = DEFAULT_TOL) -> float:
    """Distance of X from P_ker(B)-perp X P_ran(C); zero iff X is minimal."""
    xa = as_matrix(x, "X")
    return hs_norm(xa - canonicalize(xa, b, c, tol))


def canonicalize(x, b, c, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Project X onto the minimal representative P_ker(B)-perp X P_ran(C).

    Idempotent, and leaves the product B X C unchanged.
    """
    return _minimal_part(as_matrix(x, "X"), rank_factors(b, tol).v, rank_factors(c, tol).u)


def solution_set_sample(sol: GlraSolution, p: GlraProblem, t, s) -> np.ndarray:
    """A member ``x_hat + P_ker(B) T + S P_ran(C)-perp`` of the solution set.

    Every such matrix attains the same objective; canonicalize() maps it
    back to ``x_hat``.
    """
    ta = as_matrix(t, "T")
    sa = as_matrix(s, "S")
    if ta.shape != p.x_shape or sa.shape != p.x_shape:
        raise InputError(f"T and S must have shape {p.x_shape}")
    vb = rank_factors(p.b).v
    uc = rank_factors(p.c).u
    return sol.x_hat + (ta - vb @ (vb.T @ ta)) + (sa - (sa @ uc) @ uc.T)


@dataclass(frozen=True)
class OptimalError:
    """Optimal objective and the gap delta, with three redundant recomputations."""

    error: float
    delta: float
    delta_variants: tuple[float, float, float]


def _top_eigvals_sum(a: np.ndarray, r: int) -> float:
    # a need not be symmetric; its nonzero spectrum is real and nonnegative
    # because it is similar to a PSD matrix.
    evals = np.sort(np.real(np.linalg.eigvals(a)))[::-1]
    return float(np.sum(evals[:r]))


def _top_singvals_sum(sym: np.ndarray, r: int) -> float:
    s = np.linalg.svd((sym + sym.T) / 2.0, compute_uv=False)
    return float(np.sum(s[:r]))


def optimal_error(p: GlraProblem, tol: Tolerances = DEFAULT_TOL) -> OptimalError:
    """Optimal error and delta = sum of the r largest sigma_i(G)^2.

    delta comes from the truncated core K = U_B^T M V_C.  The three
    variants recompute it from G G^T and from G^T G, both in the bases of
    ran(B) and ker(C)-perp (K K^T and K^T K), and from the eigenvalues of
    B^+ M C^+ C M^T B restricted to ker(B)-perp (S_B^-1 K K^T S_B); all
    four agree to rounding and ``error = sqrt(||M||^2 - delta)``.
    """
    fb, _, core, t = _reduce(p, tol)
    delta = float(np.sum(t.factors.sigma**2))
    gram = core @ core.T
    v1 = _top_singvals_sum(gram, p.r)
    v2 = _top_singvals_sum(core.T @ core, p.r)
    v3 = _top_eigvals_sum(gram / fb.sigma[:, None] * fb.sigma, p.r)
    gap = hs_norm(p.m) ** 2 - delta
    return OptimalError(
        error=float(np.sqrt(max(gap, 0.0))), delta=delta, delta_variants=(v1, v2, v3)
    )


def adjoint_problem(p: GlraProblem) -> GlraProblem:
    """The transposed problem min ||M^T - C^T X B^T|| with B and C swapped."""
    return GlraProblem(m=p.m.T, b=p.c.T, c=p.b.T, r=p.r)


def solve_adjoint(p: GlraProblem, tol: Tolerances = DEFAULT_TOL) -> GlraSolution:
    """Solve the adjoint problem; its objective equals the primal one.

    The returned minimiser X (shape q x p) satisfies the transposed
    minimality property P_ran(C) X P_ker(B)-perp = X.
    """
    return solve(adjoint_problem(p), tol)


def classify_uniqueness(p: GlraProblem, tol: Tolerances = DEFAULT_TOL) -> Uniqueness:
    """Uniqueness flag of the rank-r truncation behind solve()."""
    return _reduce(p, tol)[3].uniqueness


def als_oracle(
    p: GlraProblem, restarts: int = 20, iters: int = 200, seed: int = 0
) -> float:
    """Best objective found by alternating least squares over X = U V^T.

    A brute-force reference for the closed-form solver: U (p x r) and
    V (q x r) are updated by exact least-squares steps from ``restarts``
    seeded random initialisations.  Deterministic for a fixed seed.
    """
    if restarts < 1 or iters < 1:
        raise InputError("restarts and iters must be >= 1")
    rng = np.random.default_rng(seed)
    pp, qq = p.x_shape
    r = min(p.r, pp, qq)
    b_pinv = pinv(p.b)
    best = np.inf
    for _ in range(restarts):
        u = rng.standard_normal((pp, r))
        v = rng.standard_normal((qq, r))
        prev = np.inf
        for _ in range(iters):
            k = v.T @ p.c
            u = b_pinv @ p.m @ pinv(k)
            lhs = p.b @ u
            v = (pinv(lhs) @ p.m @ pinv(p.c)).T
            obj = hs_norm(p.m - lhs @ v.T @ p.c)
            if abs(prev - obj) <= 1e-13 * (1.0 + obj):
                break
            prev = obj
        best = min(best, hs_norm(p.m - p.b @ u @ v.T @ p.c))
    return float(best)

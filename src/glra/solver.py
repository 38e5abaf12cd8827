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
norm property.  The full solution set, the optimal-error identities and
the adjoint problem live here as well.

A problem carries the ``Tolerances`` it is solved with and keeps its one
reduction (the factors of B and C, K and its truncation), so ``solve``,
``optimal_error`` and ``solution_set_sample`` on one problem factorise
each operand once between them and cut it at one rank.  Every
truncation of a problem is cut in that reduction (``_reduce``), at the
problem's tolerances; a caller that already knows the rank-cut factors
of B or C (the identity and C_y^(1/2) of an identity-weight regression
fit) passes them to it, and a chain drawn from a problem takes U_C from
it.  ``rank_factors`` is called there and nowhere else in this module:
``canonicalize`` and ``minimality_defect`` take V_B and U_C from the
problem too.  ``solve`` is the only builder of a
``GlraSolution``, and ``_minimiser`` the one builder of x_hat's factors
L_0 = V_B S_B^-1 U_K, Sigma_K and R_0 = U_C S_C^-1 V_K, which the
solution keeps as ``factors``.  ``_sides`` alone decides which of L_0
and R_0 carries Sigma_K, from that record, and ``_x_hat`` forms x_hat
from those sides; every other consumer of the factors takes its sides
from ``_sides`` too, so none forms x_hat again.  ``solve_adjoint``
builds the transposed problem, which factorises C^T and B^T itself.  A problem holds read-only views of its
inputs, which must not change after construction.

``_residual_norm`` is the one evaluation of ||M - B X C||_HS.  A dense
candidate goes through it as (X, C), which ``objective`` does; a rank-r
answer goes through it as its sides, (L, R^T, C) for x_hat = L R^T,
so ``solve``, the approximate minimisers, the bounded sequence and
``glra outer-approx`` meet B and C with r-column factors only, at
O(r(mp + qn + mn)) instead of O(mpq + mqn), and form neither B x_hat nor
x_hat C.  ``optimal_error`` passes (G)_r's factors, (U_B, U_K Sigma_K,
(V_C V_K)^T).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    InputError,
    SvdFactors,
    Tolerances,
    TruncatedSvd,
    Uniqueness,
    _check_rank_bound,
    _require_finite,
    _svd,
    _truncate,
    as_matrix,
    hs_norm,
    rank_factors,
)

__all__ = [
    "GlraProblem",
    "GlraSolution",
    "OptimalError",
    "canonicalize",
    "minimality_defect",
    "objective",
    "optimal_error",
    "solution_set_sample",
    "solve",
    "solve_adjoint",
]


@dataclass(frozen=True, eq=False)
class GlraProblem:
    """The data (M, B, C, r) of one approximation problem and its tolerances.

    Shapes: M is m x n, B is m x p, C is q x n, and the unknown X is
    p x q so that B X C matches M.  ``tol`` decides the ranks of B, C and
    the core and the tie flag of every function that takes the problem.

    The arrays are validated once, here, and held as read-only views of
    the inputs, not copies: the problem relies on them not changing
    afterwards, because it keeps the factors of B and C and the truncated
    core of its first solve and every later call reuses them.
    ``dataclasses.replace`` (of ``r`` or ``tol``, say) gives a problem that
    factorises afresh.  Problems, like every glra record that holds
    arrays, compare and hash by identity.
    """

    m: np.ndarray
    b: np.ndarray
    c: np.ndarray
    r: int
    tol: Tolerances = DEFAULT_TOL
    # the (fb, fc, core, t) of _reduce, once it has run
    _reduction: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("m", "b", "c"):
            view = as_matrix(getattr(self, name), name.upper()).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
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


@dataclass(frozen=True, eq=False)
class GlraSolution:
    """A solved problem: the minimiser, its image, and diagnostics.

    x_hat satisfies the minimality property by construction (its factors
    lie in span V_B and span U_C), so the solution reports no defect of
    it; ``minimality_defect(x, p)`` measures that of any other candidate.
    ``truncation`` is the chosen rank-r truncation (G)_r of the projected
    matrix G in full coordinates; its matrix is the image ``B x_hat C``
    and ``objective**2 + delta`` recovers ``||M||_HS**2``.  ``factors``
    is x_hat's factorisation x_hat = L_0 Sigma_K R_0^T, as
    ``SvdFactors(u=L_0, sigma=Sigma_K, v=R_0)`` with L_0 = V_B S_B^-1 U_K
    and R_0 = U_C S_C^-1 V_K: the columns of u lie in span V_B and those
    of v in span U_C, but they are not orthonormal.  A caller that
    multiplies x_hat through B or C does so at rank r through these
    factors, with Sigma_K on the side _sides puts it.
    """

    x_hat: np.ndarray
    objective: float
    delta: float
    uniqueness: Uniqueness
    truncation: TruncatedSvd
    factors: SvdFactors


def _reduce(
    p: GlraProblem, fb: SvdFactors | None = None, fc: SvdFactors | None = None
) -> tuple[SvdFactors, SvdFactors, np.ndarray, TruncatedSvd]:
    """Factor B and C once and truncate the core K = U_B^T M V_C.

    Returns the factors of B and C cut at p.tol's rank, K, and the rank-r
    truncation of K in core coordinates.  K has the nonzero singular
    values of G, whose shape is M's, so its rank is decided with G's
    cutoff.  A caller that already holds the rank-cut factors of B or C
    (a diagonal operand, say) passes them as fb or fc, and only the other
    operand is factorised.  The first call stores the result on p and
    every later one returns the stored one, so factors passed to a
    problem that is already reduced are not used.
    """
    if p._reduction is None:
        fb = rank_factors(p.b, p.tol) if fb is None else fb
        fc = rank_factors(p.c, p.tol) if fc is None else fc
        core = fb.u.T @ p.m @ fc.v
        t = _truncate(_svd(core), p.r, p.m.shape, p.tol)
        object.__setattr__(p, "_reduction", (fb, fc, core, t))
    return p._reduction


def _lift(fb: SvdFactors, fc: SvdFactors, t: TruncatedSvd) -> TruncatedSvd:
    """A core truncation as the truncation of G: left vectors U_B u, right V_C v."""
    f = t.factors
    return replace(t, factors=SvdFactors(u=fb.u @ f.u, sigma=f.sigma, v=fc.v @ f.v))


def _minimiser(fb: SvdFactors, fc: SvdFactors, f: SvdFactors) -> SvdFactors:
    """x_hat's factors L_0 = V_B S_B^-1 U_K, Sigma_K and R_0 = U_C S_C^-1 V_K.

    f holds the core factors U_K, Sigma_K and V_K in the coordinates of
    ran(B) and ker(C)-perp, and fb and fc the rank-cut factors of B and C,
    so x_hat = L_0 Sigma_K R_0^T.  A factor that overflows (a B or C whose
    kept singular values lie below the float range's reciprocal) is left
    for the finiteness check of what is formed from it, x_hat's in _x_hat,
    so numpy prints no warning for it here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return SvdFactors(u=(fb.v / fb.sigma) @ f.u, sigma=f.sigma, v=(fc.u / fc.sigma) @ f.v)


def _sides(x: SvdFactors) -> tuple[np.ndarray, np.ndarray]:
    """(L, R) with x = L R^T: Sigma on u, or on v where u Sigma overflows.

    Sigma_K goes on L_0 unless that product leaves the float range (a tiny
    B with a huge C, whose S_B^-1 Sigma_K overflows while x_hat does not);
    then it goes on R_0.  The rule reads the record alone.  Every product
    of x at rank r, x_hat itself and B x_hat C's factors, takes its sides
    from here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        left = x.u * x.sigma
        return (left, x.v) if np.isfinite(left).all() else (x.u, x.v * x.sigma)


def _x_hat(x: SvdFactors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x_hat = L R^T formed from its factors x, with the sides (L, R) of _sides.

    An x_hat that overflows is reported by _require_finite as
    NumericalError, so numpy prints no warning for it.
    """
    left, right = _sides(x)
    with np.errstate(over="ignore", invalid="ignore"):
        x_hat = left @ right.T
    _require_finite(x_hat=x_hat)
    return x_hat, left, right


def _delta(t: TruncatedSvd) -> float:
    """The sum of the truncation's squared singular values, ||(G)_r||_HS^2.

    An overflow is left to _require_finite to report as NumericalError, so
    numpy prints no warning for it.
    """
    with np.errstate(over="ignore"):
        return float(np.sum(t.factors.sigma**2))


def solve(p: GlraProblem) -> GlraSolution:
    """Closed-form minimiser of ||M - B X C||_HS over rank(X) <= r.

    When the truncation is not unique the deterministic canonical one is
    used and the solution is flagged ``NON_UNIQUE``.  With x_hat = L R^T,
    the objective is taken at x_hat's rank, as ||M - (B L)(R^T C)||, and
    x_hat's factors stay on the solution as ``factors``.
    """
    fb, fc, _, t = _reduce(p)
    factors = _minimiser(fb, fc, t.factors)
    x_hat, left, right = _x_hat(factors)
    delta = _delta(t)
    _require_finite(delta=delta)
    return GlraSolution(
        x_hat=x_hat,
        objective=_residual_norm(p.m, p.b, left, right.T, p.c),
        delta=delta,
        uniqueness=t.uniqueness,
        truncation=_lift(fb, fc, t),
        factors=factors,
    )


def _candidate(p: GlraProblem, x) -> np.ndarray:
    """X as a matrix of p's unknown shape p x q, or InputError."""
    xa = as_matrix(x, "X")
    if xa.shape != p.x_shape:
        raise InputError(f"X must have shape {p.x_shape}, got {xa.shape}")
    return xa


def objective(p: GlraProblem, x) -> float:
    """||M - B X C||_HS for a candidate X of shape p x q.

    Raises NumericalError when B X C or the residual overflows: the inputs
    were finite, so this is a numerical failure, not bad input.  A finite
    residual whose squares overflow still has its norm (see hs_norm).
    """
    return _residual_norm(p.m, p.b, _candidate(p, x), p.c)


def _residual_norm(
    target: np.ndarray, b: np.ndarray, left: np.ndarray, *rights: np.ndarray,
    name: str = "objective",
) -> float:
    """||target - (B left) (R_1 R_2 ...)||_HS, the one evaluation of a residual of B X C.

    X = left R_1 ... with the last right factor C's: a dense candidate
    passes (X, C), the product objective has always formed, and a rank-r
    answer L R^T passes (L, R^T, C), so B and C meet r-column factors
    only.  (G)_r = U_B (U_K Sigma_K) (V_C V_K)^T passes U_B as B.  The
    right factors are multiplied first, left to right.  An overflow (or
    inf - inf) anywhere on the way leaves a non-finite residual, reported
    as NumericalError under ``name``, not as numpy's warning; a finite
    residual whose squares overflow still has its norm (see hs_norm).
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        residual = target - (b @ left) @ reduce(np.matmul, rights)
    try:
        value = hs_norm(residual)
    except InputError:  # residual is a non-empty matrix, so its entries overflowed
        value = np.inf
    _require_finite(**{name: value})
    return value


def minimality_defect(x, p: GlraProblem) -> float:
    """Distance of X from P_ker(B)-perp X P_ran(C); zero iff X is minimal.

    The projection is canonicalize's, with p's factors of B and C.
    """
    xa = as_matrix(x, "X")
    return hs_norm(xa - canonicalize(xa, p))


def canonicalize(x, p: GlraProblem) -> np.ndarray:
    """Project X onto the minimal representative P_ker(B)-perp X P_ran(C).

    V_B and U_C come from p's one reduction, so B and C are cut at p's
    rank.  Idempotent, and leaves the product B X C unchanged.
    """
    xa = _candidate(p, x)
    fb, fc, _, _ = _reduce(p)
    return fb.v @ (fb.v.T @ xa @ fc.u) @ fc.u.T


def solution_set_sample(sol: GlraSolution, p: GlraProblem, t, s) -> np.ndarray:
    """A member ``x_hat + P_ker(B) T + S P_ran(C)-perp`` of the solution set.

    ``sol`` is solve(p).  Every such matrix attains the same objective, and
    canonicalize(member, p) maps it back to ``x_hat``: V_B and U_C come
    from the factors that solved p.
    """
    ta = as_matrix(t, "T")
    sa = as_matrix(s, "S")
    if ta.shape != p.x_shape or sa.shape != p.x_shape:
        raise InputError(f"T and S must have shape {p.x_shape}")
    fb, fc, _, _ = _reduce(p)
    vb, uc = fb.v, fc.u
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


def _top_abs_eigvalsh_sum(gram: np.ndarray, r: int) -> float:
    # the singular values of the symmetrised Gram matrix are its |eigenvalues|;
    # the abs folds the rounding-level negatives of a rank-deficient one
    evals = np.sort(np.abs(np.linalg.eigvalsh((gram + gram.T) / 2.0)))[::-1]
    return float(np.sum(evals[:r]))


def optimal_error(p: GlraProblem) -> OptimalError:
    """Optimal error and delta = sum of the r largest sigma_i(G)^2.

    delta comes from the truncated core K = U_B^T M V_C, whose kept
    values lie above the rank cutoff.  The three variants recompute it
    without that SVD and without that cut, so a wrong rank cut shows as
    their disagreement.  The first two sum the r largest |eigenvalues|
    (``eigvalsh``) of G G^T and of G^T G, both in the bases of ran(B)
    and ker(C)-perp and symmetrised (K K^T and K^T K).  The third sums
    the r largest real parts of the eigenvalues (``eigvals``, a
    nonsymmetric solver, so it shares no code path with the other two)
    of B^+ M C^+ C M^T B restricted to ker(B)-perp,
    S_B^-1 K K^T S_B, formed as K K^T times the ratios sigma_j / sigma_i
    of B's kept singular values: the rank cut bounds those, so the
    similarity does not overflow where 1/sigma_i alone would.  All four
    agree to rounding.
    ``error = ||M - (G)_r||_HS`` is the residual of the truncation, taken
    by _residual_norm from its factors (U_B U_K Sigma_K)(V_C V_K)^T; it
    equals sqrt(||M||^2 - delta) in exact arithmetic but, unlike that
    difference, does not cancel when the fit is nearly exact.
    """
    fb, fc, core, t = _reduce(p)
    delta = _delta(t)
    _require_finite(delta=delta)
    f = t.factors
    error = _residual_norm(p.m, fb.u, f.u * f.sigma, (fc.v @ f.v).T, name="error")
    gram = core @ core.T
    v1 = _top_abs_eigvalsh_sum(gram, p.r)
    v2 = _top_abs_eigvalsh_sum(core.T @ core, p.r)
    v3 = _top_eigvals_sum(gram * (fb.sigma / fb.sigma[:, None]), p.r)
    return OptimalError(error=error, delta=delta, delta_variants=(v1, v2, v3))


def solve_adjoint(p: GlraProblem) -> GlraSolution:
    """Solve the adjoint problem min ||M^T - C^T X B^T||; its objective equals the primal one.

    The returned minimiser X (shape q x p) satisfies the transposed
    minimality property P_ran(C) X P_ker(B)-perp = X.  The transposed
    problem is a new one, with p's tolerances: C^T and B^T are factorised
    afresh, not taken from p's factors, so the objective is an
    independent recomputation of the primal one.
    """
    return solve(GlraProblem(m=p.m.T, b=p.c.T, c=p.b.T, r=p.r, tol=p.tol))

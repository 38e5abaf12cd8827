"""Finite-truncation emulation of infinite-dimensional behaviour.

The closed-form minimiser involves C^+, so when C compresses coordinates
at a summable rate the minimiser's columns can grow without bound as the
truncation dimension N increases.  This module builds the diagonal
construction exhibiting that growth, sweeps it over N to measure the
growth law, produces approximate minimisers from perturbed truncations,
and approximates the unbounded minimiser by bounded ones through chains
of finite-rank outer inverses of C.  "Unbounded" is always operationalised
as divergence of probe norms under a stated law, never as a boolean.

The sweep's cross-check, the approximate minimisers and the bounded
sequence take x_hat's factors L_0, Sigma_K and R_0 from the solver
(``_minimiser``, or a solution's ``factors``) and the side that carries
Sigma_K from its ``_sides``; none forms x_hat again to get them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    InputError,
    NumericalError,
    SvdFactors,
    Tolerances,
    _check_rank_bound,
    _cutoff,
    _diagonal_factors,
    _require_finite,
    _seed,
    _svd,
    _tied,
    _truncate,
    as_matrix,
    check_bound,
    hs_norm,
    rank_factors,
)
from .solver import (
    GlraProblem,
    GlraSolution,
    _lift,
    _minimiser,
    _reduce,
    _residual_norm,
    _sides,
    _x_hat,
    solve,
)

__all__ = [
    "ApproxStep",
    "ApproximationSequence",
    "BoundedApproxResult",
    "BoundedApproxStep",
    "LowerBoundResult",
    "OuterInverseStep",
    "SequenceInstance",
    "SequenceSpec",
    "SubspaceChain",
    "SweepRow",
    "UnboundednessSweep",
    "approximate_minimizers",
    "bounded_approximation_sequence",
    "build_instance",
    "full_chain",
    "lower_bound_constant",
    "nested_chain",
    "outer_inverse_chain",
    "unboundedness_sweep",
]


@dataclass(frozen=True)
class SequenceSpec:
    """Symbolic description of the diagonal construction at dimension ``n``.

    gamma_n = n**(-gamma_exponent) are C's diagonal entries, alpha_n =
    n**alpha_exponent the growth weights, and mu the spectrum of the
    target M: explicit head values continued by the power tail
    mu_k = mu_head[-1] * (len(mu_head)/k)**mu_tail_exponent.

    gamma_exponent - alpha_exponent > 1/2 keeps (alpha_n * gamma_n)
    square-summable, so the weight vector w has a dimension-independent
    norm limit.
    """

    gamma_exponent: float
    alpha_exponent: float
    mu_head: tuple[float, ...] = (1.0, 0.5)
    mu_tail_exponent: float = 1.0
    n: int = 50
    r: int = 1

    def __post_init__(self) -> None:
        # NaN passes every comparison below, and an infinite exponent
        # overflows the construction, so finiteness is judged first
        for name in ("gamma_exponent", "alpha_exponent", "mu_tail_exponent"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if not np.isfinite(self.mu_head).all():
            raise InputError(f"mu_head must be finite, got {self.mu_head}")
        if self.gamma_exponent <= 0:
            raise InputError("gamma_exponent must be positive")
        if not self.gamma_exponent - self.alpha_exponent > 0.5:
            raise InputError(
                "need gamma_exponent - alpha_exponent > 1/2 for square-summable weights"
            )
        _check_rank_bound(self.r)
        if self.n < max(3, self.r + 2):
            raise InputError(f"dimension n must be >= max(3, r+2), got {self.n}")
        mu = self.mu_values(self.n)
        if np.any(mu <= 0) or np.any(np.diff(mu) > 0):
            raise InputError("mu must be positive and nonincreasing")

    def mu_values(self, n: int) -> np.ndarray:
        head = np.asarray(self.mu_head, dtype=float)
        if head.size == 0:
            raise InputError("mu_head must contain at least one value")
        if n <= head.size:
            return head[:n].copy()
        tail_idx = np.arange(head.size + 1, n + 1, dtype=float)
        tail = head[-1] * (head.size / tail_idx) ** self.mu_tail_exponent
        return np.concatenate([head, tail])


@dataclass(frozen=True, eq=False)
class SequenceInstance:
    """One truncated instance: its raw pieces, and the problem they define.

    The target M = F diag(mu) F^T and the problem (M, B = I,
    C = diag(gamma)) are each built and validated on first read.  A caller
    that needs only the pieces forms no n x n product: a tied sweep step
    forms its two branches only up to its largest probe column.  One that
    needs only M, such as an untied sweep step, builds no problem.
    """

    spec: SequenceSpec
    w: np.ndarray
    f_basis: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    mu: np.ndarray

    @cached_property
    def m(self) -> np.ndarray:
        """The symmetrised target M, read-only, as it is shared with ``problem``."""
        f = self.f_basis
        # a mu near the float range overflows M, which is reported as
        # NumericalError, so numpy prints no warning for it
        with np.errstate(over="ignore", invalid="ignore"):
            m = (f * self.mu) @ f.T
            m = (m + m.T) / 2.0
        _require_finite(M=m)
        m.flags.writeable = False
        return m

    @cached_property
    def problem(self) -> GlraProblem:
        n = self.spec.n
        return GlraProblem(m=self.m, b=np.eye(n), c=np.diag(self.gamma), r=self.spec.r)


def _complete_basis(cols: list[np.ndarray], n: int) -> np.ndarray:
    """Extend the given orthonormal columns to a full orthonormal basis of R^n.

    One complete Householder QR of the given columns: its leading columns
    span them and the rest is a deterministic orthonormal complement.  The
    given columns are written back exactly, so their signs and bits survive.
    """
    given = np.column_stack(cols)
    q, _ = np.linalg.qr(given, mode="complete")
    q[:, : given.shape[1]] = given
    return q


def build_instance(spec: SequenceSpec) -> SequenceInstance:
    """Materialise the construction's pieces at dimension spec.n.

    w carries alpha_k * gamma_k for k >= 2 (zero in the first slot); the
    target is M = F diag(mu) F^T with F the orthonormal completion of
    f1 = w/||w||, f2 = e1; B is the identity and C = diag(gamma).  The
    problem itself is built when ``problem`` is first read.
    """
    n = spec.n
    idx = np.arange(1, n + 1, dtype=float)
    mu = spec.mu_values(n)
    # extreme exponents overflow alpha_k (and inf * 0 is NaN) or underflow
    # every gamma_k, k >= 2, to 0; both are reported as NumericalError, so
    # numpy prints no warning for them
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = idx ** (-spec.gamma_exponent)
        alpha = idx**spec.alpha_exponent
        w = alpha * gamma
    w[0] = 0.0
    _require_finite(w=w)
    w_norm = np.linalg.norm(w)
    if w_norm == 0.0:
        raise NumericalError("w is zero: alpha_k * gamma_k underflows float64 for every k >= 2")
    f1 = w / w_norm
    f2 = np.zeros(n)
    f2[0] = 1.0
    f = _complete_basis([f1, f2], n)
    return SequenceInstance(spec=spec, w=w, f_basis=f, gamma=gamma, alpha=alpha, mu=mu)


@dataclass(frozen=True)
class SweepRow:
    n: int
    m: int
    norm: float
    predicted_norm: float


@dataclass(frozen=True)
class UnboundednessSweep:
    """Probe-column norms across truncation dimensions.

    ``rows`` follow the growing branch (truncation aligned with f1) whose
    probe norms obey mu_1 * alpha_m / ||w||; when the top of mu is tied the
    result is flagged and ``bounded_rows`` carries the second canonical
    branch mu_2/gamma_1 <.,e1> e1, whose probe norms stay flat.
    """

    rows: list[SweepRow]
    bounded_rows: list[SweepRow]
    tie: bool
    w_norms: dict[int, float]
    lower_bounds: dict[int, float]


def _probe_rows(
    n: int, probes: list[int], x: np.ndarray, predicted: Callable[[int], float]
) -> list[SweepRow]:
    """The rows ||X e_m|| of the probe columns m of X at dimension n, against the law.

    A column's norm is hs_norm's, which neither underflows nor overflows
    while the norm itself is representable; a norm or a law that overflows
    is reported as NumericalError, so numpy prints no warning for it.
    """
    with np.errstate(over="ignore"):
        rows = [SweepRow(n, m, hs_norm(x[:, m - 1 : m]), float(predicted(m))) for m in probes]
    _require_finite(**{"probe norm": [(row.norm, row.predicted_norm) for row in rows]})
    return rows


def unboundedness_sweep(
    spec: SequenceSpec,
    n_values: list[int],
    probes: list[int],
    tol: Tolerances = DEFAULT_TOL,
) -> UnboundednessSweep:
    """Tabulate ||X e_m|| against the closed-form growth law over N.

    Requires r = 1.  Each assembled branch is mu_j f_j (f_j^T C^+), its row
    the product (f_j^T V_C S_C^-1) U_C^T.  For mu_1 > mu_2 the solver's
    canonical minimiser is cross-checked against the whole assembled one.
    At a tie both canonical branches are assembled, but only up to the
    largest probe column the step tabulates, so an overflow beyond it is
    never formed and the step's finite probe rows are returned; an overflow
    within the columns formed is a NumericalError.  A probe index larger
    than some sweep dimension is tabulated only at the dimensions that
    contain it.
    """
    if spec.r != 1:
        raise InputError("the growth sweep is defined for rank bound r = 1")
    if not n_values or not probes:
        raise InputError("a sweep needs at least one dimension and one probe index")
    if min(probes) < 1:
        raise InputError("probe indices must be >= 1")
    if max(probes) > max(n_values):
        raise InputError(
            f"probe index {max(probes)} exceeds the largest sweep dimension {max(n_values)}"
        )
    mu_head = spec.mu_values(2)
    tie = _tied(mu_head[0], mu_head[1], mu_head[0], tol)
    rows: list[SweepRow] = []
    bounded_rows: list[SweepRow] = []
    w_norms: dict[int, float] = {}
    lower_bounds: dict[int, float] = {}
    for n in n_values:
        inst = build_instance(replace(spec, n=n))
        # probes beyond this truncation appear once the sweep reaches them
        live_probes = [m for m in probes if m <= n]
        w_norm = float(np.linalg.norm(inst.w))
        w_norms[n] = w_norm
        # B = I and C = diag(gamma) come with their factors: the core of the
        # cross-check, the minimiser, the rows f^T C^+ and the lower bound
        # take them from the construction
        fc = _diagonal_factors(inst.gamma, tol)
        f1, f2 = inst.f_basis[:, 0], inst.f_basis[:, 1]
        # a tied step reads its branches mu f (f^T C^+) only at the probe
        # columns, so it forms them up to the largest of those; an untied
        # step cross-checks the whole of x_a
        width = max(live_probes, default=0) if tie else n
        # the rows f1^T C^+ and f2^T C^+, both as (f^T V_C S_C^-1) U_C^T
        pinv_rows = ((inst.f_basis[:, :2].T @ (fc.v / fc.sigma)) @ fc.u.T)[:, :width]
        # a mu near the float range overflows the assembled minimiser, which
        # is reported as NumericalError, so numpy prints no warning for it
        with np.errstate(over="ignore", invalid="ignore"):
            x_a = inst.mu[0] * np.outer(f1, pinv_rows[0])
        _require_finite(x_a=x_a)
        if not tie:
            fb = _diagonal_factors(np.ones(n), tol)
            if fb.sigma.size != n:
                raise NumericalError(
                    f"B's factors keep {fb.sigma.size} of the identity's {n} axes; "
                    "the sweep's core needs all of them"
                )
            # B's factors are the identity and C's keep its leading axes, so
            # the core U_B^T M V_C is M's leading rank(C) columns: a view,
            # truncated as G with the bits of solver._reduce on the problem,
            # which is not built
            t = _truncate(_svd(inst.m[:, : fc.sigma.size]), 1, (n, n), tol)
            x_hat = _x_hat(_minimiser(fb, fc, t.factors))[0]
            residual = hs_norm(x_hat - x_a)
            if residual > check_bound(n, hs_norm(x_hat)):
                raise NumericalError(
                    f"solver minimiser deviates from assembled form by {residual:.3e}"
                )
            x_a = x_hat
        rows += _probe_rows(
            n,
            live_probes,
            x_a,
            lambda m: 0.0 if m == 1 else inst.mu[0] * inst.alpha[m - 1] / w_norm,
        )
        if tie:
            x_b = inst.mu[1] * np.outer(f2, pinv_rows[1])
            bounded_rows += _probe_rows(
                n, live_probes, x_b, lambda m: inst.mu[1] / inst.gamma[0] if m == 1 else 0.0
            )
        # the truncation mu_1 f1 f1^T has the kernel of its row factor mu_1 f1^T
        z = inst.mu[0] * f1[None, :]
        lower_bounds[n] = _lower_bound(fc, z, tol).constant
    return UnboundednessSweep(
        rows=rows,
        bounded_rows=bounded_rows,
        tie=tie,
        w_norms=w_norms,
        lower_bounds=lower_bounds,
    )


@dataclass(frozen=True, eq=False)
class ApproxStep:
    x: np.ndarray
    objective: float
    deviation_sq: float
    epsilon: float


@dataclass(frozen=True, eq=False)
class ApproximationSequence:
    """Perturbed-truncation minimisers Y_eps = sum lambda_i (f_i + eps d_i) e_i^T."""

    target_y: np.ndarray
    lambdas: np.ndarray
    steps: list[ApproxStep]


def approximate_minimizers(
    p: GlraProblem, epsilons: list[float], seed: int = 0
) -> ApproximationSequence:
    """Minimising sequence built by perturbing the target truncation.

    Each left singular direction f_i of the truncation is replaced by
    f_i + eps * d_i with seeded random unit vectors d_i inside ran(B), so
    ||Y - Y_eps||_HS^2 = sum_i lambda_i^2 eps^2 <= r lambda_1^2 eps^2 and
    every step retains the minimality property exactly.  As f_i = U_B u_i
    and d_i both lie in ran(B), X_eps = B^+ Y_eps C^+ is X_0 + eps X_D:
    the solver's minimiser x_hat = L_0 Sigma_K R_0^T, and the same product
    with L_0 replaced by L_D = V_B S_B^-1 U_B^T D.  Both share the right
    factor R of x_hat's sides, so X_eps = (L_0 + eps L_D) R^T, and a
    step's objective is taken from those factors, as solve's is: at
    eps = 0 it is solve's bit for bit.
    """
    if not np.isfinite(epsilons).all():
        raise InputError("epsilons must be finite")
    fb, fc, _, t = _reduce(p)
    tsvd = _lift(fb, fc, t)
    lambdas = tsvd.factors.sigma.copy()
    f_vecs, e_vecs = tsvd.factors.u, tsvd.factors.v
    rng = np.random.default_rng(_seed(seed))
    # a Gaussian projected onto ran(B) != {0} is nonzero with probability 1
    directions = np.zeros((p.m.shape[0], lambdas.size))
    for i in range(lambdas.size):
        d = fb.u @ (fb.u.T @ rng.standard_normal(p.m.shape[0]))
        directions[:, i] = d / np.linalg.norm(d)
    x = _minimiser(fb, fc, t.factors)
    x_0, left_0, right = _x_hat(x)
    # L_D = V_B S_B^-1 U_B^T D carries Sigma_K where L_0 does, so that X_D =
    # L_D R^T shares x_hat's right factor; an overflow is reported as x_eps
    with np.errstate(over="ignore", invalid="ignore"):
        left_d = (fb.v / fb.sigma) @ (fb.u.T @ directions) * (x.sigma if right is x.v else 1.0)
        x_d = left_d @ right.T
    target_y = tsvd.matrix()
    steps: list[ApproxStep] = []
    for eps in epsilons:
        # an eps that overflows a step is reported as NumericalError, so
        # numpy prints no warning for it and hs_norm sees finite matrices only
        with np.errstate(over="ignore", invalid="ignore"):
            x_eps = x_0 + eps * x_d
            left = left_0 + eps * left_d
            y_eps = ((f_vecs + eps * directions) * lambdas) @ e_vecs.T
            deviation = target_y - y_eps
        _require_finite(x_eps=x_eps, y_eps=y_eps, deviation=deviation)
        # a float64 square, which a huge M overflows into inf, not OverflowError
        with np.errstate(over="ignore"):
            deviation_sq = np.float64(hs_norm(deviation)) ** 2
        _require_finite(deviation_sq=deviation_sq)
        steps.append(
            ApproxStep(
                x=x_eps,
                objective=_residual_norm(p.m, p.b, left, right.T, p.c),
                deviation_sq=float(deviation_sq),
                epsilon=float(eps),
            )
        )
    return ApproximationSequence(target_y=target_y, lambdas=lambdas, steps=steps)


@dataclass(frozen=True, eq=False)
class SubspaceChain:
    """Nested orthonormal-column bases Y_1 subset Y_2 subset ... inside ran(C)."""

    bases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.bases:
            raise InputError("a subspace chain needs at least one step")


def _range_basis(source, tol: Tolerances | None) -> np.ndarray:
    """U_C of C's rank-cut factors, from a GlraProblem or from a bare C.

    A problem's C is cut at p.tol, in the problem's one reduction, so a
    bounded sequence along the chain does not factorise C again; a tol
    given with a problem must equal p.tol.  A bare C is factorised at tol,
    DEFAULT_TOL when it is None.  A C of rank 0 holds no chain, which is
    an InputError: its one basis would have no column.
    """
    if isinstance(source, GlraProblem):
        if tol not in (None, source.tol):
            raise InputError(f"a chain of a problem is cut at the problem's tolerances, not {tol}")
        u = _reduce(source)[1].u
    else:
        u = rank_factors(source, tol or DEFAULT_TOL).u
    if u.shape[1] == 0:
        raise InputError("C has rank 0, and ran(C) = {0} holds no chain")
    return u


def full_chain(source, tol: Tolerances | None = None) -> SubspaceChain:
    """The one-step chain spanning all of ran(C), U_C of C's rank-cut factors.

    ``source`` is a GlraProblem, whose reduction supplies U_C, or a bare
    C (see _range_basis).
    """
    return SubspaceChain(bases=(_range_basis(source, tol),))


def nested_chain(source, steps: int, seed: int = 0, tol: Tolerances | None = None) -> SubspaceChain:
    """A seeded random nested chain exhausting ran(C) in ``steps`` steps.

    U_C of C's rank-cut factors, from a GlraProblem or a bare C as for
    full_chain, is mixed by the Q of a seeded Gaussian square, and the
    steps are its leading columns.  A chain has at most rank C steps, so
    a larger ``steps`` gives the chain of rank C steps.
    """
    if steps < 1:
        raise InputError("steps must be >= 1")
    u = _range_basis(source, tol)
    d = u.shape[1]
    rng = np.random.default_rng(_seed(seed))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    mixed = u @ q
    # for steps >= d the cuts are 1 ... d, so no larger count is looped over
    steps = min(steps, d)
    cuts = sorted(set(int(np.ceil(d * (k + 1) / steps)) for k in range(steps)))
    return SubspaceChain(bases=tuple(mixed[:, :cut] for cut in cuts))


@dataclass(frozen=True, eq=False)
class OuterInverseStep:
    """One finite-rank outer inverse: inverts P_n C on X_n, zero on Y_n-perp.

    ``x_basis`` is an orthonormal basis V_C Q of X_n = span(C^T Y_n), built
    in C's coordinates (see _outer_inverse_chain).
    """

    c_sharp: np.ndarray
    y_basis: np.ndarray
    x_basis: np.ndarray


def outer_inverse_chain(
    c, chain: SubspaceChain, tol: Tolerances = DEFAULT_TOL
) -> list[OuterInverseStep]:
    """Finite-rank outer inverses of C adapted to the chain.

    Each step satisfies C# C C# = C# and agrees with Q_n C^+ where Q_n
    projects onto X_n = span(C^T Y_n); once the chain spans ran(C) the
    outer inverse coincides with C^+.  C is factorised once, and each step
    is built from its rank-cut factors with no factorisation of its own.
    """
    return _outer_inverse_chain(rank_factors(as_matrix(c, "C"), tol), chain)


def _outer_inverse_chain(fc: SvdFactors, chain: SubspaceChain) -> list[OuterInverseStep]:
    """outer_inverse_chain from the rank-cut factors C = U_C S_C V_C^T.

    Each step is checked and then built from its coordinates A_n = U_C^T Y_n
    in ran(C), which have orthonormal columns once the step lies inside
    ran(C).  Then C^T Y_n = V_C S_C A_n, and the QR S_C A_n = Q R gives
    X_n = V_C Q and Y_n^T C X_n = R^T, so C_n# = X_n R^-T Y_n^T.  As
    R^T R = A_n^T S_C^2 A_n, no singular value of R lies below sigma_rho,
    which C's rank cut has kept: a step takes one rho x k QR and one k x k
    solve, and makes no rank decision of its own.
    """
    # C's rows, and so the chain's columns, live in R^dim
    dim = fc.u.shape[0]
    rel = fc.sigma / fc.sigma[0] if fc.sigma.size else fc.sigma
    steps: list[OuterInverseStep] = []
    for i, y in enumerate(chain.bases, 1):
        ya = as_matrix(y, f"chain step {i}")
        if ya.shape[0] != dim:
            raise InputError(f"chain step {i} lives in dimension {ya.shape[0]}, expected {dim}")
        # columns of unit norm, so orthonormality and nesting have unit scale
        if np.max(np.abs(ya.T @ ya - np.eye(ya.shape[1]))) > check_bound(dim, 1.0):
            raise InputError(f"chain step {i} columns are not orthonormal")
        # the k-th direction of ran(C) is known to the angle eps ||C|| / sigma_k,
        # which a step weights by its coefficients in C^+ Y; the scale has
        # degree 0 in C, so it is taken from sigma / sigma_1, which the rank
        # cut keeps finite and nonzero however tiny or huge C is
        coef = fc.u.T @ ya
        escape_scale = np.linalg.norm(rel) * np.linalg.norm(coef / rel[:, None])
        residual = np.max(np.abs(ya - fc.u @ coef))
        # more than rank C orthonormal columns escape however loose the scale
        # is; "not <=" also rejects a NaN
        if ya.shape[1] > rel.size or not residual <= check_bound(dim, escape_scale):
            raise InputError(f"chain step {i} escapes ran(C)")
        if steps:
            prev = steps[-1].y_basis
            if np.max(np.abs(prev - ya @ (ya.T @ prev))) > check_bound(dim, 1.0):
                raise InputError(f"chain step {i} does not contain step {i - 1}")
        q, r = np.linalg.qr(fc.sigma[:, None] * coef)
        x_basis = fc.v @ q
        c_sharp = x_basis @ np.linalg.solve(r.T, ya.T)
        steps.append(OuterInverseStep(c_sharp=c_sharp, y_basis=ya, x_basis=x_basis))
    return steps


@dataclass(frozen=True, eq=False)
class BoundedApproxStep:
    """One bounded minimiser X_n and the outer inverse C_n# it is built from."""

    x: np.ndarray
    tail_error: float
    outer: OuterInverseStep


@dataclass(frozen=True, eq=False)
class BoundedApproxResult:
    solution: GlraSolution
    steps: list[BoundedApproxStep]


def bounded_approximation_sequence(p: GlraProblem, chain: SubspaceChain) -> BoundedApproxResult:
    """Bounded minimising sequence X_n = B^+ (G)_r C_n# along the chain.

    Each step keeps the minimality property and satisfies
    B X_n C = (G)_r Q_n, so the squared distance of B X_n C from the
    optimum is the tail sum of ||(G)_r e_i||^2 over directions of
    ker(C)-perp not yet covered; it reaches zero for exhaustive chains.

    B^+ (G)_r = x_hat C, because the rows of (G)_r lie in ker(C)-perp, and
    x_hat = L R^T with the sides (L, R) of the solution's ``factors``, so
    X_n = L W_n with the r-row W_n = (R^T C) C_n#; the
    tail is ||(G)_r - (B L)(W_n C)||^2.  Neither x_hat C nor B X_n C is
    formed, so a representable X_n whose x_hat C would overflow is still
    found.

    The steps are built from the factors of C in p's one reduction, which
    a chain drawn from p (see full_chain) has already made, so C is
    factorised once.
    """
    fc = _reduce(p)[1]
    sol = solve(p)
    g_r = sol.truncation.matrix()
    left, right = _sides(sol.factors)
    # an overflow leaves a non-finite X_n, reported below as NumericalError,
    # so numpy prints no warning for it
    with np.errstate(over="ignore", invalid="ignore"):
        w = right.T @ p.c
    steps: list[BoundedApproxStep] = []
    for outer in _outer_inverse_chain(fc, chain):
        with np.errstate(over="ignore", invalid="ignore"):
            w_n = w @ outer.c_sharp
            x_n = left @ w_n
        _require_finite(x_n=x_n)
        tail = _residual_norm(g_r, p.b, left, w_n, p.c, name="tail_error") ** 2
        steps.append(BoundedApproxStep(x=x_n, tail_error=tail, outer=outer))
    return BoundedApproxResult(solution=sol, steps=steps)


@dataclass(frozen=True)
class LowerBoundResult:
    """Smallest singular value of C restricted to ker(Z) int ker(C)-perp.

    A sweep of this constant over truncation dimensions diagnoses the
    limit: decay to zero means the limiting minimiser is unbounded, a
    uniform lower bound means it stays bounded.  ``subspace_dim`` = 0
    flags the empty-intersection convention (constant 0).  When Z sees
    one direction of ker(C)-perp the constant is the root of a secular
    equation, found by Newton's method, which agrees with an SVD of C on
    the intersection within check_bound; when Z sees more, it is that SVD.
    """

    constant: float
    subspace_dim: int


def lower_bound_constant(c, z, tol: Tolerances = DEFAULT_TOL) -> LowerBoundResult:
    """Smallest singular value of C on ker(Z) int ker(C)-perp (see LowerBoundResult).

    The intersection is found by principal angles from ker(C)-perp's side.
    """
    ca = as_matrix(c, "C")
    za = as_matrix(z, "Z")
    if za.shape[1] != ca.shape[1]:
        raise InputError(
            f"Z must act on C's domain: expected {ca.shape[1]} columns, got {za.shape[1]}"
        )
    return _lower_bound(rank_factors(ca, tol), za, tol)


def _lower_bound(fc: SvdFactors, z: np.ndarray, tol: Tolerances) -> LowerBoundResult:
    """lower_bound_constant from the rank-cut factors of C, whose domain is R^n.

    With V_C the basis of ker(C)-perp and R one of ker(Z)-perp, the
    singular values of the k x rho matrix R^T V_C are the sines of the
    principal angles between ker(C)-perp and ker(Z) (Bjorck & Golub, Math.
    Comp. 1973).  A sine is cut by the rank rule at scale 1, because V_C
    and R are orthonormal; the k' right vectors W of the sines kept span
    the part of ker(C)-perp's coordinates y that Z sees, so the
    intersection is V_C y over y orthogonal to W, of dimension rho - k'.
    As C V_C y = U_C S_C y, the constant is the smallest singular value of
    S_C restricted to W-perp (Golub, SIAM Review 1973), which Cauchy
    interlacing brackets in [sigma_rho, sigma_(rho-k')].

    For k' = 1 it is the smallest root of a secular equation, which
    _secular_newton finds.  For k' > 1 the complement Y of W comes from
    one complete QR of W, and the constant is the smallest singular value
    of S_C Y.
    """
    rho = fc.sigma.size
    sines = rank_factors(z, tol).v.T @ fc.v
    _, s, vh = np.linalg.svd(sines, full_matrices=False)
    kept = int(np.count_nonzero(s > _cutoff(1.0, fc.v.shape[0], tol)))
    if kept == rho:
        return LowerBoundResult(constant=0.0, subspace_dim=0)
    if not fc.sigma[-1] < fc.sigma[-1 - kept]:
        # Z sees nothing (k' = 0), or sigma_rho = sigma_(rho-k') pins the constant
        return LowerBoundResult(constant=float(fc.sigma[-1]), subspace_dim=rho - kept)
    if kept == 1:
        tau = _secular_newton(fc.sigma / fc.sigma[-1], vh[0])
        return LowerBoundResult(
            constant=float(fc.sigma[-1] * np.sqrt(1.0 + tau)), subspace_dim=rho - 1
        )
    q, _ = np.linalg.qr(vh[:kept].T, mode="complete")
    s = np.linalg.svd(fc.sigma[:, None] * q[:, kept:], compute_uv=False)
    return LowerBoundResult(constant=float(s[-1]), subspace_dim=rho - kept)


def _secular_newton(x: np.ndarray, w: np.ndarray) -> float:
    """The k' = 1 constant as sigma_rho sqrt(1 + tau): tau from x = sigma / sigma_rho and W = w.

    The restricted eigenvalues lambda of S_C^2 on w-perp are the roots of
    sum_j w_j^2 / (sigma_j^2 - lambda) = 0 (Golub, SIAM Review 1973).  In
    units of sigma_rho^2, with lambda = 1 + tau and the poles
    d_j = (x_j - 1)(x_j + 1) formed so that nothing cancels, the smallest
    is the root in [0, d_(rho-1)] of h(tau) = tau psi(tau) - w_rho^2,
    psi(tau) = sum_(j<rho) w_j^2 / (d_j - tau).  Each term of h is
    increasing and convex there, so Newton's method started where h > 0
    falls monotonically onto the root; it stops once h or the step no
    longer moves it down.  The start is below every live pole and above
    the root: by the term of any one pole j alone, h > 0 from
    d_j w_rho^2 / (w_j^2 + w_rho^2) on.

    Units of sigma_rho, not sigma_1, give tau = 0 for sigma_rho bit for
    bit, and no ratio's square underflows.  A pole whose weight squares to
    zero is deflated (Bunch, Nielsen & Sorensen, Numer. Math. 1978): its
    axis lies in w-perp, and d_(rho-1) caps the root instead.  A w_rho
    whose square is zero puts the bottom axis in w-perp, and the start,
    tau = 0, is the root.  Requires x_(rho-1) > 1, which the caller's
    bracket test gives.
    """
    d = (x[:-1] - 1.0) * (x[:-1] + 1.0)
    weights = w[:-1] ** 2
    bottom = w[-1] ** 2
    top = d[-1]
    live = weights > 0.0
    d, weights = d[live], weights[live]
    tau = min(
        top,
        float(np.nextafter(d.min(initial=np.inf), 0.0)),
        float((d * bottom / (weights + bottom)).min(initial=np.inf)),
    )
    while True:
        inv = 1.0 / (d - tau)
        psi = weights @ inv
        h = tau * psi - bottom
        if not h > 0.0:
            return tau
        step = h / (psi + tau * (weights @ inv**2))
        if not tau - step < tau:
            return tau
        tau -= step

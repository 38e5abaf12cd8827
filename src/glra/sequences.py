"""Finite-truncation emulation of infinite-dimensional behaviour.

The closed-form minimiser involves C^+, so when C compresses coordinates
at a summable rate the minimiser's columns can grow without bound as the
truncation dimension N increases.  This module builds the diagonal
construction exhibiting that growth, sweeps it over N to measure the
growth law, produces approximate minimisers from perturbed truncations,
and approximates the unbounded minimiser by bounded ones through chains
of finite-rank outer inverses of C.  "Unbounded" is always operationalised
as divergence of probe norms under a stated law, never as a boolean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    InputError,
    NumericalError,
    Tolerances,
    _check_rank_bound,
    as_matrix,
    hs_norm,
    pinv,
    proj_range,
    range_basis,
    nullspace,
    rowspace_basis,
)
from .solver import GlraProblem, GlraSolution, projected_truncation, solve

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
    "canonical_chain",
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


@dataclass(frozen=True)
class SequenceInstance:
    """One truncated instance: the problem (B = I, C diagonal) plus its raw pieces."""

    spec: SequenceSpec
    problem: GlraProblem
    w: np.ndarray
    f_basis: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    mu: np.ndarray


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
    """Materialise the construction at dimension spec.n.

    w carries alpha_k * gamma_k for k >= 2 (zero in the first slot); the
    target is M = F diag(mu) F^T with F the orthonormal completion of
    f1 = w/||w||, f2 = e1; B is the identity and C = diag(gamma).
    """
    n = spec.n
    idx = np.arange(1, n + 1, dtype=float)
    gamma = idx ** (-spec.gamma_exponent)
    alpha = idx**spec.alpha_exponent
    mu = spec.mu_values(n)
    w = alpha * gamma
    w[0] = 0.0
    f1 = w / np.linalg.norm(w)
    f2 = np.zeros(n)
    f2[0] = 1.0
    f = _complete_basis([f1, f2], n)
    m = (f * mu) @ f.T
    m = (m + m.T) / 2.0
    problem = GlraProblem(m=m, b=np.eye(n), c=np.diag(gamma), r=spec.r)
    return SequenceInstance(
        spec=spec, problem=problem, w=w, f_basis=f, gamma=gamma, alpha=alpha, mu=mu
    )


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


def unboundedness_sweep(
    spec: SequenceSpec,
    n_values: list[int],
    probes: list[int],
    tol: Tolerances = DEFAULT_TOL,
) -> UnboundednessSweep:
    """Tabulate ||X e_m|| against the closed-form growth law over N.

    Requires r = 1.  For mu_1 > mu_2 the solver's canonical minimiser is
    cross-checked against the directly assembled one; at a tie both
    canonical branches are assembled explicitly.  A probe index larger
    than some sweep dimension is tabulated only at the dimensions that
    contain it.
    """
    if spec.r != 1:
        raise InputError("the growth sweep is defined for rank bound r = 1")
    if min(probes) < 1:
        raise InputError("probe indices must be >= 1")
    if max(probes) > max(n_values):
        raise InputError(
            f"probe index {max(probes)} exceeds the largest sweep dimension {max(n_values)}"
        )
    mu_head = spec.mu_values(2)
    tie = bool(mu_head[0] - mu_head[1] <= tol.tie_rel * mu_head[0])
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
        f1 = inst.f_basis[:, 0]
        c_pinv = pinv(inst.problem.c, tol)
        x_a = inst.mu[0] * np.outer(f1, f1) @ c_pinv
        if not tie:
            sol = solve(inst.problem, tol)
            residual = hs_norm(sol.x_hat - x_a)
            if residual > tol.check_abs:
                raise NumericalError(
                    f"solver minimiser deviates from assembled form by {residual:.3e}"
                )
            x_a = sol.x_hat
        for m in live_probes:
            predicted = 0.0 if m == 1 else inst.mu[0] * inst.alpha[m - 1] / w_norm
            rows.append(
                SweepRow(
                    n=n,
                    m=m,
                    norm=float(np.linalg.norm(x_a[:, m - 1])),
                    predicted_norm=float(predicted),
                )
            )
        if tie:
            x_b = inst.mu[1] * np.outer(inst.f_basis[:, 1], inst.f_basis[:, 1]) @ c_pinv
            for m in live_probes:
                predicted = inst.mu[1] / inst.gamma[0] if m == 1 else 0.0
                bounded_rows.append(
                    SweepRow(
                        n=n,
                        m=m,
                        norm=float(np.linalg.norm(x_b[:, m - 1])),
                        predicted_norm=float(predicted),
                    )
                )
        z = inst.mu[0] * np.outer(f1, f1)
        lower_bounds[n] = lower_bound_constant(inst.problem.c, z, tol).constant
    return UnboundednessSweep(
        rows=rows,
        bounded_rows=bounded_rows,
        tie=tie,
        w_norms=w_norms,
        lower_bounds=lower_bounds,
    )


@dataclass(frozen=True)
class ApproxStep:
    x: np.ndarray
    objective: float
    deviation_sq: float
    epsilon: float


@dataclass(frozen=True)
class ApproximationSequence:
    """Perturbed-truncation minimisers Y_eps = sum lambda_i (f_i + eps d_i) e_i^T."""

    target_y: np.ndarray
    lambdas: np.ndarray
    steps: list[ApproxStep]


def approximate_minimizers(
    p: GlraProblem,
    epsilons: list[float],
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
    directions: np.ndarray | None = None,
) -> ApproximationSequence:
    """Minimising sequence built by perturbing the target truncation.

    Each left singular direction f_i of the truncation is replaced by
    f_i + eps * d_i with unit vectors d_i inside ran(B), so
    ||Y - Y_eps||_HS^2 = sum_i lambda_i^2 eps^2 <= r lambda_1^2 eps^2 and
    every step retains the minimality property exactly.
    """
    _, tsvd = projected_truncation(p, tol)
    k = tsvd.effective_count
    lambdas = tsvd.factors.sigma[:k].copy()
    f_vecs = tsvd.factors.u[:, :k]
    e_vecs = tsvd.factors.v[:, :k]
    proj_b = proj_range(p.b, tol)
    if directions is None:
        rng = np.random.default_rng(seed)
        cols = []
        for _ in range(k):
            d = proj_b @ rng.standard_normal(p.m.shape[0])
            norm = np.linalg.norm(d)
            while norm <= tol.rank_rel:
                d = proj_b @ rng.standard_normal(p.m.shape[0])
                norm = np.linalg.norm(d)
            cols.append(d / norm)
        directions = np.column_stack(cols) if cols else np.zeros((p.m.shape[0], 0))
    else:
        directions = as_matrix(directions, "directions")
        if directions.shape != (p.m.shape[0], k):
            raise InputError(
                f"directions must have shape {(p.m.shape[0], k)}, got {directions.shape}"
            )
    target_y = tsvd.matrix()
    b_pinv = pinv(p.b, tol)
    c_pinv = pinv(p.c, tol)
    steps: list[ApproxStep] = []
    for eps in epsilons:
        f_pert = f_vecs + eps * directions
        drift = hs_norm(f_pert - proj_b @ f_pert)
        if drift > tol.check_abs:
            raise InputError(
                f"perturbed directions leave ran(B) by {drift:.3e}"
            )
        y_eps = (f_pert * lambdas) @ e_vecs.T
        x_eps = b_pinv @ y_eps @ c_pinv
        steps.append(
            ApproxStep(
                x=x_eps,
                objective=hs_norm(p.m - p.b @ x_eps @ p.c),
                deviation_sq=hs_norm(target_y - y_eps) ** 2,
                epsilon=float(eps),
            )
        )
    return ApproximationSequence(target_y=target_y, lambdas=lambdas, steps=steps)


@dataclass(frozen=True)
class SubspaceChain:
    """Nested orthonormal-column bases Y_1 subset Y_2 subset ... inside ran(C)."""

    bases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.bases:
            raise InputError("a subspace chain needs at least one step")


def _validate_chain(chain: SubspaceChain, c: np.ndarray, tol: Tolerances) -> None:
    ran_c = range_basis(c, tol)
    prev: np.ndarray | None = None
    for i, y in enumerate(chain.bases):
        ya = as_matrix(y, f"chain step {i + 1}")
        if ya.shape[0] != c.shape[0]:
            raise InputError(
                f"chain step {i + 1} lives in dimension {ya.shape[0]}, expected {c.shape[0]}"
            )
        gram = ya.T @ ya
        if np.max(np.abs(gram - np.eye(ya.shape[1]))) > 1e-8:
            raise InputError(f"chain step {i + 1} columns are not orthonormal")
        if np.max(np.abs(ya - ran_c @ (ran_c.T @ ya))) > tol.check_abs:
            raise InputError(f"chain step {i + 1} escapes ran(C)")
        if prev is not None:
            if np.max(np.abs(prev - ya @ (ya.T @ prev))) > 1e-8:
                raise InputError(f"chain step {i + 1} does not contain step {i}")
        prev = ya


def full_chain(c, tol: Tolerances = DEFAULT_TOL) -> SubspaceChain:
    """The one-step chain spanning all of ran(C)."""
    return SubspaceChain(bases=(range_basis(c, tol),))


def nested_chain(c, steps: int, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> SubspaceChain:
    """A seeded random nested chain exhausting ran(C) in ``steps`` steps."""
    if steps < 1:
        raise InputError("steps must be >= 1")
    basis = range_basis(c, tol)
    d = basis.shape[1]
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    mixed = basis @ q
    cuts = sorted(set(int(np.ceil(d * (k + 1) / steps)) for k in range(steps)))
    return SubspaceChain(bases=tuple(mixed[:, :cut] for cut in cuts))


def canonical_chain(c, counts: list[int], tol: Tolerances = DEFAULT_TOL) -> SubspaceChain:
    """Chain of spans of leading canonical basis vectors (diagonal-C instances)."""
    n_rows = as_matrix(c, "C").shape[0]
    eye = np.eye(n_rows)
    bases = []
    for k in counts:
        if not 1 <= k <= n_rows:
            raise InputError(f"chain size {k} out of range 1..{n_rows}")
        bases.append(eye[:, :k].copy())
    chain = SubspaceChain(bases=tuple(bases))
    _validate_chain(chain, as_matrix(c, "C"), tol)
    return chain


@dataclass(frozen=True)
class OuterInverseStep:
    """One finite-rank outer inverse: inverts P_n C on X_n, zero on Y_n-perp."""

    c_sharp: np.ndarray
    y_basis: np.ndarray
    x_basis: np.ndarray


def outer_inverse_chain(
    c, chain: SubspaceChain, tol: Tolerances = DEFAULT_TOL
) -> list[OuterInverseStep]:
    """Finite-rank outer inverses of C adapted to the chain.

    Each step satisfies C# C C# = C# and agrees with Q_n C^+ where Q_n
    projects onto X_n = span(C^T Y_n); once the chain spans ran(C) the
    outer inverse coincides with C^+.
    """
    ca = as_matrix(c, "C")
    _validate_chain(chain, ca, tol)
    steps: list[OuterInverseStep] = []
    for y in chain.bases:
        x_basis = range_basis(ca.T @ y, tol)
        if x_basis.shape[1] != y.shape[1]:
            raise InputError(
                "chain step degenerates under C^T; its span is not inside ran(C)"
            )
        restricted = y.T @ ca @ x_basis
        c_sharp = x_basis @ np.linalg.solve(restricted, y.T)
        steps.append(OuterInverseStep(c_sharp=c_sharp, y_basis=y, x_basis=x_basis))
    return steps


@dataclass(frozen=True)
class BoundedApproxStep:
    """One bounded minimiser X_n and the outer inverse C_n# it is built from."""

    x: np.ndarray
    tail_error: float
    outer: OuterInverseStep

    @property
    def x_basis(self) -> np.ndarray:
        return self.outer.x_basis


@dataclass(frozen=True)
class BoundedApproxResult:
    solution: GlraSolution
    steps: list[BoundedApproxStep]


def bounded_approximation_sequence(
    p: GlraProblem, chain: SubspaceChain, tol: Tolerances = DEFAULT_TOL
) -> BoundedApproxResult:
    """Bounded minimising sequence X_n = B^+ (G)_r C_n# along the chain.

    Each step keeps the minimality property and satisfies
    B X_n C = (G)_r Q_n, so the squared distance of B X_n C from the
    optimum is the tail sum of ||(G)_r e_i||^2 over directions of
    ker(C)-perp not yet covered; it reaches zero for exhaustive chains.
    """
    sol = solve(p, tol)
    # B^+ (G)_r = x_hat C, because the rows of (G)_r lie in ker(C)-perp
    prefix = sol.x_hat @ p.c
    steps: list[BoundedApproxStep] = []
    for outer in outer_inverse_chain(p.c, chain, tol):
        x_n = prefix @ outer.c_sharp
        tail = hs_norm(sol.y - p.b @ x_n @ p.c) ** 2
        steps.append(BoundedApproxStep(x=x_n, tail_error=tail, outer=outer))
    return BoundedApproxResult(solution=sol, steps=steps)


@dataclass(frozen=True)
class LowerBoundResult:
    """Smallest singular value of C restricted to ker(Z) int ker(C)-perp.

    A sweep of this constant over truncation dimensions diagnoses the
    limit: decay to zero means the limiting minimiser is unbounded, a
    uniform lower bound means it stays bounded.  ``subspace_dim`` = 0
    flags the empty-intersection convention (constant 0).
    """

    constant: float
    subspace_dim: int


def lower_bound_constant(c, z, tol: Tolerances = DEFAULT_TOL) -> LowerBoundResult:
    ca = as_matrix(c, "C")
    za = as_matrix(z, "Z")
    if za.shape[1] != ca.shape[1]:
        raise InputError(
            f"Z must act on C's domain: expected {ca.shape[1]} columns, got {za.shape[1]}"
        )
    n = ca.shape[1]
    ker_z = nullspace(za, tol)
    row_c = rowspace_basis(ca, tol)
    stacked = np.vstack(
        [np.eye(n) - ker_z @ ker_z.T, np.eye(n) - row_c @ row_c.T]
    )
    w = nullspace(stacked, tol)
    if w.shape[1] == 0:
        return LowerBoundResult(constant=0.0, subspace_dim=0)
    s = np.linalg.svd(ca @ w, compute_uv=False)
    return LowerBoundResult(constant=float(s[-1]), subspace_dim=int(w.shape[1]))

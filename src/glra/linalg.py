"""Dense real linear algebra with explicit numerical-rank decisions.

Everything downstream (the solver, the truncation experiments, the
regression front end) is built on the primitives here: a deterministic
SVD and its cut at the numerical rank, the Moore-Penrose inverse,
orthogonal projectors, rank-r truncation with tie detection, the PSD
square root and the Hilbert-Schmidt norm and inner product.  All matrices are plain 2-D float64 ``numpy`` arrays and
all functions are pure.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "InputError",
    "NumericalError",
    "SvdFactors",
    "Tolerances",
    "TruncatedSvd",
    "Uniqueness",
    "as_matrix",
    "hs_inner",
    "hs_norm",
    "nullspace",
    "numerical_rank",
    "pinv",
    "proj_kernel_perp",
    "proj_range",
    "psd_sqrt",
    "range_basis",
    "rank_factors",
    "rowspace_basis",
    "svd",
    "trace",
    "truncated_svd",
    "DEFAULT_TOL",
]


class InputError(ValueError):
    """Malformed input: bad shape, non-finite entries, unparsable file."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class NumericalError(RuntimeError):
    """A quantity that is an identity in exact arithmetic failed its check."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    rank_rel  relative cutoff below which singular values count as zero
    tie_rel   relative gap under which adjacent singular values are a tie
    check_abs absolute tolerance for invariant assertions
    """

    rank_rel: float = 1e-12
    tie_rel: float = 1e-9
    check_abs: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rank_rel", "tie_rel", "check_abs"):
            if not getattr(self, name) > 0.0:
                raise InputError(f"tolerance {name} must be strictly positive")


DEFAULT_TOL = Tolerances()


class Uniqueness(str, enum.Enum):
    """Why a rank-r truncation is (or is not) the only optimal one."""

    UNIQUE_BY_RANK = "UniqueByRank"
    UNIQUE_BY_GAP = "UniqueByGap"
    NON_UNIQUE = "NonUnique"


@dataclass(frozen=True)
class SvdFactors:
    """Economy SVD ``A = U diag(sigma) V^T`` with orthonormal columns."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


@dataclass(frozen=True)
class TruncatedSvd:
    """The first ``r`` singular triplets of a matrix plus tie diagnostics.

    ``discarded_head`` is the first singular value left out (0 when none
    remain), ``numerical_rank`` counts singular values above the rank
    cutoff, and ``uniqueness`` classifies whether another valid rank-r
    truncation exists.  Triplets beyond ``numerical_rank`` carry zero
    weight; their vectors are arbitrary and should not be interpreted.
    """

    factors: SvdFactors
    r: int
    discarded_head: float
    numerical_rank: int
    uniqueness: Uniqueness

    def matrix(self) -> np.ndarray:
        return self.factors.reconstruct()

    @property
    def effective_count(self) -> int:
        """Number of retained triplets that actually carry weight."""
        return min(self.numerical_rank, int(self.factors.sigma.size))


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, raising InputError otherwise."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


def _check_rank_bound(r) -> None:
    """Reject a rank bound that is not an integer >= 1 (numpy integers pass)."""
    if not isinstance(r, numbers.Integral):
        raise InputError(f"rank bound must be an integer, got {r!r}")
    if r < 1:
        raise InputError(f"rank bound must be >= 1, got {r}")


def svd(a) -> SvdFactors:
    """Economy SVD with a deterministic sign convention.

    The first nonzero entry of every left singular vector is made
    nonnegative (the matching right vector is flipped along with it), so
    repeated calls on identical input are byte-stable.
    """
    return _svd(as_matrix(a))


def _svd(arr: np.ndarray) -> SvdFactors:
    # unchecked form of svd(), which also accepts an empty (k x 0 or 0 x k) core
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    v = vh.T
    for j in range(u.shape[1]):
        nz = np.nonzero(u[:, j])[0]
        if nz.size and u[nz[0], j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return SvdFactors(u=u, sigma=s, v=v)


def _rank_cutoff(sigma: np.ndarray, shape: tuple[int, int], tol: Tolerances) -> float:
    top = float(sigma[0]) if sigma.size else 0.0
    return tol.rank_rel * top * max(shape)


def _rank(sigma: np.ndarray, shape: tuple[int, int], tol: Tolerances) -> int:
    return int(np.count_nonzero(sigma > _rank_cutoff(sigma, shape, tol)))


def numerical_rank(a, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values above the scaled rank cutoff."""
    arr = as_matrix(a)
    return _rank(np.linalg.svd(arr, compute_uv=False), arr.shape, tol)


def rank_factors(a, tol: Tolerances = DEFAULT_TOL) -> SvdFactors:
    """The deterministic SVD cut at the numerical rank: A = U diag(sigma) V^T.

    U is an orthonormal basis of ran(A), V one of ker(A)-perp and every
    kept singular value lies above the rank cutoff.  The zero matrix has
    rank 0 and yields factors with no columns.
    """
    arr = as_matrix(a)
    f = _svd(arr)
    k = _rank(f.sigma, arr.shape, tol)
    return SvdFactors(u=f.u[:, :k], sigma=f.sigma[:k], v=f.v[:, :k])


def pinv(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse V diag(1/sigma) U^T of the rank-cut SVD.

    The zero matrix maps to the zero matrix of transposed shape.
    """
    f = rank_factors(a, tol)
    return (f.v / f.sigma) @ f.u.T


def range_basis(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ran(A), as columns (shape m x rank)."""
    return rank_factors(a, tol).u


def rowspace_basis(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ker(A)-perp = ran(A^T), as columns (n x rank)."""
    return rank_factors(a, tol).v


def nullspace(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ker(A), as columns (n x dim; n x 0 if trivial)."""
    arr = as_matrix(a)
    _, s, vh = np.linalg.svd(arr, full_matrices=True)
    return vh[_rank(s, arr.shape, tol):].T


def proj_range(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto ran(A); equals A A^+ in exact arithmetic."""
    u = range_basis(a, tol)
    return u @ u.T


def proj_kernel_perp(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto ker(A)-perp; equals A^+ A."""
    v = rowspace_basis(a, tol)
    return v @ v.T


def truncated_svd(a, r: int, tol: Tolerances = DEFAULT_TOL) -> TruncatedSvd:
    """Best rank-r approximation factors under the deterministic SVD order.

    When the optimal truncation is ambiguous the canonical one (ties broken
    by the SVD's ordering) is still returned, flagged ``NON_UNIQUE``.
    """
    _check_rank_bound(r)
    arr = as_matrix(a)
    return _truncate(_svd(arr), r, arr.shape, tol)


def _truncate(
    f: SvdFactors, r: int, shape: tuple[int, int], tol: Tolerances
) -> TruncatedSvd:
    """Rank-r truncation of the factors of a matrix of the given shape.

    The shape sets the rank cutoff, so a reduced core that carries the
    nonzero singular values of a larger matrix is cut as that matrix.
    """
    k = min(r, f.sigma.size)
    head = SvdFactors(u=f.u[:, :k], sigma=f.sigma[:k], v=f.v[:, :k])
    discarded = float(f.sigma[r]) if r < f.sigma.size else 0.0
    rank = _rank(f.sigma, shape, tol)
    if rank <= r:
        flag = Uniqueness.UNIQUE_BY_RANK
    elif f.sigma[r - 1] - f.sigma[r] > tol.tie_rel * f.sigma[0]:
        flag = Uniqueness.UNIQUE_BY_GAP
    else:
        flag = Uniqueness.NON_UNIQUE
    return TruncatedSvd(
        factors=head,
        r=r,
        discarded_head=discarded,
        numerical_rank=rank,
        uniqueness=flag,
    )


def psd_sqrt(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Symmetric PSD square root S with S S = A.

    Eigenvalues in [-check_abs, 0) are clamped to zero (empirical
    covariances are PSD only up to rounding); anything more negative is a
    DomainError.  Nonnegative eigenvalues below the numerical-rank cutoff
    are zeroed as well, so ker(S) agrees with ker(A) numerically instead
    of picking up sqrt-amplified rounding noise.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DomainError(f"psd_sqrt needs a square matrix, got {arr.shape}")
    asym = float(np.max(np.abs(arr - arr.T)))
    if asym > tol.check_abs:
        raise DomainError(f"psd_sqrt needs a symmetric matrix (asymmetry {asym:.3e})")
    evals, q = np.linalg.eigh((arr + arr.T) / 2.0)
    low = float(evals[0])
    if low < -tol.check_abs:
        raise DomainError(f"matrix is not positive semidefinite: eigenvalue {low:.6e}")
    cutoff = tol.rank_rel * float(evals[-1]) * arr.shape[0] if evals[-1] > 0 else 0.0
    evals = np.where(evals > cutoff, evals, 0.0)
    s = (q * np.sqrt(evals)) @ q.T
    return (s + s.T) / 2.0


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm: sqrt of the sum of squared entries."""
    return float(np.linalg.norm(as_matrix(a), "fro"))


def hs_inner(a, b) -> float:
    """Trace inner product <A, B> = trace(B^T A); shapes must match."""
    aa = as_matrix(a, "first argument")
    bb = as_matrix(b, "second argument")
    if aa.shape != bb.shape:
        raise InputError(f"hs_inner shape mismatch: {aa.shape} vs {bb.shape}")
    return float(np.sum(aa * bb))


def trace(a) -> float:
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise InputError(f"trace needs a square matrix, got {arr.shape}")
    return float(np.trace(arr))

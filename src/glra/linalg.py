"""Dense real linear algebra with explicit numerical-rank decisions.

Everything downstream (the solver, the truncation experiments, the
regression front end) is built on the primitives here: a deterministic
SVD and its cut at the numerical rank, the Moore-Penrose inverse, rank-r
truncation with tie detection (``_truncate``, reached through the
solver), the PSD square root and the Hilbert-Schmidt norm.  The library's
one-place policies live here too: the one rank rule (``_cutoff``) and the
one tie rule (``_tied``) that every numerical decision downstream applies
with its ``Tolerances``, and the one check of every count (``_count``)
and every real (``_finite``) that a caller passes.  No dense
projector is formed here: orthonormal bases of ran(A) and ker(A)-perp are
the columns of ``rank_factors``.  All matrices are plain 2-D float64
``numpy`` arrays and all functions are pure.
"""

from __future__ import annotations

import enum
import math
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
    "check_bound",
    "hs_norm",
    "pinv",
    "psd_sqrt",
    "rank_factors",
    "svd",
    "CHECK_C",
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
    """The two numerical decisions a caller may tune.

    rank_rel  relative cutoff below which singular values count as zero
    tie_rel   relative gap under which adjacent singular values are a tie

    Pass/fail checks of identities are not tunable: they use check_bound.
    """

    rank_rel: float = 1e-12
    tie_rel: float = 1e-9

    def __post_init__(self) -> None:
        # a string is refused before it is compared; an infinite cutoff keeps
        # nothing and an infinite gap ties everything
        for name, value in vars(self).items():
            if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
                raise InputError(f"tolerance {name} must be strictly positive and finite")


DEFAULT_TOL = Tolerances()

# Rounding-error constant of check_bound, shared by every invariant check.
CHECK_C = 20.0

# Below this norm numpy's sum of squares is subnormal or zero (see hs_norm).
_SQRT_TINY = math.sqrt(float(np.finfo(float).tiny))

_EPS = float(np.finfo(float).eps)
_FLOAT = np.dtype(float)


def check_bound(dim: int, scale: float) -> float:
    """Largest residual an identity may show in floating point: c * eps * dim * scale.

    ``scale`` is the product of operand norms of the same degree as the
    residual (||A|| for A A^+ A - A, ||A|| ||A^+|| for a projector
    identity), so scaling the inputs scales the bound exactly as the
    residual.  This is the backward-error form of Higham, Accuracy and
    Stability of Numerical Algorithms (SIAM 2002).
    """
    return CHECK_C * _EPS * dim * scale


class Uniqueness(str, enum.Enum):
    """Why a rank-r truncation is (or is not) the only optimal one."""

    UNIQUE_BY_RANK = "UniqueByRank"
    UNIQUE_BY_GAP = "UniqueByGap"
    NON_UNIQUE = "NonUnique"


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """A factorisation ``A = U diag(sigma) V^T`` with r columns in U and V.

    From an (economy, rank-cut) SVD the columns of U and V are
    orthonormal.  ``GlraSolution.factors`` uses the same record for
    x_hat = L_0 Sigma_K R_0^T, whose L_0 and R_0 are not.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


@dataclass(frozen=True, eq=False)
class TruncatedSvd:
    """The rank-r truncation of a matrix: its kept triplets plus tie diagnostics.

    ``factors`` are the kept triplets, the first min(r, numerical_rank),
    so every kept singular value lies above the rank cutoff.
    ``discarded_head`` is sigma_{r+1}, the first singular value beyond r
    (0 when none remain), ``numerical_rank`` counts singular values above
    the rank cutoff, and ``uniqueness`` classifies whether another valid
    rank-r truncation exists.
    """

    factors: SvdFactors
    r: int
    discarded_head: float
    numerical_rank: int
    uniqueness: Uniqueness

    def matrix(self) -> np.ndarray:
        return self.factors.reconstruct()


def _real_array(a, name: str) -> np.ndarray:
    """a as a float64 array, or InputError naming it.

    A float64 ndarray is returned as it is, with no copy.  Complex entries
    are refused, not cast to their real parts, and so is anything numpy
    cannot read as real numbers (ragged nestings, strings).  A numeric
    string such as "2", which numpy would read as 2.0, is refused too.
    """
    if type(a) is np.ndarray and a.dtype is _FLOAT:
        return a
    try:
        arr = np.asarray(a)
        if arr.dtype.kind == "c":
            raise TypeError("complex entries are not supported")
        # numpy's own error names a string that is not a number
        real = arr.astype(float, copy=False)
        if arr.dtype.kind in "SU":
            raise TypeError("numeric strings are not supported")
        return real
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} is not a real numeric array: {exc}") from exc


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, raising InputError otherwise."""
    arr = _real_array(a, name)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


def _require_finite(**values: float | np.ndarray) -> None:
    """Raise NumericalError naming the first value (number or array) that overflowed.

    For intermediates of finite inputs, which as_matrix would report as bad input.
    """
    for name, value in values.items():
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            raise NumericalError(f"{name} is not finite; the inputs overflow float64")


def _count(value, name: str, least: int) -> numbers.Integral:
    """value, an integer >= least (numpy integers pass), or InputError naming it.

    The one check of a count a caller passes: a rank bound, a dimension, a
    probe index, a step, trial or restart count, or a seed, which numpy's
    default_rng takes only as an integer >= 0.
    """
    if not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be >= {least}, got {value}")
    return value


def _finite(value, name: str, ndim: int) -> np.ndarray:
    """value as a float64 array of ndim dimensions, every entry finite, or InputError naming it.

    The one check of a real (ndim 0), or of a sequence of reals (ndim 1),
    that a caller passes.  NaN passes every comparison and an infinite
    value overflows what is built from it, so finiteness is judged before
    any bound; a scalar where a sequence belongs, or the reverse, would
    die inside numpy.
    """
    arr = _real_array(value, name)
    if arr.ndim != ndim or not np.isfinite(arr).all():
        raise InputError(f"{name} must be finite and {('scalar', '1-D')[ndim]}, got {value}")
    return arr


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
    if u.size:
        # the first nonzero of each left vector (row 0 for a zero column),
        # searched for only when row 0 has a zero; a product with -1.0 is
        # an exact negation and one with 1.0 keeps every bit, signed zeros
        # included
        first = u[0]
        if not first.all():
            first = u[np.argmax(u != 0.0, axis=0), np.arange(u.shape[1])]
        sign = np.where(first < 0.0, -1.0, 1.0)
        u *= sign
        v *= sign
    return SvdFactors(u=u, sigma=s, v=v)


def _cutoff(scale: float, dim: int, tol: Tolerances) -> float:
    """The rank rule: singular values at or below rank_rel * scale * dim count as zero.

    ``scale`` is the largest singular value of the matrix whose rank is
    decided (1 for the sines of principal angles) and ``dim`` its larger
    dimension.  Every rank decision of the library is made here; only the
    references in ``checks`` write out a cutoff of their own.
    """
    return tol.rank_rel * scale * dim


def _tied(upper: float, lower: float, top: float, tol: Tolerances) -> bool:
    """The tie rule: adjacent values upper >= lower tie when upper - lower <= tie_rel * top.

    ``top`` is the largest value of the spectrum they belong to.  Every tie
    decision of the library is made here.
    """
    return bool(upper - lower <= tol.tie_rel * top)


def _rank(sigma: np.ndarray, shape: tuple[int, int], tol: Tolerances) -> int:
    # numpy returns sigma_1 = inf for some finite matrices; at an inf cutoff
    # nothing would be kept, so that is an overflow, not rank 0
    top = float(sigma[0]) if sigma.size else 0.0
    _require_finite(sigma_1=top)
    return int(np.count_nonzero(sigma > _cutoff(top, max(shape), tol)))


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

    The zero matrix maps to the zero matrix of transposed shape.  A kept
    sigma so small that the inverse leaves the float range, as for a
    subnormal A, is reported as NumericalError, so numpy prints no warning
    for it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = _pinv(rank_factors(a, tol))
    _require_finite(pinv=x)
    return x


def _pinv(f: SvdFactors) -> np.ndarray:
    # V diag(1/sigma) U^T of factors already cut at the numerical rank
    return (f.v / f.sigma) @ f.u.T


def _truncate(
    f: SvdFactors, r: int, shape: tuple[int, int], tol: Tolerances
) -> TruncatedSvd:
    """Rank-r truncation of the factors of a matrix of the given shape.

    The best rank-r approximation under the deterministic SVD order: when
    it is ambiguous the canonical one (ties broken by the SVD's ordering)
    is still returned, flagged ``NON_UNIQUE``.  Only the triplets above
    the rank cutoff are kept, so for r beyond the numerical rank the
    truncation is the rank-cut matrix itself, and no sub-cutoff noise
    enters it.  The shape sets the rank cutoff, so a reduced core that
    carries the nonzero singular values of a larger matrix is cut as that
    matrix.  The head's V is a copy in V's own layout, so a kept
    truncation does not hold all of f.v.  Its U stays a view: as a
    contiguous copy, a single left vector sends B^+'s product with it down
    numpy's matrix-vector path and moves the last bits of the minimiser.
    """
    rank = _rank(f.sigma, shape, tol)
    k = min(r, rank)
    head = SvdFactors(u=f.u[:, :k], sigma=f.sigma[:k], v=f.v[:, :k].copy("K"))
    discarded = float(f.sigma[r]) if r < f.sigma.size else 0.0
    if rank <= r:
        flag = Uniqueness.UNIQUE_BY_RANK
    elif _tied(f.sigma[r - 1], f.sigma[r], f.sigma[0], tol):
        flag = Uniqueness.NON_UNIQUE
    else:
        flag = Uniqueness.UNIQUE_BY_GAP
    return TruncatedSvd(
        factors=head,
        r=r,
        discarded_head=discarded,
        numerical_rank=rank,
        uniqueness=flag,
    )


def psd_sqrt(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Symmetric PSD square root S with S S = A.

    The asymmetry may reach check_bound(n, ||A||_HS).  Eigenvalues are
    judged by the numerical-rank cutoff rank_rel * ||A||_2 * n, whatever
    their sign: those below it in magnitude are zeroed, so ker(S) agrees
    with ker(A) numerically instead of picking up sqrt-amplified rounding
    noise, and a negative one beyond it is a DomainError.  Empirical
    covariances are PSD only up to the rounding of their sample sums,
    which grows with the sample count that A does not carry, so the
    negative side is a rank decision, not a check_bound test.
    """
    s = _psd_factors(a, tol)[0].reconstruct()
    return (s + s.T) / 2.0


def _psd_factors(a, tol: Tolerances) -> tuple[SvdFactors, np.ndarray]:
    """One eigendecomposition of a PSD A: the rank-cut factors of A^(1/2) and ker(A).

    The factors are (Q_k, sqrt(lambda_k), Q_k) in descending order, U and V
    the same columns, so A^(1/2) is their reconstruction and its
    pseudo-inverse is _pinv of them; the remaining eigenvectors Q_{k:}
    are an orthonormal basis of ker(A) (n x 0 if trivial).  The rank and
    the domain checks are psd_sqrt's.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DomainError(f"psd_sqrt needs a square matrix, got {arr.shape}")
    # halved before the difference and the sum, which keeps every bit of a
    # normal arr and cannot overflow
    half = arr / 2.0
    half_asym = float(np.max(np.abs(half - half.T)))
    if half_asym > check_bound(arr.shape[0], hs_norm(arr)) / 2.0:
        raise DomainError(f"psd_sqrt needs a symmetric matrix (asymmetry {2.0 * half_asym:.3e})")
    # summed in place, so no third n x n array is alive during eigh; numpy
    # buffers the overlapping transpose, which keeps the bits of half + half.T
    evals, q = np.linalg.eigh(np.add(half, half.T, out=half))
    low, top = float(evals[0]), float(np.max(np.abs(evals)))
    _require_finite(lambda_max=top)
    cutoff = _cutoff(top, arr.shape[0], tol)
    if low < -cutoff:
        raise DomainError(f"matrix is not positive semidefinite: eigenvalue {low:.6e}")
    evals, q = evals[::-1], q[:, ::-1]
    k = int(np.count_nonzero(evals > cutoff))
    return SvdFactors(u=q[:, :k], sigma=np.sqrt(evals[:k]), v=q[:, :k]), q[:, k:]


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm: sqrt of the sum of squared entries.

    The sum of squares is the dot product of the entries in memory order,
    numpy's own sum for np.linalg.norm, so the bits are numpy's.  A finite
    sum at or above the smallest normal float proves every entry finite and
    is the answer.  Only otherwise does the matrix go through as_matrix,
    which rejects non-finite entries, and a sum that overflowed (entries
    near 1e154 and above) or fell below the smallest normal float is redone
    on the matrix scaled by its largest entry, after Blue (ACM TOMS 1978).
    The zero matrix stays 0.  The dot product reads no floating-point
    flags, so an overflow of the unscaled sum raises no numpy warning.
    """
    if type(a) is np.ndarray and a.ndim == 2 and a.dtype is _FLOAT:
        arr = a
    else:
        arr = as_matrix(a)
    flat = arr.ravel(order="K")
    norm = math.sqrt(np.vdot(flat, flat))
    if _SQRT_TINY <= norm < math.inf:
        return norm
    arr = as_matrix(arr)
    scale = float(np.max(np.abs(arr)))
    if scale > 0.0:
        norm = scale * float(np.linalg.norm(arr / scale))
    return norm

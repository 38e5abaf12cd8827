"""Reduced-rank regression / linear operator learning on sampled data.

Fits a rank-constrained linear reconstruction A of x from y by minimising
the empirical mean squared error E||W_x x - W_A A W_y y||^2.  The fit
rewrites the objective through uncentered covariances as a constant plus
||M - B A^T C||_HS^2 with B = C_y^(1/2) W_y^T, C = W_A^T and
M = (C_y^(1/2))^+ C_yx W_x^T, and solves that transposed problem in
closed form; this route is the one that yields bounded finite-rank
solutions.  C_y is factorised once per call: one eigendecomposition gives
C_y^(1/2), its pseudo-inverse and, with identity weights, the factors of
B.  The fit then passes those and the factors of C = I to the solver's
reduction as known factors, so the solve itself only takes the SVD of
its core, and ``solve`` builds the solution.  ``fit`` is the one
builder of the transposed problem.  Its report holds the mean squared
error and the uniqueness flag: the truncation's left vectors U_B U_K lie
in span U_B by construction, so a residual of that containment could
read only rounding.  The returned minimiser annihilates ker(C_y)
(maximal-kernel property) in the identity-weight case.  The fit is the
one place ker(C_y) is cut: a model keeps that basis, from the same
eigendecomposition, and the maximal-kernel check reads it.  Evaluating a
model on data (``mse_trace``, ``mse_monte_carlo``,
``maximal_kernel_check``) first checks its dimensions against the
data's, as one InputError naming both shapes.
A covariance that overflows float64 is a NumericalError naming it.
``save_model`` writes a model as a JSON document (``model_to_dict``);
nothing in glra reads one back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    InputError,
    Tolerances,
    Uniqueness,
    _check_rank_bound,
    _diagonal_factors,
    _pinv,
    _psd_factors,
    _real_array,
    _require_finite,
    _seed,
    as_matrix,
    check_bound,
    hs_norm,
)
from .solver import GlraProblem, _reduce, solve

__all__ = [
    "CovarianceBundle",
    "FitReport",
    "MaximalKernelReport",
    "RrrModel",
    "SampleSet",
    "empirical_covariances",
    "fit",
    "maximal_kernel_check",
    "model_to_dict",
    "mse_monte_carlo",
    "mse_trace",
    "predict",
    "save_model",
]


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Paired samples, one per row: xs is S x dimF, ys is S x dimG."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", as_matrix(self.xs, "xs"))
        object.__setattr__(self, "ys", as_matrix(self.ys, "ys"))
        if self.xs.shape[0] != self.ys.shape[0]:
            raise InputError(
                f"sample counts differ: {self.xs.shape[0]} xs vs {self.ys.shape[0]} ys"
            )


@dataclass(frozen=True, eq=False)
class CovarianceBundle:
    """Uncentered covariances: C_x (F x F), C_y (G x G), C_xy (F x G)."""

    c_x: np.ndarray
    c_y: np.ndarray
    c_xy: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "c_x", as_matrix(self.c_x, "C_x"))
        object.__setattr__(self, "c_y", as_matrix(self.c_y, "C_y"))
        object.__setattr__(self, "c_xy", as_matrix(self.c_xy, "C_xy"))
        if self.c_x.shape[0] != self.c_x.shape[1] or self.c_y.shape[0] != self.c_y.shape[1]:
            raise InputError("C_x and C_y must be square")
        if self.c_xy.shape != (self.c_x.shape[0], self.c_y.shape[0]):
            raise InputError(
                f"C_xy must be {self.c_x.shape[0]} x {self.c_y.shape[0]}, got {self.c_xy.shape}"
            )

    @property
    def c_yx(self) -> np.ndarray:
        return self.c_xy.T


def empirical_covariances(samples: SampleSet) -> CovarianceBundle:
    """Sample means of the outer products: no mean subtraction is applied.

    A covariance that overflows is reported as NumericalError naming it, so
    numpy prints no warning for it.
    """
    count = samples.xs.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        c_x = samples.xs.T @ samples.xs / count
        c_y = samples.ys.T @ samples.ys / count
        c_xy = samples.xs.T @ samples.ys / count
    _require_finite(C_x=c_x, C_y=c_y, C_xy=c_xy)
    return CovarianceBundle(c_x=c_x, c_y=c_y, c_xy=c_xy)


@dataclass(frozen=True)
class FitReport:
    objective_mse: float
    uniqueness: Uniqueness


@dataclass(frozen=True, eq=False)
class RrrModel:
    """A fitted rank-constrained reconstruction x ~ A_hat y.

    ``weights`` is None for the identity-weight fit, else the (W_x, W_A,
    W_y) triple used; in the weighted case A_hat maps the W_y input space
    into the W_A input space.  ``kernel`` is the orthonormal basis of
    ker(C_y) that the fit cut, at its tolerances, from its one
    eigendecomposition of C_y (None for a model not built by ``fit``);
    the model document does not store it.
    """

    a_hat: np.ndarray
    r: int
    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    fit_report: FitReport
    kernel: np.ndarray | None = None


def _weight_triplet(
    dim_f: int,
    dim_g: int,
    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W_x, W_A, W_y) checked against x of dimension dim_f and y of dim_g.

    None stands for the identity weights.
    """
    if weights is None:
        return np.eye(dim_f), np.eye(dim_f), np.eye(dim_g)
    w_x, w_a, w_y = (as_matrix(w, n) for w, n in zip(weights, ("W_x", "W_A", "W_y")))
    if w_x.shape[1] != dim_f:
        raise InputError(f"W_x must have {dim_f} columns, got {w_x.shape[1]}")
    if w_y.shape[1] != dim_g:
        raise InputError(f"W_y must have {dim_g} columns, got {w_y.shape[1]}")
    if w_a.shape[0] != w_x.shape[0]:
        raise InputError("W_A must map into the same space as W_x")
    return w_x, w_a, w_y


def fit(
    cov: CovarianceBundle,
    r: int,
    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> RrrModel:
    """Closed-form rank-r minimiser of the weighted mean squared error.

    With identity weights this reduces to
    A_hat = ((C_y^(1/2))^+ (P_ran(C_y^(1/2)) (C_y^(1/2))^+ C_yx)_r)^T.
    """
    _check_rank_bound(r)
    w_x, w_a, w_y = _weight_triplet(cov.c_x.shape[0], cov.c_y.shape[0], weights)
    # the transposed problem: C_y^(1/2), its pseudo-inverse and ker(C_y) all
    # come from the one eigendecomposition of C_y
    half, kernel = _psd_factors(cov.c_y, tol)
    prob = GlraProblem(
        m=_pinv(half) @ cov.c_yx @ w_x.T, b=half.reconstruct() @ w_y.T, c=w_a.T, r=r, tol=tol
    )
    if weights is None:
        # with identity weights B = C_y^(1/2) and C = I come with their factors
        _reduce(prob, half, _diagonal_factors(np.ones(w_a.shape[0]), tol))
    sol = solve(prob)
    a_hat = sol.x_hat.T
    report = FitReport(
        objective_mse=_mse_from_traces(a_hat, cov, w_x, w_a, w_y),
        uniqueness=sol.uniqueness,
    )
    return RrrModel(a_hat=a_hat, r=r, weights=weights, fit_report=report, kernel=kernel)


def predict(model: RrrModel, y) -> np.ndarray:
    """Reconstruct x as A_hat y; weights enter the fit, not prediction."""
    vec = _real_array(y, "y")
    if vec.ndim != 1 or vec.shape[0] != model.a_hat.shape[1]:
        raise InputError(
            f"y must be a vector of length {model.a_hat.shape[1]}"
        )
    if not np.isfinite(vec).all():
        raise InputError("y contains non-finite entries")
    return model.a_hat @ vec


def _mse_from_traces(
    a_hat: np.ndarray,
    cov: CovarianceBundle,
    w_x: np.ndarray,
    w_a: np.ndarray,
    w_y: np.ndarray,
) -> float:
    way = w_a @ a_hat @ w_y
    t_fit = float(np.trace(way @ cov.c_y @ way.T))
    t_x = float(np.trace(w_x @ cov.c_x @ w_x.T))
    t_cross = float(np.trace(way @ cov.c_yx @ w_x.T))
    return t_fit + t_x - 2.0 * t_cross


def _model_weights(
    model: RrrModel, dims: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The model's (W_x, W_A, W_y) for x and y of dimensions dims, checked against A_hat.

    Raises InputError, naming both shapes, unless W_A A_hat W_y is
    defined: with identity weights, unless A_hat is dims[0] x dims[1].
    """
    w_x, w_a, w_y = _weight_triplet(*dims, model.weights)
    fits = (w_a.shape[1], w_y.shape[0])
    if model.a_hat.shape != fits:
        raise InputError(f"model expects dimensions {model.a_hat.shape}, data have {fits}")
    return w_x, w_a, w_y


def mse_trace(model: RrrModel, cov: CovarianceBundle) -> float:
    """Mean squared error evaluated through the covariance traces only."""
    w_x, w_a, w_y = _model_weights(model, (cov.c_x.shape[0], cov.c_y.shape[0]))
    return _mse_from_traces(model.a_hat, cov, w_x, w_a, w_y)


def mse_monte_carlo(model: RrrModel, samples: SampleSet) -> float:
    """Mean squared error averaged over the given samples."""
    w_x, w_a, w_y = _model_weights(model, (samples.xs.shape[1], samples.ys.shape[1]))
    residual = w_x @ samples.xs.T - w_a @ model.a_hat @ w_y @ samples.ys.T
    return float(np.mean(np.sum(residual**2, axis=0)))


@dataclass(frozen=True)
class MaximalKernelReport:
    """Outcome of perturbing A_hat along ker(C_y).

    Perturbations A_hat + T^T P_ker(C_y) keep the mean squared error
    unchanged but strictly shrink the kernel whenever nonzero, so A_hat's
    kernel is maximal among all minimisers.
    """

    passed: bool
    kernel_dim: int
    annihilation_residual: float
    max_mse_deviation: float
    min_shrink_norm: float


def maximal_kernel_check(
    model: RrrModel, cov: CovarianceBundle, trials: int = 20, seed: int = 0
) -> MaximalKernelReport:
    """Verify the maximal-kernel property of an identity-weights model.

    ker(C_y) is the model's ``kernel``, the one its fit cut, so the check
    sees the rank the fit used and factorises nothing; ``cov`` is the
    covariances the model was fitted on.
    """
    if model.weights is not None or model.kernel is None:
        raise InputError("the maximal-kernel check applies to identity-weight models from fit")
    if trials < 0:
        raise InputError(f"trials must be >= 0, got {trials}")
    # first, as it checks the model's dimensions against cov
    base = mse_trace(model, cov)
    dim_x = cov.c_x.shape[0]
    dim_y, k_dim = model.kernel.shape
    annihilation = hs_norm(model.a_hat @ model.kernel) if k_dim else 0.0
    c_x_norm = hs_norm(cov.c_x)
    c_y_root = np.sqrt(hs_norm(cov.c_y))
    rng = np.random.default_rng(_seed(seed))
    max_dev = 0.0
    min_shrink = np.inf
    ok = annihilation <= check_bound(dim_y, hs_norm(model.a_hat))
    for _ in range(trials):
        t_mat = rng.standard_normal((dim_y, dim_x))
        pert = (t_mat.T @ model.kernel) @ model.kernel.T
        perturbed = replace(model, a_hat=model.a_hat + pert)
        a_norm = hs_norm(perturbed.a_hat)
        dev = abs(mse_trace(perturbed, cov) - base)
        max_dev = max(max_dev, dev)
        # the MSE traces are tr(C_x) and tr(A C_y A^T), up to rounding; the
        # second scale is finite whenever that trace is
        ok = ok and dev <= check_bound(dim_x + dim_y, c_x_norm + (a_norm * c_y_root) ** 2)
        # a Gaussian T gives a nonzero perturbation whenever the kernel is not trivial
        if k_dim:
            shrink = hs_norm(perturbed.a_hat @ model.kernel)
            min_shrink = min(min_shrink, shrink)
            ok = ok and shrink > check_bound(dim_y, a_norm)
    return MaximalKernelReport(
        passed=bool(ok),
        kernel_dim=k_dim,
        annihilation_residual=annihilation,
        max_mse_deviation=max_dev,
        min_shrink_norm=float(min_shrink) if np.isfinite(min_shrink) else 0.0,
    )


def model_to_dict(model: RrrModel) -> dict:
    doc = {
        "schema": "glra/1",
        "dims": {"rows": model.a_hat.shape[0], "cols": model.a_hat.shape[1]},
        "r": model.r,
        "A_hat": [float(v) for v in model.a_hat.ravel()],
        "fit_report": {
            "objective_mse": model.fit_report.objective_mse,
            "uniqueness": model.fit_report.uniqueness.value,
        },
    }
    if model.weights is not None:
        doc["weights"] = {
            name: {"rows": w.shape[0], "cols": w.shape[1], "entries": [float(v) for v in w.ravel()]}
            for name, w in zip(("W_x", "W_A", "W_y"), model.weights)
        }
    return doc


def save_model(path: str, model: RrrModel) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc

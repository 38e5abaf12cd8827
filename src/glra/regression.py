"""Reduced-rank regression / linear operator learning on sampled data.

Fits a rank-constrained linear reconstruction A of x from y by minimising
the empirical mean squared error E||W_x x - W_A A W_y y||^2.  The fit
rewrites the objective through uncentered covariances as a constant plus
||M - B A^T C||_HS^2 with B = C_y^(1/2) W_y^T, C = W_A^T and
M = (C_y^(1/2))^+ C_yx W_x^T, and solves that transposed problem in
closed form; this route is the one that yields bounded finite-rank
solutions.  The returned minimiser annihilates ker(C_y) (maximal-kernel
property) in the identity-weight case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    InputError,
    Tolerances,
    Uniqueness,
    _check_rank_bound,
    as_matrix,
    hs_norm,
    nullspace,
    pinv,
    psd_sqrt,
    range_basis,
)
from .solver import GlraProblem, solve

__all__ = [
    "CovarianceBundle",
    "FitReport",
    "MaximalKernelReport",
    "RrrModel",
    "SampleSet",
    "empirical_covariances",
    "fit",
    "load_model",
    "maximal_kernel_check",
    "model_from_dict",
    "model_to_dict",
    "mse_monte_carlo",
    "mse_trace",
    "mse_via_residual",
    "predict",
    "save_model",
]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    """Sample means of the outer products: no mean subtraction is applied."""
    count = samples.xs.shape[0]
    return CovarianceBundle(
        c_x=samples.xs.T @ samples.xs / count,
        c_y=samples.ys.T @ samples.ys / count,
        c_xy=samples.xs.T @ samples.ys / count,
    )


@dataclass(frozen=True)
class FitReport:
    objective_mse: float
    minimality_defect: float
    uniqueness: Uniqueness
    containment_residual: float


@dataclass(frozen=True)
class RrrModel:
    """A fitted rank-constrained reconstruction x ~ A_hat y.

    ``weights`` is None for the identity-weight fit, else the (W_x, W_A,
    W_y) triple used; in the weighted case A_hat maps the W_y input space
    into the W_A input space.
    """

    a_hat: np.ndarray
    r: int
    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    fit_report: FitReport


def _weight_triplet(
    cov: CovarianceBundle,
    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dim_f = cov.c_x.shape[0]
    dim_g = cov.c_y.shape[0]
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


def _transposed_problem(
    cov: CovarianceBundle,
    r: int,
    w_x: np.ndarray,
    w_a: np.ndarray,
    w_y: np.ndarray,
    tol: Tolerances,
) -> GlraProblem:
    c_y_half = psd_sqrt(cov.c_y, tol)
    b_op = c_y_half @ w_y.T
    c_op = w_a.T
    m_op = pinv(c_y_half, tol) @ cov.c_yx @ w_x.T
    return GlraProblem(m=m_op, b=b_op, c=c_op, r=r)


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
    w_x, w_a, w_y = _weight_triplet(cov, weights)
    prob = _transposed_problem(cov, r, w_x, w_a, w_y, tol)
    sol = solve(prob, tol)
    a_hat = sol.x_hat.T
    u_r = sol.truncation.factors.u[:, : sol.truncation.effective_count]
    ran_b = range_basis(prob.b, tol)
    containment = hs_norm(u_r - ran_b @ (ran_b.T @ u_r)) if u_r.size else 0.0
    report = FitReport(
        objective_mse=_mse_from_traces(a_hat, cov, w_x, w_a, w_y),
        # the defect of A_hat^T for the transposed problem is A_hat's own
        minimality_defect=sol.minimality_defect,
        uniqueness=sol.uniqueness,
        containment_residual=containment,
    )
    return RrrModel(a_hat=a_hat, r=r, weights=weights, fit_report=report)


def predict(model: RrrModel, y) -> np.ndarray:
    """Reconstruct x as A_hat y; weights enter the fit, not prediction."""
    vec = np.asarray(y, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != model.a_hat.shape[1]:
        raise InputError(
            f"y must be a vector of length {model.a_hat.shape[1]}"
        )
    if not np.all(np.isfinite(vec)):
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
    if way.shape[1] != cov.c_y.shape[0]:
        raise InputError("model and covariance dimensions do not match")
    t_fit = float(np.trace(way @ cov.c_y @ way.T))
    t_x = float(np.trace(w_x @ cov.c_x @ w_x.T))
    t_cross = float(np.trace(way @ cov.c_yx @ w_x.T))
    return t_fit + t_x - 2.0 * t_cross


def mse_trace(model: RrrModel, cov: CovarianceBundle) -> float:
    """Mean squared error evaluated through the covariance traces only."""
    w_x, w_a, w_y = _weight_triplet(cov, model.weights)
    return _mse_from_traces(model.a_hat, cov, w_x, w_a, w_y)


def mse_via_residual(
    model: RrrModel, cov: CovarianceBundle, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Same quantity as mse_trace, via c + ||M - B A^T C||_HS^2."""
    w_x, w_a, w_y = _weight_triplet(cov, model.weights)
    prob = _transposed_problem(cov, model.r, w_x, w_a, w_y, tol)
    c_x_half = psd_sqrt(cov.c_x, tol)
    const = hs_norm(w_x @ c_x_half) ** 2 - hs_norm(prob.m) ** 2
    return const + hs_norm(prob.m - prob.b @ model.a_hat.T @ prob.c) ** 2


def mse_monte_carlo(model: RrrModel, samples: SampleSet) -> float:
    """Mean squared error averaged over the given samples."""
    cov_dims = (samples.xs.shape[1], samples.ys.shape[1])
    if model.weights is None and model.a_hat.shape != cov_dims:
        raise InputError(
            f"model expects dimensions {model.a_hat.shape}, samples have {cov_dims}"
        )
    if model.weights is None:
        w_x = np.eye(cov_dims[0])
        w_a = np.eye(cov_dims[0])
        w_y = np.eye(cov_dims[1])
    else:
        w_x, w_a, w_y = model.weights
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
    trials: int


def maximal_kernel_check(
    model: RrrModel,
    cov: CovarianceBundle,
    trials: int = 20,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> MaximalKernelReport:
    """Verify the maximal-kernel property of an identity-weights model."""
    if model.weights is not None:
        raise InputError("the maximal-kernel check applies to identity-weight models")
    kernel = nullspace(cov.c_y, tol)
    k_dim = kernel.shape[1]
    annihilation = hs_norm(model.a_hat @ kernel) if k_dim else 0.0
    base = mse_trace(model, cov)
    p_ker = kernel @ kernel.T
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    min_shrink = np.inf
    ok = annihilation <= tol.check_abs
    for _ in range(trials):
        t_mat = rng.standard_normal((cov.c_y.shape[0], cov.c_x.shape[0]))
        pert = t_mat.T @ p_ker
        perturbed = RrrModel(
            a_hat=model.a_hat + pert,
            r=model.r,
            weights=None,
            fit_report=model.fit_report,
        )
        max_dev = max(max_dev, abs(mse_trace(perturbed, cov) - base))
        if k_dim and hs_norm(pert) > tol.check_abs:
            shrink = hs_norm(perturbed.a_hat @ kernel)
            min_shrink = min(min_shrink, shrink)
            ok = ok and shrink > tol.check_abs
    ok = ok and max_dev <= tol.check_abs
    return MaximalKernelReport(
        passed=bool(ok),
        kernel_dim=k_dim,
        annihilation_residual=annihilation,
        max_mse_deviation=max_dev,
        min_shrink_norm=float(min_shrink) if np.isfinite(min_shrink) else 0.0,
        trials=trials,
    )


def model_to_dict(model: RrrModel) -> dict:
    doc = {
        "schema": "glra/1",
        "dims": {"rows": model.a_hat.shape[0], "cols": model.a_hat.shape[1]},
        "r": model.r,
        "A_hat": [float(v) for v in model.a_hat.ravel()],
        "fit_report": {
            "objective_mse": model.fit_report.objective_mse,
            "minimality_defect": model.fit_report.minimality_defect,
            "uniqueness": model.fit_report.uniqueness.value,
            "containment_residual": model.fit_report.containment_residual,
        },
    }
    if model.weights is not None:
        doc["weights"] = {
            name: {"rows": w.shape[0], "cols": w.shape[1], "entries": [float(v) for v in w.ravel()]}
            for name, w in zip(("W_x", "W_A", "W_y"), model.weights)
        }
    return doc


def model_from_dict(doc: dict) -> RrrModel:
    try:
        if doc.get("schema") != "glra/1":
            raise InputError(f"unsupported model schema: {doc.get('schema')!r}")
        dims = doc["dims"]
        a_hat = np.array(doc["A_hat"], dtype=float).reshape(dims["rows"], dims["cols"])
        weights = None
        if "weights" in doc:
            mats = []
            for name in ("W_x", "W_A", "W_y"):
                wd = doc["weights"][name]
                mats.append(
                    np.array(wd["entries"], dtype=float).reshape(wd["rows"], wd["cols"])
                )
            weights = tuple(mats)
        rep = doc["fit_report"]
        report = FitReport(
            objective_mse=float(rep["objective_mse"]),
            minimality_defect=float(rep["minimality_defect"]),
            uniqueness=Uniqueness(rep["uniqueness"]),
            containment_residual=float(rep["containment_residual"]),
        )
        return RrrModel(a_hat=a_hat, r=int(doc["r"]), weights=weights, fit_report=report)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed model document: {exc}") from exc


def save_model(path: str, model: RrrModel) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> RrrModel:
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    return model_from_dict(doc)

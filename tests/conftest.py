import numpy as np
import pytest

import glra
from glra.solver import GlraProblem


@pytest.fixture
def tied_problem():
    """2x2 identity target with anisotropic 2x3 factors.

    The projected matrix is the identity, so at r=1 the two tie branches
    give minimisers of Frobenius norm 1 and 4; the optimal objective is 1.
    """
    b = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    return GlraProblem(m=np.eye(2), b=b, c=b.T.copy(), r=1)


@pytest.fixture
def x_branch_a():
    x = np.zeros((3, 3))
    x[0, 0] = 1.0
    return x


@pytest.fixture
def x_branch_b():
    x = np.zeros((3, 3))
    x[1, 1] = 4.0
    return x


def branch_member(x_canonical, alpha):
    """Pad a canonical branch solution with the five free entries."""
    x = x_canonical.copy()
    x[0, 2], x[1, 2], x[2, 0], x[2, 1], x[2, 2] = alpha
    return x


@pytest.fixture
def svd_calls(monkeypatch):
    """Record (shape, full_matrices, compute_uv) of every numpy.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def recording(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((np.shape(a), full_matrices, compute_uv))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """Record the shape of every numpy.linalg.eigh call."""
    calls = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return calls


@pytest.fixture
def no_projectors(monkeypatch):
    """Make the checks' reference projectors raise in every glra module.

    Only the invariant suites form dense projectors; a library path that
    reached for them would raise here.
    """

    def forbidden(*args, **kwargs):
        raise AssertionError("reference projector built outside the checks")

    for module in (glra, glra.linalg, glra.solver, glra.sequences, glra.regression, glra.checks):
        if hasattr(module, "_ref_projectors"):
            monkeypatch.setattr(module, "_ref_projectors", forbidden)


def identity_truncation(a, r):
    """(A)_r with its tie diagnostics: the truncation of the B = I, C = I problem."""
    a = np.asarray(a, dtype=float)
    p = GlraProblem(m=a, b=np.eye(a.shape[0]), c=np.eye(a.shape[1]), r=r)
    return glra.solve(p).truncation

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


def _conditioned(g, rows, cols, cond, rank):
    """A rows x cols matrix with singular values logspaced from 1 to 1/cond, cut to rank."""
    u, _ = np.linalg.qr(g.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(g.standard_normal((cols, cols)))
    k = min(rows, cols)
    s = np.logspace(0.0, -np.log10(cond), k)
    s[rank:] = 0.0
    return (u[:, :k] * s) @ v[:, :k].T


# the kinds of conditioned_problem, picked by seed % 4
CONDITIONED_KINDS = ("full-rank", "deficient", "tiny-b-huge-c", "r-beyond-rank-k")


def conditioned_problem(seed):
    """A seeded problem of dimensions 2-11 whose B and C have condition up to 1e8.

    seed % 4 picks the kind (CONDITIONED_KINDS): full rank, rank-deficient
    B and C, B scaled by 1e-100 and C by 1e100, or a rank bound beyond the
    core's rank.
    """
    g = np.random.default_rng(seed)
    m_rows, n_cols, p_cols, q_rows = (int(d) for d in g.integers(2, 12, size=4))
    kind = seed % 4
    cond_b, cond_c = 10.0 ** g.uniform(0.0, 8.0, size=2)
    rank_b, rank_c = min(m_rows, p_cols), min(q_rows, n_cols)
    if kind == 1:
        rank_b, rank_c = int(g.integers(1, rank_b + 1)), int(g.integers(1, rank_c + 1))
    b = _conditioned(g, m_rows, p_cols, cond_b, rank_b)
    c = _conditioned(g, q_rows, n_cols, cond_c, rank_c)
    m = g.standard_normal((m_rows, n_cols))
    if kind == 2:
        b, c = 1e-100 * b, 1e100 * c
    r = int(g.integers(1, 4)) if kind != 3 else min(rank_b, rank_c) + 2
    return GlraProblem(m=m, b=b, c=c, r=r)


def low_rank_target(seed):
    """M = B X_0 C for Gaussian B, C and X_0 of rank k, with a rank bound r > k.

    Dimensions are 2-8.  G has numerical rank at most k < r, so the
    minimiser is B^+ G C^+, the answer at G's numerical rank.
    """
    g = np.random.default_rng(seed)
    m_rows, n_cols, p_cols, q_rows = (int(d) for d in g.integers(2, 9, size=4))
    k = int(g.integers(1, min(p_cols, q_rows) + 1))
    b = g.standard_normal((m_rows, p_cols))
    c = g.standard_normal((q_rows, n_cols))
    x_0 = g.standard_normal((p_cols, k)) @ g.standard_normal((k, q_rows))
    return GlraProblem(m=b @ x_0 @ c, b=b, c=c, r=k + int(g.integers(1, 4)))

"""The four benchmark workloads.

Each workload generates its inputs from the benchmark seed (``setup``),
computes reference values with numpy alone (``prepare``), lists the
program calls that make up one pass over its fixed input set
(``operations``; one pass is the benchmark's timed operation) and checks
every output of a pass (``check``).  Only generated matrices and files
reach the program.  Program functions are always looked up through their
module at call time (``glra.solver.solve``, never a name imported here),
so the tracer's wrappers see the benchmark's own calls too.

Tolerances are scale-aware, ``c * eps * dim * ||operands||``, with the
constant ``C_TOL`` shared by every check.  ``HOST_WEIGHTS`` says how much
a workload's pass time moves with the dense and the small-array kernel of
the host clock (see run.HostClock): the LAPACK share of pass time from the
traced run of the full size, and the rest, except for check-suites.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import glra.checks
import glra.cli
import glra.regression
import glra.sequences
import glra.solver

EPS = float(np.finfo(float).eps)
C_TOL = 10.0

# Sizes.  "full" is what the benchmark measures; "smoke" runs every
# workload and every check in seconds.
SIZES = {
    "full": {
        "solve-dense": {"n": (200, 400), "ranks": (1, 10)},
        "sweep-growth": {
            "n_values": (50, 100, 200, 300, 400),
            "probe_max": 50,
            "bounded_n": 240,
            "bounded_c_rank": 90,
            "bounded_r": 5,
            "chain_steps": 6,
        },
        "cli-files": {"samples": 20000, "dim_x": 40, "dim_y": 40, "n": 400, "r": 5},
        "check-suites": {"trials": 25},
    },
    "smoke": {
        "solve-dense": {"n": (24, 48), "ranks": (1, 3)},
        "sweep-growth": {
            "n_values": (20, 40, 80),
            "probe_max": 20,
            "bounded_n": 40,
            "bounded_c_rank": 15,
            "bounded_r": 2,
            "chain_steps": 3,
        },
        "cli-files": {"samples": 400, "dim_x": 6, "dim_y": 6, "n": 40, "r": 2},
        "check-suites": {"trials": 2},
    },
}

# Fixed parameters of the sweep: C = diag(k^-2), growth weights k^1.
GAMMA_EXP = 2.0
ALPHA_EXP = 1.0
SLOPE_MARGIN = 0.05
CHECK_SEED = 0

# Invariants of glra.checks recorded more than once per trial: the
# outer-inverse ones once per chain step (3 steps), the approximate
# minimiser bound once per epsilon (6 values).
CHECK_MULTIPLICITY = {
    "outer_inverse_identity": 3,
    "outer_inverse_equals_projected_pinv": 3,
    "bounded_step_product_identity": 3,
    "bounded_step_minimality": 3,
    "approx_minimizer_deviation_bound": 6,
}


class OperationFailed(RuntimeError):
    """The program did not complete one operation of a pass."""


def bound(dim: int, scale: float) -> float:
    return C_TOL * EPS * dim * scale


def fro(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def rank_deficient(rng: np.random.Generator, rows: int, cols: int, rank: int) -> np.ndarray:
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols)) / np.sqrt(rank)


class Checker:
    """Collects the failed checks of one pass."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        self.expect(
            abs(got - want) <= tol,
            f"{what}: got {got!r}, expected {want!r} within {tol:.3e}",
        )


class ReferenceBases:
    """Orthonormal bases of ran(B), ker(B)-perp, ran(C) and ker(C)-perp of known rank."""

    def __init__(self, b: np.ndarray, c: np.ndarray, rank_b: int, rank_c: int) -> None:
        u, _, vh = np.linalg.svd(b, full_matrices=False)
        self.ran_b, self.ker_b_perp = u[:, :rank_b], vh[:rank_b].T
        u, _, vh = np.linalg.svd(c, full_matrices=False)
        self.ran_c, self.ker_c_perp = u[:, :rank_c], vh[:rank_c].T

    def core_sigma(self, m: np.ndarray) -> np.ndarray:
        """Singular values of the core Q_B^T M Q_C, those of P_ran(B) M P_ker(C)-perp."""
        return np.linalg.svd(self.ran_b.T @ m @ self.ker_c_perp, compute_uv=False)

    def minimal_part(self, x: np.ndarray) -> np.ndarray:
        """P_ker(B)-perp X P_ran(C)."""
        vb, uc = self.ker_b_perp, self.ran_c
        return vb @ (vb.T @ x @ uc) @ uc.T


def check_solution(
    chk: Checker,
    what: str,
    m: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    r: int,
    x: np.ndarray,
    objective: float,
    ref_error: float,
    bases: ReferenceBases,
) -> None:
    """Optimal objective, recomputed residual, rank and minimality of one minimiser."""
    dim = max(m.shape + b.shape + c.shape)
    m_norm = fro(m)
    op_scale = m_norm + fro(b) * fro(x) * fro(c)
    chk.close(f"{what} objective vs reference optimal error", objective, ref_error,
              bound(dim, m_norm))
    chk.close(f"{what} objective vs ||M - B x C||", fro(m - b @ x @ c), objective,
              bound(dim, op_scale))
    sigma = np.linalg.svd(x, compute_uv=False)
    tail = float(sigma[r]) if sigma.size > r else 0.0
    chk.expect(tail <= bound(dim, float(sigma[0])), f"{what} rank(x) > {r}: sigma_r+1 = {tail:.3e}")
    defect = fro(x - bases.minimal_part(x))
    chk.expect(
        defect <= bound(dim, fro(x)),
        f"{what} x != P_ker(B)-perp x P_ran(C): defect {defect:.3e}",
    )


class SolveDense:
    """solve, optimal_error and solve_adjoint on a size ladder.

    Sizes n in the ladder: B is n x n/2 and C is n/2 x n, both full rank or
    both of rank 3/8 n; M is n x n Gaussian; r runs over the listed ranks.
    """

    HOST_WEIGHTS = (0.76, 0.24)

    def __init__(self, size: str, seed: int, workdir: str) -> None:
        self.params = SIZES[size]["solve-dense"]
        self.seed = seed
        self.inputs: list[dict] = []

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        inputs = []
        for n in self.params["n"]:
            half = n // 2
            for deficient in (False, True):
                rank = 3 * half // 4 if deficient else half
                if deficient:
                    b = rank_deficient(rng, n, half, rank)
                    c = rank_deficient(rng, half, n, rank)
                else:
                    b = rng.standard_normal((n, half))
                    c = rng.standard_normal((half, n))
                m = rng.standard_normal((n, n))
                for r in self.params["ranks"]:
                    inputs.append({"m": m, "b": b, "c": c, "r": r, "rank": rank})
        self.inputs = inputs

    def prepare(self) -> None:
        for inp in self.inputs:
            bases = ReferenceBases(inp["b"], inp["c"], inp["rank"], inp["rank"])
            sigma = bases.core_sigma(inp["m"])
            inp["bases"] = bases
            inp["ref_error"] = float(
                np.sqrt(max(fro(inp["m"]) ** 2 - float(np.sum(sigma[: inp["r"]] ** 2)), 0.0))
            )

    def operations(self) -> list:
        def solve_all(inp):
            p = glra.solver.GlraProblem(m=inp["m"], b=inp["b"], c=inp["c"], r=inp["r"])
            return glra.solver.solve(p), glra.solver.optimal_error(p), glra.solver.solve_adjoint(p)

        return [lambda inp=inp: solve_all(inp) for inp in self.inputs]

    def check(self, outputs: list) -> list[str]:
        chk = Checker()
        for inp, (sol, err, adj) in zip(self.inputs, outputs):
            m, b, c, r = inp["m"], inp["b"], inp["c"], inp["r"]
            what = f"n={m.shape[0]} rank={inp['rank']} r={r}"
            dim = max(m.shape)
            check_solution(chk, what, m, b, c, r, sol.x_hat, sol.objective, inp["ref_error"],
                           inp["bases"])
            chk.close(f"{what} optimal_error().error", err.error, inp["ref_error"],
                      bound(dim, fro(m)))
            chk.close(f"{what} adjoint objective", adj.objective, sol.objective,
                      bound(dim, fro(m)))
        return chk.failures


class SweepGrowth:
    """unboundedness_sweep (untied and tied mu) and a bounded approximation sequence.

    The sweep runs the diagonal construction C = diag(k^-2), growth
    weights k^1, over the N ladder, one call per N so that the host clock
    is sampled between them; the seed draws the top spectrum mu and the
    probe columns.  The bounded approximation runs along a seeded
    nested chain on an n x n problem with B n x n/2 of full rank and C
    n/2 x n of lower rank.
    """

    HOST_WEIGHTS = (0.32, 0.68)

    def __init__(self, size: str, seed: int, workdir: str) -> None:
        self.params = SIZES[size]["sweep-growth"]
        self.seed = seed

    def setup(self) -> None:
        prm = self.params
        rng = np.random.default_rng([self.seed, 2])
        mu1 = 1.0 + float(rng.random())
        self.mu_untied = (mu1, mu1 * (0.3 + 0.4 * float(rng.random())))
        self.mu_tied = (mu1, mu1)
        self.probes = sorted(int(v) for v in rng.choice(np.arange(2, prm["probe_max"] + 1), 3,
                                                        replace=False))
        n = prm["bounded_n"]
        self.m = rng.standard_normal((n, n))
        self.b = rng.standard_normal((n, n // 2))
        self.c = rank_deficient(rng, n // 2, n, prm["bounded_c_rank"])
        self.chain_seed = int(rng.integers(0, 2**31))

    def prepare(self) -> None:
        bases = ReferenceBases(self.b, self.c, self.b.shape[1], self.params["bounded_c_rank"])
        sigma = bases.core_sigma(self.m)
        self.g_r_sq = float(np.sum(sigma[: self.params["bounded_r"]] ** 2))

    def operations(self) -> list:
        prm = self.params

        def sweep(mu, n):
            spec = glra.sequences.SequenceSpec(
                gamma_exponent=GAMMA_EXP, alpha_exponent=ALPHA_EXP, mu_head=mu, n=n, r=1
            )
            return glra.sequences.unboundedness_sweep(spec, [n], self.probes)

        def bounded():
            p = glra.solver.GlraProblem(m=self.m, b=self.b, c=self.c, r=prm["bounded_r"])
            chain = glra.sequences.nested_chain(p.c, prm["chain_steps"], seed=self.chain_seed)
            return glra.sequences.bounded_approximation_sequence(p, chain)

        return [
            lambda mu=mu, n=n: sweep(mu, n)
            for mu in (self.mu_untied, self.mu_tied)
            for n in prm["n_values"]
        ] + [bounded]

    def check(self, outputs: list) -> list[str]:
        chk = Checker()
        n_values = list(self.params["n_values"])
        *sweeps, bounded = outputs
        for k, (mu, tied) in enumerate(((self.mu_untied, False), (self.mu_tied, True))):
            ladder = sweeps[k * len(n_values):(k + 1) * len(n_values)]
            chk.expect(all(sw.tie == tied for sw in ladder), f"sweep with mu={mu} tie flag != {tied}")
            rows = [row for sw in ladder for row in sw.rows]
            chk.expect(len(rows) == len(n_values) * len(self.probes), f"sweep has {len(rows)} rows")
            for row in rows:
                k_idx = np.arange(1, row.n + 1, dtype=float)
                w = k_idx**ALPHA_EXP * k_idx**-GAMMA_EXP
                w[0] = 0.0
                want = mu[0] * row.m**ALPHA_EXP / float(np.linalg.norm(w))
                # operands: ||M|| ~ mu_1 sqrt(N) and ||C^+|| = N^gamma
                scale = mu[0] * np.sqrt(row.n) * row.n**GAMMA_EXP
                chk.close(f"probe norm N={row.n} m={row.m} mu={mu}", row.norm, want,
                          bound(row.n, scale))
            consts = [sw.lower_bounds[n] for sw, n in zip(ladder, n_values)]
            if min(consts) > 0.0:
                slope = float(np.polyfit(np.log(n_values), np.log(consts), 1)[0])
                chk.expect(abs(slope + GAMMA_EXP) <= SLOPE_MARGIN,
                           f"lower-bound slope {slope:.4f} vs -{GAMMA_EXP} (mu={mu})")
            else:
                chk.expect(False, f"zero lower-bound constant in {consts}")
        tails = [st.tail_error for st in bounded.steps]
        dim = max(self.m.shape)
        tol = bound(dim, self.g_r_sq)
        chk.expect(len(tails) >= 2, f"chain produced {len(tails)} steps")
        chk.expect(all(tails[i + 1] <= tails[i] + tol for i in range(len(tails) - 1)),
                   f"bounded-approximation tails increase: {tails}")
        chk.expect(abs(tails[-1]) <= tol, f"last tail {tails[-1]:.3e} vs ||(G)_r||^2 {self.g_r_sq:.3e}")
        return chk.failures


class CliFiles:
    """glra regress, solve and outer-approx in-process on CSV inputs.

    regress reads S x F and S x G samples (x = A y + noise with a rank-r
    signal); solve and outer-approx read an n x n M, an n x n/2 B and an
    n/2 x n C.  Inputs are written with numpy's own %.17g formatting.
    """

    HOST_WEIGHTS = (0.29, 0.71)

    def __init__(self, size: str, seed: int, workdir: str) -> None:
        self.params = SIZES[size]["cli-files"]
        self.seed = seed
        self.workdir = workdir
        self.first_reports: list[str] | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        prm = self.params
        rng = np.random.default_rng([self.seed, 3])
        s, f, g, n = prm["samples"], prm["dim_x"], prm["dim_y"], prm["n"]
        ys = rng.standard_normal((s, g))
        signal = rng.standard_normal((g, prm["r"])) @ rng.standard_normal((prm["r"], f))
        xs = ys @ signal / np.sqrt(g) + 0.5 * rng.standard_normal((s, f))
        self.m = rng.standard_normal((n, n))
        self.b = rng.standard_normal((n, n // 2))
        self.c = rng.standard_normal((n // 2, n))
        self.xs, self.ys = xs, ys
        os.makedirs(self.workdir, exist_ok=True)
        for name, a in (("xs", xs), ("ys", ys), ("M", self.m), ("B", self.b), ("C", self.c)):
            np.savetxt(self.path(f"{name}.csv"), a, fmt="%.17g", delimiter=",")

    def prepare(self) -> None:
        # classical reduced-rank regression: least squares, then projection
        # of the fitted values onto their top r right singular directions
        r = self.params["r"]
        coef = np.linalg.lstsq(self.ys, self.xs, rcond=None)[0]
        fitted = self.ys @ coef
        v_r = np.linalg.svd(fitted, full_matrices=False)[2][:r].T
        residual = self.xs - fitted @ v_r @ v_r.T
        self.ref_mse = float(np.sum(residual**2)) / self.xs.shape[0]
        self.x_scale = float(np.sum(self.xs**2)) / self.xs.shape[0]
        self.bases = ReferenceBases(self.b, self.c, self.b.shape[1], self.c.shape[0])
        sigma = self.bases.core_sigma(self.m)
        self.delta = float(np.sum(sigma[:r] ** 2))
        self.ref_error = float(np.sqrt(max(fro(self.m) ** 2 - self.delta, 0.0)))

    def commands(self) -> list[list[str]]:
        r = str(self.params["r"])
        problem = ["--M", self.path("M.csv"), "--B", self.path("B.csv"), "--C", self.path("C.csv"),
                   "--rank", r, "--no-timestamp"]
        return [
            ["regress", "--x", self.path("xs.csv"), "--y", self.path("ys.csv"), "--rank", r,
             "--model-out", self.path("model.json"), "--no-timestamp"],
            ["solve", *problem, "--out", self.path("x_hat.csv")],
            ["outer-approx", *problem, "--chain", "auto:5", "--out", self.path("outer.csv")],
        ]

    def operations(self) -> list:
        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = glra.cli.main(argv)
            if code != 0:
                raise OperationFailed(f"glra {argv[0]} exited {code}: {err.getvalue().strip()}")
            return out.getvalue()

        return [lambda argv=argv: run(argv) for argv in self.commands()]

    def check(self, outputs: list[str]) -> list[str]:
        chk = Checker()
        if self.first_reports is None:
            self.first_reports = outputs
        for argv, text, first in zip(self.commands(), outputs, self.first_reports):
            chk.expect(text == first, f"glra {argv[0]} report differs from the first pass")
        regress, solve, outer = (json.loads(t) for t in outputs)
        f, g = self.xs.shape[1], self.ys.shape[1]
        mse = regress["outputs"]["mse_trace"]
        chk.close("regress MSE vs classical reduced-rank regression", mse, self.ref_mse,
                  bound(f + g, self.x_scale))
        chk.close("regress mse_trace vs mse_monte_carlo", mse,
                  regress["outputs"]["mse_monte_carlo"], bound(f + g, self.x_scale))
        chk.expect(regress["diagnostics"]["maximal_kernel"]["passed"] is True,
                   "regress maximal_kernel.passed is not true")
        x_hat = np.loadtxt(self.path("x_hat.csv"), delimiter=",", ndmin=2)
        check_solution(chk, "glra solve", self.m, self.b, self.c, self.params["r"], x_hat,
                       solve["outputs"]["objective"], self.ref_error, self.bases)
        dim = max(self.m.shape)
        chk.close("outer-approx objective", outer["outputs"]["objective"], self.ref_error,
                  bound(dim, fro(self.m)))
        chk.expect(outer["diagnostics"]["tail_nonincreasing"] is True,
                   "outer-approx tails increase")
        chk.expect(abs(outer["outputs"]["final_tail_error"]) <= bound(dim, self.delta),
                   f"outer-approx final tail {outer['outputs']['final_tail_error']:.3e}")
        return chk.failures


class CheckSuites:
    """checks.run_suites over each of the five suites at fixed trials and seed.

    The suites draw their own instances from CHECK_SEED; the benchmark
    seed does not change them, so their work is the same in every run.
    """

    # Its LAPACK calls are on matrices of at most 12 x 12, and its pass time
    # moves about 1.25 times as much as the small-array kernel's (least
    # squares over sets of five runs of this commit gave 1.19 to 1.36).
    HOST_WEIGHTS = (0.0, 1.25)

    def __init__(self, size: str, seed: int, workdir: str) -> None:
        self.trials = SIZES[size]["check-suites"]["trials"]

    def setup(self) -> None:
        self.names = list(glra.checks.SUITE_NAMES)

    def prepare(self) -> None:
        pass

    def operations(self) -> list:
        return [
            lambda name=name: glra.checks.run_suites([name], trials=self.trials, seed=CHECK_SEED)
            for name in self.names
        ]

    def check(self, reports: list) -> list[str]:
        chk = Checker()
        suites = {name: res for report in reports for name, res in report.suites.items()}
        chk.expect(all(report.passed for report in reports), "check suites did not pass")
        chk.expect(sorted(suites) == sorted(self.names), f"suites run: {sorted(suites)}")
        for suite, results in suites.items():
            for res in results:
                want = self.trials * CHECK_MULTIPLICITY.get(res.name, 1)
                chk.expect(res.failures == 0, f"{suite}.{res.name}: {res.failures} failures")
                chk.expect(res.trials == want, f"{suite}.{res.name}: {res.trials} trials, want {want}")
        return chk.failures


WORKLOADS = {
    "solve-dense": SolveDense,
    "sweep-growth": SweepGrowth,
    "cli-files": CliFiles,
    "check-suites": CheckSuites,
}

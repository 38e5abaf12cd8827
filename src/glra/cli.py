"""Command-line front end.

Matrices travel as headerless CSV files; every command prints a JSON
report (schema "glra/1") to stdout and exits 0 on success, 2 on input or
parse errors, 3 when a numerical invariant fails, and 4 on internal
errors.  Reports are byte-reproducible for fixed inputs and seed when
--no-timestamp is passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import checks, regression, sequences, solver
from .linalg import (
    DEFAULT_TOL,
    DomainError,
    InputError,
    NumericalError,
    Tolerances,
    hs_norm,
)
from .matio import read_matrix, write_matrix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer list, got {text!r}") from exc
    if not values:
        raise InputError("expected at least one integer")
    return values


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"expected a comma-separated float list, got {text!r}") from exc
    if not values:
        raise InputError("expected at least one float")
    return values


def _tolerances(args: argparse.Namespace) -> Tolerances:
    check_abs = DEFAULT_TOL.check_abs
    env = os.environ.get("GLRA_TOL_ABS")
    if env is not None:
        try:
            check_abs = float(env)
        except ValueError as exc:
            raise InputError(f"GLRA_TOL_ABS={env!r} is not a float") from exc
    if args.check_abs is not None:
        check_abs = args.check_abs
    return Tolerances(
        rank_rel=args.rank_rel if args.rank_rel is not None else DEFAULT_TOL.rank_rel,
        tie_rel=args.tie_rel if args.tie_rel is not None else DEFAULT_TOL.tie_rel,
        check_abs=check_abs,
    )


def _emit(report: dict, args: argparse.Namespace, started: float) -> None:
    if not args.no_timestamp:
        report["timing"] = time.perf_counter() - started
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_problem(args: argparse.Namespace) -> solver.GlraProblem:
    m = read_matrix(args.M)
    b = read_matrix(args.B)
    c = read_matrix(args.C)
    try:
        return solver.GlraProblem(m=m, b=b, c=c, r=args.rank)
    except InputError as exc:
        raise InputError(
            f"incompatible inputs {args.M}, {args.B}, {args.C}: {exc}"
        ) from exc


def cmd_solve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol = _tolerances(args)
    problem = _load_problem(args)
    sol = (solver.solve_adjoint if args.adjoint else solver.solve)(problem, tol)
    write_matrix(args.out, sol.x_hat)
    report = {
        "schema": "glra/1",
        "command": "solve",
        "inputs": {
            "M": args.M,
            "B": args.B,
            "C": args.C,
            "rank": args.rank,
            "adjoint": bool(args.adjoint),
        },
        "outputs": {
            "x_hat": args.out,
            "objective": sol.objective,
            "delta": sol.delta,
        },
        "diagnostics": {
            "uniqueness": sol.uniqueness.value,
            "minimality_defect": sol.minimality_defect,
        },
    }
    _emit(report, args, started)
    return EXIT_OK


def cmd_error(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol = _tolerances(args)
    problem = _load_problem(args)
    err = solver.optimal_error(problem, tol)
    variants = (err.delta,) + err.delta_variants
    spread = max(abs(a - b) for a in variants for b in variants)
    report = {
        "schema": "glra/1",
        "command": "error",
        "inputs": {"M": args.M, "B": args.B, "C": args.C, "rank": args.rank},
        "outputs": {
            "error": err.error,
            "delta": err.delta,
            "delta_variants": list(err.delta_variants),
        },
        "diagnostics": {"max_delta_discrepancy": spread},
    }
    _emit(report, args, started)
    return EXIT_OK


def cmd_demo_unbounded(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol = _tolerances(args)
    n_values = _int_list(args.N)
    probes = _int_list(args.probes)
    spec = sequences.SequenceSpec(
        gamma_exponent=args.gamma_exp,
        alpha_exponent=args.alpha_exp,
        mu_head=tuple(_float_list(args.mu)),
        mu_tail_exponent=args.mu_tail_exp,
        n=max(n_values),
        r=args.rank,
    )
    sweep = sequences.unboundedness_sweep(spec, n_values, probes, tol)
    table = np.array(
        [[row.n, row.m, row.norm, row.predicted_norm] for row in sweep.rows]
    )
    write_matrix(args.out, table)
    files = {"sweep": args.out}
    if sweep.tie:
        bounded_path = args.out + ".bounded.csv"
        write_matrix(
            bounded_path,
            np.array(
                [[row.n, row.m, row.norm, row.predicted_norm] for row in sweep.bounded_rows]
            ),
        )
        files["bounded_branch"] = bounded_path
    mismatch = max(abs(row.norm - row.predicted_norm) for row in sweep.rows)
    report = {
        "schema": "glra/1",
        "command": "demo-unbounded",
        "inputs": {
            "N": n_values,
            "gamma_exp": args.gamma_exp,
            "alpha_exp": args.alpha_exp,
            "mu": args.mu,
            "mu_tail_exp": args.mu_tail_exp,
            "rank": args.rank,
            "probes": probes,
            "seed": args.seed,
        },
        "outputs": {
            "files": files,
            "w_norms": {str(n): v for n, v in sweep.w_norms.items()},
            "lower_bound_constants": {str(n): v for n, v in sweep.lower_bounds.items()},
        },
        "diagnostics": {
            "tie": sweep.tie,
            "max_abs_norm_mismatch": mismatch,
        },
    }
    _emit(report, args, started)
    return EXIT_OK


def _build_chain(spec: str, c: np.ndarray, seed: int, tol: Tolerances) -> sequences.SubspaceChain:
    if spec == "full":
        return sequences.full_chain(c, tol)
    if spec.startswith("auto:"):
        try:
            steps = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad chain spec {spec!r}; expected auto:<steps>") from exc
        return sequences.nested_chain(c, steps, seed=seed, tol=tol)
    generators = read_matrix(spec)
    bases = []
    for k in range(1, generators.shape[1] + 1):
        q, _ = np.linalg.qr(generators[:, :k])
        bases.append(q)
    return sequences.SubspaceChain(bases=tuple(bases))


def cmd_outer_approx(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol = _tolerances(args)
    problem = _load_problem(args)
    chain = _build_chain(args.chain, problem.c, args.seed, tol)
    result = sequences.bounded_approximation_sequence(problem, chain, tol)
    rows = []
    alt_tails = []
    for i, step in enumerate(result.steps):
        c_sharp = step.outer.c_sharp
        row = [
            float(i + 1),
            float(step.x_basis.shape[1]),
            step.tail_error,
            hs_norm(c_sharp @ problem.c @ c_sharp - c_sharp),
        ]
        if args.alternative:
            # rejected construction: approximate C^+ by C^+ P_n, i.e. x_hat P_n;
            # its tail has no monotone-convergence guarantee and is shown only
            # for contrast
            y_n = step.outer.y_basis
            x_alt = result.solution.x_hat @ y_n @ y_n.T
            alt_tails.append(
                hs_norm(result.solution.y - problem.b @ x_alt @ problem.c) ** 2
            )
            row.append(alt_tails[-1])
        rows.append(row)
    write_matrix(args.out, np.array(rows))
    tails = [step.tail_error for step in result.steps]
    report = {
        "schema": "glra/1",
        "command": "outer-approx",
        "inputs": {
            "M": args.M,
            "B": args.B,
            "C": args.C,
            "rank": args.rank,
            "chain": args.chain,
            "seed": args.seed,
            "alternative": bool(args.alternative),
        },
        "outputs": {
            "steps": args.out,
            "final_tail_error": tails[-1],
            "objective": result.solution.objective,
        },
        "diagnostics": {
            "tail_nonincreasing": bool(
                all(tails[i + 1] <= tails[i] + tol.check_abs for i in range(len(tails) - 1))
            ),
            "max_outer_identity_residual": max(row[3] for row in rows),
        },
    }
    if args.alternative:
        report["diagnostics"]["alternative_tail_nonincreasing"] = bool(
            all(
                alt_tails[i + 1] <= alt_tails[i] + tol.check_abs
                for i in range(len(alt_tails) - 1)
            )
        )
    _emit(report, args, started)
    return EXIT_OK


def cmd_regress(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol = _tolerances(args)
    xs = read_matrix(args.x)
    ys = read_matrix(args.y)
    if args.center:
        xs = xs - xs.mean(axis=0)
        ys = ys - ys.mean(axis=0)
    samples = regression.SampleSet(xs=xs, ys=ys)
    cov = regression.empirical_covariances(samples)
    weights = None
    if any(path is not None for path in (args.wx, args.wa, args.wy)):
        if not all(path is not None for path in (args.wx, args.wa, args.wy)):
            raise InputError("--wx, --wa and --wy must be given together")
        weights = (read_matrix(args.wx), read_matrix(args.wa), read_matrix(args.wy))
    model = regression.fit(cov, args.rank, weights=weights, tol=tol)
    outputs = {
        "mse_trace": model.fit_report.objective_mse,
        "mse_monte_carlo": regression.mse_monte_carlo(model, samples),
    }
    if args.model_out:
        regression.save_model(args.model_out, model)
        outputs["model"] = args.model_out
    diagnostics = {
        "uniqueness": model.fit_report.uniqueness.value,
        "minimality_defect": model.fit_report.minimality_defect,
        "containment_residual": model.fit_report.containment_residual,
    }
    if weights is None:
        kernel = regression.maximal_kernel_check(
            model, cov, trials=args.trials, seed=args.seed, tol=tol
        )
        diagnostics["maximal_kernel"] = {
            "passed": kernel.passed,
            "kernel_dim": kernel.kernel_dim,
            "annihilation_residual": kernel.annihilation_residual,
            "max_mse_deviation": kernel.max_mse_deviation,
        }
    report = {
        "schema": "glra/1",
        "command": "regress",
        "inputs": {
            "x": args.x,
            "y": args.y,
            "rank": args.rank,
            "center": bool(args.center),
            "weights": {"W_x": args.wx, "W_A": args.wa, "W_y": args.wy}
            if weights is not None
            else None,
            "seed": args.seed,
        },
        "outputs": outputs,
        "diagnostics": diagnostics,
    }
    _emit(report, args, started)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol = _tolerances(args)
    names = list(checks.SUITE_NAMES) if args.suite == "all" else [args.suite]
    report = checks.run_suites(names, trials=args.trials, seed=args.seed, tol=tol)
    suites_doc = {
        name: [
            {
                "invariant": res.name,
                "trials": res.trials,
                "failures": res.failures,
                "max_residual": res.max_residual,
            }
            for res in results
        ]
        for name, results in report.suites.items()
    }
    passed = report.passed
    if args.fixture:
        a = read_matrix(os.path.join(args.fixture, "a.csv"))
        a_pinv = read_matrix(os.path.join(args.fixture, "a_pinv.csv"))
        fixture_result = checks.check_fixture_pair(a, a_pinv, tol)
        suites_doc["fixture"] = [
            {
                "invariant": fixture_result.name,
                "trials": fixture_result.trials,
                "failures": fixture_result.failures,
                "max_residual": fixture_result.max_residual,
            }
        ]
        passed = passed and fixture_result.failures == 0
    doc = {
        "schema": "glra/1",
        "command": "check",
        "inputs": {"suite": args.suite, "trials": args.trials, "seed": args.seed},
        "outputs": {"suites": suites_doc},
        "diagnostics": {"passed": passed},
    }
    _emit(doc, args, started)
    return EXIT_OK if passed else EXIT_NUMERICAL


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rank-rel", type=float, default=None, help="numerical rank cutoff")
    parser.add_argument("--tie-rel", type=float, default=None, help="singular-value tie gap")
    parser.add_argument(
        "--check-abs",
        type=float,
        default=None,
        help="absolute invariant tolerance (also via GLRA_TOL_ABS)",
    )
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timing/timestamp for byte-reproducible reports",
    )


def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--M", required=True, help="target matrix CSV")
    parser.add_argument("--B", required=True, help="left factor CSV")
    parser.add_argument("--C", required=True, help="right factor CSV")
    parser.add_argument("--rank", type=int, required=True, help="rank bound r")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glra",
        description="Rank-constrained approximation min ||M - B X C||_HS, rank(X) <= r",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem and write the minimiser")
    _add_problem_args(p_solve)
    p_solve.add_argument("--adjoint", action="store_true", help="solve the transposed problem")
    p_solve.add_argument("--out", default="xhat.csv", help="where to write X_hat")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_error = sub.add_parser("error", help="optimal error and its redundant recomputations")
    _add_problem_args(p_error)
    _add_common(p_error)
    p_error.set_defaults(func=cmd_error)

    p_demo = sub.add_parser(
        "demo-unbounded",
        help="sweep the diagonal construction whose minimiser columns grow with N",
    )
    p_demo.add_argument("--N", default="10,50,200", help="comma list of dimensions")
    p_demo.add_argument("--gamma-exp", type=float, default=2.0)
    p_demo.add_argument("--alpha-exp", type=float, default=1.0)
    p_demo.add_argument("--mu", default="1,0.5", help="leading spectrum values of the target")
    p_demo.add_argument("--mu-tail-exp", type=float, default=1.0)
    p_demo.add_argument("--rank", type=int, default=1)
    p_demo.add_argument("--probes", default="10,50,100", help="probe column indices")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--out", default="sweep.csv", help="sweep table CSV (N,m,norm,predicted)")
    _add_common(p_demo)
    p_demo.set_defaults(func=cmd_demo_unbounded)

    p_outer = sub.add_parser(
        "outer-approx", help="bounded approximations through outer-inverse chains"
    )
    _add_problem_args(p_outer)
    p_outer.add_argument(
        "--chain",
        default="auto:5",
        help="'full', 'auto:<steps>', or a CSV of generator columns",
    )
    p_outer.add_argument("--seed", type=int, default=0)
    p_outer.add_argument(
        "--alternative",
        action="store_true",
        help="also tabulate the rejected C^+ P_n construction (no convergence guarantee)",
    )
    p_outer.add_argument("--out", default="outer.csv", help="per-step CSV")
    _add_common(p_outer)
    p_outer.set_defaults(func=cmd_outer_approx)

    p_reg = sub.add_parser("regress", help="reduced-rank regression on sampled data")
    p_reg.add_argument("--x", required=True, help="samples of x, one per CSV row")
    p_reg.add_argument("--y", required=True, help="samples of y, one per CSV row")
    p_reg.add_argument("--rank", type=int, required=True)
    p_reg.add_argument("--wx", default=None, help="weight matrix W_x CSV")
    p_reg.add_argument("--wa", default=None, help="weight matrix W_A CSV")
    p_reg.add_argument("--wy", default=None, help="weight matrix W_y CSV")
    p_reg.add_argument("--center", action="store_true", help="subtract sample means first")
    p_reg.add_argument("--model-out", default=None, help="persist the fitted model JSON")
    p_reg.add_argument("--trials", type=int, default=20, help="maximal-kernel trials")
    p_reg.add_argument("--seed", type=int, default=0)
    _add_common(p_reg)
    p_reg.set_defaults(func=cmd_regress)

    p_check = sub.add_parser("check", help="run the seeded invariant suites")
    p_check.add_argument(
        "--suite", default="all", choices=list(checks.SUITE_NAMES) + ["all"]
    )
    p_check.add_argument("--trials", type=int, default=25)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--fixture",
        default=None,
        help="directory with a.csv/a_pinv.csv to verify as a stored pair",
    )
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

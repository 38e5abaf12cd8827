"""Command-line front end.

Matrices travel as headerless CSV files; every command prints a JSON
report (schema "glra/1") to stdout and exits 0 on success, 2 on input
errors (bad arguments, unreadable or unparsable input files, unwritable
output paths), 3 when a numerical invariant fails, and 4 on internal
errors.  Each ``cmd_*`` function only reads, computes and writes; main()
wraps the outputs and diagnostics it returns in the report.  The
report's ``inputs`` are the parsed command line: every option of the
command but --no-timestamp, defaults included, under its argparse name
(``rank_rel`` for --rank-rel) with its parsed value, so a list option
such as --N appears as typed.  With --no-timestamp, reports are
byte-reproducible for fixed inputs and seed on one BLAS build at one
thread count.  Every command but ``check`` takes --rank-rel and --tie-rel.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
    _count,
    _require_finite,
    check_bound,
    hs_norm,
)
from .matio import read_matrix, write_matrix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

# what a command hands to main: outputs, diagnostics and exit code
Result = tuple[dict, dict, int]

# the parsed arguments that are not options of the command itself
_NOT_INPUTS = ("command", "func", "no_timestamp")

# a negative decimal number, with or without an exponent
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _number_list(option: str, text: str, kind: type = int) -> list:
    """Parse the comma-separated ints (or values of the given kind) of an option."""
    name = "integer" if kind is int else kind.__name__
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(
            f"{option}: expected a comma-separated {name} list, got {text!r}"
        ) from exc
    if not values:
        raise InputError(f"{option}: expected at least one {name}")
    return values


def _tolerances(args: argparse.Namespace) -> Tolerances:
    """The --rank-rel and --tie-rel of a command that takes them."""
    return Tolerances(rank_rel=args.rank_rel, tie_rel=args.tie_rel)


def _load_problem(args: argparse.Namespace) -> solver.GlraProblem:
    tol = _tolerances(args)
    # a bad rank bound is no fault of the files, so it is judged before them
    _count(args.rank, "rank bound", 1)
    m = read_matrix(args.M)
    b = read_matrix(args.B)
    c = read_matrix(args.C)
    try:
        return solver.GlraProblem(m=m, b=b, c=c, r=args.rank, tol=tol)
    except InputError as exc:
        raise InputError(
            f"incompatible inputs {args.M}, {args.B}, {args.C}: {exc}"
        ) from exc


def cmd_solve(args: argparse.Namespace) -> Result:
    problem = _load_problem(args)
    sol = (solver.solve_adjoint if args.adjoint else solver.solve)(problem)
    write_matrix(args.out, sol.x_hat)
    return (
        {"x_hat": args.out, "objective": sol.objective, "delta": sol.delta},
        {"uniqueness": sol.uniqueness.value},
        EXIT_OK,
    )


def cmd_error(args: argparse.Namespace) -> Result:
    problem = _load_problem(args)
    err = solver.optimal_error(problem)
    variants = (err.delta,) + err.delta_variants
    spread = max(abs(a - b) for a in variants for b in variants)
    return (
        {"error": err.error, "delta": err.delta, "delta_variants": list(err.delta_variants)},
        {"max_delta_discrepancy": spread},
        EXIT_OK,
    )


def _write_sweep(path: str, rows: list[sequences.SweepRow]) -> None:
    write_matrix(path, np.array([[r.n, r.m, r.norm, r.predicted_norm] for r in rows]))


def cmd_demo_unbounded(args: argparse.Namespace) -> Result:
    tol = _tolerances(args)
    n_values = _number_list("--N", args.N)
    probes = _number_list("--probes", args.probes)
    spec = sequences.SequenceSpec(
        gamma_exponent=args.gamma_exp,
        alpha_exponent=args.alpha_exp,
        mu_head=tuple(_number_list("--mu", args.mu, float)),
        mu_tail_exponent=args.mu_tail_exp,
        n=max(n_values),
    )
    sweep = sequences.unboundedness_sweep(spec, n_values, probes, tol)
    _write_sweep(args.out, sweep.rows)
    files = {"sweep": args.out}
    if sweep.tie:
        files["bounded_branch"] = args.out + ".bounded.csv"
        _write_sweep(files["bounded_branch"], sweep.bounded_rows)
    mismatch = max(abs(row.norm - row.predicted_norm) for row in sweep.rows)
    return (
        {
            "files": files,
            "w_norms": {str(n): v for n, v in sweep.w_norms.items()},
            "lower_bound_constants": {str(n): v for n, v in sweep.lower_bounds.items()},
        },
        {"tie": sweep.tie, "max_abs_norm_mismatch": mismatch},
        EXIT_OK,
    )


def _auto_steps(spec: str) -> int:
    """The step count k >= 1 of a chain spec auto:<k>."""
    try:
        steps = int(spec.split(":", 1)[1])
    except ValueError:
        steps = 0
    if steps < 1:
        raise InputError(f"bad chain spec {spec!r}; expected auto:<steps> with steps >= 1")
    return steps


def _build_chain(args: argparse.Namespace, problem: solver.GlraProblem) -> sequences.SubspaceChain:
    # full_chain and nested_chain drawn from the problem take U_C from its
    # one reduction, which bounded_approximation_sequence then reads, so C
    # is factorised once
    spec = args.chain
    if spec == "full" or spec.startswith("auto:"):
        steps = None if spec == "full" else _auto_steps(spec)
        try:
            if steps is None:
                return sequences.full_chain(problem)
            return sequences.nested_chain(problem, steps, args.seed)
        except InputError as exc:  # the step count is valid, so C has rank 0
            raise InputError(f"{args.C}: {exc}") from exc
    generators = read_matrix(spec)
    # the leading k columns of one QR span the first k generators
    q, _ = np.linalg.qr(generators)
    return sequences.SubspaceChain(
        bases=tuple(q[:, :k] for k in range(1, generators.shape[1] + 1))
    )


def _nonincreasing(values: list[float], slack: float) -> bool:
    return all(later <= earlier + slack for earlier, later in zip(values, values[1:]))


def cmd_outer_approx(args: argparse.Namespace) -> Result:
    problem = _load_problem(args)
    chain = _build_chain(args, problem)
    result = sequences.bounded_approximation_sequence(problem, chain)
    rows = []
    alt_tails = []
    if args.alternative:
        g_r = result.solution.truncation.matrix()
        left, right = solver._sides(result.solution.factors)
    for i, step in enumerate(result.steps):
        c_sharp = step.outer.c_sharp
        # C# (C C#), whose middle factor is q x q; an overflow is reported
        # below as NumericalError, so numpy prints no warning for it
        with np.errstate(over="ignore", invalid="ignore"):
            identity = c_sharp @ (problem.c @ c_sharp) - c_sharp
        _require_finite(outer_identity_residual=identity)
        row = [float(i + 1), float(step.outer.x_basis.shape[1]), step.tail_error, hs_norm(identity)]
        if args.alternative:
            # rejected construction: approximate C^+ by C^+ P_n, i.e. x_hat P_n
            # = L (R^T Y_n) Y_n^T; its tail has no monotone-convergence
            # guarantee and is shown only for contrast
            y_n = step.outer.y_basis
            tail = solver._residual_norm(
                g_r, problem.b, left, right.T, y_n, y_n.T, problem.c, name="alternative_tail"
            )
            # x_hat P_n is not bounded by (G)_r, so its tail can overflow where
            # delta does not: a float64 square turns that into inf, not OverflowError
            with np.errstate(over="ignore"):
                alt_tail = np.float64(tail) ** 2
            _require_finite(alternative_tail=alt_tail)
            alt_tails.append(float(alt_tail))
            row.append(alt_tails[-1])
        rows.append(row)
    write_matrix(args.out, np.array(rows))
    tails = [step.tail_error for step in result.steps]
    # tails are squared distances from (G)_r, so they scale as ||(G)_r||^2 = delta
    slack = check_bound(max(problem.m.shape), result.solution.delta)
    diagnostics = {
        "tail_nonincreasing": _nonincreasing(tails, slack),
        "max_outer_identity_residual": max(row[3] for row in rows),
    }
    if args.alternative:
        diagnostics["alternative_tail_nonincreasing"] = _nonincreasing(alt_tails, slack)
    return (
        {
            "steps": args.out,
            "final_tail_error": tails[-1],
            "objective": result.solution.objective,
        },
        diagnostics,
        EXIT_OK,
    )


def cmd_regress(args: argparse.Namespace) -> Result:
    tol = _tolerances(args)
    # as in _load_problem, a bad rank bound is judged before the files
    _count(args.rank, "rank bound", 1)
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
    diagnostics = {"uniqueness": model.fit_report.uniqueness.value}
    if weights is None:
        kernel = regression.maximal_kernel_check(model, cov, trials=args.trials, seed=args.seed)
        diagnostics["maximal_kernel"] = {
            "passed": kernel.passed,
            "kernel_dim": kernel.kernel_dim,
            "max_mse_deviation": kernel.max_mse_deviation,
        }
    return outputs, diagnostics, EXIT_OK


def _invariant_doc(res: checks.InvariantResult) -> dict:
    return {
        "invariant": res.name,
        "trials": res.trials,
        "failures": res.failures,
        "max_residual": res.max_residual,
    }


def cmd_check(args: argparse.Namespace) -> Result:
    names = list(checks.SUITE_NAMES) if args.suite == "all" else [args.suite]
    report = checks.run_suites(names, trials=args.trials, seed=args.seed)
    suites_doc = {
        name: [_invariant_doc(res) for res in results]
        for name, results in report.suites.items()
    }
    passed = report.passed
    if args.fixture:
        a = read_matrix(os.path.join(args.fixture, "a.csv"))
        pinv_path = os.path.join(args.fixture, "a_pinv.csv")
        a_pinv = read_matrix(pinv_path)
        try:
            fixture_result = checks.check_fixture_pair(a, a_pinv)
        except InputError as exc:
            raise InputError(f"{pinv_path}: {exc}") from exc
        suites_doc["fixture"] = [_invariant_doc(fixture_result)]
        passed = passed and fixture_result.failures == 0
    return {"suites": suites_doc}, {"passed": passed}, EXIT_OK if passed else EXIT_NUMERICAL


def _add_tolerances(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rank-rel", type=float, default=DEFAULT_TOL.rank_rel, help="numerical rank cutoff"
    )
    parser.add_argument(
        "--tie-rel", type=float, default=DEFAULT_TOL.tie_rel, help="singular-value tie gap"
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
    _add_tolerances(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_error = sub.add_parser("error", help="optimal error and its redundant recomputations")
    _add_problem_args(p_error)
    _add_tolerances(p_error)
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
    p_demo.add_argument("--probes", default="10,50,100", help="probe column indices")
    p_demo.add_argument("--out", default="sweep.csv", help="sweep table CSV (N,m,norm,predicted)")
    _add_tolerances(p_demo)
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
    _add_tolerances(p_outer)
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
    _add_tolerances(p_reg)
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
    p_check.set_defaults(func=cmd_check)
    # every command takes --no-timestamp, as its last option; and an
    # argument such as -1e-9, whose exponent argparse's own pattern for
    # negative numbers misses, is a value, not an unknown option
    for command in sub.choices.values():
        command._negative_number_matcher = _NEGATIVE_NUMBER
        command.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit timing/timestamp: byte-reproducible on one BLAS build and thread count",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        # the seeded library functions reject a negative seed too, but
        # outer-approx --chain full calls none of them, and would accept it
        _count(getattr(args, "seed", 0), "--seed", 0)
        outputs, diagnostics, code = args.func(args)
        report = {
            "schema": "glra/1",
            "command": args.command,
            "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
            "outputs": outputs,
            "diagnostics": diagnostics,
        }
        if not args.no_timestamp:
            report["timing"] = time.perf_counter() - started
            report["timestamp"] = datetime.now(timezone.utc).isoformat()
        try:
            json.dump(report, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone; the next flush, at interpreter shutdown,
            # would fail again, so stdout now points at devnull (the recipe
            # of the Python signal module's note on SIGPIPE)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

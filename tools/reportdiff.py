"""Diff every glra report, exit code and written file at a git revision against this checkout.

    python tools/reportdiff.py REV     # e.g. HEAD~1; exits 1 when anything differs

REV is extracted with ``git archive`` into a temporary directory.  One
fixed corpus of ``glra`` invocations (CORPUS: every subcommand under
--no-timestamp, the exit-2 and exit-3 cases, and a scale ladder) then
runs against REV's ``src`` and this checkout's ``src``, each case in a
child process with OPENBLAS_NUM_THREADS=1, so reports are byte-stable.
The input files are written once, from a seeded generator, and both
trees read the same ones; each case runs in an empty directory of its
own per tree and names its outputs relative to it, so the reports of
the two trees can be compared byte for byte.

For each case it prints every differing exit code, stderr, key of the
JSON report (with both values) and written file (JSON files key by key).
Each case declares the exit code it reaches, which
tests/test_reportdiff.py checks at this checkout.  Standard library and
numpy only.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from typing import NamedTuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20241


class Case(NamedTuple):
    """One invocation: its name, glra's argv ({inp} is the inputs directory) and its exit code."""

    name: str
    argv: tuple[str, ...]
    code: int


def _case(name: str, code: int, *argv: str) -> Case:
    return Case(name, (*argv, "--no-timestamp"), code)


def _problem(stem: str, rank: int = 2) -> tuple[str, ...]:
    return (
        "--M", f"{{inp}}/{stem}M.csv", "--B", f"{{inp}}/{stem}B.csv",
        "--C", f"{{inp}}/{stem}C.csv", "--rank", str(rank),
    )


def _samples(*extra: str) -> tuple[str, ...]:
    return ("regress", "--x", "{inp}/xs.csv", "--y", "{inp}/ys.csv", "--rank", "2", *extra)


CORPUS = (
    _case("solve", 0, "solve", *_problem(""), "--out", "x_hat.csv"),
    _case("solve-adjoint", 0, "solve", *_problem(""), "--adjoint", "--out", "x_hat.csv"),
    _case("solve-deficient-b", 0, "solve", *_problem("def_"), "--out", "x_hat.csv"),
    _case("solve-tied", 0, "solve", *_problem("tie_", 1), "--out", "x_hat.csv"),
    _case("solve-scale-1e-150", 0, "solve", *_problem("small_"), "--out", "x_hat.csv"),
    _case("solve-scale-1e150", 0, "solve", *_problem("large_"), "--out", "x_hat.csv"),
    _case("solve-rank-above-core", 0, "solve", *_problem("rank1_"), "--out", "x_hat.csv"),
    _case("error", 0, "error", *_problem("")),
    _case("error-tied", 0, "error", *_problem("tie_", 1)),
    _case("demo-unbounded", 0, "demo-unbounded", "--out", "sweep.csv"),
    _case("demo-unbounded-tied", 0, "demo-unbounded", "--mu", "1,1", "--out", "sweep.csv"),
    # x_a overflows at N = 400 only beyond probe 2, which a tied step never forms
    _case("demo-unbounded-tied-far-overflow", 0, "demo-unbounded", "--N", "50,400",
          "--mu", "5e307,5e307", "--probes", "2", "--out", "sweep.csv"),
    _case("outer-approx-full", 0, "outer-approx", *_problem(""), "--chain", "full",
          "--out", "outer.csv"),
    _case("outer-approx-auto-alternative", 0, "outer-approx", *_problem(""), "--chain", "auto:3",
          "--alternative", "--out", "outer.csv"),
    _case("outer-approx-generators", 0, "outer-approx", *_problem(""),
          "--chain", "{inp}/gens.csv", "--out", "outer.csv"),
    _case("regress", 0, *_samples("--model-out", "model.json")),
    _case("regress-center", 0, *_samples("--center", "--trials", "5", "--seed", "3")),
    _case("regress-weighted", 0, *_samples("--wx", "{inp}/wx.csv", "--wa", "{inp}/wa.csv",
                                           "--wy", "{inp}/wy.csv", "--model-out", "model.json")),
    _case("check-all", 0, "check", "--suite", "all"),
    _case("check-seq", 0, "check", "--suite", "seq", "--trials", "3", "--seed", "5"),
    _case("check-fixture", 0, "check", "--suite", "mp", "--trials", "2",
          "--fixture", "{inp}/fixture"),
    # exit 2: input errors
    _case("bad-shape", 2, "solve", "--M", "{inp}/M.csv", "--B", "{inp}/tie_B.csv",
          "--C", "{inp}/C.csv", "--rank", "2", "--out", "x_hat.csv"),
    _case("rank-0", 2, "solve", *_problem("", 0), "--out", "x_hat.csv"),
    _case("unparsable-file", 2, "error", "--M", "{inp}/bad.csv", "--B", "{inp}/B.csv",
          "--C", "{inp}/C.csv", "--rank", "2"),
    _case("zero-c", 2, "outer-approx", *_problem("zero_"), "--chain", "full",
          "--out", "outer.csv"),
    _case("bad-n", 2, "demo-unbounded", "--N", "10,x", "--out", "sweep.csv"),
    _case("partial-weights", 2, *_samples("--wx", "{inp}/wx.csv")),
    _case("unwritable-model-out", 2, *_samples("--model-out", "missing/model.json")),
    _case("trials-0", 2, "check", "--suite", "mp", "--trials", "0"),
    _case("negative-seed", 2, "check", "--suite", "mp", "--trials", "1", "--seed", "-1"),
    _case("rank-rel-inf", 2, "solve", *_problem(""), "--rank-rel", "inf", "--out", "x_hat.csv"),
    # exit 3: numerical failures from finite input
    _case("overflowing-objective", 3, "solve", *_problem("huge_"), "--out", "x_hat.csv"),
    _case("overflowing-x-hat-solve", 3, "solve", *_problem("blowup_"), "--out", "x_hat.csv"),
    _case("overflowing-delta-error", 3, "error", *_problem("huge_")),
    _case("overflowing-x-hat-outer-approx", 3, "outer-approx", *_problem("blowup_"),
          "--chain", "full", "--out", "outer.csv"),
    _case("solve-overflowing-b", 3, "solve", *_problem("hugeb_", 1), "--out", "x_hat.csv"),
    _case("error-overflowing-core", 3, "error", *_problem("hugem_", 1)),
    _case("regress-overflowing-cy", 3, "regress", "--x", "{inp}/one_x.csv",
          "--y", "{inp}/one_y.csv", "--rank", "1"),
    _case("rank-cut-n-300", 3, "demo-unbounded", "--N", "300", "--gamma-exp", "4",
          "--probes", "10,50", "--out", "sweep.csv"),
    # C = diag(k^-8) is kept whole, and the untied cross-check's bound does not
    # yet scale with cond(C) ~ 2.6e10
    _case("whole-c-ill-conditioned", 3, "demo-unbounded", "--N", "20", "--gamma-exp", "8",
          "--alpha-exp", "0.5", "--probes", "2", "--out", "sweep.csv"),
)


def _save(path: str, a: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(a), delimiter=",", fmt="%.17g")


def write_inputs(inp: str) -> None:
    """The corpus's input files, drawn from SEED, in the directory inp."""
    g = np.random.default_rng(SEED)
    m, b, c = g.standard_normal((8, 7)), g.standard_normal((8, 5)), g.standard_normal((6, 7))
    deficient = b.copy()
    deficient[:, -1] = deficient[:, 0]
    tie_b = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    problems = {
        "": (m, b, c),
        "def_": (m, deficient, c),
        "tie_": (np.eye(2), tie_b, tie_b.T),
        "small_": (1e-150 * m, b, c),
        "large_": (1e150 * m, b, c),
        "zero_": (m, b, np.zeros((6, 7))),
        "huge_": (1e200 * m, b, c),
        "blowup_": (np.diag([1e300, 1e299]), np.eye(2), np.diag([1.0, 1e-10])),
    }
    for stem, mats in problems.items():
        for name, mat in zip("MBC", mats):
            _save(os.path.join(inp, f"{stem}{name}.csv"), mat)
    # generators of a chain inside ran(C) = R^6
    _save(os.path.join(inp, "gens.csv"), g.standard_normal((6, 3)))
    ys = g.standard_normal((40, 5))
    ys[:, -1] = ys[:, 0]
    _save(os.path.join(inp, "ys.csv"), ys)
    xs = ys @ g.standard_normal((5, 4)) + 0.1 * g.standard_normal((40, 4))
    _save(os.path.join(inp, "xs.csv"), xs)
    for name, dim in (("wx", 4), ("wa", 4), ("wy", 5)):
        _save(os.path.join(inp, f"{name}.csv"), g.standard_normal((dim, dim)))
    with open(os.path.join(inp, "bad.csv"), "w", encoding="ascii") as fh:
        fh.write("1,2\n3,x\n")
    os.mkdir(os.path.join(inp, "fixture"))
    a = g.standard_normal((5, 3))
    _save(os.path.join(inp, "fixture", "a.csv"), a)
    _save(os.path.join(inp, "fixture", "a_pinv.csv"), np.linalg.pinv(a))
    # M = B x_0 C with rank-one x_0, solved at rank 2; and finite operands
    # whose largest singular value or eigenvalue overflows
    x_0 = np.outer(g.standard_normal(5), g.standard_normal(6))
    huge = np.full((2, 2), 1.5e308)
    for stem, mats in {
        "rank1_": (b @ x_0 @ c, b, c),
        "hugeb_": (np.eye(2), huge, np.eye(2)),
        "hugem_": (huge, np.eye(2), np.eye(2)),
    }.items():
        for name, mat in zip("MBC", mats):
            _save(os.path.join(inp, f"{stem}{name}.csv"), mat)
    _save(os.path.join(inp, "one_x.csv"), np.array([[1.0]]))
    _save(os.path.join(inp, "one_y.csv"), np.array([[9.49e153, 9.49e153]]))


def case_argv(case: Case, inp: str) -> list[str]:
    return [arg.format(inp=inp) for arg in case.argv]


class Outcome(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]


_RUN = "import sys; from glra.cli import main; sys.exit(main(sys.argv[1:]))"


def run_case(tree: str, case: Case, inp: str, work: str) -> Outcome:
    """Run one case with tree's src in the empty directory work."""
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, *case_argv(case, inp)],
        cwd=work, env=env, capture_output=True, timeout=600,
    )
    files = {}
    for folder, _, names in os.walk(work):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, work)] = fh.read()
    return Outcome(proc.returncode, proc.stdout, proc.stderr, files)


def _leaves(doc, prefix: str = "") -> dict[str, object]:
    """Every leaf of a JSON document under its dotted key path."""
    if isinstance(doc, dict):
        paths = ((val, f"{prefix}.{key}") for key, val in doc.items())
    elif isinstance(doc, list):
        # the invariants of a check report go by name, not by place
        paths = ((val, f"{prefix}[{_label(i, val)}]") for i, val in enumerate(doc))
    else:
        return {prefix or ".": doc}
    return {k: v for val, path in paths for k, v in _leaves(val, path).items()}


def _label(index: int, item) -> object:
    return item["invariant"] if isinstance(item, dict) and "invariant" in item else index


def _json_diff(old: bytes, new: bytes) -> list[str] | None:
    """The differing leaves of two JSON documents, or None when either is not JSON."""
    try:
        a, b = _leaves(json.loads(old)), _leaves(json.loads(new))
    except ValueError:
        return None
    return [
        f"{key}: {_shown(a, key)} -> {_shown(b, key)}"
        for key in sorted(a.keys() | b.keys())
        if key not in a or key not in b or a[key] != b[key]
    ]


def _shown(leaves: dict[str, object], key: str) -> str:
    return repr(leaves[key]) if key in leaves else "(absent)"


def _bytes_diff(what: str, old: bytes, new: bytes) -> list[str]:
    if old == new:
        return []
    keys = _json_diff(old, new)
    if keys is not None:
        return [f"{what} {line}" for line in keys] or [f"{what}: same JSON, other bytes"]
    if what == "stderr":
        return [f"stderr: {old.decode(errors='replace')!r} -> {new.decode(errors='replace')!r}"]
    old_lines, new_lines = old.splitlines(), new.splitlines()
    changed = sum(x != y for x, y in zip(old_lines, new_lines)) + abs(
        len(old_lines) - len(new_lines)
    )
    return [f"{what}: {changed} of {max(len(old_lines), len(new_lines))} lines differ"]


def compare(old: Outcome, new: Outcome) -> list[str]:
    """Every difference between the outcomes of one case in two trees."""
    lines = []
    if old.code != new.code:
        lines.append(f"exit code: {old.code} -> {new.code}")
    lines += _bytes_diff("stdout", old.stdout, new.stdout)
    lines += _bytes_diff("stderr", old.stderr, new.stderr)
    for name in sorted(old.files.keys() | new.files.keys()):
        if name not in old.files or name not in new.files:
            lines.append(f"file {name}: written by one tree only")
        else:
            lines += _bytes_diff(f"file {name}", old.files[name], new.files[name])
    return lines


def _extract(rev: str, dest: str) -> None:
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/reportdiff.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="reportdiff-") as tmp:
        old_tree, inp = os.path.join(tmp, "rev"), os.path.join(tmp, "inputs")
        os.makedirs(inp)
        try:
            _extract(args[0], old_tree)
        except subprocess.CalledProcessError as exc:
            print(exc.stderr.decode(errors="replace"), end="", file=sys.stderr)
            return 2
        write_inputs(inp)
        differing = 0
        for case in CORPUS:
            old = run_case(old_tree, case, inp, os.path.join(tmp, "out-rev", case.name))
            new = run_case(ROOT, case, inp, os.path.join(tmp, "out-new", case.name))
            lines = compare(old, new)
            differing += bool(lines)
            for line in lines:
                print(f"{case.name}: {line}")
        print(f"{differing} of {len(CORPUS)} cases differ from {args[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

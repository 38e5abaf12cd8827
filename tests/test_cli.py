import argparse
import json
import os
import pathlib
import subprocess
import sys
import warnings
from datetime import datetime, timedelta
from itertools import product

import numpy as np
import pytest

from conftest import CONDITIONED_KINDS, conditioned_problem, identity_truncation
from glra import cli
from glra.linalg import InputError, check_bound, hs_norm, pinv
from glra.matio import read_matrix, write_matrix


def read_a_hat(path):
    """A_hat of a model JSON that --model-out wrote, reshaped from its entries."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    return np.array(doc["A_hat"]).reshape(doc["dims"]["rows"], doc["dims"]["cols"])


@pytest.fixture
def fixture_files(tmp_path):
    b = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    paths = {
        "M": tmp_path / "M.csv",
        "B": tmp_path / "B.csv",
        "C": tmp_path / "C.csv",
    }
    write_matrix(str(paths["M"]), np.eye(2))
    write_matrix(str(paths["B"]), b)
    write_matrix(str(paths["C"]), b.T)
    return {name: str(path) for name, path in paths.items()}


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def report_numbers(doc):
    """Every number in a JSON report, nested ones included."""
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in report_numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in report_numbers(v)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


class TestMatrixRoundTrip:
    def test_bit_exact(self, tmp_path):
        a = np.random.default_rng(0).standard_normal((6, 4)) * 1e3
        path = tmp_path / "a.csv"
        write_matrix(str(path), a)
        assert np.array_equal(read_matrix(str(path)), a)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
    def test_thin_shapes_bit_exact(self, tmp_path, shape):
        a = np.random.default_rng(1).standard_normal(shape)
        path = tmp_path / "a.csv"
        write_matrix(str(path), a)
        assert np.array_equal(read_matrix(str(path)), a)

    def test_edge_values_bit_exact(self, tmp_path):
        a = np.array([[-0.0, 5e-324, 1e308], [-1e308, 2.2250738585072014e-308, 0.1]])
        path = tmp_path / "edge.csv"
        write_matrix(str(path), a)
        assert path.read_text() == "".join(
            ",".join(format(x, ".17g") for x in row) + "\n" for row in a
        )
        back = read_matrix(str(path))
        assert np.array_equal(back, a)
        assert np.array_equal(np.signbit(back), np.signbit(a))

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("\n1,2\n \t\n\n3, 4 \r\n   \n")
        assert np.array_equal(read_matrix(str(path)), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "text",
        ["", " \n\n", "1,2,\n", "#1,2\n", "1,nan\n", "1,1e400\n", "1_000\n"],
        ids=["empty", "blank", "trailing-comma", "hash", "nan", "overflow", "underscore"],
    )
    def test_rejected_without_warnings(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="bad.csv"):
                read_matrix(str(path))

    def test_parse_error_names_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(InputError, match=r"bad\.csv:2: .*'3,oops'"):
            read_matrix(str(path))

    def test_parse_error_of_a_file_read_once(self):
        # a drained pipe reads empty the second time, so the line-by-line
        # rescan finds no bad line and the error keeps loadtxt's own reason
        r, w = os.pipe()
        os.write(w, b"1,2\n3,x\n")
        os.close(w)
        path = f"/proc/self/fd/{r}"
        try:
            with pytest.raises(InputError) as err:
                read_matrix(path)
        finally:
            os.close(r)
        assert str(err.value).startswith(f"{path}: could not convert string 'x'")

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(InputError, match="absent.csv"):
            read_matrix(str(tmp_path / "absent.csv"))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        # the line number is the file's own, blank lines counted
        for text, line in (("1,2\n3\n", 2), ("1,2\n\n3\n", 3)):
            path.write_text(text)
            with pytest.raises(InputError, match=rf"ragged\.csv:{line}: .*from 2 to 1"):
                read_matrix(str(path))


class TestSolveCommand:
    def test_fixture(self, capsys, tmp_path, fixture_files):
        out = tmp_path / "xhat.csv"
        code, doc = run(
            capsys,
            [
                "solve",
                "--M", fixture_files["M"],
                "--B", fixture_files["B"],
                "--C", fixture_files["C"],
                "--rank", "1",
                "--out", str(out),
                "--no-timestamp",
            ],
        )
        assert code == 0
        assert doc["outputs"]["objective"] == pytest.approx(1.0, abs=1e-12)
        assert doc["diagnostics"]["uniqueness"] == "NonUnique"
        x_hat = read_matrix(str(out))
        assert x_hat.shape == (3, 3)

    def test_adjoint_same_objective(self, capsys, tmp_path, fixture_files):
        args = [
            "solve",
            "--M", fixture_files["M"],
            "--B", fixture_files["B"],
            "--C", fixture_files["C"],
            "--rank", "1",
            "--out", str(tmp_path / "x.csv"),
            "--no-timestamp",
        ]
        _, primal = run(capsys, args)
        _, adjoint = run(capsys, args + ["--adjoint"])
        assert adjoint["outputs"]["objective"] == pytest.approx(
            primal["outputs"]["objective"], abs=1e-12
        )

    def test_report_carries_timing_and_timestamp(self, capsys, tmp_path, fixture_files):
        args = [
            "solve",
            "--M", fixture_files["M"],
            "--B", fixture_files["B"],
            "--C", fixture_files["C"],
            "--rank", "1",
            "--out", str(tmp_path / "x.csv"),
        ]
        _, stamped = run(capsys, args)
        _, plain = run(capsys, args + ["--no-timestamp"])
        timing = stamped.pop("timing")
        assert isinstance(timing, float) and timing >= 0.0
        when = datetime.fromisoformat(stamped.pop("timestamp"))
        assert when.utcoffset() == timedelta(0)
        assert stamped == plain

    def test_identity_factors_write_truncation(self, capsys, tmp_path):
        m = np.random.default_rng(1).standard_normal((4, 4))
        for name, mat in (("M", m), ("B", np.eye(4)), ("C", np.eye(4))):
            write_matrix(str(tmp_path / f"{name}.csv"), mat)
        out = tmp_path / "xhat.csv"
        code, _ = run(
            capsys,
            [
                "solve",
                "--M", str(tmp_path / "M.csv"),
                "--B", str(tmp_path / "B.csv"),
                "--C", str(tmp_path / "C.csv"),
                "--rank", "2",
                "--out", str(out),
                "--no-timestamp",
            ],
        )
        assert code == 0
        np.testing.assert_allclose(
            read_matrix(str(out)), identity_truncation(m, 2).matrix(), atol=1e-10
        )

    def test_deterministic_reports(self, capsys, tmp_path, fixture_files):
        args = [
            "solve",
            "--M", fixture_files["M"],
            "--B", fixture_files["B"],
            "--C", fixture_files["C"],
            "--rank", "1",
            "--out", str(tmp_path / "x.csv"),
            "--no-timestamp",
        ]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_shape_error_names_files(self, capsys, tmp_path, fixture_files):
        write_matrix(str(tmp_path / "badB.csv"), np.eye(3))
        code = cli.main(
            [
                "solve",
                "--M", fixture_files["M"],
                "--B", str(tmp_path / "badB.csv"),
                "--C", fixture_files["C"],
                "--rank", "1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "badB.csv" in captured.err

    @pytest.mark.parametrize("command", ["solve", "error", "outer-approx", "regress"])
    def test_bad_rank_is_judged_before_the_files(self, capsys, tmp_path, fixture_files, command):
        argv = [command, "--rank", "0"]
        if command == "regress":
            # samples that do not exist
            argv += ["--x", str(tmp_path / "nope.csv"), "--y", str(tmp_path / "nope.csv")]
        else:
            for name in ("M", "B", "C"):
                argv += [f"--{name}", fixture_files[name]]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "rank bound must be >= 1, got 0" in err
        assert "incompatible" not in err and fixture_files["M"] not in err
        assert "nope.csv" not in err

    # sigma_2 - sigma_3 = 2e-6 is a gap at the default tie_rel * sigma_1 = 3e-9
    # and a tie at 1e-5 * sigma_1 = 3e-5
    @pytest.mark.parametrize("tie_rel, uniqueness", [([], "UniqueByGap"), (["1e-5"], "NonUnique")])
    def test_tie_rel_decides_a_near_tie(self, capsys, tmp_path, tie_rel, uniqueness):
        argv = ["solve", "--rank", "2", "--out", str(tmp_path / "x.csv"), "--no-timestamp"]
        m = np.diag([3.0, 2.0, 2.0 - 2e-6, 1.0])
        for name, a in (("M", m), ("B", np.eye(4)), ("C", np.eye(4))):
            write_matrix(str(tmp_path / f"{name}.csv"), a)
            argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
        code, doc = run(capsys, argv + [arg for value in tie_rel for arg in ("--tie-rel", value)])
        assert code == 0
        assert doc["diagnostics"]["uniqueness"] == uniqueness

    def test_shape_error_names_the_three_files(self, capsys, tmp_path, fixture_files):
        write_matrix(str(tmp_path / "badB.csv"), np.eye(3))
        argv = ["error", "--rank", "1", "--B", str(tmp_path / "badB.csv")]
        argv += ["--M", fixture_files["M"], "--C", fixture_files["C"]]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "B has 3 rows but M has 2" in err
        assert all(path in err for path in (fixture_files["M"], "badB.csv", fixture_files["C"]))

    def test_parse_error_exit_code(self, capsys, tmp_path, fixture_files):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,zap\n")
        code = cli.main(
            [
                "solve",
                "--M", str(bad),
                "--B", fixture_files["B"],
                "--C", fixture_files["C"],
                "--rank", "1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_non_ascii_input_exits_input(self, capsys, tmp_path, fixture_files):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"1,2\n3,\xe9\n")
        code = cli.main(
            [
                "solve",
                "--M", str(bad),
                "--B", fixture_files["B"],
                "--C", fixture_files["C"],
                "--rank", "1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "latin1.csv" in capsys.readouterr().err

    def test_unwritable_out_exits_input(self, capsys, tmp_path, fixture_files):
        out = tmp_path / "missing" / "x.csv"
        code = cli.main(
            [
                "solve",
                "--M", fixture_files["M"],
                "--B", fixture_files["B"],
                "--C", fixture_files["C"],
                "--rank", "1",
                "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert str(out) in captured.err

    def test_closed_stdout_keeps_exit_code(self, tmp_path, fixture_files):
        out = tmp_path / "x.csv"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "glra.cli", "solve",
                "--M", fixture_files["M"],
                "--B", fixture_files["B"],
                "--C", fixture_files["C"],
                "--rank", "1",
                "--out", str(out),
                "--no-timestamp",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # closed while the child is still importing, long before it writes
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""
        assert read_matrix(str(out)).shape == (3, 3)

    def test_overflow_exits_numerical(self, capsys, tmp_path):
        g = np.random.default_rng(3)
        cases = [
            # the objective overflows
            (1e200 * g.standard_normal((4, 5)), g.standard_normal((4, 3)),
             g.standard_normal((3, 5)), "1", "not finite"),
            # finite inputs whose minimiser M C^+ holds 1e299 / 1e-10
            (np.diag([1e300, 1e299]), np.eye(2), np.diag([1.0, 1e-10]), "2", "x_hat"),
        ]
        for m, b, c, rank, message in cases:
            for name, mat in (("M", m), ("B", b), ("C", c)):
                write_matrix(str(tmp_path / f"{name}.csv"), mat)
            with np.errstate(over="ignore"):
                code = cli.main(
                    [
                        "solve",
                        "--M", str(tmp_path / "M.csv"),
                        "--B", str(tmp_path / "B.csv"),
                        "--C", str(tmp_path / "C.csv"),
                        "--rank", rank,
                        "--out", str(tmp_path / "x.csv"),
                        "--no-timestamp",
                    ]
                )
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert message in captured.err


class TestErrorCommand:
    def test_fixture_delta(self, capsys, fixture_files):
        code, doc = run(
            capsys,
            [
                "error",
                "--M", fixture_files["M"],
                "--B", fixture_files["B"],
                "--C", fixture_files["C"],
                "--rank", "1",
                "--no-timestamp",
            ],
        )
        assert code == 0
        assert doc["outputs"]["delta"] == pytest.approx(1.0, abs=1e-12)
        assert doc["outputs"]["error"] == pytest.approx(1.0, abs=1e-12)
        assert doc["diagnostics"]["max_delta_discrepancy"] < 1e-10

    def test_full_rank_recovery(self, capsys, tmp_path):
        g = np.random.default_rng(2)
        for name, mat in (
            ("M", g.standard_normal((3, 3))),
            ("B", g.standard_normal((3, 3))),
            ("C", g.standard_normal((3, 3))),
        ):
            write_matrix(str(tmp_path / f"{name}.csv"), mat)
        code, doc = run(
            capsys,
            [
                "error",
                "--M", str(tmp_path / "M.csv"),
                "--B", str(tmp_path / "B.csv"),
                "--C", str(tmp_path / "C.csv"),
                "--rank", "3",
                "--no-timestamp",
            ],
        )
        assert code == 0
        assert doc["outputs"]["error"] == pytest.approx(0.0, abs=1e-8)

    def test_tiny_b_with_huge_c(self, capsys, tmp_path):
        # S_B^-1 K K^T S_B would overflow as (K K^T / sigma_i) sigma_j
        # (1e300 / 1e-200); the ratios sigma_j / sigma_i stay bounded
        for name, mat in (
            ("M", 1e150 * np.eye(2)), ("B", 1e-200 * np.eye(2)), ("C", 1e200 * np.eye(2))
        ):
            write_matrix(str(tmp_path / f"{name}.csv"), mat)
        argv = ["error", "--rank", "2", "--no-timestamp"]
        for name in ("M", "B", "C"):
            argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run(capsys, argv)
        assert code == 0
        variants = doc["outputs"]["delta_variants"]
        assert np.all(np.isfinite(variants))
        assert variants == pytest.approx([doc["outputs"]["delta"]] * 3, rel=1e-12)


class TestDemoUnbounded:
    def test_growth_table(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, doc = run(
            capsys,
            [
                "demo-unbounded",
                "--N", "20,40",
                "--probes", "5,10",
                "--out", str(out),
                "--no-timestamp",
            ],
        )
        assert code == 0
        assert doc["diagnostics"]["tie"] is False
        table = read_matrix(str(out))
        assert table.shape == (4, 4)
        np.testing.assert_allclose(table[:, 2], table[:, 3], atol=1e-10)
        # linear growth in the probe index at fixed dimension
        at_40 = table[table[:, 0] == 40]
        assert at_40[1, 2] / at_40[0, 2] == pytest.approx(2.0, abs=1e-10)

    def test_documented_defaults_work(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, doc = run(capsys, ["demo-unbounded", "--no-timestamp"])
        assert code == 0
        assert doc["diagnostics"]["max_abs_norm_mismatch"] < 1e-8
        table = read_matrix(str(tmp_path / "sweep.csv"))
        at_200 = table[table[:, 0] == 200]
        by_probe = {int(row[1]): row[2] for row in at_200}
        assert by_probe[100] / by_probe[10] == pytest.approx(10.0, abs=1e-8)

    def test_tie_emits_bounded_branch(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, doc = run(
            capsys,
            [
                "demo-unbounded",
                "--N", "20",
                "--probes", "1,5",
                "--mu", "1,1",
            "--out", str(out),
                "--no-timestamp",
            ],
        )
        assert code == 0
        assert doc["diagnostics"]["tie"] is True
        bounded = read_matrix(doc["outputs"]["files"]["bounded_branch"])
        # flat branch: mu_2/gamma_1 at the first axis, zero elsewhere
        assert bounded[0, 2] == pytest.approx(1.0, abs=1e-12)
        assert bounded[1, 2] == pytest.approx(0.0, abs=1e-12)
        main_rows = read_matrix(str(out))
        assert main_rows[0, 2] == pytest.approx(0.0, abs=1e-12)


    def test_large_minimiser_passes_the_scale_aware_cross_check(self, capsys, tmp_path):
        # ||x_hat|| = 4.4e3 at N = 100, and the solver's residual against the
        # assembled minimiser, 4e-10, is rounding at that size
        code, doc = run(
            capsys,
            [
                "demo-unbounded",
                "--N", "100",
                "--gamma-exp", "4",
                "--alpha-exp", "1",
                "--probes", "10,50",
                "--out", str(tmp_path / "sweep.csv"),
                "--no-timestamp",
            ],
        )
        assert code == 0
        assert "seed" not in doc["inputs"]
        assert "rank" not in doc["inputs"]

    def test_rank_cut_mismatch_still_fails(self, capsys, tmp_path):
        # from N = 260 on the rank cutoff drops tail entries of C = diag(k^-4)
        # and the solver departs from the assembled minimiser for real
        code = cli.main(
            [
                "demo-unbounded",
                "--N", "300",
                "--gamma-exp", "4",
                "--alpha-exp", "1",
                "--probes", "10,50",
                "--out", str(tmp_path / "sweep.csv"),
                "--no-timestamp",
            ]
        )
        assert code == 3
        assert "deviates from assembled form" in capsys.readouterr().err

    def test_a_finer_rank_cut_keeps_every_axis(self, capsys, tmp_path):
        # at rank_rel = 1e-14 the cutoff 3e-12 keeps 300^-4 = 1.2e-10, so the
        # solver keeps every axis and agrees with the assembled minimiser
        code, doc = run(
            capsys,
            [
                "demo-unbounded",
                "--N", "300",
                "--gamma-exp", "4",
                "--alpha-exp", "1",
                "--probes", "10,50",
                "--rank-rel", "1e-14",
                "--out", str(tmp_path / "sweep.csv"),
                "--no-timestamp",
            ],
        )
        assert code == 0
        assert doc["diagnostics"]["max_abs_norm_mismatch"] < 1e-10


class TestOuterApprox:
    def test_exhaustive_chain_reaches_zero(self, capsys, tmp_path, fixture_files):
        out = tmp_path / "outer.csv"
        code, doc = run(
            capsys,
            [
                "outer-approx",
                "--M", fixture_files["M"],
                "--B", fixture_files["B"],
                "--C", fixture_files["C"],
                "--rank", "1",
                "--chain", "full",
                "--out", str(out),
                "--no-timestamp",
            ],
        )
        assert code == 0
        assert doc["outputs"]["final_tail_error"] < 1e-10
        assert doc["diagnostics"]["tail_nonincreasing"] is True

    def test_stepwise_chain_on_random_problem(self, capsys, tmp_path):
        g = np.random.default_rng(3)
        for name, mat in (
            ("M", g.standard_normal((4, 5))),
            ("B", g.standard_normal((4, 3))),
            ("C", g.standard_normal((4, 5))),
        ):
            write_matrix(str(tmp_path / f"{name}.csv"), mat)
        out = tmp_path / "outer.csv"
        code, doc = run(
            capsys,
            [
                "outer-approx",
                "--M", str(tmp_path / "M.csv"),
                "--B", str(tmp_path / "B.csv"),
                "--C", str(tmp_path / "C.csv"),
                "--rank", "2",
                "--chain", "auto:4",
                "--alternative",
                "--out", str(out),
                "--no-timestamp",
            ],
        )
        assert code == 0
        table = read_matrix(str(out))
        assert table.shape[1] == 5  # alternative construction adds a column
        assert np.max(table[:, 3]) < 1e-10  # outer-inverse identity residual
        assert doc["outputs"]["final_tail_error"] < 1e-10
        assert doc["diagnostics"]["max_outer_identity_residual"] < 1e-10


    def test_residual_beyond_sqrt_of_float_max(self, capsys, tmp_path):
        # C# C C# - C# is finite (about 2.6e284), but its squared entries
        # overflow; the report carries it and no numpy warning reaches stderr
        for name, mat in (("M", np.eye(3)), ("B", np.eye(3)), ("C", 1e-300 * np.eye(3))):
            write_matrix(str(tmp_path / f"{name}.csv"), mat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(
                [
                    "outer-approx",
                    "--M", str(tmp_path / "M.csv"),
                    "--B", str(tmp_path / "B.csv"),
                    "--C", str(tmp_path / "C.csv"),
                    "--rank", "2",
                    "--chain", "full",
                    "--out", str(tmp_path / "outer.csv"),
                    "--no-timestamp",
                ],
            )
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        residual = json.loads(captured.out)["diagnostics"]["max_outer_identity_residual"]
        assert np.isfinite(residual) and residual > 1e284
        assert read_matrix(str(tmp_path / "outer.csv"))[0, 3] == residual

    @pytest.mark.parametrize("chain", ["full", "auto:3"])
    def test_factorises_c_once(self, capsys, tmp_path, svd_calls, chain):
        from glra.solver import GlraProblem
        from glra.sequences import bounded_approximation_sequence, full_chain, nested_chain

        g = np.random.default_rng(11)
        mats = {
            "M": g.standard_normal((6, 14)),
            "B": g.standard_normal((6, 5)),
            "C": g.standard_normal((7, 14)),
        }
        argv = ["outer-approx", "--rank", "2", "--chain", chain, "--no-timestamp"]
        for name, mat in mats.items():
            write_matrix(str(tmp_path / f"{name}.csv"), mat)
            argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
        out = tmp_path / "outer.csv"
        code, doc = run(capsys, argv + ["--out", str(out)])
        assert code == 0
        assert [call for call in svd_calls if call[0] == (7, 14)] == [((7, 14), False, True)]
        # the rows are those of the public chain on a fresh problem, bit for bit
        c = mats["C"]
        public = full_chain(c) if chain == "full" else nested_chain(c, 3, seed=0)
        p = GlraProblem(m=mats["M"], b=mats["B"], c=c, r=2)
        steps = bounded_approximation_sequence(p, public).steps
        table = read_matrix(str(out))
        np.testing.assert_array_equal(table[:, 1], [s.outer.x_basis.shape[1] for s in steps])
        np.testing.assert_array_equal(table[:, 2], [s.tail_error for s in steps])
        residuals = [hs_norm(s.outer.c_sharp @ (c @ s.outer.c_sharp) - s.outer.c_sharp) for s in steps]
        np.testing.assert_array_equal(table[:, 3], residuals)
        assert doc["outputs"]["final_tail_error"] == steps[-1].tail_error

    @pytest.mark.parametrize("kind", range(4), ids=CONDITIONED_KINDS)
    def test_alternative_column_matches_the_dense_formula(self, capsys, tmp_path, kind):
        # the tail of x_hat P_n, taken from (B L)(R^T Y_n Y_n^T C), against
        # ||(G)_r - B (x_hat Y_n Y_n^T) C|| on B and C of condition up to 1e8
        from glra.sequences import nested_chain
        from glra.solver import solve

        for seed in range(kind, 40, 4):
            p = conditioned_problem(seed)
            argv = ["outer-approx", "--rank", str(p.r), "--chain", "auto:3", "--seed", str(seed)]
            for name, mat in (("M", p.m), ("B", p.b), ("C", p.c)):
                write_matrix(str(tmp_path / f"{name}.csv"), mat)
                argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
            out = tmp_path / "outer.csv"
            code, _ = run(capsys, argv + ["--alternative", "--out", str(out), "--no-timestamp"])
            assert code == 0
            sol = solve(p)
            g_r = sol.truncation.matrix()
            dim = max(p.m.shape + p.b.shape + p.c.shape)
            scale = hs_norm(g_r) + hs_norm(p.b) * hs_norm(sol.x_hat) * hs_norm(p.c)
            chain = nested_chain(p.c, 3, seed=seed)
            for row, y_n in zip(read_matrix(str(out)), chain.bases):
                dense = hs_norm(g_r - p.b @ (sol.x_hat @ y_n @ y_n.T) @ p.c)
                assert abs(np.sqrt(row[4]) - dense) <= check_bound(dim, scale)

    def test_csv_chain_of_generators_in_range(self, capsys, tmp_path):
        g = np.random.default_rng(10)
        left = g.standard_normal((5, 3))
        # C has rank 3 and the three generator columns span its range
        for name, mat in (
            ("M", g.standard_normal((4, 6))),
            ("B", g.standard_normal((4, 3))),
            ("C", left @ g.standard_normal((3, 6))),
            ("gens", left @ g.standard_normal((3, 3))),
        ):
            write_matrix(str(tmp_path / f"{name}.csv"), mat)
        out = tmp_path / "outer.csv"
        code, doc = run(
            capsys,
            [
                "outer-approx",
                "--M", str(tmp_path / "M.csv"),
                "--B", str(tmp_path / "B.csv"),
                "--C", str(tmp_path / "C.csv"),
                "--rank", "2",
                "--chain", str(tmp_path / "gens.csv"),
                "--out", str(out),
                "--no-timestamp",
            ],
        )
        assert code == 0
        table = read_matrix(str(out))
        np.testing.assert_array_equal(table[:, 1], [1.0, 2.0, 3.0])
        assert doc["outputs"]["final_tail_error"] <= 1e-10
        assert doc["diagnostics"]["tail_nonincreasing"] is True

    def test_minimiser_whose_product_with_c_overflows(self, capsys, tmp_path):
        # x_hat ~ 4e299 is finite, but x_hat C would overflow; the steps take
        # X_n = L (R^T C) C_n# and their tails from B L, so they are found
        from glra.solver import GlraProblem, solve

        g = np.random.default_rng(1)
        mats = {}
        for name, shape, scale in (
            ("M", (4, 5), 1e100), ("B", (4, 4), 1e-300), ("C", (4, 5), 1e100)
        ):
            mats[name] = scale * g.standard_normal(shape)
            write_matrix(str(tmp_path / f"{name}.csv"), mats[name])
        argv = ["outer-approx", "--rank", "2", "--out", str(tmp_path / "o.csv"), "--no-timestamp"]
        for name in ("M", "B", "C"):
            argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        doc = json.loads(captured.out)
        assert np.all(np.isfinite(report_numbers(doc)))
        # the chain exhausts ran(C), so the last tail (1.8e172) is rounding of delta (5.6e200)
        delta = solve(GlraProblem(m=mats["M"], b=mats["B"], c=mats["C"], r=2)).delta
        assert 0.0 <= doc["outputs"]["final_tail_error"] <= check_bound(5, delta)

    @pytest.mark.parametrize(
        "m, b, chain, name",
        [
            # M C^+ holds 1e299 / 1e-10
            (np.diag([1e300, 1e299]), np.eye(2), "full", "x_hat"),
            # x_hat = diag(1e300, 0) is finite, but the step along the
            # generator (1e-10, 1) maps e_1 to about 5e309 e_2
            (np.diag([1e150, 0.0]), 1e-150 * np.eye(2), "gens", "x_n"),
        ],
        ids=["x_hat", "x_n"],
    )
    def test_overflowing_minimiser_is_numerical(self, capsys, tmp_path, m, b, chain, name):
        mats = {"M": m, "B": b, "C": np.diag([1.0, 1e-10]), "gens": np.array([[1e-10], [1.0]])}
        for key, mat in mats.items():
            write_matrix(str(tmp_path / f"{key}.csv"), mat)
        if chain == "gens":
            chain = str(tmp_path / "gens.csv")
        argv = ["outer-approx", "--rank", "2", "--chain", chain, "--no-timestamp"]
        for key in ("M", "B", "C"):
            argv += [f"--{key}", str(tmp_path / f"{key}.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv + ["--out", str(tmp_path / "o.csv")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert f"numerical failure: {name} is not finite" in captured.err

    def test_overflowing_alternative_tail_is_numerical(self, capsys, tmp_path):
        # x_hat P_n is not bounded by (G)_r, so the alternative tail's square
        # overflows where delta's does not: exit 3 from finite input, not 4
        g = np.random.default_rng(1)
        mats = {"M": 1e150 * g.standard_normal((6, 6)), "B": g.standard_normal((6, 6))}
        u, _ = np.linalg.qr(g.standard_normal((6, 6)))
        v, _ = np.linalg.qr(g.standard_normal((6, 6)))
        mats["C"] = (u * np.logspace(0, -9, 6)) @ v.T
        argv = ["outer-approx", "--rank", "2", "--alternative", "--no-timestamp"]
        for name, mat in mats.items():
            write_matrix(str(tmp_path / f"{name}.csv"), mat)
            argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv + ["--out", str(tmp_path / "o.csv")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "numerical failure: alternative_tail is not finite" in captured.err

    @pytest.mark.parametrize("chain", ["full", "auto:1", "auto:3"])
    def test_makes_three_svds(self, capsys, tmp_path, svd_calls, chain):
        # B, C and the core, three as for solve and in _reduce's order: the
        # chain is drawn from the problem's one reduction, which the bounded
        # sequence then reads
        g = np.random.default_rng(13)
        argv = ["outer-approx", "--rank", "2", "--chain", chain, "--no-timestamp"]
        for name, shape in (("M", (6, 9)), ("B", (6, 4)), ("C", (5, 9))):
            write_matrix(str(tmp_path / f"{name}.csv"), g.standard_normal(shape))
            argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
        code, _ = run(capsys, argv + ["--out", str(tmp_path / "outer.csv")])
        assert code == 0
        assert [shape for shape, _, _ in svd_calls] == [(6, 4), (5, 9), (4, 5)]

    def test_steps_beyond_the_rank_of_c(self, capsys, tmp_path, fixture_files):
        # C has rank 2, so a billion steps give the two-step chain
        argv = ["outer-approx", "--rank", "1", "--no-timestamp"]
        for name in ("M", "B", "C"):
            argv += [f"--{name}", fixture_files[name]]
        tables = []
        for steps in ("2", "1000000000"):
            out = tmp_path / f"outer-{steps}.csv"
            code, _ = run(capsys, argv + ["--chain", f"auto:{steps}", "--out", str(out)])
            assert code == 0
            tables.append(read_matrix(str(out)))
        assert tables[0].shape[0] == 2
        np.testing.assert_array_equal(tables[1], tables[0])

    @pytest.mark.parametrize("chain", ["full", "auto:3"])
    def test_zero_c_names_the_c_file(self, capsys, tmp_path, chain):
        g = np.random.default_rng(14)
        mats = {
            "M": g.standard_normal((4, 30)),
            "B": g.standard_normal((4, 3)),
            "C": np.zeros((5, 30)),
        }
        files = []
        for name, mat in mats.items():
            write_matrix(str(tmp_path / f"{name}.csv"), mat)
            files += [f"--{name}", str(tmp_path / f"{name}.csv")]
        common = files + ["--rank", "1", "--no-timestamp"]
        # solve has an answer, x_hat = 0; a chain in ran(C) = {0} has no step
        assert cli.main(["solve", *common, "--out", str(tmp_path / "x.csv")]) == 0
        capsys.readouterr()
        argv = ["outer-approx", *common, "--chain", chain, "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {tmp_path / 'C.csv'}: C has rank 0, and ran(C) = {{0}} holds no chain\n"
        )
        assert not (tmp_path / "o.csv").exists()


class TestRegressCommand:
    def test_self_reconstruction(self, capsys, tmp_path):
        xs = np.random.default_rng(4).standard_normal((80, 3))
        write_matrix(str(tmp_path / "xs.csv"), xs)
        model_path = tmp_path / "model.json"
        code, doc = run(
            capsys,
            [
                "regress",
                "--x", str(tmp_path / "xs.csv"),
                "--y", str(tmp_path / "xs.csv"),
                "--rank", "3",
                "--model-out", str(model_path),
                "--no-timestamp",
            ],
        )
        assert code == 0
        assert doc["outputs"]["mse_trace"] == pytest.approx(0.0, abs=1e-9)
        assert doc["outputs"]["mse_monte_carlo"] == pytest.approx(0.0, abs=1e-9)
        assert doc["diagnostics"]["maximal_kernel"]["passed"] is True
        assert read_a_hat(model_path).shape == (3, 3)

    def test_eigendecomposes_c_y_once(self, capsys, tmp_path, svd_calls, eigh_calls):
        # fit's one eigendecomposition of C_y gives C_y^(1/2), its pseudo-inverse
        # and ker(C_y), which the maximal-kernel check reads; the two SVDs are
        # C = I's and the core's
        g = np.random.default_rng(9)
        ys = g.standard_normal((40, 5))
        ys[:, -1] = ys[:, 0]
        xs = ys @ g.standard_normal((5, 4)) + 0.1 * g.standard_normal((40, 4))
        write_matrix(str(tmp_path / "xs.csv"), xs)
        write_matrix(str(tmp_path / "ys.csv"), ys)
        argv = ["regress", "--x", str(tmp_path / "xs.csv"), "--y", str(tmp_path / "ys.csv")]
        code, doc = run(capsys, argv + ["--rank", "2", "--no-timestamp"])
        assert code == 0
        assert doc["diagnostics"]["maximal_kernel"]["kernel_dim"] == 1
        assert eigh_calls == [(5, 5)]
        assert [shape for shape, _, _ in svd_calls] == [(4, 4), (4, 4)]

    def test_center_matches_pre_centred_files(self, capsys, tmp_path):
        g = np.random.default_rng(7)
        ys = g.standard_normal((60, 3)) + np.array([5.0, -2.0, 1.5])
        xs = ys @ g.standard_normal((3, 2)) + 0.1 * g.standard_normal((60, 2)) + 4.0
        write_matrix(str(tmp_path / "xs.csv"), xs)
        write_matrix(str(tmp_path / "ys.csv"), ys)
        # written with %.17g, so the centred files read back bit for bit
        write_matrix(str(tmp_path / "xc.csv"), xs - xs.mean(axis=0))
        write_matrix(str(tmp_path / "yc.csv"), ys - ys.mean(axis=0))
        docs = {}
        for tag, x, y, extra in (
            ("center", "xs.csv", "ys.csv", ["--center"]),
            ("plain", "xc.csv", "yc.csv", []),
        ):
            code, docs[tag] = run(
                capsys,
                [
                    "regress",
                    "--x", str(tmp_path / x),
                    "--y", str(tmp_path / y),
                    "--rank", "2",
                    "--model-out", str(tmp_path / f"{tag}.json"),
                    "--no-timestamp",
                ]
                + extra,
            )
            assert code == 0
            docs[tag]["outputs"].pop("model")
        assert docs["center"]["outputs"] == docs["plain"]["outputs"]
        assert docs["center"]["diagnostics"] == docs["plain"]["diagnostics"]
        assert (tmp_path / "center.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_identity_weight_files_match_default(self, capsys, tmp_path):
        g = np.random.default_rng(5)
        ys = g.standard_normal((60, 3))
        xs = ys @ g.standard_normal((3, 2))
        write_matrix(str(tmp_path / "xs.csv"), xs)
        write_matrix(str(tmp_path / "ys.csv"), ys)
        write_matrix(str(tmp_path / "i2.csv"), np.eye(2))
        write_matrix(str(tmp_path / "i3.csv"), np.eye(3))
        base_args = [
            "regress",
            "--x", str(tmp_path / "xs.csv"),
            "--y", str(tmp_path / "ys.csv"),
            "--rank", "1",
            "--no-timestamp",
        ]
        _, plain = run(capsys, base_args + ["--model-out", str(tmp_path / "m1.json")])
        _, weighted = run(
            capsys,
            base_args
            + [
                "--wx", str(tmp_path / "i2.csv"),
                "--wa", str(tmp_path / "i2.csv"),
                "--wy", str(tmp_path / "i3.csv"),
                "--model-out", str(tmp_path / "m2.json"),
            ],
        )
        a1 = read_a_hat(tmp_path / "m1.json")
        a2 = read_a_hat(tmp_path / "m2.json")
        np.testing.assert_allclose(a1, a2, atol=1e-12)
        assert plain["outputs"]["mse_trace"] == pytest.approx(
            weighted["outputs"]["mse_trace"], abs=1e-10
        )

    def test_rank_deficient_kernel_check(self, capsys, tmp_path):
        g = np.random.default_rng(6)
        latent = g.standard_normal((100, 2))
        ys = latent @ g.standard_normal((2, 4))
        xs = ys @ g.standard_normal((4, 3)) + 0.05 * g.standard_normal((100, 3))
        write_matrix(str(tmp_path / "xs.csv"), xs)
        write_matrix(str(tmp_path / "ys.csv"), ys)
        code, doc = run(
            capsys,
            [
                "regress",
                "--x", str(tmp_path / "xs.csv"),
                "--y", str(tmp_path / "ys.csv"),
                "--rank", "2",
                "--no-timestamp",
            ],
        )
        assert code == 0
        kernel = doc["diagnostics"]["maximal_kernel"]
        assert kernel["passed"] is True and kernel["kernel_dim"] == 2

    def test_negative_trials_rejected(self, capsys, tmp_path):
        xs = np.random.default_rng(4).standard_normal((20, 3))
        write_matrix(str(tmp_path / "xs.csv"), xs)
        argv = ["regress", "--x", str(tmp_path / "xs.csv"), "--y", str(tmp_path / "xs.csv")]
        assert cli.main(argv + ["--rank", "1", "--trials", "-3"]) == 2
        assert "trials" in capsys.readouterr().err

    def test_partial_weights_rejected(self, capsys, tmp_path):
        write_matrix(str(tmp_path / "xs.csv"), np.ones((4, 2)))
        code = cli.main(
            [
                "regress",
                "--x", str(tmp_path / "xs.csv"),
                "--y", str(tmp_path / "xs.csv"),
                "--rank", "1",
                "--wx", str(tmp_path / "xs.csv"),
            ]
        )
        assert code == 2

    def test_unwritable_model_out_exits_input(self, capsys, tmp_path):
        write_matrix(str(tmp_path / "xs.csv"), np.random.default_rng(6).standard_normal((20, 2)))
        model_path = tmp_path / "missing" / "model.json"
        code = cli.main(
            [
                "regress",
                "--x", str(tmp_path / "xs.csv"),
                "--y", str(tmp_path / "xs.csv"),
                "--rank", "1",
                "--model-out", str(model_path),
            ]
        )
        assert code == 2
        assert str(model_path) in capsys.readouterr().err


    @pytest.mark.parametrize("scale", [10.0, 100.0])
    def test_scaled_rank_deficient_samples(self, capsys, tmp_path, scale):
        # ys of rank 30 in 50 columns: C_y has a 20-dimensional kernel whose
        # eigenvalues are rounding of the size of the data
        g = np.random.default_rng(0)
        ys = g.standard_normal((800, 30)) @ g.standard_normal((30, 50))
        xs = ys @ g.standard_normal((50, 16)) / np.sqrt(50) + 0.1 * g.standard_normal((800, 16))
        models = {}
        for s in (1.0, scale):
            write_matrix(str(tmp_path / "x.csv"), s * xs)
            write_matrix(str(tmp_path / "y.csv"), s * ys)
            model_path = str(tmp_path / f"model_{s:g}.json")
            code, doc = run(
                capsys,
                [
                    "regress",
                    "--x", str(tmp_path / "x.csv"),
                    "--y", str(tmp_path / "y.csv"),
                    "--rank", "3",
                    "--model-out", model_path,
                    "--no-timestamp",
                ],
            )
            assert code == 0
            assert doc["diagnostics"]["maximal_kernel"]["passed"] is True
            assert doc["diagnostics"]["maximal_kernel"]["kernel_dim"] == 20
            models[s] = read_a_hat(model_path)
        # A_hat is invariant when x and y are scaled together
        base = models[1.0]
        assert hs_norm(models[scale] - base) <= check_bound(16 + 50, hs_norm(base))

    def test_huge_x_with_tiny_y(self, capsys, tmp_path):
        # ||A_hat|| ~ 1e250 squares past the float range, but the MSE traces
        # (~1e200) do not, so the maximal-kernel bound stays finite
        g = np.random.default_rng(1)
        write_matrix(str(tmp_path / "x.csv"), 1e100 * g.standard_normal((50, 4)))
        write_matrix(str(tmp_path / "y.csv"), 1e-150 * g.standard_normal((50, 3)))
        argv = ["regress", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run(capsys, argv + ["--rank", "2", "--no-timestamp"])
        assert code == 0
        assert np.all(np.isfinite(report_numbers(doc)))
        assert doc["diagnostics"]["maximal_kernel"]["passed"] is True


class TestDiagnosticKeys:
    """The diagnostics of the solve and regress reports and the model's fit_report, key for key.

    x_hat lies in the minimal representatives by construction, so no
    report carries a minimality defect of it, and the fit's truncation lies
    in ran(B) by construction, so no regress report carries a containment
    residual of it: either could read only rounding.
    """

    @pytest.mark.parametrize("adjoint", [[], ["--adjoint"]], ids=["primal", "adjoint"])
    def test_solve(self, capsys, tmp_path, fixture_files, adjoint):
        code, doc = run(
            capsys,
            [
                "solve",
                "--M", fixture_files["M"],
                "--B", fixture_files["B"],
                "--C", fixture_files["C"],
                "--rank", "1",
                "--out", str(tmp_path / "x.csv"),
                "--no-timestamp",
            ]
            + adjoint,
        )
        assert code == 0
        assert set(doc["diagnostics"]) == {"uniqueness"}

    @pytest.mark.parametrize("weighted", [False, True], ids=["identity", "weighted"])
    def test_regress_and_its_model(self, capsys, tmp_path, weighted):
        g = np.random.default_rng(3)
        ys = g.standard_normal((40, 3))
        write_matrix(str(tmp_path / "xs.csv"), ys @ g.standard_normal((3, 2)))
        write_matrix(str(tmp_path / "ys.csv"), ys)
        write_matrix(str(tmp_path / "i2.csv"), np.eye(2))
        write_matrix(str(tmp_path / "i3.csv"), np.eye(3))
        weights = ["--wx", str(tmp_path / "i2.csv"), "--wa", str(tmp_path / "i2.csv"),
                   "--wy", str(tmp_path / "i3.csv")]
        code, doc = run(
            capsys,
            [
                "regress",
                "--x", str(tmp_path / "xs.csv"),
                "--y", str(tmp_path / "ys.csv"),
                "--rank", "1",
                "--model-out", str(tmp_path / "model.json"),
                "--no-timestamp",
            ]
            + (weights if weighted else []),
        )
        assert code == 0
        kernel = set() if weighted else {"maximal_kernel"}
        assert set(doc["diagnostics"]) == {"uniqueness"} | kernel
        with open(tmp_path / "model.json", encoding="ascii") as fh:
            fit_report = json.load(fh)["fit_report"]
        assert set(fit_report) == {"uniqueness", "objective_mse"}


class TestCheckCommand:
    def test_all_suites_pass(self, capsys):
        code, doc = run(
            capsys, ["check", "--suite", "all", "--trials", "4", "--no-timestamp"]
        )
        assert code == 0
        assert doc["diagnostics"]["passed"] is True
        assert set(doc["outputs"]["suites"]) == {"mp", "svd", "glra", "seq", "rrr"}

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_rejected(self, capsys, trials):
        assert cli.main(["check", "--suite", "all", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "trials" in captured.err

    def test_reports_are_seed_reproducible(self, capsys):
        args = ["check", "--suite", "mp", "--trials", "5", "--seed", "7", "--no-timestamp"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_good_fixture_passes(self, capsys, tmp_path):
        a = np.random.default_rng(8).standard_normal((4, 3))
        write_matrix(str(tmp_path / "a.csv"), a)
        write_matrix(str(tmp_path / "a_pinv.csv"), pinv(a))
        code, doc = run(
            capsys,
            [
                "check",
                "--suite", "mp",
                "--trials", "2",
                "--fixture", str(tmp_path),
                "--no-timestamp",
            ],
        )
        assert code == 0
        assert doc["outputs"]["suites"]["fixture"][0]["failures"] == 0

    def test_fixture_pinv_of_wrong_shape_exits_input(self, capsys, tmp_path):
        a = np.random.default_rng(10).standard_normal((2, 3))
        write_matrix(str(tmp_path / "a.csv"), a)
        write_matrix(str(tmp_path / "a_pinv.csv"), a)
        code = cli.main(["check", "--suite", "mp", "--trials", "1", "--fixture", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "a_pinv.csv" in captured.err
        assert "(2, 3)" in captured.err and "(3, 2)" in captured.err

    def test_corrupted_fixture_fails(self, capsys, tmp_path):
        # documented corrupt asset: the stored pseudo-inverse is off by 10%
        a = np.random.default_rng(9).standard_normal((4, 3))
        write_matrix(str(tmp_path / "a.csv"), a)
        write_matrix(str(tmp_path / "a_pinv.csv"), 1.1 * pinv(a))
        code, doc = run(
            capsys,
            [
                "check",
                "--suite", "mp",
                "--trials", "2",
                "--fixture", str(tmp_path),
                "--no-timestamp",
            ],
        )
        assert code == 3
        assert doc["diagnostics"]["passed"] is False

    # the suites run the library at DEFAULT_TOL, the tolerances their
    # references are written against
    @pytest.mark.parametrize("option", ["--rank-rel", "--tie-rel"])
    def test_tolerances_are_not_options(self, capsys, option):
        with pytest.raises(SystemExit) as info:
            cli.main(["check", option, "1e-9"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {option} 1e-9" in capsys.readouterr().err



class TestLastResort:
    """main's handler of last resort and the console entry point."""

    def test_unexpected_error_exits_internal(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_check", broken)
        assert cli.main(["check", "--suite", "mp", "--trials", "1"]) == cli.EXIT_INTERNAL == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "internal error: boom\n"

    def test_broken_pipe_points_stdout_at_devnull(self, capsys, monkeypatch, tmp_path):
        # a reader that has gone: the report is dropped, and stdout's descriptor,
        # here a temporary file's, is pointed at devnull for the final flush
        path = tmp_path / "stdout"
        with open(path, "wb") as target:

            class GoneReader:
                def write(self, text):
                    raise BrokenPipeError

                def flush(self):
                    raise BrokenPipeError

                def fileno(self):
                    return target.fileno()

            monkeypatch.setattr(sys, "stdout", GoneReader())
            assert cli.main(["check", "--suite", "mp", "--trials", "1", "--no-timestamp"]) == 0
            os.write(target.fileno(), b"after the pipe broke")
        assert path.read_bytes() == b""
        assert capsys.readouterr().err == ""

    def test_entrypoint_exits_with_mains_code(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["glra", "check", "--suite", "mp", "--trials", "0"])
        with pytest.raises(SystemExit) as info:
            cli.entrypoint()
        assert info.value.code == cli.EXIT_INPUT == 2
        assert "trials must be >= 1" in capsys.readouterr().err

class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["demo-unbounded", "--N", "10,x"], "integer list, got '10,x'"),
            (["demo-unbounded", "--probes", ","], "expected at least one integer"),
            (["demo-unbounded", "--mu", "1,x"], "--mu: expected a comma-separated float list"),
            (["demo-unbounded", "--mu", "nan,1"], "mu_head must be finite"),
            (["demo-unbounded", "--mu", "1,nan"], "mu_head must be finite"),
            (["demo-unbounded", "--mu", "inf,1"], "mu_head must be finite"),
            (["demo-unbounded", "--mu-tail-exp", "nan"], "mu_tail_exponent must be finite"),
            (["demo-unbounded", "--gamma-exp", "inf"], "gamma_exponent must be finite"),
            (["outer-approx", "--chain", "auto:x"], "bad chain spec 'auto:x'"),
            (["outer-approx", "--chain", "auto:0"], "bad chain spec 'auto:0'"),
            (["demo-unbounded", "--rank-rel", "0"], "tolerance rank_rel must be strictly positive"),
            (["outer-approx", "--tie-rel", "0"], "tolerance tie_rel must be strictly positive"),
            # argparse's own pattern for negative numbers has no exponent
            (["demo-unbounded", "--rank-rel", "-1e-9"], "tolerance rank_rel must be strictly positive"),
            (["outer-approx", "--tie-rel", "-1e-9"], "tolerance tie_rel must be strictly positive"),
            # an infinite cutoff keeps nothing and an infinite gap ties everything
            (["outer-approx", "--rank-rel", "inf"], "rank_rel must be strictly positive and finite"),
            (["demo-unbounded", "--tie-rel", "inf"], "tie_rel must be strictly positive and finite"),
            (["demo-unbounded", "--rank-rel", "nan"], "rank_rel must be strictly positive and finite"),
            # numpy's generators take no negative seed
            (["check", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["outer-approx", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["regress", "--x", "x.csv", "--y", "y.csv", "--rank", "1", "--seed", "-1"],
             "--seed must be >= 0, got -1"),
        ],
        ids=[
            "N-not-integer",
            "probes-empty",
            "mu-not-float",
            "mu-head-nan",
            "mu-second-nan",
            "mu-head-inf",
            "mu-tail-exp-nan",
            "gamma-exp-inf",
            "chain-steps-not-integer",
            "chain-steps-zero",
            "rank-rel-zero",
            "tie-rel-zero",
            "rank-rel-negative-exponent",
            "tie-rel-negative-exponent",
            "rank-rel-inf",
            "tie-rel-inf",
            "rank-rel-nan",
            "check-seed-negative",
            "outer-approx-seed-negative",
            "regress-seed-negative",
        ],
    )
    def test_rejected(self, capsys, tmp_path, monkeypatch, fixture_files, argv, fragment):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "outer-approx":
            argv = argv + ["--rank", "1"]
            for name in ("M", "B", "C"):
                argv += [f"--{name}", fixture_files[name]]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and fragment in captured.err


def test_every_option_is_quoted_in_a_test():
    # an option that no test passes can stop working unseen
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        opt
        for command in sub.choices.values()
        for action in command._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    tests = pathlib.Path(__file__).resolve().parent
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(tests.rglob("*.py")))
    assert sorted(o for o in options if f'"{o}"' not in text and f"'{o}'" not in text) == []


LADDER_SCALES = (1e-300, 1e-150, 1.0, 1e150, 1e300)
LADDER_COMMANDS = {
    "solve": ["solve"],
    "solve-adjoint": ["solve", "--adjoint"],
    "error": ["error"],
    "outer-auto": ["outer-approx", "--chain", "auto:3"],
    "outer-full-alternative": ["outer-approx", "--chain", "full", "--alternative"],
}
# each problem command on each operand version, regress on the samples, and
# the growth sweep over its target's spectrum, with and without a tie
LADDER_CASES = (
    [(command, version) for command in LADDER_COMMANDS for version in ("full", "deficient")]
    + [("regress", "samples")]
    + [("demo-unbounded", version) for version in ("untied", "tied")]
)


@pytest.fixture(scope="module")
def ladder_files(tmp_path_factory):
    """The ladder's operands at every scale, one CSV each, keyed (version, name, scale).

    Seed-1 Gaussians: M (4 x 5), B (4 x 4) and C (4 x 5) in a full-rank and
    a deficient version (B with a repeated column, C with a repeated row),
    and 50 samples of x (dimension 4) and of y (dimension 3).
    """
    root = tmp_path_factory.mktemp("ladder")
    g = np.random.default_rng(1)
    m, b, c = (g.standard_normal(shape) for shape in ((4, 5), (4, 4), (4, 5)))
    b_def, c_def = b.copy(), c.copy()
    b_def[:, -1] = b_def[:, 0]
    c_def[-1] = c_def[0]
    operands = {
        "full": {"M": m, "B": b, "C": c},
        "deficient": {"M": m, "B": b_def, "C": c_def},
        "samples": {"x": g.standard_normal((50, 4)), "y": g.standard_normal((50, 3))},
    }
    files = {}
    for version, mats in operands.items():
        for name, a in mats.items():
            for s in LADDER_SCALES:
                files[version, name, s] = str(root / f"{version}-{name}-{s:g}.csv")
                write_matrix(files[version, name, s], s * a)
    return files


def _ladder_argvs(command, version, files, out):
    """Every invocation of one ladder case: a command over all scales of its operands."""
    if command == "demo-unbounded":
        for s in LADDER_SCALES + (1e-200, 1e200):
            second = s if version == "tied" else s / 2
            yield [
                "demo-unbounded",
                "--N", "20,50",
                "--probes", "2,5",
                "--mu", f"{s!r},{second!r}",
                "--out", out,
            ]
        return
    if command == "regress":
        for s_x, s_y in product(LADDER_SCALES, repeat=2):
            yield [
                "regress",
                "--x", files[version, "x", s_x],
                "--y", files[version, "y", s_y],
                "--rank", "2",
                "--trials", "3",
            ]
        return
    argv = LADDER_COMMANDS[command] + ["--rank", "2"]
    if command != "error":
        argv += ["--out", out]
    for scales in product(LADDER_SCALES, repeat=3):
        yield argv + [
            arg for name, s in zip("MBC", scales) for arg in (f"--{name}", files[version, name, s])
        ]


@pytest.mark.parametrize("command, version", LADDER_CASES, ids=["-".join(c) for c in LADDER_CASES])
def test_scale_ladder_exits_cleanly(capsys, tmp_path, ladder_files, command, version):
    # no input of the ladder is malformed: each invocation exits 0 with a
    # finite report or 3 for an overflow, and numpy prints no warning
    bad = []
    for argv in _ladder_argvs(command, version, ladder_files, str(tmp_path / "out.csv")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv + ["--no-timestamp"])
        out = capsys.readouterr().out
        if caught:
            bad.append((argv, code, str(caught[0].message)))
        elif code not in (0, 3):
            bad.append((argv, code, "exit code"))
        elif code == 0 and not np.all(np.isfinite(report_numbers(json.loads(out)))):
            bad.append((argv, code, "non-finite report"))
        elif code == 0 and command == "demo-unbounded":
            # the sweep tables: N, m, probe norm and its law, to rounding
            for path in json.loads(out)["outputs"]["files"].values():
                for n, _, norm, law in read_matrix(path):
                    if not abs(norm - law) <= check_bound(int(n), law):
                        bad.append((argv, code, f"probe norm {norm} against {law}"))
    assert bad == []


@pytest.mark.parametrize(
    "gamma_exp, alpha_exp, fragment",
    [("2000", "1", "w is zero"), ("400", "399", "w is not finite")],
    ids=["gamma-underflows", "alpha-overflows"],
)
def test_scale_ladder_extreme_exponents_exit_3(capsys, tmp_path, gamma_exp, alpha_exp, fragment):
    # finite exponents at the ends of the float range: gamma_k = k^-2000
    # underflows to 0 for every k >= 2, so w = 0, and alpha_k = k^399
    # overflows; each is exit 3 before numpy can print a warning
    argv = ["demo-unbounded", "--gamma-exp", gamma_exp, "--alpha-exp", alpha_exp]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv + ["--out", str(tmp_path / "out.csv"), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert fragment in captured.err

import argparse
import importlib.util
import json
import warnings
from pathlib import Path

import pytest

from glra import cli

REPORTDIFF_PATH = Path(__file__).resolve().parents[1] / "tools" / "reportdiff.py"
spec = importlib.util.spec_from_file_location("reportdiff", REPORTDIFF_PATH)
reportdiff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reportdiff)


def test_corpus_names_every_subcommand_and_exit_code():
    # a command or an exit path the corpus leaves out can change its bytes unseen
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {case.argv[0] for case in reportdiff.CORPUS} == set(sub.choices)
    assert {case.code for case in reportdiff.CORPUS} == {0, 2, 3}


def test_cases_are_named_once_and_carry_no_timestamp():
    names = [case.name for case in reportdiff.CORPUS]
    assert len(names) == len(set(names))
    assert all(case.argv[-1] == "--no-timestamp" for case in reportdiff.CORPUS)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    inp = tmp_path_factory.mktemp("inputs")
    reportdiff.write_inputs(str(inp))
    return str(inp)


@pytest.mark.parametrize("case", reportdiff.CORPUS, ids=[c.name for c in reportdiff.CORPUS])
def test_case_exits_as_declared(capsys, monkeypatch, tmp_path, inputs, case):
    # in process, on this checkout: the corpus reaches the exit paths it names
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(reportdiff.case_argv(case, inputs))
    captured = capsys.readouterr()
    assert code == case.code, captured.err
    assert (captured.err == "") == (code == 0)


@pytest.mark.parametrize(
    "case",
    [c for c in reportdiff.CORPUS if c.code == 0],
    ids=[c.name for c in reportdiff.CORPUS if c.code == 0],
)
def test_report_inputs_are_the_parsed_command_line(capsys, monkeypatch, tmp_path, inputs, case):
    # a report that leaves out an option, such as a tolerance, cannot be rerun from itself
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {
        action.dest
        for action in sub.choices[case.argv[0]]._actions
        if action.dest not in ("help", "no_timestamp")
    }
    monkeypatch.chdir(tmp_path)
    assert cli.main(reportdiff.case_argv(case, inputs)) == 0
    assert set(json.loads(capsys.readouterr().out)["inputs"]) == dests


def test_json_leaves_go_by_invariant_name():
    old = b'{"s": [{"invariant": "a", "r": 1.0}, {"invariant": "b", "r": 2.0}]}'
    new = b'{"s": [{"invariant": "b", "r": 2.5}]}'
    assert reportdiff._json_diff(old, new) == [
        ".s[a].invariant: 'a' -> (absent)",
        ".s[a].r: 1.0 -> (absent)",
        ".s[b].r: 2.0 -> 2.5",
    ]

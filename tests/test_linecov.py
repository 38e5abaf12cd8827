import importlib.util
from pathlib import Path

LINECOV_PATH = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"
spec = importlib.util.spec_from_file_location("linecov", LINECOV_PATH)
linecov = importlib.util.module_from_spec(spec)
spec.loader.exec_module(linecov)

SNIPPET = '''"""Module docstring."""
import math


def f(x):
    """Function docstring."""
    if x > 0:
        return math.sqrt(
            x
        )
    try:
        y = -x
    except TypeError:
        raise ValueError(
            "no"
        )
    return y


class K:
    value = 1
'''


def test_lists_statements_only():
    # the import, the def, the class, the docstrings and try own no code of
    # their own; the if owns its header, a call all of its lines
    owned = linecov.statements(SNIPPET)
    assert sorted(owned) == [7, 8, 12, 14, 17, 21]
    assert owned[7] == range(7, 8)
    assert owned[8] == range(8, 11)


def test_traces_what_a_call_runs(tmp_path):
    # f(4) runs the if and its return, the import the module body; the
    # negative branch and the raise never run
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    namespace = {}
    code = compile(SNIPPET, str(path), "exec")

    def call():
        exec(code, namespace)
        return namespace["f"](4.0)

    result, hits = linecov.run_traced(str(tmp_path), call)
    assert result == 2.0
    assert linecov.never_ran(SNIPPET, hits[str(path)]) == [12, 14, 17]


def test_traces_nothing_outside_the_root(tmp_path):
    (tmp_path / "inside").mkdir()
    code = compile(SNIPPET, str(tmp_path / "outside.py"), "exec")
    _, hits = linecov.run_traced(str(tmp_path / "inside"), lambda: exec(code, {}))
    assert dict(hits) == {}

import importlib.util
from pathlib import Path

SLOC_PATH = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
spec = importlib.util.spec_from_file_location("sloc", SLOC_PATH)
sloc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sloc)

SNIPPET = '''"""Module docstring
over two lines."""

# a comment
def f(a,
      b):
    """Function docstring."""
    x = [a,  # trailing comment
         b]
    return x
'''


def test_counts_code_lines_only():
    # def (2 lines), the list (2 lines) and the return: the docstrings,
    # the comment and the blank line do not count
    assert sloc.count_source(SNIPPET) == 5


def test_prints_per_file_counts_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert sloc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["5", "1", "6"]
    assert lines[-1].endswith("total")


# the size budget of the library, in source lines as counted here
SLOC_BUDGET = 1900


def test_library_stays_within_its_budget():
    src = Path(__file__).resolve().parents[1] / "src" / "glra"
    total = sum(
        sloc.count_source(Path(path).read_text(encoding="utf-8"))
        for path in sloc._python_files(str(src))
    )
    assert total <= SLOC_BUDGET

"""CSV matrix I/O.

The on-disk format is plain ASCII CSV: one matrix row per line, decimal
floats, no header, no trailing commas.  Blank and whitespace-only lines
are skipped and ``#`` does not start a comment.  Dimensions are inferred.
Values are written with 17 significant digits, which round-trips float64
bit-exactly.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .linalg import InputError, as_matrix

__all__ = ["read_matrix", "write_matrix"]


def read_matrix(path: str) -> np.ndarray:
    """Parse a CSV matrix file; raises InputError naming the file on failure.

    A line that does not parse is named as ``path:LINE:``, 1-based with
    blank lines counted.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = (line for line in fh if line.strip())
            # loadtxt only warns on an empty input, so test for one first
            first = next(lines, None)
            if first is not None:
                arr = np.loadtxt(
                    chain([first], lines), delimiter=",", comments=None, ndmin=2
                )
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(_parse_error(path, exc)) from exc
    if first is None:
        raise InputError(f"{path}: empty matrix file")
    return as_matrix(arr, name=path)


def _parse_error(path: str, exc: ValueError) -> str:
    """``path:LINE: reason`` for the first line that read_matrix rejected.

    Runs only after a failed read, so the success path streams its lines
    into loadtxt without keeping them.  Each line goes through loadtxt on
    its own, the same grammar; the rows loadtxt reports are not used, as
    they count only non-blank lines and differ in base between its errors.
    When no single line explains the failure, or the file cannot be read
    a second time (a drained pipe reads empty), loadtxt's own reason is kept.
    """
    width = None
    # a non-ASCII byte becomes a backslash escape, which no float contains
    with open(path, "r", encoding="ascii", errors="backslashreplace") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                cols = np.loadtxt([line], delimiter=",", comments=None, ndmin=2).shape[1]
            except ValueError:
                return f"{path}:{number}: cannot parse '{line.strip()}' as comma-separated floats"
            width = width or cols
            if cols != width:
                return f"{path}:{number}: the number of columns changed from {width} to {cols}"
    return f"{path}: {exc}"


def write_matrix(path: str, a) -> None:
    """Write a finite 2-D matrix as CSV; raises InputError naming the file on failure."""
    arr = as_matrix(a)
    try:
        np.savetxt(path, arr, fmt="%.17g", delimiter=",")
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc

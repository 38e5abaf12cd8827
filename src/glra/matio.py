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
    """Parse a CSV matrix file; raises InputError naming the file on failure."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = (line for line in fh if line.strip())
            # loadtxt only warns on an empty input, so test for one first
            first = next(lines, None)
            if first is not None:
                arr = np.loadtxt(
                    chain([first], lines), delimiter=",", comments=None, ndmin=2
                )
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if first is None:
        raise InputError(f"{path}: empty matrix file")
    return as_matrix(arr, name=path)


def write_matrix(path: str, a) -> None:
    """Write a finite 2-D matrix as CSV; raises InputError naming the file on failure."""
    arr = as_matrix(a)
    try:
        np.savetxt(path, arr, fmt="%.17g", delimiter=",")
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc

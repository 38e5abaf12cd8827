"""Span tracer installed from outside the program.

Wraps the public functions of the traced glra modules, and the LAPACK
routines of ``numpy.linalg`` they call, in spans.  A span records its
inclusive time and its self time (inclusive time minus the time of the
spans it caused).  Nothing under ``src/`` is changed: the wrappers
replace module attributes, and because ``solver``, ``sequences`` and
``regression`` import ``linalg`` names directly, a wrapper is installed at
every import site that holds the original function, not only on the
defining module.  ``uninstall`` puts every original back.

LAPACK calls are counted only while a program span is open, so the
benchmark's own reference computations never show up in the counts.
Spans are aggregated per name in memory; nothing is written while a pass
runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

TRACED_MODULES = ("linalg", "solver", "sequences", "regression", "matio", "checks", "cli")

# numpy.linalg routine -> span name; the svd span also carries computed GFLOPs
LAPACK_SPANS = {
    "svd": "lapack.svd",
    "eig": "lapack.eig",
    "eigh": "lapack.eig",
    "eigvals": "lapack.eig",
    "eigvalsh": "lapack.eig",
    "qr": "lapack.qr",
    "solve": "lapack.solve",
    "lstsq": "lapack.lstsq",
}


def svd_gflop(shape: tuple[int, ...], full_matrices: bool, compute_uv: bool) -> float:
    """Computed (not measured) GFLOPs of one SVD, from Golub & Van Loan's R-SVD counts.

    With m >= n: singular values only 2mn^2 + 2n^3; thin factors
    6mn^2 + 20n^3; full U 4m^2n + 22n^3.
    """
    m, n = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        flops = 2.0 * m * n * n + 2.0 * n**3
    elif full_matrices:
        flops = 4.0 * m * m * n + 22.0 * n**3
    else:
        flops = 6.0 * m * n * n + 20.0 * n**3
    return flops / 1e9


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Per-name span aggregates plus named counters, reset per pass."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self._child_time: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.stats = {}
        self.counters = {}

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _span(self, name, fn, args, kwargs):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = SpanStats()
            st.calls += 1
            st.total_s += elapsed
            st.self_s += elapsed - children

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def wrap_lapack(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._child_time:
                return fn(*args, **kwargs)
            if name == "lapack.svd":
                self.count(
                    "lapack.svd.gflop",
                    svd_gflop(
                        np.shape(args[0]),
                        kwargs.get("full_matrices", args[1] if len(args) > 1 else True),
                        kwargs.get("compute_uv", args[2] if len(args) > 2 else True),
                    ),
                )
            return self._span(name, fn, args, kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every traced function at every glra import site, and numpy.linalg."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = hooks or {}
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"glra.{short}"]
            names = list(getattr(mod, "__all__", ()))
            if short == "cli":
                names = [n for n in vars(mod) if n.startswith("cmd_")]
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                span = f"{short}.{attr}"
                if short == "cli":
                    span = "cli." + attr[len("cmd_"):].replace("_", "-")
                wrappers[id(fn)] = self.wrap(span, fn, hooks.get(span))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "glra" or mod_name.startswith("glra.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
        for attr, span in LAPACK_SPANS.items():
            self._set(np.linalg, attr, self.wrap_lapack(span, getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

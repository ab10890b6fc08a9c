"""Spans and counters around porolab's public functions, installed from outside.

``Tracer.installed()`` rebinds, in every loaded ``porolab`` module, each name
that *is* one of the wrapped functions (``cli``, ``analysis`` and ``pipeline``
import them by name), and wraps the ``cg`` name in ``porolab.elliptic`` and
``porolab.spectral`` with an iteration-counting callback.  Leaving the block
restores every original binding.  Spans stay in memory until ``write``.

A span's self time is its duration minus that of its child spans; the
program is single-threaded, so children never overlap.  Counters are added
to the innermost open span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

import numpy as np

# (module, attribute, span name, counter bumped when the call raises)
TARGETS = (
    ("porolab.config", "load_config", "config.load", None),
    ("porolab.series", "profile", "series.profile", None),
    ("porolab.series", "q_partial_inverse", "series.invert", "series.invert_failed"),
    ("porolab.elliptic", "assemble_operator", "elliptic.assemble", None),
    ("porolab.elliptic", "solve_linear", "elliptic.solve", "elliptic.solve_failed"),
    ("porolab.elliptic", "write_gridfunction_csv", "elliptic.csv_write", None),
    ("porolab.spectral", "principal_eigenpair", "spectral.eig", "spectral.eig_failed"),
    ("porolab.pipeline", "converge", "pipeline.converge", None),
    ("porolab.pipeline", "weak_residual", "pipeline.residual", None),
    ("porolab.pipeline", "default_test_set", "pipeline.test_set", None),
    ("porolab.pipeline", "flat_zone", "pipeline.flat_zone", None),
    ("porolab.analysis", "diagnose", "analysis.diagnose", None),
    ("porolab.analysis", "report_to_json", "analysis.report_json", None),
)

# module whose ``cg`` name is wrapped, and the counter of its iterations
CG_TARGETS = (
    ("porolab.elliptic", "elliptic.cg_iters"),
    ("porolab.spectral", "spectral.inner_cg_iters"),
)

# span names of the benchmark's own command spans start with this prefix
COMMAND_PREFIX = "cli."


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _before(tracer, span, args, kwargs):
    if span == "series.invert":
        tracer.count("series.invert_nodes", int(np.size(_arg(args, kwargs, 2, "y"))))


def _after(tracer, span, args, kwargs, result):
    if span == "elliptic.csv_write":
        tracer.count("elliptic.csv_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))
    elif span == "spectral.eig":
        tracer.count("spectral.eig_iters", result.iterations)
    elif span == "pipeline.converge":
        tracer.count("pipeline.orders_run", len(result.sup_history))


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        # (module, name, original, wrapper) of the last ``installed`` block
        self._bindings: list[tuple[object, str, object, object]] = []
        self.rebound: dict[str, int] = {}  # bindings replaced per span/counter

    # -- spans and counters -------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx].end = end

    def count(self, key: str, n: int = 1) -> None:
        counts = self.spans[self._open[-1]].counts
        counts[key] = counts.get(key, 0) + n

    def _wrap(self, span, fn, failed):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            _before(self, span, args, kwargs)
            idx = self.open(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if failed is not None:
                    self.count(failed)
                raise
            finally:
                self.close(idx)
            _after(self, span, args, kwargs, result)
            return result

        return traced

    def _counting_cg(self, cg, key):
        @functools.wraps(cg)
        def traced_cg(*args, callback=None, **kwargs):
            def step(xk):
                self.count(key)
                if callback is not None:
                    callback(xk)

            return cg(*args, callback=step, **kwargs)

        return traced_cg

    # -- installing the wrappers --------------------------------------------

    @staticmethod
    def _modules():
        return [m for n, m in sys.modules.items() if n == "porolab" or n.startswith("porolab.")]

    @contextlib.contextmanager
    def installed(self):
        """Rebind every porolab name that is a wrapped function; restore on exit."""
        modules = self._modules()
        self._bindings = []
        self.rebound = {}
        try:
            for modname, attr, span, failed in TARGETS:
                original = getattr(sys.modules[modname], attr)
                wrapper = self._wrap(span, original, failed)
                self.rebound[span] = 0
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, key, original, wrapper))
                            setattr(mod, key, wrapper)
                            self.rebound[span] += 1
            for modname, key in CG_TARGETS:
                mod = sys.modules[modname]
                self._bindings.append((mod, "cg", mod.cg, self._counting_cg(mod.cg, key)))
                setattr(mod, "cg", self._bindings[-1][3])
                self.rebound[key] = 1
            yield self
        finally:
            for mod, key, original, _ in reversed(self._bindings):
                setattr(mod, key, original)

    def _holding(self, which: int) -> list[str]:
        """porolab bindings that hold an original (which=2) or a wrapper (3)."""
        ids = {id(b[which]) for b in self._bindings}
        return [
            f"{mod.__name__}.{key}"
            for mod in self._modules()
            for key, value in vars(mod).items()
            if id(value) in ids
        ]

    def leaks(self) -> list[str]:
        """While installed: bindings that still reach an unwrapped function."""
        return self._holding(2)

    def unrestored(self) -> list[str]:
        """After ``installed``: bindings left on a wrapper."""
        return self._holding(3)

    # -- derived values -----------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def roots(self) -> list[int]:
        """Root span of every span (itself for a root)."""
        out: list[int] = []
        for i, s in enumerate(self.spans):
            out.append(i if s.parent is None else out[s.parent])
        return out

    def totals(self, roots: set[int]) -> dict[str, float]:
        """Self time (``<span>_s``), calls (``<span>_calls``) and counters,
        summed over the span trees under ``roots``; command spans add up
        into ``cli.self_s``."""
        out: dict[str, float] = {}
        for s, own, root in zip(self.spans, self.self_times(), self.roots()):
            if root not in roots:
                continue
            if s.name.startswith(COMMAND_PREFIX):
                keys = {"cli.self_s": own}
            else:
                keys = {f"{s.name}_s": own, f"{s.name}_calls": 1}
            keys.update(s.counts)
            for key, value in keys.items():
                out[key] = out.get(key, 0) + value
        return out

    def self_time_gap(self, root: int) -> float:
        """|sum of self times in the tree - the root's duration|."""
        own = self.self_times()
        tree = sum(t for t, r in zip(own, self.roots()) if r == root)
        span = self.spans[root]
        return abs(tree - (span.end - span.start))

    def write(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                row = {
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": s.parent,
                    "counts": s.counts,
                }
                fh.write(json.dumps(row) + "\n")

"""Span tracing of rfequiv from outside the package.

A :class:`Tracer` wraps the public functions of the package's modules in
every module namespace that binds them (``cli`` imports ``build_equiv`` by
name, ``kernels`` and ``sim`` bind ``apply_activation``, ``sim`` binds
``spectral_norm``, ...), records one span per call, and puts every binding
back on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is modified.

Spans are kept in memory and written as JSON lines by :meth:`Tracer.write`.
Each records its name, start and end (``perf_counter_ns``), parent span,
thread id and op id.  Parents come from a context variable; pool threads do
not inherit context variables, so a span opened in a pool thread has no
parent.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass

# Functions traced, by defining module.  ``facts`` pulls a count out of the
# return value, so solver effort is recorded where the work happens.
TRACED = {
    "model": ("apply_activation", "load_matrix", "write_json"),
    "kernels": ("estimate_kernels", "load_kernels", "verify_centering"),
    "equiv": ("build_equiv", "solve_subdel"),
    "rdel": ("zeroth_moment_check", "solve_rdel", "spectral_norm",
             "rf_linearization", "rf_solution_matrix"),
    "sim": ("run_replicates", "empirical_test_error", "build_pseudoresolvent",
            "sample_features", "anisotropic_gap", "estimate_delta_gaussianity"),
    "cli": ("main",),
}

FACTS = {
    "kernels.estimate_kernels": lambda ks: ks.samples,
    "equiv.build_equiv": lambda sol: sol.iterations,
    "rdel.solve_rdel": lambda sol: sol.iterations,
}

_MARK = "__perfbench_original__"


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    op: int | None
    cpu_ns: int
    fact: int | None

    def to_json(self):
        return json.dumps(self.__dict__, separators=(",", ":"))


class Tracer:
    """Install wrappers, collect spans, restore the package on exit."""

    def __init__(self):
        self.spans = []
        self.op = None  # one op in flight, so a plain attribute reaches pool threads
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._patched = []  # (namespace, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "rfequiv" or name.startswith("rfequiv.")]
        for module, funcs in TRACED.items():
            home = sys.modules[f"rfequiv.{module}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{module}.{func}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        fact = FACTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:  # outside a timed op, e.g. an output check
                return fn(*args, **kwargs)
            with self._lock:
                sid = next(self._ids)
            parent = self._current.get()
            token = self._current.set(sid)
            cpu0 = time.process_time_ns()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                cpu1 = time.process_time_ns()
                self._current.reset(token)
            self.spans.append(Span(sid, name, t0, t1, parent,
                                   threading.get_ident(), self.op, cpu1 - cpu0,
                                   fact(result) if fact else None))
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start_ns):
                fh.write(span.to_json() + "\n")


def leftover_wrappers():
    """Bindings in the package that still point at a wrapper (should be none)."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == "rfequiv" or name.startswith("rfequiv."):
            found.extend(f"{name}.{attr}" for attr, value in vars(module).items()
                         if hasattr(value, _MARK))
    return found


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def _union_ns(intervals):
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_ns(span, spans):
    """Duration of ``span`` minus the time its work was handed on.

    Handed-on work is the union of its child spans (same thread, by parent
    link) and of parentless spans opened on other threads inside it, which is
    where its pool work runs.
    """
    inside = [(max(s.start_ns, span.start_ns), min(s.end_ns, span.end_ns))
              for s in spans
              if s.id != span.id and s.start_ns < span.end_ns
              and s.end_ns > span.start_ns
              and (s.parent == span.id
                   or (s.parent is None and s.thread != span.thread))]
    return span.end_ns - span.start_ns - _union_ns(inside)


def summarize(spans, cycles):
    """Per-function totals divided by the number of traced workload cycles.

    ``wall_s`` is the wall time during which at least one call was open,
    ``busy_s`` sums call durations over threads, ``cpu_s`` is process CPU
    time over the calls, ``calls`` and ``facts`` are counts.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for name, group in by_name.items():
        out[name] = {
            "wall_s": _union_ns([(s.start_ns, s.end_ns) for s in group]) / 1e9 / cycles,
            "busy_s": sum(s.end_ns - s.start_ns for s in group) / 1e9 / cycles,
            "cpu_s": sum(s.cpu_ns for s in group) / 1e9 / cycles,
            "calls": len(group) / cycles,
            "facts": sum(s.fact or 0 for s in group) / cycles,
        }
    mains = by_name.get("cli.main", [])
    out.setdefault("cli.main", {})["self_s"] = (
        sum(self_ns(s, spans) for s in mains) / 1e9 / cycles)
    return out

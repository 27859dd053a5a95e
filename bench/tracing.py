"""Spans and allocation peaks around the public functions of qsagen.

The program is not changed: `Tracer.install` replaces every module-level
name that refers to a public function of the listed modules with a wrapper,
in every qsagen namespace, so calls are caught as the CLI and `annealer`
reach them.  `cli._write`/`cli._read` are caught as `cli.io`.  Generator
functions are left alone (their work happens in the caller's span).
Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import inspect
import signal
import sys
import time
import tracemalloc

from qsagen.ir import count_elementary_ops

from workloads import PEAK_CALLS

MODULES = ("markov", "qembed", "szegedy", "annealer", "ir", "mux_expander", "sim", "cli")
IO_FUNCTIONS = ("_write", "_read")

# Counts taken from a call's arguments and result: name -> (key, function).
COUNTERS = {
    "ir.write_english": ("bytes", lambda args, result: len(result)),
    "ir.write_picture": ("bytes", lambda args, result: len(result)),
    "ir.parse_english": ("lines", lambda args, result: len(result.body)),
    "sim.apply": ("gates", lambda args, result: count_elementary_ops(args[0])),
    "sim.to_matrix": ("gates", lambda args, result: count_elementary_ops(args[0])),
}

# tracemalloc slows sim.apply about fourfold; its allocations repeat gate by
# gate, so tracing stops after this long in any one call.
PEAK_TRACE_S = 5.0


def traced_functions() -> dict:
    """Public functions of the listed modules -> span name."""
    names = {}
    for short in MODULES:
        module = sys.modules[f"qsagen.{short}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_") and not inspect.isgeneratorfunction(obj)):
                names[obj] = f"{short}.{attr}"
    cli = sys.modules["qsagen.cli"]
    for attr in IO_FUNCTIONS:
        names[getattr(cli, attr)] = "cli.io"
    return names


class _Patch:
    """Replace functions by wrappers in every qsagen namespace, and undo it."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def install(self, wrap_for: dict) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "qsagen" or name.startswith("qsagen.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                try:
                    wrapper = wrap_for.get(obj)
                except TypeError:       # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()


class Tracer(_Patch):
    """Records (name, parent index, command, start, end, counts) per call."""

    def __init__(self):
        super().__init__()
        self.spans: list = []
        self.command = ""
        self._stack: list[int] = []

    def install(self) -> None:
        super().install({fn: self._wrap(fn, name) for fn, name in traced_functions().items()})

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, parent, self.command, start, end, None]
            if counter is not None:
                spans[index][5] = {counter[0]: counter[1](args, result)}
            return result
        return wrapper


class PeakRecorder(_Patch):
    """Largest allocation peak of one call, per command.function in
    PEAK_CALLS.  Allocations are traced only inside those calls (which do not
    nest), and for at most PEAK_TRACE_S seconds of each."""

    def __init__(self):
        super().__init__()
        self.peaks: dict[str, int] = {}
        self.command = ""
        self._peak = 0

    def install(self) -> None:
        names = {call.split(".", 1)[1] for call in PEAK_CALLS}
        wanted = {fn: name for fn, name in traced_functions().items() if name in names}
        super().install({fn: self._wrap(fn, name) for fn, name in wanted.items()})

    def _stop(self, *signal_args) -> None:
        if tracemalloc.is_tracing():
            self._peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = f"{self.command}.{name}"
            if key not in PEAK_CALLS:
                return fn(*args, **kwargs)
            signal.signal(signal.SIGALRM, self._stop)
            tracemalloc.start()
            signal.setitimer(signal.ITIMER_REAL, PEAK_TRACE_S)
            try:
                return fn(*args, **kwargs)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self._stop()
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                self.peaks[key] = max(self.peaks.get(key, 0), self._peak)
        return wrapper


def layer_totals(spans: list) -> dict:
    """Per (command, name): inclusive seconds of the outermost calls, self
    seconds, call count and summed counts."""
    child_time = [0.0] * len(spans)
    for name, parent, command, start, end, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for index, (name, parent, command, start, end, counts) in enumerate(spans):
        entry = totals.setdefault((command, name), {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[index]
        if not _inside_same(spans, parent, name):
            entry["s"] += end - start
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def _inside_same(spans: list, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False

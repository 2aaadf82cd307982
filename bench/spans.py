"""Span tracing of pedoe's modules, installed from outside the library.

``Tracer.install`` replaces every public function of the traced modules,
at every module attribute that holds it (its own module, the package
namespace, and each module that imported it by name), with a wrapper that
records one span per call: name, start, end, parent span and op id.
Spans stay in memory, one typed array per field, and are written out once,
at the end.  ``uninstall`` puts the original functions back, so an
untraced run executes no wrapper at all.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from array import array

MODULES = ("minkowski", "linalg", "geometry", "configuration", "solver", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list = []  # span name of each name id
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")  # 0 until the call returns or raises
        self.parent = array("q")
        self.op_id = array("q")
        self.stack: list = []
        self.op = -1
        self.solutions: list = []  # solution count of each complete_configuration call
        self._patched: list = []

    def __len__(self):
        return len(self.start)

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, op_id = (
            self.name_id, self.start, self.end, self.parent, self.op_id)
        stack = self.stack
        clock = time.perf_counter_ns
        count_solutions = name == "solver.complete_configuration"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_solutions:
                self.solutions.append(len(result.solutions))
            return result

        return traced

    def install(self) -> None:
        modules = {m: getattr(self.package, m) for m in MODULES}
        targets = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for mod in (self.package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def settle(self) -> None:
        """Drop what an interrupted call left half-recorded; call between ops.

        A time limit can interrupt a wrapper while it appends a span's
        fields, or before its try block; the exception then unwinds the
        whole op, so only the op's last span can be partial.
        """
        self.stack.clear()
        n = min(len(a) for a in (self.name_id, self.start, self.end, self.parent, self.op_id))
        for a in (self.name_id, self.start, self.end, self.parent, self.op_id):
            del a[n:]

    def finished(self, first: int = 0):
        """Indices of spans from `first` on whose call returned or raised."""
        return (i for i in range(first, len(self.start)) if self.end[i])

    def count(self, name: str, first: int = 0) -> int:
        nid = self.names.index(name) if name in self.names else -1
        return sum(1 for i in range(first, len(self.name_id)) if self.name_id[i] == nid)

    def self_times(self, paused=lambda start, end: 0) -> dict:
        """Summed self time (ns) and call count of each span name.

        ``paused(start, end)`` is time within a span that belongs to no
        span (the benchmark's own sampling); it is left out of durations.
        """
        dur = array("q", bytes(8 * len(self.start)))
        for i in self.finished():
            dur[i] = self.end[i] - self.start[i] - int(paused(self.start[i], self.end[i]))
        child = array("q", bytes(8 * len(self.start)))
        for i in self.finished():
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0] for name in self.names}
        for i in self.finished():
            acc = out[self.names[self.name_id[i]]]
            acc[0] += dur[i] - child[i]
            acc[1] += 1
        return out

    def write(self, path) -> None:
        """One JSON array per span: name, start_ns, end_ns, parent index, op id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in self.finished():
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i], self.end[i],
                                     self.parent[i], self.op_id[i]], separators=(",", ":")))
                fh.write("\n")

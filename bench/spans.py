"""Outside-in tracing of the acscp layers.

While installed, every public function defined in the layer modules is
replaced, at every name bound to it in the package (module globals, the
``from .x import`` copies, ``acscp/__init__`` and module-level tables such as
``suites.SUITES``), by a wrapper that records a span.  Spans are kept in
memory; ``restore`` puts the originals back and proves that no wrapper is left.

Private helpers are not wrapped, so their time counts as the self time of the
public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections.abc import Sized

LAYERS = ("exactmath", "cohomology", "ktheory", "chernvec", "homotopy",
          "suites", "cli")


def _package_dicts(package):
    """Namespaces that may bind a traced function: every loaded module of the
    package, and the dicts at their top level."""
    prefix = package + "."
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(prefix)):
            continue
        space = vars(mod)
        yield space
        for key, value in space.items():
            if not key.startswith("__") and isinstance(value, dict):
                yield value


class Tracer:
    """Span recorder for one process; one job at a time, one thread."""

    def __init__(self, package="acscp"):
        self.package = package
        self.names = []         # fid -> "layer.function"
        self.originals = []     # fid -> function
        self.spans = []         # (fid, start_ns, end_ns, parent index, job)
        self.job = -1
        self._stack = []
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self.names.append(f"{layer}.{name}")
                    self.originals.append(obj)
        self.raised = [0] * len(self.names)     # fid -> calls that raised
        self.items = [0] * len(self.names)      # fid -> summed len() of sized results
        self.unsized = [0] * len(self.names)    # fid -> results without a len()
        self.wrappers = [self._wrap(fid, fn) for fid, fn in enumerate(self.originals)]
        fid_of = {id(fn): fid for fid, fn in enumerate(self.originals)}
        self.bindings = [(space, key, fid_of[id(value)])
                         for space in _package_dicts(package)
                         for key, value in space.items()
                         if id(value) in fid_of]

    def _wrap(self, fid, fn):
        spans, stack, raised = self.spans, self._stack, self.raised
        items, unsized = self.items, self.unsized
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[fid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent, tracer.job)
            if isinstance(result, Sized):
                items[fid] += len(result)
            else:
                unsized[fid] += 1
            return result

        return traced

    def install(self):
        for space, key, fid in self.bindings:
            space[key] = self.wrappers[fid]

    def restore(self):
        """Rebind the originals; return the problems found afterwards."""
        for space, key, fid in self.bindings:
            space[key] = self.originals[fid]
        problems = [f"{key} is not restored" for space, key, fid in self.bindings
                    if space[key] is not self.originals[fid]]
        wrapper_ids = {id(w) for w in self.wrappers}
        problems += [f"wrapper left at {key}" for space in _package_dicts(self.package)
                     for key, value in space.items() if id(value) in wrapper_ids]
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        return problems

    def totals(self, scale):
        """Per-function calls and inclusive and self nanoseconds, each span's
        time multiplied by scale[job]; and per job, the raw nanoseconds its
        root spans cover and the fids of those root spans."""
        n = len(self.names)
        calls, incl, self_ns = [0] * n, [0.0] * n, [0.0] * n
        children = [0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        root_ns = [0] * len(scale)
        roots = [[] for _ in scale]
        for i, (fid, start, end, parent, job) in enumerate(self.spans):
            calls[fid] += 1
            incl[fid] += (end - start) * scale[job]
            self_ns[fid] += (end - start - children[i]) * scale[job]
            if parent < 0:
                root_ns[job] += end - start
                roots[job].append(fid)
        return {"calls": calls, "incl_ns": incl, "self_ns": self_ns, "root_ns": root_ns,
                "roots": roots}

"""In-memory spans around calls into infoflow's public entry points.

The spans live in the benchmark's own files: ``Tracer.install`` swaps each
entry point named in ``LAYERS``, in every loaded ``infoflow`` module that
holds it, for a wrapper that records the call.  ``Tracer.uninstall`` puts
the originals back, so untraced ops run the program untouched.

A span is ``[name, start, end, parent, op, count]``: times come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded in a
child process line up with the parent's clock), ``parent`` is the index of
the enclosing span or None, ``op`` identifies the op the span belongs to,
and ``count`` is the work counted at that boundary (or None).
"""

from __future__ import annotations

import functools
import sys
import time


def _gram_flops(args, kwargs, result):
    """Inherent work of one estimate: the d x d Gram over N samples, 2*d*d*N."""
    panel = args[0] if args else kwargs["panel"]
    return 2 * panel.d * panel.d * panel.n


def _text_bytes(args, kwargs, result):
    return len(result.encode())


# Public entry point -> (span name, counter recorded at that boundary).
LAYERS = {
    "simulate_var": ("simgen.simulate_var", None),
    "simulate_rossler": ("simgen.simulate_rossler", None),
    "estimate_flows": ("estimator.estimate_flows", _gram_flops),
    "build_graph": ("graph.build_graph", None),
    "to_json": ("graph.to_json", _text_bytes),
    "to_dot": ("graph.to_dot", _text_bytes),
    "read_csv_panel": ("cli.read_csv_panel", None),
    "write_csv_panel": ("cli.write_csv_panel", None),
}


class Tracer:
    """Records spans in memory; one instance per process."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, count=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = count
        self._stack.pop()

    def add(self, name, start, end, parent=None, count=None) -> int:
        """Append a finished span measured elsewhere, by default under the
        innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, start, end, parent, self.op, count])
        return len(self.spans) - 1

    def merge(self, spans, parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _op, count in spans:
            self.add(name, start, end, parent if par is None else base + par, count)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                count = None
                if counter is not None and result is not None:
                    count = counter(args, kwargs, result)
                self.end(idx, count)

        return traced

    def install(self) -> None:
        wrappers = {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "infoflow" or n.startswith("infoflow."))]
        for mod in modules:
            for attr, (name, counter) in LAYERS.items():
                fn = mod.__dict__.get(attr)
                if not callable(fn):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, name, counter)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _op, _count in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - c for (_n, start, end, _p, _o, _c), c in zip(spans, covered)]

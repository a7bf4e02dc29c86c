"""In-memory spans recorded around calls into the package's modules.

A span holds its name, start, end, parent span and op id.  Spans are kept
in memory and written out once the run ends.  Calls that a public function
makes internally are reached by shims: the benchmark temporarily replaces
a module attribute (for example `analyzer.gegenbauer`) with a wrapper that
records a span and the call's key.  Shims are installed only in the traced
pass, never while the end-to-end metrics are measured.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()


def no_span(name: str, key=None):
    """Span factory of untraced ops: a shared no-op context."""
    return _NULL


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, op id, key]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name: str, key=None):
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op_id, key]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def shims(self, targets):
        """Wrap each (module, attribute, span name, keyed) for the duration of
        the block.  A keyed span keeps the call's arguments, so that distinct
        calls can be counted."""
        saved = []
        for module, attr, name, keyed in targets:
            original = getattr(module, attr)

            def wrapper(*args, _original=original, _name=name, _keyed=keyed, **kwargs):
                with self.span(_name, key=args if _keyed else None):
                    return _original(*args, **kwargs)

            setattr(module, attr, wrapper)
            saved.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def per_op(self) -> dict:
        """op id -> span name -> {"ms", "self_ms", "calls", "distinct"}."""
        selfs = self.self_times()
        table: dict = defaultdict(lambda: defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0, "keys": set()}))
        for (name, start, end, _, op, key), self_s in zip(self.spans, selfs):
            row = table[op][name]
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += self_s * 1e3
            row["calls"] += 1
            row["keys"].add(key)
        return {
            op: {name: {"ms": r["ms"], "self_ms": r["self_ms"], "calls": r["calls"], "distinct": len(r["keys"])}
                 for name, r in names.items()}
            for op, names in table.items()
        }

    def write(self, path) -> None:
        """One JSON line per span: times in ms from the first span, and self time."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for i, ((name, start, end, parent, op, _), self_s) in enumerate(zip(self.spans, self.self_times())):
                f.write(json.dumps({
                    "id": i, "name": name, "op": op, "parent": parent,
                    "start_ms": (start - t0) * 1e3, "end_ms": (end - t0) * 1e3,
                    "self_ms": self_s * 1e3,
                }) + "\n")

"""Outside-in spans: time calls into the program's public functions.

The benchmark records spans from its own files, around the calls into
each layer, so the program itself carries no tracing code.  A
:class:`Tracer` patches named attributes (usually methods on a class) with
a timing wrapper and restores them on exit.  Spans nest: a wrapped call
made while another wrapped call is running is that call's child, so each
name gets an inclusive total and a self time (total minus the time its
wrapped children took).  ``root_s`` sums the spans with no parent, which
is the share of a timed region the spans account for.
"""

from __future__ import annotations

import functools
import time

_MISSING = object()


class Tracer:
    """Patch callables with timing wrappers; restore them on ``close``."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.root_s = 0.0
        self._child_time: list[float] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record every call of ``owner.attr`` as a span called ``name``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        stack = self._child_time

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                self.total[name] = self.total.get(name, 0.0) + elapsed
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - children
                self.calls[name] = self.calls.get(name, 0) + 1
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_s += elapsed

        setattr(owner, attr, traced)

    def close(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""In-memory span tracer that wraps a program's public calls from outside.

A :class:`Tracer` replaces functions and methods with thin wrappers that
record one span per call: ``[name, start_ns, end_ns, parent, request,
value]``.  The parent is the enclosing span on the same thread or, for a
thread with no open span (a server thread answering a client), the span
the client marked with :meth:`Tracer.remote_parent`.  Wrappers return
the wrapped call's value and re-raise its exception unchanged.  Span
times come from ``time.perf_counter_ns``, the clock the workloads time
their windows with, so self times add up against a window.

Spans stay in memory; :func:`self_times` gives each span's self time
(its duration minus the part of it its child spans cover), and
:meth:`Tracer.dump` writes the spans out once the run is over.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

# Span record fields (a list, so the end time can be filled in place).
NAME, START, END, PARENT, REQUEST, VALUE = range(6)


class Tracer:
    """Collects spans from every wrapper it installs."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.active = True
        self.request: Optional[str] = None
        self._remote: Optional[list] = None
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span named ``name`` on the calling thread."""
        stack = self._stack()
        parent = stack[-1] if stack else self._remote
        span = [name, time.perf_counter_ns(), None, parent, self.request, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list, value=None) -> None:
        span[END] = time.perf_counter_ns()
        span[VALUE] = value
        self._stack().pop()

    def remote_parent(self, span: Optional[list]) -> None:
        """Make ``span`` the parent of spans opened on idle threads."""
        self._remote = span

    def wrap(
        self,
        fn: Callable,
        name,
        *,
        value: Optional[Callable[[object], object]] = None,
        request: Optional[Callable[..., str]] = None,
        outermost: bool = False,
    ) -> Callable:
        """A wrapper around ``fn`` that records one span per call.

        Args:
            name: Span name, or a callable ``(*args, **kwargs) -> str``
                that names the span from the call's arguments.
            value: Maps the return value to a number kept on the span
                (bytes written, cache hit); not called when ``fn`` raises.
            request: Names a request id from the arguments; spans opened
                inside the call carry it.
            outermost: Record only the outermost of nested calls (for
                recursive functions).
        """
        tracer = self
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if outermost:
                stack = tracer._stack()
                if stack and stack[-1][NAME] == name:
                    return fn(*args, **kwargs)
            span = tracer.begin(namer(*args, **kwargs) if namer else name)
            saved = tracer.request
            if request is not None:
                tracer.request = span[REQUEST] = request(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(span)
                raise
            finally:
                tracer.request = saved
            tracer.end(span, value(result) if value is not None else None)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def patch_method(self, cls: type, attr: str, name, **options) -> None:
        """Wrap ``cls.attr`` (plain, class- or static method) in place."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, name, **options))
        else:
            wrapped = self.wrap(raw, name, **options)
        setattr(cls, attr, wrapped)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def patch_function(
        self, module, attr: str, name, *, prefixes: Iterable[str] = (), **options
    ) -> int:
        """Wrap ``module.attr`` and every loaded module's binding of it.

        Every module in ``sys.modules`` whose name starts with one of
        ``prefixes`` and holds the same function object (a ``from x
        import f``) gets the wrapper too; modules that import the name
        later, or look it up on ``module`` at call time, see the wrapper
        because ``module`` itself is patched.  Returns how many bindings
        were replaced.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, **options)
        holders = [module]
        prefixes = tuple(prefixes)
        for mod_name, mod in list(sys.modules.items()):
            if mod is module or mod is None or not mod_name.startswith(prefixes):
                continue
            if getattr(mod, attr, None) is original:
                holders.append(mod)
        for holder in holders:
            setattr(holder, attr, wrapped)
            self._undo.append(
                lambda holder=holder: setattr(holder, attr, original)
            )
        return len(holders)

    def uninstall(self) -> None:
        """Restore every patched attribute and stop recording (wrappers
        that callers still hold call straight through)."""
        self.active = False
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write spans as JSON lines ``[name, start, end, parent, request]``
        with ``parent`` the index of the parent span (or null)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = span[PARENT]
                handle.write(
                    json.dumps(
                        [
                            span[NAME],
                            span[START],
                            span[END],
                            index.get(id(parent)) if parent is not None else None,
                            span[REQUEST],
                        ],
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def covered_ns(start: int, end: int, intervals: Iterable[tuple]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[list]) -> List[int]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children.setdefault(id(parent), []).append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered_ns(span[START], span[END], children.get(id(span), ()))
        for span in spans
    ]

"""Pluggable execution backends for shard dispatch.

An :class:`ExecutionBackend` maps a picklable task function over a list
of shard tasks and returns the results *in task order*.  Two
implementations cover the useful points of the design space:

* :class:`SerialBackend` — in-process loop; zero overhead, the default.
* :class:`ProcessBackend` — a process pool; true multi-core execution.
  Tasks and results cross the process boundary via pickle, which is why
  the shard worker speaks the persistence layer's binary store codec.

The virtual network is in-process, so a shard never waits on real I/O:
threads or coroutines would only interleave CPU work that one
interpreter runs one bytecode at a time.  A process pool is the only
way to run two shards' Python code at once.

Backends are deliberately dumb: all determinism lives in the shard
planner (disjoint, contiguous work units) and the store merge (exact,
associative), so *where* a shard runs can never change the result.

Validation is normalized in :func:`get_backend`: a worker count below 1
or an unknown backend name raises a typed
:class:`~repro.errors.ConfigError` naming the valid backends, the same
error family the config layer uses.  The constructors enforce the same
bound so directly-built backends cannot drift from the factory.
"""

from __future__ import annotations

import concurrent.futures
from typing import Any, Callable, List, Sequence

from ..errors import ConfigError

try:  # pragma: no cover - version compatibility shim
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]


class ExecutionBackend(Protocol):
    """Protocol every backend implements."""

    name: str
    workers: int

    def map(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> List[Any]:  # pragma: no cover - protocol signature
        """Apply ``fn`` to every task, returning results in task order."""
        ...


def describe_backend(backend: "ExecutionBackend") -> str:
    """Diagnostic label for a backend, e.g. ``"process x4"``.

    Used for the metrics ``process`` tier (and error messages) only —
    backend identity must never reach the canonical metrics document,
    because the same run on another backend is byte-identical.
    """
    workers = getattr(backend, "workers", 1)
    if workers <= 1:
        return backend.name
    return f"{backend.name} x{workers}"


def _check_workers(workers: int) -> int:
    """The one worker-count validation every backend shares."""
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    return workers


class SerialBackend:
    """Runs shards one after another in the calling thread.

    ``workers`` is accepted for constructor parity with the process
    backend and validated (must be >= 1), but serial execution is
    single-worker by definition: ``workers`` is pinned to 1 so callers
    consulting the backend see its true parallelism.
    """

    name = "serial"

    def __init__(self, workers: int = 1) -> None:
        _check_workers(workers)
        self.workers = 1

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        return [fn(task) for task in tasks]


class ProcessBackend:
    """Runs shards on a process pool (tasks/results cross via pickle)."""

    name = "process"

    def __init__(self, workers: int = 2) -> None:
        self.workers = _check_workers(workers)

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        if not tasks:
            return []
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(tasks))
        ) as pool:
            return list(pool.map(fn, tasks))


_BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def get_backend(name: str, workers: int = 1) -> ExecutionBackend:
    """Instantiate a backend by name (``auto`` resolves by worker count).

    Raises:
        ConfigError: ``name`` is not a known backend (the message names
            the valid ones) or ``workers`` is below 1 — the identical
            validation for every backend, so no implementation can
            silently clamp or accept a nonsensical worker count.
    """
    _check_workers(workers)
    if name == "auto":
        name = "serial" if workers <= 1 else "process"
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown execution backend {name!r}; "
            f"expected one of auto, {', '.join(sorted(_BACKENDS))}"
        ) from None
    return factory(workers=workers)

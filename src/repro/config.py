"""Process-wide execution defaults behind one thread-safe store.

Plain mutable module globals are unserializable, unauditable, and racy
under concurrent configuration — the opposite of what a service
surface needs.  The library's execution knobs (estimator backend,
greedy block size, build-worker count) therefore live in a single
lock-protected store, :data:`execution_defaults`, and the declarative
layer (:mod:`repro.api`) resolves every knob through an explicit
chain::

    per-call kwarg  >  per-object setting  >  RunSpec.execution
                    >  Session execution   >  execution_defaults
                    >  library default

The store itself is deliberately dumb: it holds raw values under a
lock and knows nothing about validation (callers validate with the
canonical checkers — ``check_backend_name`` / ``check_block_size`` /
``check_build_workers`` — before writing), which keeps this module free
of imports and therefore importable from every layer.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Tuple

#: Knob names the library itself reads.  The store accepts any name
#: (extensions may register their own), but these are the documented
#: ones.
KNOWN_KNOBS: Tuple[str, ...] = ("backend", "block_size", "build_workers")

_UNSET = object()


class ExecutionDefaults:
    """Lock-protected ``name -> value`` store for process-wide knobs.

    Values are opaque to the store; absence (never set, or unset) is
    distinct from ``None`` so consumers can layer their own library
    defaults under it via ``get(name, fallback)``.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._values: Dict[str, Any] = {}

    def get(self, name: str, fallback: Any = None) -> Any:
        """Current value of ``name``, or ``fallback`` when never set."""
        with self._lock:
            value = self._values.get(name, _UNSET)
        return fallback if value is _UNSET else value

    def set(self, name: str, value: Any) -> None:
        """Set ``name`` process-wide (validate *before* calling)."""
        with self._lock:
            self._values[name] = value

    def unset(self, name: str) -> None:
        """Drop ``name`` back to the library default."""
        with self._lock:
            self._values.pop(name, None)

    def snapshot(self) -> Dict[str, Any]:
        """Copy of every explicitly-set knob (for audit/echo)."""
        with self._lock:
            return dict(self._values)

    @contextmanager
    def override(self, name: str, value: Any) -> Iterator[None]:
        """Scoped process-wide override, restored on exit.

        The override is visible to *every* thread for its duration —
        it is a scoped version of :meth:`set`, not a thread-local
        (per-thread scoping belongs to the api layer's sessions).
        """
        with self._lock:
            had = name in self._values
            previous = self._values.get(name)
            self._values[name] = value
        try:
            yield
        finally:
            with self._lock:
                if had:
                    self._values[name] = previous
                else:
                    self._values.pop(name, None)


#: The process-wide store the CLI, experiments and api layer share.
execution_defaults = ExecutionDefaults()

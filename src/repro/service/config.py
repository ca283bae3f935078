"""Configuration for the solve service.

:class:`ServiceConfig` is the service analogue of
:class:`repro.api.ExecutionSpec`: a frozen, eagerly-validated bundle of
knobs that never change results — only capacity, latency and memory.
Validation reuses the library's canonical checkers
(:func:`repro.api.session.check_cache_bytes`,
``check_workers``-style messages) so the CLI's ``repro serve`` flags,
programmatic construction and tests all accept exactly the same values
and fail with the same one-line :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.api.session import DEFAULT_MAX_CACHED_ENSEMBLES, check_cache_bytes
from repro.api.specs import ExecutionSpec
from repro.errors import ConfigError

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 8351

#: Default solver-thread count: concurrent solves on shared ensembles
#: are safe (every query writes only its own arrays), so a small pool
#: lets distinct requests overlap without oversubscribing the machine.
DEFAULT_SOLVER_THREADS = 4

#: Default bound on concurrently admitted solve/delta requests; beyond
#: it the service sheds with 429 instead of queueing unboundedly.
DEFAULT_MAX_PENDING = 64

#: Default seconds a SIGTERM drain waits for in-flight solves.
DEFAULT_DRAIN_SECONDS = 30.0

#: Default request-body cap (specs are a few KiB; a 1 MiB bound stops
#: hostile payloads before JSON parsing).
DEFAULT_MAX_BODY_BYTES = 1 << 20

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_size(value: Any) -> int:
    """Parse a byte size: a positive int, or a string like ``"512m"``.

    Accepts plain integers (bytes) and ``k``/``m``/``g`` binary
    suffixes (case-insensitive).  The shared rule behind the CLI's
    ``--cache-bytes`` flag; the result always satisfies
    :func:`repro.api.session.check_cache_bytes`.
    """
    if isinstance(value, str):
        match = re.fullmatch(r"\s*(\d+)\s*([kKmMgG]?)\s*", value)
        if not match:
            raise ConfigError(
                f"byte sizes are a positive int with an optional k/m/g "
                f"suffix (e.g. 512m), got {value!r}"
            )
        value = int(match.group(1)) * _SIZE_SUFFIXES.get(
            match.group(2).lower(), 1
        )
    return check_cache_bytes(value)


def _check_positive_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be a positive int, got {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    return value


def _check_seconds(value: Any, name: str, allow_none: bool = False):
    if value is None:
        if allow_none:
            return None
        raise ConfigError(f"{name} must be a positive number, got None")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a positive number, got {value!r}")
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value}")
    return float(value)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to come up.

    ``execution`` is the session-level :class:`ExecutionSpec` every
    request chains through (requests may still override per spec);
    ``cache_bytes`` byte-bounds the shared ensemble cache (``None``
    keeps the entry-count LRU only); ``request_timeout`` (seconds,
    ``None`` = unbounded) turns an overlong solve into a 504 for its
    waiters without cancelling the shared computation — a later
    identical request still reuses it.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    cache_bytes: Optional[int] = None
    max_cached_ensembles: int = DEFAULT_MAX_CACHED_ENSEMBLES
    solver_threads: int = DEFAULT_SOLVER_THREADS
    max_pending: int = DEFAULT_MAX_PENDING
    request_timeout: Optional[float] = None
    drain_seconds: float = DEFAULT_DRAIN_SECONDS
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ConfigError(f"host must be a non-empty str, got {self.host!r}")
        if (
            isinstance(self.port, bool)
            or not isinstance(self.port, int)
            or not 0 <= self.port <= 65535
        ):
            # Port 0 is deliberate: "any free port", which the runner
            # reports back — what the tests and benchmarks bind.
            raise ConfigError(
                f"port must be an int in [0, 65535], got {self.port!r}"
            )
        if not isinstance(self.execution, ExecutionSpec):
            raise ConfigError(
                f"execution must be an ExecutionSpec, got "
                f"{type(self.execution).__name__}"
            )
        object.__setattr__(
            self, "cache_bytes", check_cache_bytes(self.cache_bytes, allow_none=True)
        )
        _check_positive_int(self.max_cached_ensembles, "max_cached_ensembles")
        _check_positive_int(self.solver_threads, "solver_threads")
        _check_positive_int(self.max_pending, "max_pending")
        object.__setattr__(
            self,
            "request_timeout",
            _check_seconds(self.request_timeout, "request_timeout", allow_none=True),
        )
        object.__setattr__(
            self, "drain_seconds", _check_seconds(self.drain_seconds, "drain_seconds")
        )
        _check_positive_int(self.max_body_bytes, "max_body_bytes")

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary (what ``/v1/healthz`` echoes)."""
        return {
            "host": self.host,
            "port": self.port,
            "execution": self.execution.to_dict(),
            "cache_bytes": self.cache_bytes,
            "max_cached_ensembles": self.max_cached_ensembles,
            "solver_threads": self.solver_threads,
            "max_pending": self.max_pending,
            "request_timeout": self.request_timeout,
            "drain_seconds": self.drain_seconds,
            "pid": os.getpid(),
        }

"""``repro serve`` — an asyncio solve service over the Session facade.

A stdlib-only HTTP/JSON daemon that turns the library's declarative
:class:`~repro.api.RunSpec` layer into a long-lived server: concurrent
identical requests dedup onto one in-flight solve, requests sharing an
ensemble batch onto one cached world build, the ensemble cache is
byte-bounded, and greedy selection
traces stream to clients as NDJSON while the solve runs.  Every
response is bit-identical to the equivalent ``repro solve``.
"""

from repro.service.app import SolveService
from repro.service.config import (
    DEFAULT_DRAIN_SECONDS,
    DEFAULT_MAX_PENDING,
    DEFAULT_PORT,
    DEFAULT_SOLVER_THREADS,
    ServiceConfig,
    parse_size,
)
from repro.service.http import HttpError, Request, error_payload
from repro.service.runner import RunningServer, serve, start_in_thread

__all__ = [
    "SolveService",
    "ServiceConfig",
    "parse_size",
    "DEFAULT_PORT",
    "DEFAULT_SOLVER_THREADS",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_DRAIN_SECONDS",
    "HttpError",
    "Request",
    "error_payload",
    "serve",
    "start_in_thread",
    "RunningServer",
]

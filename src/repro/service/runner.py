"""Run the solve service: event loop, signals, graceful drain.

:func:`serve` is the blocking entry point behind ``repro serve``.  It
binds, prints one machine-readable readiness line to stderr
(``repro-serve listening on http://host:port``) so scripts and the CI
smoke leg can wait for it, and runs until SIGTERM/SIGINT — at which
point it stops accepting, drains in-flight solves up to the configured
budget, clears the session cache and returns cleanly.

:func:`start_in_thread` hosts the same server on a daemon thread for
in-process tests and benchmarks: it yields the bound address
immediately and shuts the server down on ``stop()`` with the same
drain path as a signal would.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.service.app import SolveService
from repro.service.config import ServiceConfig


async def _serve_async(
    service: SolveService,
    *,
    ready: Optional["threading.Event"] = None,
    address_slot: Optional[list] = None,
    stop_event: Optional[asyncio.Event] = None,
    announce: bool = True,
) -> None:
    config = service.config
    server = await asyncio.start_server(
        service.handle_connection, config.host, config.port
    )
    host, port = server.sockets[0].getsockname()[:2]
    if address_slot is not None:
        address_slot.append((host, port))
    if announce:
        print(
            f"repro-serve listening on http://{host}:{port}",
            file=sys.stderr,
            flush=True,
        )
    if ready is not None:
        ready.set()

    stopping = stop_event or asyncio.Event()
    if stop_event is None:
        loop = asyncio.get_running_loop()
        try:
            import signal

            loop.add_signal_handler(signal.SIGTERM, stopping.set)
            loop.add_signal_handler(signal.SIGINT, stopping.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support

    async with server:
        await stopping.wait()
        # Stop accepting before draining: new connections get refused by
        # the OS, admitted requests finish inside the drain budget.
        server.close()
        await server.wait_closed()
        await service.drain()
    if announce:
        print("repro-serve drained, exiting", file=sys.stderr, flush=True)


def serve(config: ServiceConfig, service: Optional[SolveService] = None) -> None:
    """Run the service until SIGTERM/SIGINT, then drain and return."""
    service = service or SolveService(config)
    asyncio.run(_serve_async(service))


@dataclass
class RunningServer:
    """Handle on an in-thread server (tests and benchmarks)."""

    service: SolveService
    address: Tuple[str, int]
    _loop: asyncio.AbstractEventLoop
    _stop: asyncio.Event
    _thread: threading.Thread

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Signal the server, then join — the drain path SIGTERM takes."""
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not drain in time")


def start_in_thread(
    config: ServiceConfig,
    service: Optional[SolveService] = None,
    *,
    announce: bool = False,
) -> RunningServer:
    """Host the service on a daemon thread; returns once it is bound."""
    ready = threading.Event()
    address_slot: list = []
    holder: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            holder["loop"] = loop
            holder["stop"] = asyncio.Event()
            svc = service or SolveService(config)
            holder["service"] = svc
            loop.run_until_complete(
                _serve_async(
                    svc,
                    ready=ready,
                    address_slot=address_slot,
                    stop_event=holder["stop"],
                    announce=announce,
                )
            )
        except BaseException as exc:  # surfaced via ready + raise below
            holder["error"] = exc
            ready.set()
            raise
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(30.0):
        raise RuntimeError("server did not become ready within 30s")
    if "error" in holder:
        raise RuntimeError(f"server failed to start: {holder['error']}")
    return RunningServer(
        service=holder["service"],
        address=address_slot[0],
        _loop=holder["loop"],
        _stop=holder["stop"],
        _thread=thread,
    )

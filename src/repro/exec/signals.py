"""Graceful-shutdown plumbing of a census run.

A census run — inline or on scan threads — wants SIGINT/SIGTERM to mean
"stop cleanly": finish nothing new, leave the checkpoint journal valid,
write the run manifest, exit with a distinct code.  The stock behaviour
(KeyboardInterrupt mid-array-op) can tear all three.

:func:`graceful_shutdown` installs handlers that merely *flag* the
request; the census loop polls the flag at safe points (before taking each
VP scan's result) and raises
:class:`~repro.measurement.campaign.CensusInterrupted` itself.  A second
signal while draining falls through to the default behaviour so an
operator can always force-quit a stuck drain.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from typing import Iterator, Tuple


class ShutdownFlag:
    """Set by the signal handler, polled by the census loop."""

    def __init__(self) -> None:
        self.triggered = False
        self.signum: int = 0

    def __bool__(self) -> bool:
        return self.triggered


@contextlib.contextmanager
def graceful_shutdown(
    signums: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[ShutdownFlag]:
    """Scope in which SIGINT/SIGTERM request a drain instead of killing.

    Handlers can only be installed from the main thread; elsewhere (a
    census run inside a worker thread) the flag is returned un-wired and
    the caller keeps the host application's signal semantics.
    """
    flag = ShutdownFlag()
    if threading.current_thread() is not threading.main_thread():
        yield flag
        return

    def _handler(signum: int, frame: object) -> None:
        if flag.triggered:
            # Second signal: the operator means it.  Restore default
            # semantics by raising here (SIGINT's stock behaviour).
            raise KeyboardInterrupt
        flag.triggered = True
        flag.signum = signum

    previous = {}
    try:
        for signum in signums:
            previous[signum] = signal.signal(signum, _handler)
    except (ValueError, OSError):  # exotic host: leave semantics alone
        for signum, old in previous.items():
            signal.signal(signum, old)
        yield flag
        return
    try:
        yield flag
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)

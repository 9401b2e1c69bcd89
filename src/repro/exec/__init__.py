"""Census execution — the one scan driver.

Runs a census's work units — one whole VP scan each, named by its VP and
executed by the caller's ``execute(i)`` — inline (``workers=0``, the
default and the reference) or on ``workers`` threads of the calling
process, taking results in census order either way.  A scan that raises
fails its VP at once; an overall deadline fails the VPs it cuts off.
Unit results depend only on the unit, so the output bytes never depend
on the worker count.

Entry points:

* :class:`ShardedExecutor` / :class:`ExecutionReport` — the driver and
  what it saw.
* :func:`graceful_shutdown` — SIGINT/SIGTERM drain of a census, at any
  worker count.
"""

from .engine import DEADLINE_FAULT, SCAN_RAISED_FAULT, ExecutionReport, ShardedExecutor
from .signals import ShutdownFlag, graceful_shutdown

__all__ = [
    "DEADLINE_FAULT",
    "ExecutionReport",
    "SCAN_RAISED_FAULT",
    "ShardedExecutor",
    "ShutdownFlag",
    "graceful_shutdown",
]

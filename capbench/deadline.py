"""Per-call latency limit enforced from the main thread.

An interval timer delivers SIGALRM when the limit passes, and the handler
raises `Late` inside whatever Python code is running, so a stalled solver
call is cut off without a watchdog thread or a child process.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

# About one solver call in seven in today's fallback pool runs past this.
LIMIT_S = 0.25


class Late(Exception):
    """A call ran past its latency limit and was interrupted."""


def _raise_late(signum, frame):
    raise Late()


@contextmanager
def armed():
    """Install the SIGALRM handler for the duration of a workload."""
    previous = signal.signal(signal.SIGALRM, _raise_late)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def call_with_limit(fn, args):
    """Run fn(*args); return (result, seconds), or (None, None) past LIMIT_S.

    Must run inside `armed()`.  A call that returns but reads over the
    limit on the clock also counts as late, so the outcome depends on the
    measured time alone and not on when the signal happened to land.
    """
    # the outer try also catches a signal that landed just before disarming
    # and is handled only after the inner finally
    try:
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    except Late:
        return None, None
    if elapsed > LIMIT_S:
        return None, None
    return result, elapsed

"""A time limit on every test's setup and call.

A defect that stops one of the engine's mask loops from ending would
otherwise hang the suite, or grow the process until the machine kills
it, instead of failing the test that ran into it.
"""

from __future__ import annotations

import signal
import traceback
from contextlib import contextmanager

import pytest

# seconds per setup or call; the slowest phase, the acceptance fixture's
# ten n = 2000 runs, took 9-15 s on a shared 2-vCPU host
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an Exception, so `except Exception` in the code under test
    cannot swallow it.  pytest caches only Exception failures of a
    fixture, so a fixture that runs out of time is set up again, and
    times out again, for each test that uses it."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test phase ran past {TIME_LIMIT_S} s")


@contextmanager
def _time_limit():
    if not hasattr(signal, "setitimer"):  # no SIGALRM on this platform
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    except TimeLimitExceeded as exc:
        # pytest keeps the traceback; free what the runaway frames built
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with _time_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _time_limit():
        return (yield)

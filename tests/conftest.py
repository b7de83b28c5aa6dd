"""A time limit on every test's setup and call.

A defect that stops one of the engine's mask loops from ending would
otherwise hang the suite, or grow the process until the machine kills
it, instead of failing the test that ran into it.  A fixture whose
setup the limit stopped fails every later setup at once, instead of
running into the limit again for each test that uses it.
"""

from __future__ import annotations

import signal
import traceback
from contextlib import contextmanager
from types import TracebackType

import pytest

# seconds per setup or call; the slowest phase, the acceptance fixture's
# ten n = 2000 runs, took 9-15 s on a shared 2-vCPU host
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an Exception, so `except Exception` in the code under test
    cannot swallow it.  pytest caches only Exception failures of a
    fixture, so `pytest_fixture_setup` below remembers each fixture
    whose setup ran out of time."""


# the session's (fixture definition, parameter index) of each setup the
# limit stopped; the limit counts the whole setup phase, so a fixture is
# also stopped for the time of those set up before it in the same phase
TIMED_OUT = pytest.StashKey[set]()


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test phase ran past {TIME_LIMIT_S} s")


def _numbered(tb: TracebackType | None) -> TracebackType | None:
    """The traceback with a line number on every entry.

    CPython 3.11 gives no line number to a frame interrupted at some
    jumps, such as a `while` loop's, and pytest then fails to report the
    test and ends the session.  Such an entry gets the last line that
    starts at or before the interrupted instruction.
    """
    entries = []
    while tb is not None:
        entries.append(tb)
        tb = tb.tb_next
    out = None
    for entry in reversed(entries):
        line = entry.tb_lineno
        if line is None:
            code = entry.tb_frame.f_code
            starts = [n for start, _, n in code.co_lines() if start <= entry.tb_lasti and n]
            line = starts[-1] if starts else code.co_firstlineno
        out = TracebackType(out, entry.tb_frame, entry.tb_lasti, line)
    return out


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
        # a new exception: `contextmanager` gives a re-raised one back
        # its old traceback
        numbered = _numbered(exc.__traceback__)
        raise TimeLimitExceeded(*exc.args).with_traceback(numbered) from None
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


@pytest.hookimpl(wrapper=True)
def pytest_fixture_setup(fixturedef, request):
    timed_out = request.config.stash.setdefault(TIMED_OUT, set())
    key = (fixturedef, getattr(request, "param_index", 0))
    if key in timed_out:
        pytest.fail(
            f"fixture {fixturedef.argname!r} ran past {TIME_LIMIT_S} s in an earlier setup",
            pytrace=False,
        )
    try:
        return (yield)
    except TimeLimitExceeded:
        timed_out.add(key)
        raise

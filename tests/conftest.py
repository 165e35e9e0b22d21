"""A time limit on every test, so that a loop that never ends fails the
suite in seconds instead of holding it.

When a test, with its set-up and tear-down, runs past its limit,
``faulthandler`` writes every thread's traceback to the terminal's
standard error and ends the pytest process with exit status 1. The
quick tests take seconds each; ``slow``-marked tests (criterion 8's
replay and the traced perfbench cycles) get a longer limit.
"""

import faulthandler
import os

import pytest

LIMIT_S = 30
SLOW_LIMIT_S = 1200
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while output is not captured,
    # so that the traceback is shown even when a test's output is
    config.stash[STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    limit = SLOW_LIMIT_S if item.get_closest_marker("slow") else LIMIT_S
    faulthandler.dump_traceback_later(limit, exit=True, file=item.config.stash[STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()

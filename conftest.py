"""A test that hangs ends the run with a traceback instead of stalling it.

Each test arms ``faulthandler`` for ``TEST_TIME_LIMIT_S`` seconds: past
that, every thread's traceback goes to the terminal's stderr and the
process exits.  The slowest test takes under 2 s.
"""

import faulthandler
import os

import pytest

TEST_TIME_LIMIT_S = 60
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of stderr made before any test runs: while one does, fd 2 is
    # the capture file, which an exit from the watchdog would discard
    config.stash[STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def time_limit(request):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()

"""The per-test wall-clock limit of ``conftest.py``."""

import signal
import time

import pytest

from conftest import TEST_TIME_LIMIT_S, Overtime, time_limit


def test_every_test_call_runs_under_the_limit():
    assert TEST_TIME_LIMIT_S == 60
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_TIME_LIMIT_S and interval == 0


def test_a_block_past_its_limit_raises_overtime_naming_the_limit():
    # the block replaces this test's own limit and disarms it on leaving
    outer = signal.getsignal(signal.SIGALRM)
    start = time.monotonic()
    with pytest.raises(Overtime, match=r"^test ran past the per-test limit of 0.05 s$"):
        with time_limit(0.05):
            time.sleep(5)
    assert time.monotonic() - start < 1
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is outer
    assert not issubclass(Overtime, Exception)

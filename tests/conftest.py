"""Shared fixtures: the encoders used across the test suite, and a runner
for fresh interpreters; and a wall-clock limit on every single test.

The encoders are session-scoped — building the three-variable instance
compiles two polynomials with dozens of monomials into an alphabet of
about 800 letters, which is too slow to repeat per test.

The limit turns a test that stalls (say, on a wrong matrix product that
makes a search run on) into a failure of that test, so that the rest of
the suite still runs.  The slowest test takes a few seconds.
"""

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import diomorph
from diomorph import encode, poly

TEST_TIME_LIMIT_S = 60


class Overtime(BaseException):
    """A test ran past its time limit.  Not an ``Exception``, so that neither
    the code under test nor Hypothesis (which would shrink on) catches it."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise :class:`Overtime` in the main thread once ``seconds`` of wall
    clock have passed inside the block (where ``signal.setitimer`` exists).
    Leaving the block disarms the timer, so blocks do not nest."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def overtime(signum, frame):
        raise Overtime(f"test ran past the per-test limit of {seconds} s")

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail any single test whose call runs longer than ``TEST_TIME_LIMIT_S``."""
    with time_limit(TEST_TIME_LIMIT_S):
        yield


@pytest.fixture(scope="session")
def run_python():
    """Runs ``python *args`` in a subprocess that imports the diomorph under test.

    Tests pass ``-O`` to check that a guarantee survives the stripping of
    asserts; keyword arguments go to ``subprocess.run``.
    """
    src = str(Path(diomorph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return lambda *args, **kwargs: subprocess.run([sys.executable, *args], env=env, **kwargs)


@pytest.fixture(scope="session")
def encoder_named(request):
    """Looks a session encoder up by its fixture name.

    For Hypothesis tests: a failing example prints every argument, and
    Hypothesis spells out a dataclass field by field, which for a
    3-variable encoder is tens of megabytes of text.
    """
    return request.getfixturevalue


@pytest.fixture(scope="session")
def toy_encoder():
    """Two variables: p(x1, x2) = x2 against q(x1, x2) = x1."""
    p = poly.variable(2, 2)
    q = poly.variable(1, 2)
    return encode.build_encoder(p, q)


@pytest.fixture(scope="session")
def squares_encoder():
    """Three variables: p = x2 against q = x3², the perfect-squares instance.

    With the first two arguments pinned to (1, s), the remaining equation
    p = q reads s = x3²: solvable exactly when s is a perfect square.
    """
    p = poly.variable(2, 3)
    q = poly.mul(poly.variable(3, 3), poly.variable(3, 3))
    return encode.build_encoder(p, q)


@pytest.fixture(scope="session")
def squares_matrices(squares_encoder):
    return encode.matrices(squares_encoder)


@pytest.fixture(scope="session")
def trivial_encoder():
    """p = q = x3: the equation holds at every point (the full set)."""
    x3 = poly.variable(3, 3)
    return encode.build_encoder(x3, x3)


@pytest.fixture(scope="session")
def empty_encoder():
    """p = x3 + x2 against q = x3: never solvable since x2 >= 1 (empty set)."""
    x3 = poly.variable(3, 3)
    return encode.build_encoder(poly.add(x3, poly.variable(2, 3)), x3)

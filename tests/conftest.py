"""Shared fixtures: the encoders used across the test suite, and a runner
for fresh interpreters.

The encoders are session-scoped — building the three-variable instance
compiles two polynomials with dozens of monomials into a 1550-letter
alphabet, which is too slow to repeat per test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import diomorph
from diomorph import encode, poly


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

"""The pulse program of an operation, compiled as the CLI compiles it.

The experiment functions run programs, not matrices; tests that start from a
matrix build its program here, so every test compiles the same way.
"""

from su4c.circuits import lower_to_pulses
from su4c.compiler import decompose
from su4c.linalg import nearest_unitary


def program(u):
    """The 35-pulse program of the nearest unitary of u."""
    return lower_to_pulses(decompose(nearest_unitary(u)))

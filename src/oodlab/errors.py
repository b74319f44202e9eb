"""The failure types of a run, one per CLI exit code.

Each class carries its exit code and the label that prefixes its stderr
line, so ``cli.main`` catches all three in one clause. Code that cannot go
on raises one of them, with a message that says what was wrong. An
``OSError`` from a file also exits 4 and a ``MemoryError`` exits 2; any
other exception is a bug and shows its traceback.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """A config, or the data it draws or names, cannot support the requested run."""

    EXIT_CODE = 2
    LABEL = "config error"


class NonFiniteState(RuntimeError):
    """Training, a simulation or a forward pass reached a non-finite value.

    ``step`` is the zero-based update step at which it happened, when the
    failure belongs to one.
    """

    EXIT_CODE = 3
    LABEL = "non-finite training state"

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class MalformedData(ValueError):
    """An input file (data CSV or checkpoint) is truncated, unparsable or not finite."""

    EXIT_CODE = 4
    LABEL = "io error"

"""Exceptions shared across the package.

The split matters for the CLI: malformed input (bad indices, unreadable
schema) exits with code 2, while a checked mathematical failure (a witness
was found) exits with code 1.
"""

from contextlib import contextmanager


class InputError(ValueError):
    """Structurally malformed input: out-of-range index, bad schema."""


class NotAPosetError(ValueError):
    """A category was used as a poset but has parallel morphisms."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"objects {pair} are joined by more than one morphism")


class PreconditionError(RuntimeError):
    """A stated precondition of an operation does not hold."""


class SoundnessError(AssertionError):
    """A soundness check failed (message: the witness); unlike `assert`, kept under -O."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage, message):
        self.stage = stage
        super().__init__(f"stage '{stage}': {message}")


@contextmanager
def malformed(what):
    """Turn the errors that reading a wrongly shaped `what` document raises into InputError."""
    try:
        yield
    except InputError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise InputError(f"malformed {what} document: {exc!r}") from exc

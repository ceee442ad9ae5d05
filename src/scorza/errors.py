"""Error types shared across the package, and how a message quotes input.

Everything user-facing derives from InputError so the CLI can map bad
arguments, shape mismatches, and unsupported model requests to exit code 2.
Internal invariant violations raise plain RuntimeError/AssertionError.
A message quotes caller input with `quoted`, so that it stays short.
"""


def quoted(value) -> str:
    """repr(value), or for a long value the repr of its first 40 characters."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 40:
        return repr(value)
    return f"{text[:40]!r}... of {len(text)} characters"


class InputError(ValueError):
    """Invalid argument, shape mismatch, or violated operation precondition."""


class UnsupportedError(InputError):
    """Operation not defined for the given model, degree, or algebra."""

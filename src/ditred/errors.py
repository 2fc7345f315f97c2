"""The exception hierarchy of the package.

Every exception class ditred defines derives from `DitredError`, so a
caller can catch the library's refusals in one place.  Each class also
keeps a builtin base (`ValueError`, `RuntimeError`, ...) that says what
kind of failure it is.  Classes raised by several modules live here; a class
raised by one module only is defined in that module.
"""

from __future__ import annotations

from contextlib import contextmanager


class DitredError(Exception):
    """Base of every exception class ditred defines."""


class ParseError(DitredError, ValueError):
    def __init__(self, msg, line=None):
        super().__init__(msg if line is None else f"line {line}: {msg}")
        self.line = line


class BudgetExceeded(DitredError, RuntimeError):
    """A search or enumeration would exceed its budget and was refused."""


class NotRationalPoint(DitredError, ValueError):
    pass


@contextmanager
def line_context(line):
    """Report a value that fails to parse on input line `line` as a
    ParseError naming that line; with `line` None, report a check on the
    parsed input as a whole."""
    try:
        yield
    except (ValueError, ZeroDivisionError) as e:
        if isinstance(e, ParseError) and e.line is not None:
            raise
        raise ParseError(str(e), line) from e

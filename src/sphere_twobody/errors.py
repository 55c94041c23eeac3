"""Exception types shared across the package, and the base of every record
that validates its fields.

Two families, matching the CLI's exit-code contract: bad input (exit 2)
versus a computation that ran but failed its own consistency checks (exit 3).
"""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class VerificationError(RuntimeError):
    """A verification or consistency check failed."""


class ConvergenceError(VerificationError):
    """A numerical evaluation could not reach the requested accuracy.

    Carries a human-readable diagnostic naming the region/strategy used.
    """


class _Validated:
    """Mixin for a typing.NamedTuple record with a `_validate` method.

    A NamedTuple body may not define __new__, so a validated record is a
    subclass of a bare fields base, `class R(_Validated, _RFields)`, and
    every construction runs `_validate`.  namedtuple's own `_make` builds the
    tuple around __new__; here it calls the class, so `_replace` checks too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._validate()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

"""Exception hierarchy for strandbox."""


class StrandboxError(Exception):
    """Base class for all library errors."""


class DomainError(StrandboxError, ValueError):
    """An argument lies outside an operation's domain."""


class NotLocallyFree(StrandboxError):
    """A rank vector was requested for a module that is not locally free."""


class UnsupportedPresentation(StrandboxError):
    """The operation is only defined for the affine C-tilde family."""


class InternalCheckError(StrandboxError):
    """A structural assertion of the AR calculus failed; indicates a bug."""


def require_size(name, value, least):
    """The one size rule: DomainError unless value is an int, not a bool, and
    at least `least`."""
    if value.__class__ is not int or value < least:
        raise DomainError(f"{name} must be >= {least} and an int, not {value!r}")

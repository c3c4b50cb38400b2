"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so keep the split:
input problems (ValidationError / DomainError / ParseError), resource-cap
problems (ResourceLimitError) and two routes to one number that disagree
or a named group that fails its defining relations (VerificationError).
The exact divisions and sign checks of the closed forms raise
VerificationError too, so python -O cannot strip them.
"""


class FacnumError(Exception):
    """Base class for all errors raised by facnum."""


class ValidationError(FacnumError, ValueError):
    """A value fails validation (non-prime p, broken Cayley law, ...)."""


class DomainError(FacnumError, ValueError):
    """Arguments are outside the domain of an operation (i > n, p = 2 for
    the odd-prime group families, non-normal subgroup for a quotient)."""


class ParseError(FacnumError, ValueError):
    """Malformed textual input (Cayley table files, group descriptors)."""


class ResourceLimitError(FacnumError, RuntimeError):
    """A configured safety cap (group order, subgroup count) was exceeded."""


class VerificationError(FacnumError, RuntimeError):
    """Two independent routes to the same quantity gave different answers,
    a constructed group fails a relation it must satisfy, or a closed form
    fails an exact division or sign check.  Raised
    explicitly, so the check survives ``python -O``."""

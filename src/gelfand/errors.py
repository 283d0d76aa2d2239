"""Exception taxonomy shared by all modules.

Domain errors (bad user input) are ValueError subclasses so callers can
treat them as usage problems.  InternalCheckError marks a violated internal
consistency invariant: it should never fire on correct code and is the loud
falsification channel for self-checks.
"""


class DomainError(ValueError):
    """Invalid input for an operation (zero vector, non-prime p, ...)."""


class CapExceededError(DomainError):
    """A configured size cap (field size, group order, search space) was hit."""


class InternalCheckError(RuntimeError):
    """An internal consistency check failed; indicates a bug or a false claim."""

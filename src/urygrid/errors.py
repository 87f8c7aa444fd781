"""Exception hierarchy. The three classes map onto the CLI exit codes:
ValidationError -> 1, GuardError -> 2, InvariantError -> 3."""


class UrygridError(Exception):
    """Base class for all library errors."""


class ValidationError(UrygridError):
    """Malformed or axiom-violating input. Carries a witness when one exists."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GuardError(UrygridError):
    """A size guard refused the computation. Explicit refusal, never silent
    truncation. ``used`` and ``limit`` are the count the guard reached and
    its bound, both also in the message; ``partial`` may carry a partial
    result found before refusal."""

    def __init__(self, message, *, used: int, limit: int, partial=None):
        super().__init__(message)
        self.used = used
        self.limit = limit
        self.partial = partial


class InvariantError(UrygridError):
    """An internal consistency guarantee failed. Always a bug."""

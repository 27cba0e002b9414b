"""Exception types shared across the package."""


class WhiteheadError(Exception):
    """Base class for all errors raised by this package."""


class InvalidLetter(WhiteheadError):
    """A letter fell outside the alphabet of the given rank."""


class RankMismatch(WhiteheadError):
    """Two objects built over different ranks were combined."""


class NotABasis(WhiteheadError):
    """A word tuple that was required to be a free basis is not one."""


class KindMismatch(WhiteheadError):
    """Word tuples whose shapes (sizes or straight/cyclic kinds) disagree."""


class PreconditionViolated(WhiteheadError):
    """An argument failed a documented precondition of the operation."""


class NotLocalMinimum(PreconditionViolated):
    """A basis that was required to be a local minimum of the length
    functional is not one."""


class EdgeAbsent(PreconditionViolated):
    """The named edge does not lie inside the given vertex set."""


class LimitExceeded(WhiteheadError):
    """A search hit its state or size budget before reaching an answer.

    Carries enough context to report what was exhausted: the states
    counted, the limit, and the phase that ran out ("level_set" for the
    orbit search's level-set walk, "distance" for the translator
    enumeration).
    """

    def __init__(self, message, *, states=None, limit=None, phase=None):
        super().__init__(message)
        self.states = states
        self.limit = limit
        self.phase = phase


class TheoremViolation(WhiteheadError):
    """An invariant that is guaranteed by the underlying theory failed.

    Raised instead of AssertionError so callers can distinguish a broken
    internal argument from ordinary misuse.  Seeing this exception means
    there is a bug in this package, not in the caller.
    """

"""Exception taxonomy shared by all tnngrass modules.

Two families matter downstream:

* ``UserInputError`` covers everything a caller can fix (bad shapes, rank
  violations, points outside a cell, ...).  The CLI maps these to exit
  code 2, and also ``ConstructionError``: a construction that ran out of
  its precision budget built nothing to give a verdict on.
* ``InternalConsistencyError`` means an exactly-verified identity that is
  mathematically guaranteed came out false.  It never indicates bad input;
  it indicates a falsified invariant and is mapped to exit code 3.
"""


class TnngrassError(Exception):
    """Base class for all package errors."""


class UserInputError(TnngrassError, ValueError):
    """Caller-correctable error (bad input, violated precondition)."""


class DimensionError(UserInputError):
    """Matrix or subset shapes do not fit the requested operation."""


class RankError(UserInputError):
    """An input fails a required rank condition (singular / degenerate)."""


class InconsistentSystemError(UserInputError):
    """A linear system that was required to be solvable has no exact solution."""


class DegeneracyError(UserInputError):
    """A degeneration (e.g. zeroing columns) would drop below full rank."""


class DomainError(UserInputError):
    """A value lies outside the mathematical domain of the operation."""


class FiberMismatchError(UserInputError):
    """Two representatives that must share a fiber do not."""


class NotInCellError(UserInputError):
    """A representative is not in the closed cell it was claimed to be in."""


class WellDefinednessError(UserInputError):
    """The image of a point dropped rank, so its span is not a valid point."""


class UnsupportedParameterError(UserInputError):
    """Parameters outside the supported regime (odd m, wrong corank, ...)."""


class ConstructionError(TnngrassError):
    """An iterative construction exhausted its precision budget."""


class InternalConsistencyError(TnngrassError):
    """An exactly-checked identity that is provably true evaluated false.

    Raising this is a falsification report: either the implementation is
    broken or a proved statement failed on concrete data.  It must never
    be swallowed.
    """

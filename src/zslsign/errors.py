"""Typed errors raised by the toolkit.

Each error maps to a distinct failure contract so callers (and the CLI exit
codes) can tell input problems, shape problems and mode problems apart.
"""


class ZslSignError(Exception):
    """Base class for all toolkit errors."""


class MissingFile(ZslSignError, FileNotFoundError):
    """A manifest or referenced data file does not exist."""


class ParseError(ZslSignError, ValueError):
    """A file exists but its content cannot be parsed; message names line/field."""


class InvariantViolation(ZslSignError, ValueError):
    """A dataset-level invariant is broken (overlapping splits, non-binary attribute, ...)."""


class EmptySequence(ZslSignError, ValueError):
    """A temporal operation received a sequence with no rows."""


class MissingHandStream(ZslSignError, ValueError):
    """Hand-stream aggregation was requested for a sample without a hand sequence."""


class MissingReduction(ZslSignError, ValueError):
    """A text-bearing embedding mode needs a reduction matrix that was not supplied."""


class DimensionMismatch(ZslSignError, ValueError):
    """Operands disagree on vector/matrix dimensions."""


class IndexOutOfRange(ZslSignError, IndexError):
    """An attribute index lies outside the class attribute schema."""


class DegenerateData(ZslSignError, ValueError):
    """Training data cannot support the requested fit (e.g. fewer than 2 seen classes)."""


class NonFiniteLoss(ZslSignError, ArithmeticError):
    """Training lost numerical footing: step halving exhausted or loss became non-finite."""


class SingularSystem(ZslSignError, ValueError):
    """A closed-form solve hit a (numerically) singular linear system."""


class SchemaMismatch(ZslSignError, ValueError):
    """A serialized model file disagrees with its own dimension header."""


class EmptyCandidates(ZslSignError, ValueError):
    """Prediction or posterior computation received no candidate classes."""


class ModeWithoutAttributes(ZslSignError, ValueError):
    """Attribute influence analysis requested on a model whose mode carries no attributes."""


class EmptyEvaluationSet(ZslSignError, ValueError):
    """Evaluation received no samples."""


class UnrankedClass(ZslSignError, ValueError):
    """A ground-truth class does not appear in the candidate ranking of its sample."""


class NoMisclassifications(ZslSignError, ValueError):
    """Confusion analysis requested but every prediction was correct."""


class InstanceTooLarge(ZslSignError, ValueError):
    """An instance exceeds a brute-force oracle's size bound or a dense solve's memory."""

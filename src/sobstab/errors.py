"""Exception hierarchy shared across the toolkit.

Everything user-facing derives from :class:`SobstabError` so the CLI can map
failures onto its exit codes: validation problems (exit 2) versus numerical
non-convergence (exit 3, output marked non-certified).
"""

from __future__ import annotations


class SobstabError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(SobstabError, ValueError):
    """An argument violates a documented precondition (domain, shape, range)."""


class SchemaError(ParameterError):
    """A superposition JSON document violates the schema.

    The message always names the offending field, e.g. ``terms[2].lambda``.
    """


class GeometryError(SobstabError):
    """A norm/pairing operation was asked for on an unsupported geometry."""


class HypothesisError(ParameterError):
    """The hypotheses of an inequality comparison are not satisfied by the input."""


class QuadratureNonConvergence(SobstabError):
    """Adaptive integration failed to meet the tolerance.

    Carries the best estimate found so far in :attr:`best`, so callers can
    still report a (flagged, non-certified) value.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


"""Exception hierarchy shared across the package.

Every error that can escape the public API derives from DeltahullError so
callers (and the CLI) can map failures to exit codes in one place.
"""


class DeltahullError(Exception):
    """Base class for all package errors."""


class ParseError(DeltahullError):
    """Malformed instance, fan, or report document."""


class DimensionMismatch(ParseError):
    """Row/column counts in an input document do not line up."""


class DuplicateRow(ParseError):
    """Two constraint rows coincide after positive rescaling."""


class NotPointed(DeltahullError):
    """The constraint matrix has rank < n, so the polyhedron has no vertex."""


class Infeasible(DeltahullError):
    """The inequality system has no solution."""


class Unbounded(DeltahullError):
    """An operation that needs boundedness met an unbounded recession ray."""


class BudgetExceeded(DeltahullError):
    """A combinatorial scan would exceed its configured budget."""


class BoundViolated(DeltahullError):
    """A certified inequality check failed; the message names it."""


class SingularMatrix(DeltahullError):
    """A square system that was expected to be invertible is singular:
    linalg.adjugate's error, so also a dependent basis row set
    (model.basis_adjugate) or a singular cone (stats.triangulation_stats)."""


class SingularUpdate(DeltahullError):
    """A basis row-swap update hit a zero pivot: the new row is dependent."""


class InfeasiblePoint(DeltahullError):
    """A point claimed to lie in the polyhedron violates a constraint."""


class UnboundedLine(DeltahullError):
    """Internal inconsistency: a full-rank system admitted a free line."""


class EmptyAlphaInterval(DeltahullError):
    """Lifting found no admissible scale for a new vertex (construction bug)."""


class DisconnectedGraph(DeltahullError):
    """Diameter was requested for a graph that is not connected."""

"""Exception hierarchy for the sturmjsr package."""


class SturmJsrError(Exception):
    """Base class for all sturmjsr errors."""


class NonPositiveMatrix(SturmJsrError):
    """A matrix that must have positive entries and positive determinant does not."""


class NonPositiveScale(SturmJsrError):
    """A scale factor that must be strictly positive is not."""


class EmptyWord(SturmJsrError):
    """A binary word that must be non-empty is empty."""


class SingularTransform(SturmJsrError):
    """The conjugating matrix of a similarity transform is singular."""


class InconsistentEquivalences(SturmJsrError):
    """The four equivalent convexity criteria disagree; signals a tolerance problem."""


class DomainError(SturmJsrError):
    """An argument lies outside the domain of the requested map."""


class NotInClassD(SturmJsrError):
    """The matrix pair fails the strict cross inequalities of the Sturmian class."""


class NotInClassC(NotInClassD):
    """The matrix pair is not a concave-convex pair, so not in the Sturmian class either."""


class NoConvergence(SturmJsrError):
    """An iteration or series hit its depth cap before meeting its tolerance."""


class OutOfInteriorRange(SturmJsrError):
    """The scale parameter lies outside the open interval between the two thresholds."""


class ClosedFormMismatch(SturmJsrError):
    """Two closed forms for the same quantity disagree beyond tolerance."""


class PlateauNotFound(SturmJsrError):
    """No sampled scale value produced the requested Sturmian parameter."""


class PairFileError(SturmJsrError):
    """A matrix-pair input file is malformed."""

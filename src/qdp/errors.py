"""Exception hierarchy for the qdp engine.

Every error that encodes a mathematical finding (a failed divisibility, a
map that is not a Hopf morphism, ...) derives from MathematicalFailure so
the CLI can distinguish "the input is mathematically wrong" (exit 1) from
"the input is malformed" (exit 2).
"""

from __future__ import annotations


class QdpError(Exception):
    """Base class for all engine errors."""


class MathematicalFailure(QdpError):
    """A check with mathematical content failed; carries a finding."""


class InputError(QdpError):
    """Malformed input: bad manifests, unknown names, unparsable text."""


class NotDivisible(MathematicalFailure):
    """A series claimed to lie in h^k * (module) is not divisible by h^k."""


class NotTopologicallyNilpotent(MathematicalFailure):
    """exp() applied to something with h-valuation <= 0."""


class MixedPresentations(InputError):
    """Elements of different presentations were combined."""


class FuelExceeded(MathematicalFailure):
    """Rewriting returned to a word it was still rewriting; the presentation
    does not terminate (inadmissible)."""


class PresentationError(InputError):
    """A presentation violates a structural invariant (inadmissible
    relation shape, nonzero generator counit, reserved names, ...)."""


class NotAHopfMap(MathematicalFailure):
    """A gauge map fails to be a Hopf algebra morphism."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class NotLieType(MathematicalFailure):
    """A bracket extracted mod h has constant or nonlinear terms."""


class CobracketNotInWedge(MathematicalFailure):
    """The extracted cobracket leaves the span of degree-(1,1) tensors."""


class NotCocommutativeModH(MathematicalFailure):
    """Delta - Delta_op has a nonzero specialisation at h = 0."""


class NotCommutativeModH(MathematicalFailure):
    """A degree-capped presentation is not commutative mod h."""


class DimensionMismatch(InputError):
    """Two structure-constant tables of different dimension compared."""


class UnknownExample(InputError):
    """Requested built-in bundle does not exist."""


class UnknownGenerator(InputError):
    """An expression references a generator the presentation lacks."""


class ExpressionSyntaxError(InputError):
    """Element/scalar expression failed to parse; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position

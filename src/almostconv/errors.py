"""Exception types shared across the package.

The command line exits 2 on a :class:`HypothesisViolated` (a subclass
included): the data fail a condition that the analysis relies on.  Any
other :class:`AlmostconvError` is an error in the input and exits 1.
"""


class AlmostconvError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AlmostconvError):
    """Malformed input file, invalid schedule, or inconsistent options."""


class HypothesisViolated(AlmostconvError):
    """A user-asserted Tauberian hypothesis fails on the supplied data."""


class UnsupportedPoint(AlmostconvError):
    """Requested a closed-form value where none exists (custom samples)."""


class DivergentSeries(HypothesisViolated):
    """Dirichlet-line evaluation requested at or below the declared abscissa."""


class AliasingError(AlmostconvError):
    """Continuous sampling grid too coarse for the generator's frequencies."""


class WindowOutOfRange(AlmostconvError):
    """An averaging window does not fit the signal under its extension policy."""


class EmptyGrid(AlmostconvError):
    """No admissible shifts remain for the requested window."""


class TooShort(AlmostconvError):
    """Signal too short for the requested analysis."""


class KernelTooWide(AlmostconvError):
    """Convolution kernel support exceeds the signal span."""


class GapTooWide(AlmostconvError):
    """High-pass gap half-width at or beyond the Nyquist frequency."""


class InsufficientCoefficients(HypothesisViolated):
    """Coefficient stream shorter than the certified truncation index."""


class TailNotControlled(HypothesisViolated):
    """Rendered range too short to certify the transform truncation error."""


class KernelVanishes(HypothesisViolated):
    """Test kernel's transform dips below the required floor on the band."""


class RangeTooShort(AlmostconvError):
    """Tail analysis requested beyond the rendered range."""


class NotInvariant(HypothesisViolated):
    """Supplied basis does not span a translation-invariant subspace."""


class NotAMean(HypothesisViolated):
    """Functional fails the positivity/normalization conditions of a mean."""


class RankDeficientInput(UserWarning):
    """Dependent vectors supplied where a basis was expected (deduplicated)."""

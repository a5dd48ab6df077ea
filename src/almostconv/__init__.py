"""Almost-convergence analysis of bounded sequences and sampled functions.

Three mutually cross-checking routes decide whether bounded data almost
converges (has a common value under every translation-invariant
averaging): uniform sliding window means (:mod:`almostconv.cesaro`),
spectral-gap filtering (:mod:`almostconv.spectral`), and boundary mean
sweeps with convergence-chain verification (:mod:`almostconv.tauberian`).
:mod:`almostconv.cyclic` carries the exact finite-group model of the
underlying dualities, and :mod:`almostconv.cli` ties everything together
for batch use.
"""

from .cesaro import (
    CesaroSweep,
    ac_verdict,
    cesaro_sweep,
    shift_extremes,
    window_average,
)
from .cyclic import (
    CyclicFunction,
    CyclicIdealBasis,
    annihilator,
    ideal_for,
    invariant_mean_check,
    mean_annihilator_check,
    spectrum_of,
    verify_character_spectrum,
    zero_set,
    zn_fourier,
    zn_inverse,
)
from .errors import AlmostconvError
from .signals import (
    BlockSequence,
    Character,
    ContinuousSignal,
    Convergent,
    Custom,
    Density,
    DirichletLine,
    DiscreteSignal,
    Extension,
    GeneratorSpec,
    MeasureTransform,
    PartialSums,
    Sidedness,
    TrigPoly,
    WindowSchedule,
    evaluate,
    known_limit,
    render_continuous,
    render_discrete,
)
from .spectral import (
    SpectrumEstimate,
    Taper,
    convolve,
    dft_spectrum,
    highpass_project,
    spectral_ac_verdict,
    spectrum_support_check,
)
from .tauberian import (
    ChainReport,
    MeanSweep,
    abel_sweep,
    boundary_sweep,
    chain_report,
    laplace_sweep,
    oscillation_modulus,
    primitive_check,
    residue_oac_estimate,
    weak_star_verdict,
)
from .verdict import ACVerdict, VerdictStatus

__version__ = "0.1.0"

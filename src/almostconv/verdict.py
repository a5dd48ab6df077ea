"""The tri-state verdict that every analysis route returns, and its rule.

The window-mean and tail-stabilisation routes reduce their data to a few
gaps, oldest first, and :func:`judge` rules on them.  The spectral route
keeps its own rule: it is sufficiency-only and never negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

# a negative verdict needs a gap of at least NEGATIVE_FACTOR * tol that
# keeps at least PERSISTENCE of its earlier size
NEGATIVE_FACTOR = 10.0
PERSISTENCE = 0.9


class VerdictStatus(str, Enum):
    ALMOST_CONVERGENT = "almost_convergent"
    NOT_ALMOST_CONVERGENT = "not_almost_convergent"
    INCONCLUSIVE = "inconclusive"


class Witness(NamedTuple):
    """Where a negative verdict saw its gap: the sup and inf shifts and
    the gap between the values there.  ``window`` is the window length
    of a window-mean witness, None for a tail witness."""

    window: Optional[float]
    shift_sup: float
    shift_inf: float
    gap: float


@dataclass(frozen=True)
class ACVerdict:
    """Tri-state almost-convergence decision.

    ``limit`` is set when the verdict is positive; ``witness`` when
    divergence is certified on the grid.
    """

    status: VerdictStatus
    limit: Optional[complex]
    uncertainty: float
    witness: Optional[Witness] = None
    notes: str = ""

    @property
    def positive(self) -> bool:
        return self.status is VerdictStatus.ALMOST_CONVERGENT

    @property
    def negative(self) -> bool:
        return self.status is VerdictStatus.NOT_ALMOST_CONVERGENT


def judge(gaps: Sequence[float], tol: float, limit: complex, witness: Witness,
          steady: bool = True, notes: str = "") -> ACVerdict:
    """The verdict on ``gaps``, oldest first; its uncertainty is the last.

    Positive, with ``limit``, when the last gap is within ``tol`` and the
    caller finds the gaps ``steady``.  Negative, with ``witness``, when
    every gap is at least ``NEGATIVE_FACTOR * tol`` and the last keeps at
    least ``PERSISTENCE`` of the first.  Otherwise inconclusive.
    """
    last = float(gaps[-1])
    if last <= tol and steady:
        return ACVerdict(VerdictStatus.ALMOST_CONVERGENT, limit, last, None, notes)
    if all(g >= NEGATIVE_FACTOR * tol for g in gaps) and last >= PERSISTENCE * gaps[0]:
        return ACVerdict(VerdictStatus.NOT_ALMOST_CONVERGENT, None, last, witness, notes)
    return ACVerdict(VerdictStatus.INCONCLUSIVE, None, last, None, notes)

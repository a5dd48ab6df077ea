"""The tri-state verdict that every analysis route returns."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

# a negative verdict needs a gap of at least NEGATIVE_FACTOR * tol that
# keeps at least PERSISTENCE of its earlier size
NEGATIVE_FACTOR = 10.0
PERSISTENCE = 0.9


class VerdictStatus(str, Enum):
    ALMOST_CONVERGENT = "almost_convergent"
    NOT_ALMOST_CONVERGENT = "not_almost_convergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ACVerdict:
    """Tri-state almost-convergence decision.

    ``limit`` is the midpoint of the final [inf, sup] box when the
    verdict is positive; ``witness`` records (window length, sup shift,
    inf shift, gap) when divergence is certified on the grid.
    """

    status: VerdictStatus
    limit: Optional[complex]
    uncertainty: float
    witness: Optional[Tuple[float, float, float, float]] = None
    notes: str = ""

    @property
    def positive(self) -> bool:
        return self.status is VerdictStatus.ALMOST_CONVERGENT

    @property
    def negative(self) -> bool:
        return self.status is VerdictStatus.NOT_ALMOST_CONVERGENT

import numpy as np
import pytest

from almostconv.verdict import NEGATIVE_FACTOR, PERSISTENCE, VerdictStatus, Witness, judge

TOL = 1e-2
EDGE = NEGATIVE_FACTOR * TOL
LIMIT = 0.5 + 0.25j
WITNESS = Witness(8.0, 3.0, -3.0, 0.2)

POSITIVE = VerdictStatus.ALMOST_CONVERGENT
NEGATIVE = VerdictStatus.NOT_ALMOST_CONVERGENT
INCONCLUSIVE = VerdictStatus.INCONCLUSIVE


@pytest.mark.parametrize("middle", [False, True], ids=["2-gaps", "3-gaps"])
@pytest.mark.parametrize("first, last, steady, status", [
    (0.5, TOL, True, POSITIVE),
    (0.5, np.nextafter(TOL, 1), True, INCONCLUSIVE),
    (0.5, 1e-9, False, INCONCLUSIVE),
    (EDGE, EDGE, True, NEGATIVE),
    (EDGE, np.nextafter(EDGE, 0), True, INCONCLUSIVE),
    (np.nextafter(EDGE, 0), 2 * EDGE, True, INCONCLUSIVE),
    (0.2, PERSISTENCE * 0.2, True, NEGATIVE),
    (0.2, np.nextafter(PERSISTENCE * 0.2, 0), True, INCONCLUSIVE),
    # steadiness is asked of a positive verdict only
    (0.2, 0.2, False, NEGATIVE),
], ids=["last-is-tol", "last-above-tol", "unsteady", "every-gap-is-10-tol",
        "last-below-10-tol", "first-below-10-tol", "last-is-0.9-first",
        "last-below-0.9-first", "unsteady-negative"])
def test_judge_at_its_edges(first, last, steady, status, middle):
    # a middle gap equal to the first changes nothing: the rule reads every
    # gap against 10*tol, and the last against the first
    gaps = (first, first, last) if middle else (first, last)
    v = judge(gaps, TOL, LIMIT, WITNESS, steady=steady, notes="n")
    assert v.status is status
    assert v.uncertainty == last and type(v.uncertainty) is float
    assert v.limit == (LIMIT if status is POSITIVE else None)
    assert v.witness == (WITNESS if status is NEGATIVE else None)
    assert v.notes == "n"


def test_judge_reads_every_middle_gap():
    assert judge((0.2, 0.2, 0.2), TOL, LIMIT, WITNESS).negative
    v = judge((0.2, np.nextafter(EDGE, 0), 0.2), TOL, LIMIT, WITNESS)
    assert v.status is INCONCLUSIVE and v.witness is None

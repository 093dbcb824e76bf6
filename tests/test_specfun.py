"""The special function of the eavesdropper rate: the scaled exponential integral e^t E1(t)."""

import math

import mpmath as mp
import pytest
from scipy import special as sc

from ris_secrecy.secrecy import e1_scaled


def test_e1_scaled_identity_and_large_argument():
    for t in (0.1, 0.7, 1.0, 4.0, 30.0):  # E1(t) = -Ei(-t)
        assert e1_scaled(t) * math.exp(-t) == pytest.approx(-float(sc.expi(-t)), rel=1e-11)
    for t in (0.2, 2.0, 80.0, 500.0):
        assert e1_scaled(t) == pytest.approx(float(sc.exp1(t) * math.exp(t)), rel=1e-10)
    # no overflow where e^t alone would blow up; leading asymptote 1/t
    assert e1_scaled(1e6) == pytest.approx(1e-6, rel=1e-5)


@pytest.mark.parametrize("t", [math.nan, 0.0, -1.0])
def test_e1_scaled_rejects_non_positive_and_nan(t):
    with pytest.raises(ValueError, match="t > 0"):
        e1_scaled(t)


def test_e1_scaled_edges():
    assert e1_scaled(math.inf) == 0.0
    # either side of the switch from scipy's exp1 to the asymptotic series
    with mp.workdps(40):
        for t in (math.nextafter(50.0, 0.0), 50.0):
            want = mp.exp(mp.mpf(t)) * mp.e1(mp.mpf(t))
            assert float(abs(e1_scaled(t) - want) / want) < 1e-15, t


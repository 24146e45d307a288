"""The 50-digit reference's P and P F against three references it shares no
code with: the twin-beam closed forms, the exact squeezed Bell map and the
covariance reference.  Each takes the source exponent S that the covariance
reference builds, as the kernel's checks against it do."""

import numpy as np
import pytest
from reference import covariance as cov
from reference import mpgauss
from reference.bell_map import bell_map
from test_covariance import bound, random_box, twin_beam_points

from sqbell import kernel
from sqbell.resources import SchemeConfig


def exact_pf(S, detector, eta3, eta4):
    """mpgauss's P and F of each source exponent, as floats."""
    P, F = [], []
    for s, e3, e4 in zip(S, np.broadcast_to(eta3, len(S)), np.broadcast_to(eta4, len(S))):
        _, p, pf, _ = mpgauss.scheme(s, detector, e3, e4)
        P.append(float(p))
        F.append(float(pf / p))
    return np.array(P), np.array(F)


@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_twin_beam_closed_forms(detector):
    # s = r up to 3.  Relative to P the error reaches 1.4e-13 near r = 3:
    # the float S, of entries up to cosh 6, carries it
    cfgs, P, F = twin_beam_points(detector)
    Pm, Fm = exact_pf(cov.exponent(cov.covariance_of(cfgs)), detector, 0.3, 0.7)
    assert np.max(np.abs(Pm - P)) <= 1e-13
    assert np.max(np.abs(Pm / P - 1.0)) <= 1e-12
    assert np.max(np.abs(Fm - F)) <= 1e-13


def test_ideal_lossless_points_match_the_bell_map():
    # T1 != T2 and s independent of r, at the squeezer phases pi
    rng = np.random.default_rng(47)
    n = 40
    r, s = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 1.0, n)
    T1, T2 = rng.uniform(0.5, 1.0, n), rng.uniform(0.5, 1.0, n)
    cfgs = [SchemeConfig(r=a, s=b, T1=c, T2=d) for a, b, c, d in zip(r, s, T1, T2)]
    Pm, Fm = exact_pf(cov.exponent(cov.covariance_of(cfgs)), "ideal", np.nan, np.nan)
    Pb, Fb, _, _ = bell_map(r, s, T1, T2)
    assert np.max(np.abs(Pm / Pb - 1.0)) <= 1e-12
    assert np.max(np.abs(Fm - Fb)) <= 1e-13


@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_random_box_matches_the_covariance_reference(detector):
    # every source field and both efficiencies free, r up to 3
    columns = random_box(128, seed=31)
    source, (eta3, eta4) = (columns[:len(kernel.SOURCE_FIELDS)],
                            columns[len(kernel.SOURCE_FIELDS):])
    V = cov.covariance(*source)
    P, F, scale = cov.scheme_pf(V, detector, eta3, eta4)
    Pm, Fm = exact_pf(cov.exponent(V), detector, eta3, eta4)
    tol = bound(P, scale, detector)
    assert np.all(np.abs(Pm / P - 1.0) <= tol)
    assert np.all(np.abs(Fm - F) <= tol)

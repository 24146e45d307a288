"""The kernel and the published datasets against the covariance reference.

`reference.covariance` shares no code with `sqbell`: it builds the source
covariance from symplectic matrices and reads heralding off the photon-number
generating function.  It proves every published scheme row at every r, and
the points the Fock oracle cannot reach: signal-only loss, thermal noise and
r up to 3.
"""

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from reference import covariance as cov
from test_acceptance import BETA_GRID_1, BETA_GRID_2

from sqbell import kernel
from sqbell.resources import SchemeConfig

DATA = Path(__file__).resolve().parent / "data" / "reproduce"
EPS = np.finfo(float).eps


def bound(P, scale, detector):
    """The relative error the reference can make in P, F and P chi: its
    terms are summed with 64 eps times the sum of their magnitudes, and
    for ideal projectors the FFT's aliasing adds at most RADIUS^GRID."""
    alias = cov.RADIUS ** cov.GRID if detector == "ideal" else 0.0
    return np.maximum(1e-10, (64.0 * EPS * scale + alias) / P)


def reference_pf(cfgs, detector, grid=cov.GRID):
    """The reference's P and F of each configuration."""
    P, F, _ = cov.scheme_pf(cov.covariance_of(cfgs), detector,
                            [c.eta3 for c in cfgs], [c.eta4 for c in cfgs], grid)
    return P, F


def printed_from(printed, value, digits=6):
    """Whether each printed number is `value` to `digits` significant
    digits: within half a unit of the last digit, plus a relative 1e-9, so
    that a value on a rounding boundary may round either way."""
    value = np.asarray(value, dtype=float)
    unit = 10.0 ** (np.floor(np.log10(np.abs(value))) - (digits - 1))
    return np.abs(np.asarray(printed, dtype=float) - value) <= 0.5 * unit + 1e-9 * np.abs(value)


def load(name):
    """The rows of a published dataset and its sidecar."""
    with open(DATA / f"{name}.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    return rows, json.loads((DATA / f"{name}.config.json").read_text())


def assert_rows(cfgs, detector, rows):
    """Each row's printed fidelity, and success probability where it has
    the column, is the reference's at its configuration."""
    P, F = reference_pf(cfgs, detector)
    for column, value in (("fidelity", F), ("success_prob", P)):
        if column in rows[0]:
            printed = [float(row[column]) for row in rows]
            bad = ~printed_from(printed, value)
            assert not bad.any(), [(cfg, row) for cfg, row, b in zip(cfgs, rows, bad) if b]


# ---------------------------------------------------------------------------
# every published scheme row
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fig3", "fig6"])
def test_published_s_sweeps(name):
    # one series per r, with s on the CLI's grid of equal steps from 0 to r
    rows, sidecar = load(name)
    cfgs, ordered = [], []
    for r in sidecar["r_values"]:
        series = [row for row in rows if row["series"] == f"r={r}"]
        grid = np.linspace(0.0, r, len(series))
        assert float(series[0]["s"]) == 0.0
        assert printed_from([float(row["s"]) for row in series[1:]], grid[1:]).all()
        cfgs += [SchemeConfig(r=r, s=float(s), T_loss=1.0 - sidecar["loss"]) for s in grid]
        ordered += series
    assert len(ordered) == len(rows) > 400
    assert_rows(cfgs, sidecar["detector"], ordered)


def test_published_table2():
    rows, sidecar = load("table2")
    base = SchemeConfig(**sidecar["config"])
    cfgs = [base.with_(r=float(row["r"]), s=float(row["s_star"])) for row in rows]
    assert_rows(cfgs, sidecar["detector"], rows)


def test_published_fig7():
    # the s column holds each row's s: s* (optimized), 0 or r
    rows, sidecar = load("fig7")
    base = SchemeConfig(**sidecar["config"])
    cfgs = [base.with_(T_loss=1.0 - float(row["loss"]), s=float(row["s"])) for row in rows]
    assert {row["series"] for row in rows} == {"optimized", "s=0", "s=r"}
    assert_rows(cfgs, sidecar["detector"], rows)


def max_fidelity(cfgs, detector):
    """The reference's maximum of F over s in [0, r]: a grid of 21 points,
    then golden section on the bracket around its best point down to a
    width of 1e-7.  The search takes the FFT on 16 x 16 points, which only
    has to locate the maximum; F there is taken on the full grid."""
    r = np.array([c.r for c in cfgs])

    def F(s, grid=16):
        """F at s, shape (n, k): row i holds the s of configuration i."""
        points = [c.with_(s=float(x)) for c, row in zip(cfgs, s) for x in row]
        return reference_pf(points, detector, grid)[1].reshape(s.shape)

    coarse = r[:, None] * np.linspace(0.0, 1.0, 21)
    f_coarse = F(coarse)
    best = np.argmax(f_coarse, axis=1)
    at = np.arange(len(cfgs))
    a, b = coarse[at, np.maximum(best - 1, 0)], coarse[at, np.minimum(best + 1, 20)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = F(np.stack([c, d], 1)).T
    while np.max(b - a) > 1e-7:
        left = fc > fd  # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, b - g * (b - a), d), np.where(left, c, a + g * (b - a))
        new = F(np.where(left, c, d)[:, None])[:, 0]
        fc, fd = np.where(left, new, fd), np.where(left, fc, new)
    middle = (a + b) / 2.0
    s = np.where(F(middle[:, None])[:, 0] >= f_coarse[at, best], middle, coarse[at, best])
    return F(s[:, None], cov.GRID)[:, 0]


@pytest.mark.parametrize("name", ["fig4", "fig5"])
def test_published_scheme_curves(name):
    # scheme-s0 at s = 0; scheme-optimized prints no s*, so its F is held
    # to the reference's own maximum over s
    rows, sidecar = load(name)
    base = SchemeConfig(r=1.0)
    plain = [row for row in rows if row["series"] == "scheme-s0"]
    best = [row for row in rows if row["series"] == "scheme-optimized"]
    assert len(plain) == len(best) == len(sidecar["r_grid"])
    assert_rows([base.with_(r=float(row["r"])) for row in plain], sidecar["detector"], plain)
    F = max_fidelity([base.with_(r=float(row["r"])) for row in best], sidecar["detector"])
    bad = ~printed_from([float(row["fidelity"]) for row in best], F)
    assert not bad.any(), [(row, f) for row, f, x in zip(best, F, bad) if x]


# ---------------------------------------------------------------------------
# the kernel in a random box, and at closed forms
# ---------------------------------------------------------------------------


def random_box(n, seed):
    """Parameter columns (kernel.COLUMN_FIELDS rows) of n seeded points:
    r up to 3 and s up to r, any phases, T1 != T2, eta3 != eta4, loss down
    to 0.5 on every mode or on the signal modes only, n_thermal up to 1."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 3.0, n)
    fields = {
        "r": r, "s": r * rng.uniform(0.0, 1.0, n),
        "phi_zeta": rng.uniform(0.0, 2 * np.pi, n), "phi_xi": rng.uniform(0.0, 2 * np.pi, n),
        "T1": rng.uniform(0.5, 1.0, n), "T2": rng.uniform(0.5, 1.0, n),
        "T_loss": rng.uniform(0.5, 1.0, n), "n_thermal": rng.uniform(0.0, 1.0, n),
        "loss_on_detector_modes": rng.integers(0, 2, n),
        "eta3": rng.uniform(0.05, 1.0, n), "eta4": rng.uniform(0.05, 1.0, n),
    }
    return np.array([fields[f] for f in kernel.COLUMN_FIELDS], dtype=float)


@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_random_box_matches_kernel(detector):
    # signal-only loss and thermal noise included, which the Fock oracle
    # refuses, at r up to 3, beyond its reach
    columns = random_box(128, seed=31)
    row = dict(zip(kernel.COLUMN_FIELDS, columns))
    assert np.all(row["T1"] != row["T2"]) and np.all(row["eta3"] != row["eta4"])
    assert 0 < np.sum(row["loss_on_detector_modes"]) < len(columns[0])
    P, F, scale = cov.scheme_pf(cov.covariance(*columns[:len(kernel.SOURCE_FIELDS)]),
                                detector, row["eta3"], row["eta4"])
    Pk, Fk, status = kernel.columns_pf(columns, detector)
    assert np.all(status == kernel.OK)
    tol = bound(P, scale, detector)
    assert np.all(np.abs(Pk / P - 1.0) <= tol)
    assert np.all(np.abs(Fk - F) <= tol)


@pytest.mark.filterwarnings("ignore::sqbell.kernel.LossyProjectorWarning")
@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_heralded_chi_matches_kernel(detector):
    # the heralded P chi on criterion 6's amplitudes, where the Fock oracle
    # once checked signal-only loss, with thermal noise on either set of
    # modes, and on the random box up to r = 3, where the on/off sum must
    # not cancel the large x3 x4 of the Gaussian terms
    cfgs = [SchemeConfig(r=0.6, s=0.01, T_loss=0.85, loss_on_detector_modes=False),
            SchemeConfig(r=0.5, s=0.02, T_loss=0.85, loss_on_detector_modes=False),
            SchemeConfig(r=0.8, s=0.05, T1=0.9, T2=0.95, T_loss=0.9, n_thermal=0.3,
                         eta3=0.3, eta4=0.2),
            SchemeConfig(r=0.8, s=0.05, T_loss=0.9, n_thermal=0.3,
                         loss_on_detector_modes=False)]
    columns = np.concatenate([kernel.columns_of(cfgs), random_box(128, seed=31)], axis=1)
    source, etas = columns[:len(kernel.SOURCE_FIELDS)], columns[len(kernel.SOURCE_FIELDS):]
    b1, b2 = np.array(list(itertools.product(BETA_GRID_1, BETA_GRID_2))).T
    V = cov.covariance(*source)
    P, _, scale = cov.scheme_pf(V, detector, *etas)
    chi = cov.heralded_chi(V, detector, b1, b2, *etas)
    chi_k = kernel.heralded_chi(kernel.source_exponents(source), detector, *etas)(b1, b2)
    assert np.all(np.abs(chi_k - chi) <= (bound(P, scale, detector) * P)[:, None])


def twin_beam_points(detector):
    """s = r without loss at several T1 = T2: the mixing takes the pair of
    equal twin beams to itself, so the signal is S(r)|0,0> and the
    ancillas its twin.  Returns the configurations and their P and F in
    closed form: F = 1/(1 + e^-2r); P that of a twin beam's photon pair, for
    on/off detectors the inclusion-exclusion of its no-click probabilities
    1/(1 + eta sinh^2 r) and sech^2 r / (1 - tanh^2 r (1 - eta3)(1 - eta4))."""
    r, T = (x.reshape(-1) for x in np.meshgrid(np.linspace(0.1, 3.0, 30), [0.5, 0.9, 0.99]))
    cfgs = [SchemeConfig(r=float(x), s=float(x), T1=float(t), T2=float(t), eta3=0.3, eta4=0.7)
            for x, t in zip(r, T)]
    sh2, th2 = np.sinh(r) ** 2, np.tanh(r) ** 2
    if detector == "ideal":
        P = th2 / np.cosh(r) ** 2
    else:
        P = (1.0 - 1.0 / (1.0 + 0.3 * sh2) - 1.0 / (1.0 + 0.7 * sh2)
             + 1.0 / np.cosh(r) ** 2 / (1.0 - th2 * 0.7 * 0.3))
    return cfgs, P, 1.0 / (1.0 + np.exp(-2.0 * r))


@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_twin_beam_closed_forms(detector):
    cfgs, P, F = twin_beam_points(detector)
    ref_P, ref_F, scale = cov.scheme_pf(cov.covariance_of(cfgs), detector, 0.3, 0.7)
    tol = bound(ref_P, scale, detector)
    assert np.all(np.abs(ref_P / P - 1.0) <= tol)
    assert np.all(np.abs(ref_F - F) <= tol)
    Pk, Fk, status = kernel.columns_pf(kernel.columns_of(cfgs), detector)
    assert np.all(status == kernel.OK)
    assert np.max(np.abs(Pk / P - 1.0)) <= 1e-12
    assert np.max(np.abs(Fk - F)) <= 1e-12

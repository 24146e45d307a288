"""The kernel and the published ideal rows against the exact squeezed Bell map.

`reference.bell_map` shares no code with `sqbell`: at the squeezer phases pi
the ideal lossless scheme heralds S(r_eff)[cos d|0,0> + sin d|1,1>] exactly,
with P and F in closed form.  Four of the six published datasets are ideal
and lossless; their printed digits are held to it here.
"""

import csv
from pathlib import Path

import numpy as np
from reference.bell_map import bell_map

from sqbell import kernel
from sqbell.resources import SchemeConfig

DATA = Path(__file__).resolve().parent / "data" / "reproduce"
# the transmissivity of the published ideal rows
T = SchemeConfig(r=1.0).T1


def rows_of(name, series=None):
    """The rows of a published dataset, those of one series if given."""
    with open(DATA / f"{name}.csv", newline="") as f:
        return [row for row in csv.DictReader(f) if series in (None, row.get("series"))]


def printed(values):
    return [format(float(v), ".6g") for v in values]


def test_random_box_matches_kernel():
    # T1 != T2, which the small-mixing delta_equivalent refuses
    rng = np.random.default_rng(43)
    n = 240
    r, s = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 1.0, n)
    T1, T2 = rng.uniform(0.5, 1.0, n), rng.uniform(0.5, 1.0, n)
    assert np.all(T1 != T2)
    cfgs = [SchemeConfig(r=a, s=b, T1=c, T2=d) for a, b, c, d in zip(r, s, T1, T2)]
    P, F, status = kernel.columns_pf(kernel.columns_of(cfgs), "ideal")
    ok = status == kernel.OK
    assert ok.sum() >= 200
    Pb, Fb, _, _ = bell_map(r, s, T1, T2)
    assert np.max(np.abs(P[ok] / Pb[ok] - 1.0)) <= 1e-12
    assert np.max(np.abs(F[ok] - Fb[ok])) <= 1e-13


def test_published_table2():
    # F at each printed s*
    rows = rows_of("table2")
    r, s = (np.array([float(row[k]) for row in rows]) for k in ("r", "s_star"))
    assert len(rows) == 8
    assert printed(bell_map(r, s, T, T)[1]) == [row["fidelity"] for row in rows]


def test_published_fig3():
    # F and P on the builder's grid of s, not at the printed s
    rows = rows_of("fig3")
    r = np.array([float(row["series"].removeprefix("r=")) for row in rows])
    s = np.concatenate([np.linspace(0.0, v, 61) for v in dict.fromkeys(r)])
    P, F, _, _ = bell_map(r, s, T, T)
    assert len(rows) == 8 * 61
    assert printed(F) == [row["fidelity"] for row in rows]
    assert printed(P) == [row["success_prob"] for row in rows]


def test_published_scheme_s0_curves():
    for name in ("fig4", "fig5"):
        rows = rows_of(name, "scheme-s0")
        r = np.array([float(row["r"]) for row in rows])
        assert len(rows) > 20
        assert printed(bell_map(r, 0.0, T, T)[1]) == [row["fidelity"] for row in rows]

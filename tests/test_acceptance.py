"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines as
they are produced).  Tolerances are pinned here, not configurable.
"""

import itertools
import time
import warnings

import numpy as np

from sqbell import fock_sim as fs
from sqbell import resources as rs
from sqbell import teleport as tp
from sqbell.conditioning import LossyProjectorWarning
from sqbell.optimize import optimize_delta, optimize_s
from sqbell.symplectic import SqueezeParam, loss_channel, two_mode_squeezed_char

TABLE2 = {0.6: 0.00057, 0.8: 0.0046, 1.0: 0.011, 1.2: 0.022,
          1.4: 0.036, 1.6: 0.056, 1.8: 0.082, 2.0: 0.12}

BETA_GRID_1 = (0.0, 0.35, 0.35j, -0.25 + 0.2j, 0.45 - 0.3j)
BETA_GRID_2 = (0.0, -0.3, 0.25j, 0.3 + 0.25j, -0.2 - 0.35j)

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(48)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, detail


def oracle_fidelity(rho: fs.FockDensity) -> float:
    """Gauss-Hermite quadrature of the fidelity over the oracle's chi."""
    U, V = np.meshgrid(_GH_NODES, _GH_NODES)
    lam = (U + 1j * V).ravel()
    chi = fs.char_function_batch(rho, -np.conj(lam), -lam)
    return float((np.outer(_GH_WEIGHTS, _GH_WEIGHTS).ravel() @ chi).real / np.pi)


def test_criterion_1_twin_beam_anchor():
    t0 = time.time()
    f16 = tp.fidelity_closed_form(rs.theoretical_state("twin-beam", 1.6))
    anchor_ok = abs(f16 - 0.961) <= 1e-3
    worst = 0.0
    for r in np.arange(0.0, 2.51, 0.1):
        f = tp.fidelity_closed_form(rs.theoretical_state("twin-beam", float(r)))
        worst = max(worst, abs(f - 1.0 / (1.0 + np.exp(-2.0 * r))))
    elapsed = time.time() - t0
    report(1, anchor_ok and worst <= 1e-9 and elapsed < 1.0,
           f"twin-beam F(1.6)={f16:.6f} (target 0.961+-0.001), "
           f"closed-form max dev {worst:.2e} (<=1e-9), {elapsed:.2f}s (<1s)")


def test_criterion_2_r16_cluster():
    t0 = time.time()
    sb = optimize_delta(1.6)
    ps = tp.fidelity_closed_form(rs.theoretical_state("photon-subtracted", 1.6))
    scheme = optimize_s(rs.SchemeConfig(r=1.6), "ideal")
    elapsed = time.time() - t0
    ok = (abs(sb.f_star - 0.977) <= 2e-3
          and abs(ps - 0.965) <= 2e-3
          and abs(scheme.f_star - 0.974) <= 2e-3
          and abs(scheme.s_star - 0.056) <= 5e-3
          and elapsed < 30.0)
    report(2, ok,
           f"squeezed-Bell opt {sb.f_star:.4f} (0.977+-0.002), "
           f"photon-subtracted {ps:.4f} (0.965+-0.002), "
           f"scheme opt {scheme.f_star:.4f} (0.974+-0.002) "
           f"at s*={scheme.s_star:.4f} (0.056+-0.005), {elapsed:.1f}s (<30s)")


def test_criterion_3_table2_regression():
    t0 = time.time()
    failures = []
    for r, s_paper in TABLE2.items():
        res = optimize_s(rs.SchemeConfig(r=r), "ideal")
        tol = max(0.1 * s_paper, 0.002)
        if abs(res.s_star - s_paper) <= tol:
            continue
        # flatness escape: the paper's point must be as good as ours to 1e-3
        f_paper = tp.fidelity_closed_form(
            rs.scheme_state(rs.SchemeConfig(r=r, s=s_paper), "ideal"))
        if abs(f_paper - res.f_star) > 1e-3:
            failures.append((r, res.s_star, s_paper))
    elapsed = time.time() - t0
    report(3, not failures and elapsed < 300.0,
           f"8 rows, s* within max(10%, 0.002) or flat to 1e-3; "
           f"failures={failures}, {elapsed:.1f}s (<300s)")


def test_criterion_4_effective_squeezing_anchor():
    t0 = time.time()
    r_eff = rs.effective_squeezing(2.0, 0.85)
    db = rs.squeezing_db(r_eff)
    elapsed = time.time() - t0
    report(4, abs(r_eff - 0.899) <= 1e-3 and abs(db - 7.81) <= 0.01,
           f"r'={r_eff:.4f} (0.899+-0.001), {db:.2f} dB (7.81), "
           f"{elapsed:.3f}s")


def test_criterion_5_realistic_loss_sweep():
    t0 = time.time()
    base = rs.SchemeConfig(r=1.6, eta3=0.15, eta4=0.15)
    dominance, s_stars = [], []
    for ell in np.arange(0.0, 0.301, 0.02):
        cfg = base.with_(T_loss=round(1.0 - float(ell), 12))
        res = optimize_s(cfg, "on-off")
        f0 = tp.fidelity_closed_form(rs.scheme_state(cfg.with_(s=0.0), "on-off"))
        fr = tp.fidelity_closed_form(rs.scheme_state(cfg.with_(s=cfg.r), "on-off"))
        dominance.append(res.f_star > max(f0, fr))
        s_stars.append(res.s_star)
    elapsed = time.time() - t0
    in_band = all(0.043 <= s <= 0.055 for s in s_stars)
    report(5, all(dominance) and in_band and elapsed < 600.0,
           f"optimized strictly dominates s=0 and s=r at all 16 loss points: "
           f"{all(dominance)}; s* in [{min(s_stars):.4f}, {max(s_stars):.4f}] "
           f"(required within [0.043, 0.055]), {elapsed:.1f}s (<600s)")


def _oracle_configs():
    """12 configurations spanning families x detectors x loss at r <= 0.8."""
    theory = [
        ("twin-beam", dict(r=0.8)),
        ("photon-subtracted", dict(r=0.7)),
        ("photon-added", dict(r=0.6)),
        ("squeezed-number", dict(r=0.5)),
        ("squeezed-bell", dict(r=0.8, delta=0.6)),
    ]
    scheme = [
        ("ideal", rs.SchemeConfig(r=0.6, s=0.01)),
        ("ideal", rs.SchemeConfig(r=0.8, s=0.005, T1=0.995, T2=0.995)),
        ("ideal", rs.SchemeConfig(r=0.6, s=0.01, T_loss=0.85)),
        ("on-off", rs.SchemeConfig(r=0.6, s=0.01)),
        ("on-off", rs.SchemeConfig(r=0.8, s=0.05, eta3=0.3, eta4=0.2)),
        ("on-off", rs.SchemeConfig(r=0.6, s=0.01, T_loss=0.85)),
        ("on-off", rs.SchemeConfig(r=0.8, s=0.02, T_loss=0.85)),
    ]
    return theory, scheme


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    theory, scheme = _oracle_configs()
    grid = list(itertools.product(BETA_GRID_1, BETA_GRID_2))
    worst_chi, worst_fid, n_cfg = 0.0, 0.0, 0

    def check(chi_values, state):
        nonlocal worst_chi
        for (b1, b2), chi_o in zip(grid, chi_values):
            dev = abs(chi_o - state.chi_at(b1, b2))
            worst_chi = max(worst_chi, dev)

    for family, kw in theory:
        state = rs.theoretical_state(family, kw["r"], kw.get("delta"))
        # number-seeded families leak ~1e-7 at the pinned cutoff; that is an
        # order below the 1e-6 chi tolerance being asserted
        oracle = fs.theoretical_oracle(family, kw["r"], kw.get("delta"),
                                       cutoff=25, leak_tol=1e-6)
        check([fs.char_function_state(oracle, b1, b2) for b1, b2 in grid], state)
        pure = np.outer(oracle.amps.reshape(-1), oracle.amps.conj().reshape(-1))
        rho = fs.FockDensity(oracle.cutoffs, pure)
        dev = abs(oracle_fidelity(rho) - tp.fidelity_closed_form(state))
        worst_fid = max(worst_fid, dev)
        n_cfg += 1

    for detector, cfg in scheme:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LossyProjectorWarning)
            state = rs.scheme_state(cfg, detector)
            rho, succ = fs.scheme_oracle(cfg, detector, cutoff=25)
        check(fs.char_function_batch(
            rho, np.array([b1 for b1, _ in grid]),
            np.array([b2 for _, b2 in grid])), state)
        dev = abs(oracle_fidelity(rho) - tp.fidelity_closed_form(state))
        worst_fid = max(worst_fid, dev)
        n_cfg += 1

    elapsed = time.time() - t0
    report(6, n_cfg == 12 and worst_chi <= 1e-6 and worst_fid <= 1e-5
           and elapsed < 600.0,
           f"{n_cfg} configs: max |chi| dev {worst_chi:.2e} (<=1e-6) on 5x5 "
           f"grid, max fidelity dev {worst_fid:.2e} (<=1e-5), "
           f"{elapsed:.1f}s (<600s)")


def test_criterion_7_property_suite():
    t0 = time.time()
    checks = {}

    # Bogoliubov identity on a deep truncated interior
    r, dim, inner = 0.5, 36, 6
    U = fs.two_mode_squeeze_operator(SqueezeParam(r, np.pi), (dim, dim)).toarray()
    a = fs.annihilator(dim)
    lhs = U.conj().T @ np.kron(a, np.eye(dim)) @ U
    rhs = (np.cosh(r) * np.kron(a, np.eye(dim))
           + np.sinh(r) * np.kron(np.eye(dim), a.conj().T))
    dev = np.abs(lhs - rhs).reshape(dim, dim, dim, dim)
    checks["bogoliubov"] = dev[:inner, :inner, :inner, :inner].max() < 1e-9

    # chi(0) = 1 and Hermitian symmetry for every family
    rng = np.random.default_rng(123)
    sym_ok = True
    states = [rs.theoretical_state(f, 0.8, 0.7 if f == "squeezed-bell" else None)
              for f in rs.THEORETICAL_FAMILIES]
    states.append(rs.scheme_state(rs.SchemeConfig(r=0.8, s=0.01), "ideal"))
    states.append(rs.scheme_state(
        rs.SchemeConfig(r=0.8, s=0.01, T_loss=0.9), "on-off"))
    for state in states:
        sym_ok &= abs(state.chi_at(0, 0) - 1.0) < 1e-10
        for _ in range(8):
            b1 = complex(*rng.normal(size=2)) * 0.5
            b2 = complex(*rng.normal(size=2)) * 0.5
            sym_ok &= abs(state.chi_at(-np.conj(b1), -np.conj(b2))
                          - np.conj(state.chi_at(b1, b2))) < 1e-10
    checks["chi0_hermitian"] = sym_ok

    # input-amplitude independence of the fidelity
    state = rs.theoretical_state("photon-subtracted", 0.8)
    alphas = [0.0, 1.0 + 2.0j, -0.7 + 0.3j, 0.5j, 1.5]
    values = [tp.fidelity_alpha_explicit(state, al) for al in alphas]
    checks["alpha_independent"] = max(values) - min(values) <= 1e-7

    # zero-angle squeezed Bell state is the twin beam
    sb0 = rs.theoretical_state("squeezed-bell", 1.1, 0.0)
    tb = rs.theoretical_state("twin-beam", 1.1)
    dev = max(abs(sb0.chi_at(b1, b2) - tb.chi_at(b1, b2))
              for b1, b2 in itertools.product(BETA_GRID_1, BETA_GRID_2))
    checks["bell_zero_is_twin_beam"] = dev < 1e-10

    # full transmissivity is the identity channel
    chi = two_mode_squeezed_char(SqueezeParam(1.2, np.pi))
    checks["lossless_identity"] = np.allclose(
        loss_channel(chi, 0, 1.0).exponent, chi.exponent)

    # sweep endpoints: s = r is exactly the twin beam; s = 0 approximates the
    # photon-subtracted fidelity to the mixing accuracy
    cfg = rs.SchemeConfig(r=1.0)
    f_sr = tp.fidelity_closed_form(rs.scheme_state(cfg.with_(s=1.0), "ideal"))
    checks["endpoint_s_eq_r"] = abs(f_sr - tp.twin_beam_fidelity(1.0)) < 1e-9
    f_s0 = tp.fidelity_closed_form(rs.scheme_state(cfg.with_(s=0.0), "ideal"))
    f_ps = tp.fidelity_closed_form(rs.theoretical_state("photon-subtracted", 1.0))
    checks["endpoint_s_eq_0"] = abs(f_s0 - f_ps) < 5e-3

    elapsed = time.time() - t0
    failed = [k for k, ok in checks.items() if not ok]
    report(7, not failed and elapsed < 300.0,
           f"properties {sorted(checks)} all hold; failed={failed}, "
           f"{elapsed:.1f}s (<300s)")

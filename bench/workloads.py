"""The benchmark's three workloads: inputs, one timed round, and checks.

Each workload provides ``inputs(sq, seed, workdir)``, built during set-up;
``round(sq, inputs, span, clock)``, the timed work, returning its outputs;
and ``check(sq, inputs, out)``, returning a list of problems found in the
outputs.  ``clock.op(units)`` times one operation, or one call covering
`units` operations.  ``span(name)`` opens a trace span around a call the
benchmark itself makes into a layer, or does nothing when tracing is off.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import warnings
from pathlib import Path

import numpy as np

import reference as ref

# ---------------------------------------------------------------------------
# datasets: the six published datasets through the CLI
# ---------------------------------------------------------------------------

TARGETS = ("table2", "fig3", "fig4", "fig5", "fig6", "fig7")
FIG_S_POINTS = 61  # s grid of fig3 and fig6: linspace(0, r, 61)
FIG6_T_LOSS = 0.85
FIG7_R = 1.6
SCHEME_T = 0.99
SCHEME_ETA = 0.15


def datasets_inputs(sq, seed: int, workdir: Path) -> dict:
    """The published datasets are fixed; the seed selects nothing here."""
    return {"outdir": workdir / "datasets"}


def datasets_round(sq, inputs: dict, span, clock) -> dict:
    failed = 0
    for target in TARGETS:
        with clock.op(), span("cli.reproduce"):
            code = sq.cli.main(["reproduce", target, "--outdir", str(inputs["outdir"])])
        failed += code != 0
    return {"attempted": len(TARGETS), "failed": failed}


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _by_series(rows: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for row in rows:
        out.setdefault(row["series"], []).append(row)
    return out


def _check_s_grid(name: str, series: str, rows: list[dict],
                  problems: list[str]) -> tuple[float, np.ndarray]:
    """Recover r and the exact s grid of a fig3/fig6 series."""
    r = float(series.removeprefix("r="))
    grid = np.linspace(0.0, r, FIG_S_POINTS)
    if len(rows) != FIG_S_POINTS:
        problems.append(f"{name} {series}: {len(rows)} rows, expected {FIG_S_POINTS}")
    for row, s in zip(rows, grid):
        if not ref.same_to_digits(float(row["s"]), s):
            problems.append(f"{name} {series}: s={row['s']} is not the grid value {s}")
    return r, grid


def datasets_check(sq, inputs: dict, out: dict) -> list[str]:
    outdir = inputs["outdir"]
    problems: list[str] = []
    tables = {t: _read_csv(outdir / f"{t}.csv") for t in TARGETS}
    out["rows"] = sum(len(rows) for rows in tables.values())

    for name, rows in tables.items():
        for row in rows:
            if row.get("error"):
                problems.append(f"{name}: error column holds {row['error']!r}")
            if row.get("fidelity") == "":
                problems.append(f"{name}: empty fidelity in {row}")

    # criterion 3: s* within max(10 %, 0.002) of the paper, or the paper's s
    # as good as the optimum to 1e-3
    for row in tables["table2"]:
        r, s_star, f_star = float(row["r"]), float(row["s_star"]), float(row["fidelity"])
        if ref.table2_s_within(r, s_star):
            continue
        cfg = sq.resources.SchemeConfig(r=r, s=ref.TABLE2_S_STAR[r])
        f_paper = sq.teleport.fidelity_closed_form(sq.resources.scheme_state(cfg, "ideal"))
        if abs(f_paper - f_star) > 1e-3:
            problems.append(f"table2 r={r}: s*={s_star} vs paper {ref.TABLE2_S_STAR[r]}")

    # s = r turns the scheme into the twin beam
    for series, rows in _by_series(tables["fig3"]).items():
        r, _ = _check_s_grid("fig3", series, rows, problems)
        f = float(rows[-1]["fidelity"])
        if not ref.same_to_digits(f, ref.twin_beam_fidelity(r)):
            problems.append(f"fig3 {series}: F(s=r)={f} is not the twin beam")

    for name in ("fig4", "fig5"):
        series = _by_series(tables[name])
        for row in series["theory-twin-beam"]:
            r, f = float(row["r"]), float(row["fidelity"])
            if not ref.same_to_digits(f, ref.twin_beam_fidelity(r)):
                problems.append(f"{name} twin beam r={r}: F={f}")
        cluster = {
            "scheme": series["scheme-optimized"],
            "squeezed-bell": series["theory-squeezed-bell-opt"],
            "photon-subtracted": series["theory-photon-subtracted"],
        }
        for key, rows in cluster.items():
            at = [float(row["fidelity"]) for row in rows if float(row["r"]) == ref.R16]
            if len(at) != 1 or abs(at[0] - ref.R16_FIDELITY[key]) > ref.R16_TOL:
                problems.append(f"{name} {key} at r=1.6: {at} vs {ref.R16_FIDELITY[key]}")

    # fig6: lossy on/off sweep against the covariance-matrix reference
    for series, rows in _by_series(tables["fig6"]).items():
        r, grid = _check_s_grid("fig6", series, rows, problems)
        for row, s in zip(rows, grid):
            P, F = ref.onoff_reference(r, float(s), SCHEME_T, SCHEME_T, FIG6_T_LOSS,
                                       SCHEME_ETA, SCHEME_ETA)
            if not (ref.same_to_digits(float(row["success_prob"]), P)
                    and ref.same_to_digits(float(row["fidelity"]), F)):
                problems.append(f"fig6 {series} s={s}: (P, F)=({row['success_prob']},"
                                f" {row['fidelity']}) vs reference ({P:.6g}, {F:.6g})")

    # fig7: the optimum strictly beats both endpoints, inside the paper's band
    by_loss: dict[str, dict[str, dict]] = {}
    for row in tables["fig7"]:
        by_loss.setdefault(row["loss"], {})[row["series"]] = row
    lo, hi = ref.FIG7_S_STAR_BAND
    for loss, group in by_loss.items():
        T_loss = 1.0 - float(loss)
        f_opt, s_opt = float(group["optimized"]["fidelity"]), float(group["optimized"]["s"])
        ends = [float(group[k]["fidelity"]) for k in ("s=0", "s=r")]
        if not (f_opt > max(ends) and lo <= s_opt <= hi):
            problems.append(f"fig7 loss={loss}: optimum ({s_opt}, {f_opt}) vs ends {ends}")
        for s, f in ((0.0, ends[0]), (FIG7_R, ends[1])):
            F = ref.onoff_reference(FIG7_R, s, SCHEME_T, SCHEME_T, T_loss,
                                    SCHEME_ETA, SCHEME_ETA)[1]
            if not ref.same_to_digits(f, F):
                problems.append(f"fig7 loss={loss} s={s}: F={f} vs reference {F:.6g}")
        F = ref.onoff_reference(FIG7_R, s_opt, SCHEME_T, SCHEME_T, T_loss,
                                SCHEME_ETA, SCHEME_ETA)[1]
        if abs(F - f_opt) > 1e-6:
            problems.append(f"fig7 loss={loss}: F(s*)={f_opt} vs reference {F:.6g}")

    out["digests"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(outdir.iterdir())}
    return problems


# ---------------------------------------------------------------------------
# onoff-grid: seeded on/off configurations swept along s
# ---------------------------------------------------------------------------

ONOFF_CONFIGS = 8
ONOFF_POINTS = 41
# ranges keep the heralding probability far above the cancellation error of
# the four-term inclusion-exclusion (no point is degenerate)
ONOFF_RANGES = {"r": (0.5, 1.8), "loss": (0.0, 0.3), "eta": (0.1, 0.6),
                "T": (0.9, 0.99)}
ONOFF_P_RTOL = 1e-8
ONOFF_F_ATOL = 1e-8


def onoff_inputs(sq, seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(ONOFF_CONFIGS):
        d = {k: float(rng.uniform(*span)) for k, span in ONOFF_RANGES.items()}
        base = sq.resources.SchemeConfig(
            r=d["r"], T1=d["T"], T2=d["T"], T_loss=1.0 - d["loss"],
            eta3=d["eta"], eta4=d["eta"])
        grid = tuple(np.linspace(0.0, d["r"], ONOFF_POINTS))
        specs.append(sq.optimize.SweepSpec(base=base, axis="s", grid=grid,
                                           detector="on-off"))
    return {"specs": specs}


def onoff_round(sq, inputs: dict, span, clock) -> dict:
    """One operation is one sweep point; its time is the sweep's time per
    point, since a sweep evaluates its points in one call."""
    rows = []
    for spec in inputs["specs"]:
        with clock.op(len(spec.grid)):
            rows.append(sq.optimize.sweep(spec))
    n = sum(len(got) for got in rows)
    failed = sum(row.error is not None for got in rows for row in got)
    return {"attempted": n, "failed": failed, "sweeps": rows}


def onoff_check(sq, inputs: dict, out: dict) -> list[str]:
    problems = []
    for spec, rows in zip(inputs["specs"], out.pop("sweeps")):
        b = spec.base
        if [row.value for row in rows] != list(spec.grid):
            problems.append(f"sweep r={b.r}: rows do not follow the grid")
        for row in rows:
            if row.error is not None:
                continue  # counted in `failed`
            P, F = ref.onoff_reference(b.r, row.value, b.T1, b.T2, b.T_loss,
                                       b.eta3, b.eta4)
            if (abs(row.success_prob - P) > ONOFF_P_RTOL * P
                    or abs(row.fidelity - F) > ONOFF_F_ATOL):
                problems.append(f"r={b.r} s={row.value}: (P, F)=({row.success_prob},"
                                f" {row.fidelity}) vs reference ({P}, {F})")
    return problems


# ---------------------------------------------------------------------------
# crosscheck: the twelve oracle configurations of acceptance criterion 6
# ---------------------------------------------------------------------------

THEORY_CONFIGS = (
    ("twin-beam", 0.8, None),
    ("photon-subtracted", 0.7, None),
    ("photon-added", 0.6, None),
    ("squeezed-number", 0.5, None),
    ("squeezed-bell", 0.8, 0.6),
)
SCHEME_CONFIGS = (
    ("ideal", dict(r=0.6, s=0.01)),
    ("ideal", dict(r=0.8, s=0.005, T1=0.995, T2=0.995)),
    ("ideal", dict(r=0.6, s=0.01, T_loss=0.85)),
    ("on-off", dict(r=0.6, s=0.01)),
    ("on-off", dict(r=0.8, s=0.05, eta3=0.3, eta4=0.2)),
    ("on-off", dict(r=0.6, s=0.01, T_loss=0.85)),
    ("on-off", dict(r=0.8, s=0.02, T_loss=0.85)),
)
BETA_GRID_1 = (0.0, 0.35, 0.35j, -0.25 + 0.2j, 0.45 - 0.3j)
BETA_GRID_2 = (0.0, -0.3, 0.25j, 0.3 + 0.25j, -0.2 - 0.35j)
# At cutoff 22 the squeezed-Bell oracle (r = 0.8, delta = 0.6) is 1.3e-5 off
# the closed-form fidelity, beyond the 1e-5 tolerance; 25 clears it.
ORACLE_CUTOFF = 25
THEORY_LEAK_TOL = 1e-6  # number-seeded families leak ~1e-7 at this cutoff
CHI_TOL = 1e-6
FIDELITY_TOL = 1e-5
SUCCESS_RTOL = 1e-6
QUADRATURE_TOL = 1e-9  # epsabs = epsrel of teleport.fidelity_quadrature
GH_ORDER = 48


def crosscheck_inputs(sq, seed: int, workdir: Path) -> dict:
    """The twelve configurations are pinned; the seed selects nothing here."""
    pairs = list(itertools.product(BETA_GRID_1, BETA_GRID_2))
    nodes, weights = np.polynomial.hermite.hermgauss(GH_ORDER)
    u, v = np.meshgrid(nodes, nodes)
    lam = (u + 1j * v).ravel()
    configs = [("theory", fam, (r, delta), f"{fam} r={r} delta={delta}")
               for fam, r, delta in THEORY_CONFIGS]
    configs += [("scheme", det, sq.resources.SchemeConfig(**kw), f"{det} {kw}")
                for det, kw in SCHEME_CONFIGS]
    return {"configs": configs,
            "b1": np.array([b1 for b1, _ in pairs]),
            "b2": np.array([b2 for _, b2 in pairs]),
            "lam": lam, "gh_weights": np.outer(weights, weights).ravel()}


def _gauss_hermite_fidelity(fs, rho, inputs) -> float:
    """(1/pi) sum_k w_k chi(-conj(lam_k), -lam_k) over the oracle's chi."""
    lam = inputs["lam"]
    chi = fs.char_function_batch(rho, -np.conj(lam), -lam)
    return float((inputs["gh_weights"] @ chi).real / np.pi)


def _crosscheck_one(sq, kind, name, params, label, inputs) -> dict:
    fs = sq.fock_sim
    b1, b2 = inputs["b1"], inputs["b2"]
    with warnings.catch_warnings():
        # ideal projectors on a lossy source warn by design
        warnings.simplefilter("ignore")
        if kind == "theory":
            state = sq.resources.theoretical_state(name, *params)
            oracle = fs.theoretical_oracle(name, *params, cutoff=ORACLE_CUTOFF,
                                           leak_tol=THEORY_LEAK_TOL)
            chi_oracle = np.array([fs.char_function_state(oracle, x, y)
                                   for x, y in zip(b1, b2)])
            flat = oracle.amps.reshape(-1)
            rho = fs.FockDensity(oracle.cutoffs, np.outer(flat, flat.conj()))
            success = None
        else:
            state = sq.resources.scheme_state(params, name)
            rho, success = fs.scheme_oracle(params, name, cutoff=ORACLE_CUTOFF)
            chi_oracle = fs.char_function_batch(rho, b1, b2)
    chi_closed = np.array([state.chi_at(x, y) for x, y in zip(b1, b2)])
    result = sq.teleport.fidelity(state, cross_check=True)
    return {
        "label": label,
        "chi_dev": float(np.max(np.abs(chi_oracle - chi_closed))),
        "fidelity_dev": abs(_gauss_hermite_fidelity(fs, rho, inputs) - result.fidelity),
        "success": (success, state.success_prob),
        "residual": result.residual,
    }


def crosscheck_round(sq, inputs: dict, span, clock) -> dict:
    results = []
    for config in inputs["configs"]:
        with clock.op():
            results.append(_crosscheck_one(sq, *config, inputs))
    return {"attempted": len(results), "failed": 0, "results": results}


def crosscheck_check(sq, inputs: dict, out: dict) -> list[str]:
    problems = []
    for res in out.pop("results"):
        label = res["label"]
        if not res["chi_dev"] <= CHI_TOL:
            problems.append(f"{label}: |dchi| {res['chi_dev']:.2e} > {CHI_TOL}")
        if not res["fidelity_dev"] <= FIDELITY_TOL:
            problems.append(f"{label}: |dF| {res['fidelity_dev']:.2e} > {FIDELITY_TOL}")
        oracle_p, closed_p = res["success"]
        if oracle_p is not None and not abs(oracle_p - closed_p) <= SUCCESS_RTOL * closed_p:
            problems.append(f"{label}: success {oracle_p} vs closed form {closed_p}")
        if not res["residual"] <= QUADRATURE_TOL:
            problems.append(f"{label}: quadrature residual {res['residual']:.2e}")
    return problems


WORKLOADS = {
    "datasets": (datasets_inputs, datasets_round, datasets_check),
    "onoff-grid": (onoff_inputs, onoff_round, onoff_check),
    "crosscheck": (crosscheck_inputs, crosscheck_round, crosscheck_check),
}

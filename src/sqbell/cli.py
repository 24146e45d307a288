"""Command-line front end: state reports, fidelities, optimization, sweeps,
and the datasets reproducing the published tables and figures.

Exit codes: 0 success, 2 usage or validation error, 3 numerical/physicality
failure, 4 degenerate postselection.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    CutoffTooSmallError,
    DegeneratePostselectionError,
    PhysicalityError,
    QuadratureConvergenceError,
    ZeroNormStateError,
)
from .kernel import squeezed_bell_fidelity
from .optimize import SweepSpec, optimize_delta, optimize_s, sweep
from .resources import (
    SCHEME_FAMILIES,
    THEORETICAL_FAMILIES,
    SchemeConfig,
    bell_angle,
    delta_equivalent,
    effective_squeezing,
    scheme_pf,
    scheme_state,
    squeezing_db,
    status_error,
    theoretical_state,
)
from .teleport import fidelity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_DEGENERATE = 4

TABLE2_R = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
FIG_R_VALUES = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".6g")
    return str(x)


def _add_scheme_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default="scheme-ideal",
                   choices=THEORETICAL_FAMILIES + SCHEME_FAMILIES)
    p.add_argument("--r", type=float, default=None, help="principal squeezing")
    p.add_argument("--s", type=float, default=0.0, help="ancillary squeezing")
    p.add_argument("--delta", type=float, default=None,
                   help="squeezed-bell mixing angle")
    p.add_argument("--phi-zeta", type=float, default=np.pi)
    p.add_argument("--phi-xi", type=float, default=np.pi)
    p.add_argument("--T", type=float, default=None,
                   help="set both scheme transmissivities")
    p.add_argument("--T1", type=float, default=0.99)
    p.add_argument("--T2", type=float, default=0.99)
    p.add_argument("--loss", type=float, default=0.0,
                   help="loss level ell; the channel transmissivity is 1 - ell")
    p.add_argument("--eta", type=float, default=None,
                   help="set both detector efficiencies")
    p.add_argument("--eta3", type=float, default=0.15)
    p.add_argument("--eta4", type=float, default=0.15)
    p.add_argument("--n-thermal", type=float, default=0.0)
    p.add_argument("--signal-loss-only", action="store_true",
                   help="apply the loss channel to the signal modes only")


def _config_from_args(args) -> SchemeConfig:
    if args.r is None:
        raise ValueError("--r is required")
    T1 = args.T if args.T is not None else args.T1
    T2 = args.T if args.T is not None else args.T2
    eta3 = args.eta if args.eta is not None else args.eta3
    eta4 = args.eta if args.eta is not None else args.eta4
    if not 0.0 <= args.loss < 1.0:
        raise ValueError("--loss must lie in [0, 1)")
    return SchemeConfig(
        r=args.r, s=args.s, phi_zeta=args.phi_zeta, phi_xi=args.phi_xi,
        T1=T1, T2=T2, T_loss=1.0 - args.loss, eta3=eta3, eta4=eta4,
        n_thermal=args.n_thermal,
        loss_on_detector_modes=not args.signal_loss_only)


def _build_state(args):
    if args.family in THEORETICAL_FAMILIES:
        if args.r is None:
            raise ValueError("--r is required")
        return theoretical_state(args.family, args.r, args.delta)
    cfg = _config_from_args(args)
    detector = "ideal" if args.family == "scheme-ideal" else "on-off"
    return scheme_state(cfg, detector)


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_sidecar(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["version"] = __version__
    payload["seedless"] = True  # no RNG anywhere; reruns are byte-identical
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")


def _config_flags(cfg: SchemeConfig, **extra) -> dict:
    """Flat flag dict a sidecar can feed back through ``--config``."""
    flags = {
        "r": cfg.r, "s": cfg.s, "phi-zeta": cfg.phi_zeta, "phi-xi": cfg.phi_xi,
        "T1": cfg.T1, "T2": cfg.T2, "loss": round(1.0 - cfg.T_loss, 12),
        "eta3": cfg.eta3, "eta4": cfg.eta4, "n-thermal": cfg.n_thermal,
    }
    if not cfg.loss_on_detector_modes:
        flags["signal-loss-only"] = True
    flags.update(extra)
    return flags


def _emit(args, record: dict) -> None:
    if getattr(args, "format", "text") == "json" or getattr(args, "output", None):
        text = json.dumps(record, indent=2, sort_keys=True, default=str)
        if getattr(args, "output", None):
            Path(args.output).write_text(text + "\n")
        else:
            print(text)
    else:
        print("  ".join(f"{k}={_fmt(v)}" for k, v in record.items()
                        if not isinstance(v, dict)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_state(args) -> int:
    state = _build_state(args)
    record: dict = {"family": state.family}
    if state.family in SCHEME_FAMILIES:
        cfg: SchemeConfig = state.params
        record.update(asdict(cfg))
        record["success_prob"] = state.success_prob
        record["delta_equivalent"] = delta_equivalent(cfg)
        record["r_effective"] = effective_squeezing(cfg.r, cfg.T_loss)
        record["r_effective_db"] = squeezing_db(record["r_effective"])
    else:
        record.update(state.params)
        record["r_db"] = squeezing_db(args.r)
    _emit(args, record)
    return EXIT_OK


def _provenance(state) -> dict:
    if state.family in SCHEME_FAMILIES:
        return asdict(state.params)
    return dict(state.params)


def cmd_fidelity(args) -> int:
    state = _build_state(args)
    result = fidelity(state, cross_check=not args.no_cross_check)
    record = {
        "family": state.family,
        "fidelity": result.fidelity,
        "success_prob": state.success_prob,
        "method": result.method,
        "residual": result.residual,
        "config": _provenance(state),
    }
    _emit(args, record)
    return EXIT_OK


def _scheme_detector(family: str) -> str:
    """Detector kind of a scheme family; other families have no s to tune."""
    if family not in SCHEME_FAMILIES:
        raise ValueError(f"family {family!r} has no ancillary squeezing s to "
                         f"tune; use {' or '.join(SCHEME_FAMILIES)}")
    return "on-off" if family == "scheme-realistic" else "ideal"


def cmd_optimize(args) -> int:
    if args.family == "squeezed-bell":
        if args.r is None:
            raise ValueError("--r is required")
        res = optimize_delta(args.r)
        record = {"family": "squeezed-bell", "r": args.r,
                  "delta_star": res.s_star, "fidelity": res.f_star,
                  "bracket_lo": res.bracket[0], "bracket_hi": res.bracket[1]}
    else:
        detector = _scheme_detector(args.family)
        cfg = _config_from_args(args)
        res = optimize_s(cfg, detector)
        record = {"family": args.family, "r": cfg.r,
                  "s_star": res.s_star, "fidelity": res.f_star,
                  "bracket_lo": res.bracket[0], "bracket_hi": res.bracket[1],
                  "plateau": res.plateau, "multi_peak": res.multi_peak,
                  "evaluations": len(res.trace), "config": asdict(cfg)}
    _emit(args, record)
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:step")
    start, stop, step = (float(v) for v in parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + k * step for k in range(n))


def cmd_sweep(args) -> int:
    detector = _scheme_detector(args.family)
    cfg = _config_from_args(args)
    spec = SweepSpec(base=cfg, axis=args.axis, grid=_parse_grid(args.grid),
                     detector=detector, optimize_s_at_each=args.optimize)
    rows = sweep(spec)
    header = [args.axis, "fidelity", "success_prob", "s_star", "error"]
    data = [[row.value, row.fidelity, row.success_prob, row.s_star, row.error]
            for row in rows]
    out = Path(args.output) if args.output else None
    if out:
        _write_rows(out, header, data)
        _write_sidecar(out.with_suffix(".config.json"), {
            "command": "sweep", "config": asdict(cfg), "columns": header,
            "flags": _config_flags(cfg, family=args.family, axis=args.axis,
                                   grid=args.grid, optimize=args.optimize)})
        print(f"wrote {out}")
    else:
        print(",".join(header))
        for row in data:
            print(",".join(_fmt(v) for v in row))
    return EXIT_OK


# -- reproduction targets ----------------------------------------------------


def _reproduce_table2(outdir: Path) -> Path:
    rows = []
    for r in TABLE2_R:
        res = optimize_s(SchemeConfig(r=r), "ideal")
        rows.append([r, res.s_star, res.f_star])
    path = outdir / "table2.csv"
    _write_rows(path, ["r", "s_star", "fidelity"], rows)
    _write_sidecar(outdir / "table2.config.json", {
        "target": "table2", "detector": "ideal",
        "config": asdict(SchemeConfig(r=1.0)),
        "columns": ["r", "s_star", "fidelity"],
        "tolerances": {"s_star": "max(10% relative, 0.002) or fidelity within 1e-3"}})
    return path


def _fig_s_sweep(outdir: Path, name: str, lossy: bool) -> Path:
    rows = []
    for r in FIG_R_VALUES:
        base = SchemeConfig(r=r, T_loss=0.85 if lossy else 1.0)
        detector = "on-off" if lossy else "ideal"
        grid = np.linspace(0.0, r, 61)
        spec = SweepSpec(base=base, axis="s", grid=tuple(grid), detector=detector)
        for row in sweep(spec):
            rows.append([f"r={r}", row.value, row.fidelity, row.success_prob,
                         row.error])
    path = outdir / f"{name}.csv"
    _write_rows(path, ["series", "s", "fidelity", "success_prob", "error"], rows)
    _write_sidecar(outdir / f"{name}.config.json", {
        "target": name, "detector": "on-off" if lossy else "ideal",
        "loss": 0.15 if lossy else 0.0, "r_values": list(FIG_R_VALUES),
        "columns": ["series", "s", "fidelity", "success_prob", "error"]})
    return path


def _fig_vs_r(outdir: Path, name: str, r_grid: np.ndarray) -> Path:
    rows = []
    for r in r_grid:
        r = round(float(r), 10)
        opt = optimize_s(SchemeConfig(r=r), "ideal")
        rows.append(["scheme-optimized", r, opt.f_star])
        rows.append(["scheme-s0", r, _safe_scheme_fidelity(SchemeConfig(r=r, s=0.0))])
        sb = optimize_delta(r)
        rows.append(["theory-squeezed-bell-opt", r, sb.f_star])
        for family in ("photon-subtracted", "twin-beam"):
            rows.append([f"theory-{family}", r, float(
                squeezed_bell_fidelity(r, bell_angle(family, r)))])
    path = outdir / f"{name}.csv"
    _write_rows(path, ["series", "r", "fidelity"], rows)
    _write_sidecar(outdir / f"{name}.config.json", {
        "target": name, "detector": "ideal",
        "note": "theoretical-state curves are computed from this package's"
                " own constructions",
        "r_grid": [round(float(r), 10) for r in r_grid],
        "columns": ["series", "r", "fidelity"]})
    return path


def _safe_scheme_fidelity(cfg: SchemeConfig, detector: str = "ideal"):
    """Closed-form fidelity of one configuration; None where it is degenerate."""
    P, F, status = scheme_pf([cfg], detector)
    exc = status_error(P[0], status[0])
    if isinstance(exc, DegeneratePostselectionError):
        return None
    if exc is not None:
        raise exc
    return float(F[0])


def _reproduce_fig7(outdir: Path) -> Path:
    rows = []
    base = SchemeConfig(r=1.6, eta3=0.15, eta4=0.15)
    for ell in np.arange(0.0, 0.301, 0.02):
        ell = round(float(ell), 10)
        cfg = base.with_(T_loss=1.0 - ell)
        opt = optimize_s(cfg, "on-off")
        rows.append(["optimized", ell, opt.f_star, opt.s_star])
        rows.append(["s=0", ell,
                     _safe_scheme_fidelity(cfg.with_(s=0.0), "on-off"), 0.0])
        rows.append(["s=r", ell,
                     _safe_scheme_fidelity(cfg.with_(s=cfg.r), "on-off"), cfg.r])
    path = outdir / "fig7.csv"
    _write_rows(path, ["series", "loss", "fidelity", "s"], rows)
    _write_sidecar(outdir / "fig7.config.json", {
        "target": "fig7", "detector": "on-off", "config": asdict(base),
        "columns": ["series", "loss", "fidelity", "s"]})
    return path


def cmd_reproduce(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    target = args.target
    if target == "table2":
        path = _reproduce_table2(outdir)
    elif target == "fig3":
        path = _fig_s_sweep(outdir, "fig3", lossy=False)
    elif target == "fig4":
        path = _fig_vs_r(outdir, "fig4", np.arange(0.1, 2.01, 0.05))
    elif target == "fig5":
        path = _fig_vs_r(outdir, "fig5", np.arange(1.0, 2.001, 0.05))
    elif target == "fig6":
        path = _fig_s_sweep(outdir, "fig6", lossy=True)
    elif target == "fig7":
        path = _reproduce_fig7(outdir)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown target {target!r}")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqbell",
        description="Tunable two-mode entangled resources and their"
                    " teleportation fidelity")
    parser.add_argument("--config", default=None,
                        help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="build a resource and report it")
    _add_scheme_args(p_state)
    p_state.add_argument("--format", choices=("text", "json"), default="text")
    p_state.add_argument("--output", default=None)
    p_state.set_defaults(func=cmd_state)

    p_fid = sub.add_parser("fidelity", help="teleportation fidelity of a resource")
    _add_scheme_args(p_fid)
    p_fid.add_argument("--no-cross-check", action="store_true",
                       help="skip the quadrature cross-check")
    p_fid.add_argument("--format", choices=("text", "json"), default="text")
    p_fid.add_argument("--output", default=None)
    p_fid.set_defaults(func=cmd_fidelity)

    p_opt = sub.add_parser("optimize", help="maximize fidelity over s (or delta)")
    _add_scheme_args(p_opt)
    p_opt.add_argument("--format", choices=("text", "json"), default="text")
    p_opt.add_argument("--output", default=None)
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="scan one parameter axis")
    _add_scheme_args(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         choices=("s", "r", "loss", "T", "eta"))
    p_sweep.add_argument("--grid", required=True, help="start:stop:step")
    p_sweep.add_argument("--optimize", action="store_true",
                         help="optimize s at each grid point")
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="write a published dataset")
    p_rep.add_argument("target",
                       choices=("table2", "fig3", "fig4", "fig5", "fig6", "fig7"))
    p_rep.add_argument("--outdir", default="reproductions")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Load --config JSON defaults; explicit command-line flags still win."""
    for idx, arg in enumerate(argv):
        if arg == "--config":
            if idx + 1 == len(argv):
                raise ValueError("--config needs a path")
            path, argv = argv[idx + 1], argv[:idx] + argv[idx + 2:]
            break
        if arg.startswith("--config="):
            path, argv = arg[len("--config="):], argv[:idx] + argv[idx + 1:]
            break
    else:
        return argv
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    if isinstance(data.get("flags"), dict):
        data = data["flags"]  # sidecars carry their flags under this key
    extra: list[str] = []
    for key, value in sorted(data.items()):
        flag = "--" + key.replace("_", "-")
        if any(a == flag or a.startswith(flag + "=") for a in argv):
            continue
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        else:
            extra.extend([flag, str(value)])
    return argv + extra


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegeneratePostselectionError as exc:
        print(f"degenerate postselection: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (PhysicalityError, CutoffTooSmallError, QuadratureConvergenceError,
            ZeroNormStateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: state reports, fidelities, optimization, sweeps,
and the datasets reproducing the published tables and figures, one builder
per target in `DATASETS`.

One table, `_FLAGS`, maps each scheme flag to the fields it sets; of two
flags that set one field the last wins.  A flag that sets no field its
command reads for its family exits with 2 rather than change nothing.

Exit codes: 0 success, 2 usage or validation error, 3 numerical/physicality
failure, 4 degenerate postselection.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (DegeneratePostselectionError, PhysicalityError,
                     QuadratureConvergenceError, ZeroNormStateError)
from .kernel import squeezed_bell_fidelity
from .optimize import SWEEP_AXES, SweepSpec, optimize_delta, optimize_s, sweep
from .resources import (SCHEME_DETECTORS, SCHEME_FAMILIES, THEORETICAL_FAMILIES,
                        SchemeConfig, bell_angle, delta_equivalent, effective_squeezing,
                        scheme_state, squeezing_db, theoretical_state)
from .teleport import fidelity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_DEGENERATE = 4

# the squeezing amplitudes of Table 2, also the series of Figs. 3 and 6
TABLE2_R = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
# the most points a --grid may give; the published datasets sweep at most 61
MAX_GRID_POINTS = 10_000


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".6g")
    return str(x)


# each scheme flag: the fields it sets, and its help.  --delta sets the angle
# of the squeezed Bell family, which no SchemeConfig holds.
_FLAGS = {
    "r": (("r",), "principal squeezing"),
    "s": (("s",), "ancillary squeezing"),
    "delta": (("delta",), "squeezed-bell mixing angle"),
    "phi-zeta": (("phi_zeta",), None),
    "phi-xi": (("phi_xi",), None),
    "T": (("T1", "T2"), "set both scheme transmissivities"),
    "T1": (("T1",), None),
    "T2": (("T2",), None),
    "loss": (("T_loss",), "loss level ell; the channel transmissivity is 1 - ell"),
    "eta": (("eta3", "eta4"), "set both detector efficiencies"),
    "eta3": (("eta3",), None),
    "eta4": (("eta4",), None),
    "n-thermal": (("n_thermal",), None),
    "signal-loss-only": (("loss_on_detector_modes",),
                         "apply the loss channel to the signal modes only"),
}


class _Flag(argparse.Action):
    """Records its flag's value in `args.flags`, dropping the flags given
    before whose fields it sets again.  So the last flag to set a field wins,
    and `args.flags` set every field as the command line did, replayed in
    order or in key order, as a sweep sidecar is (a shortcut `T` or `eta`
    sorts ahead of the flags of its fields)."""

    def __call__(self, parser, namespace, value, option_string=None):
        flag = self.option_strings[0][2:]
        fields = set(_FLAGS[flag][0])
        namespace.flags = {**{f: v for f, v in namespace.flags.items()
                              if not fields.issuperset(_FLAGS[f][0])},
                           flag: True if self.nargs == 0 else value}


def _config_from_args(args) -> SchemeConfig:
    fields = {}
    for flag, value in args.flags.items():
        if flag == "loss":
            if not 0.0 <= value < 1.0:
                raise ValueError("--loss must lie in [0, 1)")
            value = 1.0 - value
        elif flag == "signal-loss-only":
            value = False
        fields.update(dict.fromkeys(_FLAGS[flag][0], value))
    fields.pop("delta", None)  # refused for a scheme family, by sweep after SweepSpec
    return SchemeConfig(**fields)


def _refuse_unread(args) -> None:
    """Raise ValueError naming a given flag that sets no field `args.command`
    reads for `args.family`."""
    if args.family in THEORETICAL_FAMILIES:
        # optimize maximizes the squeezed Bell family over its angle
        takes_delta = args.family == "squeezed-bell" and args.command != "optimize"
        reads = {"r", "delta"} if takes_delta else {"r"}
    else:
        reads = {f.name for f in dataclass_fields(SchemeConfig)}
        if args.family == "scheme-ideal":
            reads -= {"eta3", "eta4"}  # single-photon projectors have no efficiency
        if args.command == "optimize" or getattr(args, "optimize", False):
            reads -= {"s"}  # the search covers [0, r] whatever s is
        if args.command == "sweep":
            # the axis sets its fields; --r stays required, as the base of axis r
            reads -= set(SWEEP_AXES[args.axis][0]) - {"r"}
    for flag in args.flags:
        if reads.isdisjoint(_FLAGS[flag][0]):
            what = f"sweep along {args.axis}" if args.command == "sweep" else args.command
            raise ValueError(f"{what} does not read --{flag} for family {args.family}")


def _build_state(args):
    _refuse_unread(args)
    if args.family in THEORETICAL_FAMILIES:
        return theoretical_state(args.family, args.flags["r"], args.flags.get("delta"))
    return scheme_state(_config_from_args(args), SCHEME_DETECTORS[args.family])


def _csv(header: list[str], rows: list[list]) -> str:
    return "".join(",".join(map(_fmt, line)) + "\n" for line in [header, *rows])


def _write_csv(path: Path, header: list[str], rows: list[list], **sidecar) -> Path:
    """Write the CSV of `rows` to `path` and its sidecar beside it, at
    `path`.config.json, which records the columns and `sidecar`."""
    path.write_text(_csv(header, rows))
    # no RNG anywhere; reruns are byte-identical
    payload = {**sidecar, "columns": header, "version": __version__, "seedless": True}
    path.with_suffix(".config.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    return path


def _emit(args, record: dict) -> None:
    if args.format == "json" or args.output:
        text = json.dumps(record, indent=2, sort_keys=True, default=str)
        if args.output:
            Path(args.output).write_text(text + "\n")
        else:
            print(text)
    else:
        print("  ".join(f"{k}={_fmt(v)}" for k, v in record.items()
                        if not isinstance(v, dict)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _provenance(state) -> dict:
    if state.family in SCHEME_FAMILIES:
        return asdict(state.params)
    return dict(state.params)


def cmd_state(args) -> int:
    state = _build_state(args)
    record = {"family": state.family, **_provenance(state)}
    if state.family in SCHEME_FAMILIES:
        cfg: SchemeConfig = state.params
        record["success_prob"] = state.success_prob
        if state.family == "scheme-ideal":
            with contextlib.suppress(ValueError):  # outside the angle's regime
                record["delta_equivalent"] = delta_equivalent(cfg)
        record["r_effective"] = effective_squeezing(cfg.r, cfg.T_loss)
        record["r_effective_db"] = squeezing_db(record["r_effective"])
    else:
        record["r_db"] = squeezing_db(state.params["r"])
    _emit(args, record)
    return EXIT_OK


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


def cmd_optimize(args) -> int:
    _refuse_unread(args)
    if args.family == "squeezed-bell":
        res = optimize_delta(args.flags["r"])
        record = {"family": "squeezed-bell", "r": args.flags["r"],
                  "delta_star": res.s_star, "fidelity": res.f_star,
                  "bracket_lo": res.bracket[0], "bracket_hi": res.bracket[1]}
    else:
        cfg = _config_from_args(args)
        res = optimize_s(cfg, SCHEME_DETECTORS[args.family])
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
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("grid start, stop and step must be finite")
    if step <= 0:
        raise ValueError("grid step must be positive")
    n = np.floor((stop - start) / step + 1e-9) + 1
    if not math.isfinite(n):
        raise ValueError("grid point count (stop - start) / step is not finite")
    if n > MAX_GRID_POINTS:
        raise ValueError(f"grid has more than MAX_GRID_POINTS = {MAX_GRID_POINTS} points")
    return tuple(start + k * step for k in range(int(n)))


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    # the scans SweepSpec refuses are named before any flag they leave unread
    spec = SweepSpec(base=cfg, axis=args.axis, grid=_parse_grid(args.grid),
                     detector=SCHEME_DETECTORS[args.family],
                     optimize_s_at_each=args.optimize)
    _refuse_unread(args)
    rows = sweep(spec)
    header = [args.axis, "fidelity", "success_prob", "s_star", "error"]
    data = [[row.value, row.fidelity, row.success_prob, row.s_star, row.error]
            for row in rows]
    if not args.output:
        print(_csv(header, data), end="")
        return EXIT_OK
    out = _write_csv(Path(args.output), header, data, command="sweep",
                     config=asdict(cfg),
                     flags={**args.flags, "family": args.family, "axis": args.axis,
                            "grid": args.grid, "optimize": args.optimize})
    print(f"wrote {out}")
    return EXIT_OK


# -- reproduction targets ----------------------------------------------------


def _scheme_rows(spec: SweepSpec) -> list:
    """The rows of `sweep(spec)`; raises PhysicalityError naming the first
    point that failed, since a published dataset has no gaps."""
    rows = sweep(spec)
    for row in rows:
        if row.error is not None:
            raise PhysicalityError(f"{spec.axis} = {_fmt(row.value)}: {row.error}")
    return rows


def _table2(outdir: Path) -> Path:
    rows = _scheme_rows(SweepSpec(base=SchemeConfig(r=TABLE2_R[0]), axis="r",
                                  grid=TABLE2_R, optimize_s_at_each=True))
    return _write_csv(
        outdir / "table2.csv", ["r", "s_star", "fidelity"],
        [[row.value, row.s_star, row.fidelity] for row in rows],
        target="table2", detector="ideal", config=asdict(SchemeConfig(r=1.0)),
        tolerances={"s_star": "max(10% relative, 0.002) or fidelity within 1e-3"})


def _fig_s_sweep(outdir: Path, name: str, lossy: bool) -> Path:
    detector = "on-off" if lossy else "ideal"
    rows = []
    for r in TABLE2_R:
        base = SchemeConfig(r=r, T_loss=0.85 if lossy else 1.0)
        grid = np.linspace(0.0, r, 61)
        spec = SweepSpec(base=base, axis="s", grid=tuple(grid), detector=detector)
        for row in sweep(spec):
            rows.append([f"r={r}", row.value, row.fidelity, row.success_prob,
                         row.error])
    return _write_csv(
        outdir / f"{name}.csv", ["series", "s", "fidelity", "success_prob", "error"],
        rows, target=name, detector=detector, loss=0.15 if lossy else 0.0,
        r_values=list(TABLE2_R))


def _fig_vs_r(outdir: Path, name: str, r_grid: np.ndarray) -> Path:
    rs = tuple(round(float(r), 10) for r in r_grid)
    spec = functools.partial(SweepSpec, base=SchemeConfig(r=rs[0]), axis="r", grid=rs)
    optimized = _scheme_rows(spec(optimize_s_at_each=True))
    s0 = _scheme_rows(spec())
    rows = []
    for r, opt, plain in zip(rs, optimized, s0):
        rows.append(["scheme-optimized", r, opt.fidelity])
        rows.append(["scheme-s0", r, plain.fidelity])
        sb = optimize_delta(r)
        rows.append(["theory-squeezed-bell-opt", r, sb.f_star])
        for family in ("photon-subtracted", "twin-beam"):
            rows.append([f"theory-{family}", r, float(
                squeezed_bell_fidelity(r, bell_angle(family, r)))])
    return _write_csv(
        outdir / f"{name}.csv", ["series", "r", "fidelity"], rows, target=name,
        detector="ideal",
        note="theoretical-state curves are computed from this package's own"
             " constructions",
        r_grid=rs)


def _fig7(outdir: Path) -> Path:
    base = SchemeConfig(r=1.6, eta3=0.15, eta4=0.15)
    losses = tuple(round(float(ell), 10) for ell in np.arange(0.0, 0.301, 0.02))
    spec = functools.partial(SweepSpec, axis="loss", grid=losses, detector="on-off")
    optimized = _scheme_rows(spec(base=base, optimize_s_at_each=True))
    s0 = _scheme_rows(spec(base=base))
    sr = _scheme_rows(spec(base=base.with_(s=base.r)))
    rows = []
    for ell, opt, f0, fr in zip(losses, optimized, s0, sr):
        rows.append(["optimized", ell, opt.fidelity, opt.s_star])
        rows.append(["s=0", ell, f0.fidelity, 0.0])
        rows.append(["s=r", ell, fr.fidelity, base.r])
    return _write_csv(outdir / "fig7.csv", ["series", "loss", "fidelity", "s"], rows,
                      target="fig7", detector="on-off", config=asdict(base))


# each published dataset: its target name and the builder that writes it into
# an output directory and returns the CSV's path
DATASETS = {
    "table2": _table2,
    "fig3": functools.partial(_fig_s_sweep, name="fig3", lossy=False),
    "fig4": functools.partial(_fig_vs_r, name="fig4", r_grid=np.arange(0.1, 2.01, 0.05)),
    "fig5": functools.partial(_fig_vs_r, name="fig5", r_grid=np.arange(1.0, 2.001, 0.05)),
    "fig6": functools.partial(_fig_s_sweep, name="fig6", lossy=True),
    "fig7": _fig7,
}


def cmd_reproduce(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    print(f"wrote {DATASETS[args.target](outdir)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    # the one --config, found anywhere in argv; the main parser's parent
    parser = argparse.ArgumentParser(prog="sqbell", add_help=False)
    parser.add_argument("--config", action="append", help="JSON file of default flag values")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqbell", parents=[_config_parser()],
        description="Tunable two-mode entangled resources and their"
                    " teleportation fidelity")
    sub = parser.add_subparsers(dest="command", required=True)

    scheme = argparse.ArgumentParser(add_help=False)
    scheme.set_defaults(flags={})
    for flag, (_, help_text) in _FLAGS.items():
        kind = {"nargs": 0} if flag == "signal-loss-only" else {"type": float}
        scheme.add_argument("--" + flag, action=_Flag, default=argparse.SUPPRESS,
                            required=flag == "r", help=help_text, **kind)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("text", "json"), default="text")
    report.add_argument("--output", default=None)

    # each command on a resource takes the --family choices it accepts
    families = THEORETICAL_FAMILIES + SCHEME_FAMILIES
    p_state = sub.add_parser("state", parents=[scheme, report],
                             help="build a resource and report it")
    p_state.add_argument("--family", default="scheme-ideal", choices=families)
    p_state.set_defaults(func=cmd_state)

    p_fid = sub.add_parser("fidelity", parents=[scheme, report],
                           help="teleportation fidelity of a resource")
    p_fid.add_argument("--family", default="scheme-ideal", choices=families)
    p_fid.add_argument("--no-cross-check", action="store_true",
                       help="skip the quadrature cross-check")
    p_fid.set_defaults(func=cmd_fidelity)

    p_opt = sub.add_parser("optimize", parents=[scheme, report],
                           help="maximize fidelity over s (or delta)")
    p_opt.add_argument("--family", default="scheme-ideal",
                       choices=("squeezed-bell",) + SCHEME_FAMILIES)
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", parents=[scheme], help="scan one parameter axis")
    p_sweep.add_argument("--family", default="scheme-ideal", choices=SCHEME_FAMILIES)
    p_sweep.add_argument("--axis", required=True, choices=tuple(SWEEP_AXES))
    p_sweep.add_argument("--grid", required=True, help="start:stop:step")
    p_sweep.add_argument("--optimize", action="store_true",
                         help="optimize s at each grid point")
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="write a published dataset")
    p_rep.add_argument("target", choices=tuple(DATASETS))
    p_rep.add_argument("--outdir", default="reproductions")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


# one parser per process, built at the first `main` call: parsing leaves no
# state on it (`_Flag` rebinds `args.flags`, never mutating the shared default)
_parser = functools.cache(build_parser)


def _apply_config_file(argv: list[str]) -> list[str]:
    """Load --config JSON defaults; explicit command-line flags still win.
    --config may come anywhere, abbreviated or not; a second raises ValueError.

    The file's flags go ahead of the command line's first option, so that
    every explicit flag, abbreviated or not, is parsed after them and wins
    (see `_FLAGS`).  They go in key order, so a file's `T` or `eta` comes
    ahead of its `T1` or `eta3`, which then wins."""
    known, argv = _config_parser().parse_known_args(argv)
    if not known.config:
        return argv
    path, *more = known.config
    if more:
        raise ValueError("--config is given more than once")
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    if isinstance(data.get("flags"), dict):
        data = data["flags"]  # sidecars carry their flags under this key
    extra: list[str] = []
    for key, value in sorted(data.items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        else:
            extra.extend([flag, str(value)])
    first = next((i for i, arg in enumerate(argv) if arg.startswith("-")), len(argv))
    return argv[:first] + extra + argv[first:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegeneratePostselectionError as exc:
        print(f"degenerate postselection: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (PhysicalityError, QuadratureConvergenceError, ZeroNormStateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

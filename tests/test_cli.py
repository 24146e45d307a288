"""Tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sqbell import kernel
from sqbell import resources as rs
from sqbell import teleport as tp
from sqbell.cli import (DATASETS, EXIT_DEGENERATE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                        MAX_GRID_POINTS, _config_from_args, _parser, build_parser, main)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(line):
    return dict(item.split("=", 1) for item in line.strip().split("  "))


def test_fidelity_twin_beam(capsys):
    code, out, _ = run(capsys, "fidelity", "--family", "twin-beam", "--r", "1.6")
    assert code == EXIT_OK
    record = parse_kv(out)
    assert float(record["fidelity"]) == pytest.approx(0.961, abs=1e-3)
    assert float(record["residual"]) < 1e-6


def test_fidelity_scheme_ideal(capsys):
    code, out, _ = run(capsys, "fidelity", "--family", "scheme-ideal",
                       "--r", "1.6", "--s", "0.056", "--T", "0.99",
                       "--no-cross-check")
    assert code == EXIT_OK
    record = parse_kv(out)
    assert float(record["fidelity"]) == pytest.approx(0.974, abs=2e-3)
    assert float(record["success_prob"]) > 0


def test_fidelity_classical_baseline(capsys):
    code, out, _ = run(capsys, "fidelity", "--family", "twin-beam", "--r", "0",
                       "--no-cross-check")
    assert code == EXIT_OK
    assert float(parse_kv(out)["fidelity"]) == pytest.approx(0.5, abs=1e-6)


# r = 1, s = 0 behind nearly transmitting mixers: P is 3.2e-11
EDGE_ARGS = ("--family", "scheme-realistic", "--r", "1", "--s", "0",
             "--T", "0.99999", "--eta", "0.25", "--format", "json")


def test_fidelity_and_state_at_small_heralding_probability(capsys):
    cfg = rs.SchemeConfig(r=1.0, s=0.0, T1=0.99999, T2=0.99999, eta3=0.25, eta4=0.25)
    P, F, status = kernel.columns_pf(kernel.columns_of([cfg]), "on-off")
    assert status[0] == kernel.OK
    code, out, _ = run(capsys, "fidelity", *EDGE_ARGS)
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["fidelity"] == pytest.approx(F[0], rel=0.0, abs=1e-12)
    assert record["success_prob"] == P[0]
    assert record["residual"] <= 1e-9
    code, out, _ = run(capsys, "state", *EDGE_ARGS)
    assert code == EXIT_OK
    assert json.loads(out)["success_prob"] == P[0]


@pytest.mark.parametrize("family", rs.THEORETICAL_FAMILIES)
def test_fidelity_of_theoretical_families_is_squeezed_bell(capsys, family):
    extra = ("--delta", "0.6") if family == "squeezed-bell" else ()
    code, out, _ = run(capsys, "fidelity", "--family", family, "--r", "0.9",
                       *extra, "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    delta = 0.6 if family == "squeezed-bell" else None
    expected = kernel.squeezed_bell_fidelity(0.9, rs.bell_angle(family, 0.9, delta))
    assert record["fidelity"] == pytest.approx(expected, rel=0.0, abs=1e-15)
    assert record["residual"] <= 1e-9


def test_state_of_a_theoretical_family(capsys):
    code, out, _ = run(capsys, "state", "--family", "squeezed-bell", "--r", "0.8",
                       "--delta", "0.3", "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["family"] == "squeezed-bell"
    assert record["r"] == 0.8 and record["delta"] == 0.3
    assert record["phase"] == math.pi
    assert record["r_db"] == rs.squeezing_db(0.8)


def test_state_reports_equivalent_angle(capsys):
    code, out, _ = run(capsys, "state", "--family", "scheme-ideal",
                       "--r", "1", "--s", "0.011", "--T", "0.99")
    assert code == EXIT_OK
    record = parse_kv(out)
    assert float(record["delta_equivalent"]) == pytest.approx(0.4432, abs=1e-3)
    assert float(record["success_prob"]) > 0


@pytest.mark.parametrize("argv", [("--family", "scheme-ideal", "--T2", "0.5"),
                                  ("--family", "scheme-ideal", "--loss", "0.1"),
                                  ("--family", "scheme-realistic",)])
@pytest.mark.filterwarnings("ignore::sqbell.kernel.LossyProjectorWarning")
def test_state_omits_equivalent_angle_outside_its_regime(capsys, argv):
    # the angle holds for ideal detectors, T1 = T2 and no loss only
    code, out, _ = run(capsys, "state", *argv, "--r", "1", "--s", "0.1")
    assert code == EXIT_OK
    record = parse_kv(out)
    assert "delta_equivalent" not in record
    assert float(record["success_prob"]) > 0


def test_optimize_command(capsys):
    code, out, _ = run(capsys, "optimize", "--r", "0.8")
    assert code == EXIT_OK
    record = parse_kv(out)
    assert float(record["s_star"]) == pytest.approx(0.0046, abs=1e-3)


@pytest.mark.parametrize("family", ["twin-beam", "photon-subtracted",
                                    "photon-added", "squeezed-number"])
def test_optimize_rejects_fixed_family_exit_2(capsys, family):
    # a fixed family has nothing to optimize; it must not print the ideal
    # scheme's optimum under its own label
    code, out, err = run(capsys, "optimize", "--family", family, "--r", "1.0")
    assert code == EXIT_USAGE
    assert out == ""
    assert family in err


def test_optimize_accepts_squeezed_bell_and_schemes(capsys):
    for family in ("squeezed-bell", "scheme-ideal", "scheme-realistic"):
        code, out, _ = run(capsys, "optimize", "--family", family, "--r", "1.0")
        assert code == EXIT_OK
        assert parse_kv(out)["family"] == family


@pytest.mark.parametrize("family", ["twin-beam", "photon-subtracted",
                                    "photon-added", "squeezed-number",
                                    "squeezed-bell"])
def test_sweep_rejects_non_scheme_family_exit_2(capsys, family):
    code, out, err = run(capsys, "sweep", "--family", family, "--r", "1.0",
                         "--axis", "s", "--grid", "0:0.1:0.05")
    assert code == EXIT_USAGE
    assert out == ""
    assert family in err


def test_quadrature_not_converged_exit_3(capsys, monkeypatch):
    # the cross-check needs eight subdivisions at this r; one is not enough
    monkeypatch.setattr(tp, "QUADRATURE_MAX_SUBDIVISIONS", 1)
    code, out, err = run(capsys, "fidelity", "--family", "twin-beam", "--r", "1.0")
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "subdivisions" in err


def test_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "fidelity", "--family", "twin-beam", "--r", "-1")
    assert code == EXIT_USAGE
    assert "nonnegative" in err


def test_missing_r_exit_2(capsys):
    for argv in (("fidelity", "--family", "twin-beam"), ("state",),
                 ("optimize", "--family", "squeezed-bell"),
                 ("sweep", "--axis", "s", "--grid", "0:0.1:0.05")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and "--r" in err


def test_degenerate_postselection_exit_4(capsys):
    code, _, err = run(capsys, "fidelity", "--family", "scheme-ideal",
                       "--r", "0", "--s", "0")
    assert code == EXIT_DEGENERATE


def test_overflowed_heralding_probability_exit_3(capsys):
    code, out, err = run(capsys, "optimize", "--family", "scheme-realistic",
                         "--r", "30")
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "unphysical" in err


@pytest.mark.filterwarnings("ignore::sqbell.kernel.LossyProjectorWarning")
@pytest.mark.parametrize("command", ["fidelity", "optimize"])
def test_singular_ideal_ancilla_block_exit_3(capsys, command):
    # det(M + I) is zero here: a numerical failure, not a usage error
    code, out, err = run(capsys, command, "--r", "26.738066258189228",
                         "--T1", "0.7543225662876089", "--T2", "0.5682437175769997",
                         "--loss", "0.20131574833272692",
                         "--n-thermal", "0.32242675107167806", "--signal-loss-only")
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "unphysical" in err


@pytest.mark.filterwarnings("ignore::sqbell.kernel.LossyProjectorWarning")
def test_unphysical_fidelity_fails_the_state_too(capsys):
    # P = 4.7e-16 with a NaN fidelity: building the state already fails
    for command in ("state", "fidelity"):
        code, out, err = run(capsys, command, "--r", "20", "--s", "0.05",
                             "--loss", "0.1")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "unphysical" in err


def test_unphysical_point_names_every_cause_exit_3(capsys):
    # refused because its ancilla blocks' fourth powers overflow, not for
    # its P = 1; the status does not say which cause it was
    code, out, err = run(capsys, "fidelity", "--family", "scheme-realistic", "--r", "190",
                         "--no-cross-check")
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err == ("numerical failure: unphysical point: success probability 1.0 or"
                   " fidelity out of range, a kernel step overflowed, or a pivot was"
                   " lost to roundoff\n")


@pytest.mark.parametrize("argv", [
    ("fidelity", "--family", "twin-beam", "--r", "nan"),
    ("state", "--family", "twin-beam", "--r", "inf"),
    ("optimize", "--family", "squeezed-bell", "--r", "-1"),
    ("fidelity", "--family", "squeezed-bell", "--r", "1", "--delta", "nan"),
    ("fidelity", "--r", "nan"),
    ("fidelity", "--r", "1", "--s", "inf"),
    ("state", "--r", "1", "--phi-zeta", "nan"),
    ("optimize", "--r", "1", "--n-thermal", "nan"),
    ("sweep", "--r", "nan", "--axis", "s", "--grid", "0:0.1:0.05"),
])
def test_non_finite_or_negative_parameters_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "finite" in err


def test_scheme_flags_default_to_the_config_defaults():
    args = build_parser().parse_args(["state", "--r", "1"])
    assert _config_from_args(args) == rs.SchemeConfig(r=1.0)


def test_one_parser_serves_every_call_in_a_process(capsys):
    # main parses with one cached parser; a flag given to one call, or a
    # call refused with exit 2, must leave nothing behind for the next
    assert _parser() is _parser()
    code, out, _ = run(capsys, "state", "--r", "1", "--s", "0.2", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["s"] == 0.2
    code, plain, _ = run(capsys, "state", "--r", "1", "--format", "json")
    assert code == EXIT_OK and json.loads(plain)["s"] == 0.0
    code, out, err = run(capsys, "fidelity", "--family", "twin-beam", "--r", "1",
                         "--s", "0.3")
    assert code == EXIT_USAGE and out == "" and "--s" in err
    assert run(capsys, "state", "--r", "1", "--format", "json") == (EXIT_OK, plain, "")


# every scheme flag and a value it moves the base to; the base, r = 1,
# s = 0.05, loss 0.1 and eta 0.3 (delta 0.3 for the squeezed Bell family),
# is one where each flag moves the fidelity
FLAG_VALUES = {"r": "1.2", "s": "0.1", "delta": "0.5", "phi-zeta": "1", "phi-xi": "1",
               "T": "0.9", "T1": "0.9", "T2": "0.9", "loss": "0.2", "eta": "0.5",
               "eta3": "0.5", "eta4": "0.5", "n-thermal": "0.3",
               "signal-loss-only": None}
BASE = {"r": "1", "s": "0.05", "delta": "0.3", "loss": "0.1", "eta": "0.3"}
# each sweep axis: a grid, and the flags that set the fields it scans
SWEEP_GRIDS = {"s": ("0:0.1:0.05", {"s"}), "r": ("0.8:1.2:0.4", set()),
               "loss": ("0:0.2:0.1", {"loss"}), "T": ("0.9:0.99:0.09", {"T", "T1", "T2"}),
               "eta": ("0.2:0.6:0.4", {"eta", "eta3", "eta4"})}
# (command, family, sweep axis, optimize) of every command a family can run
RUNS = ([(command, family, None, False) for command in ("state", "fidelity")
         for family in rs.THEORETICAL_FAMILIES + rs.SCHEME_FAMILIES]
        + [("optimize", family, None, False)
           for family in ("squeezed-bell",) + rs.SCHEME_FAMILIES]
        + [("sweep", family, axis, optimize) for family in rs.SCHEME_FAMILIES
           for axis in SWEEP_GRIDS for optimize in (False, True)
           if not (axis == "s" and optimize)
           and not (axis == "eta" and family == "scheme-ideal")])


def flags_read(command, family, axis, optimize):
    """The flags `command` reads for `family`, as the README states them."""
    if family in rs.THEORETICAL_FAMILIES:
        takes_delta = family == "squeezed-bell" and command != "optimize"
        return {"r", "delta"} if takes_delta else {"r"}
    flags = set(FLAG_VALUES) - {"delta"}
    if family == "scheme-ideal":
        flags -= {"eta", "eta3", "eta4"}
    if command == "optimize" or optimize:
        flags -= {"s"}
    if axis is not None:
        flags -= SWEEP_GRIDS[axis][1]
    return flags


def computed(command, out):
    """What a run printed that it computed: a sweep's rows, else the
    fidelity, success probability and optimum of its record; `state` of an
    analytic family reports only r in dB and its angle."""
    if command == "sweep":
        return out
    record = json.loads(out)
    return [record.get(key) for key in
            ("fidelity", "success_prob", "s_star", "delta_star", "r_db", "delta")]


@pytest.mark.filterwarnings("ignore::sqbell.kernel.LossyProjectorWarning")
@pytest.mark.parametrize("flag", FLAG_VALUES)
@pytest.mark.parametrize("command, family, axis, optimize", RUNS)
def test_every_flag_moves_the_output_or_exits_2(capsys, command, family, axis, optimize,
                                                flag):
    reads = flags_read(command, family, axis, optimize)
    argv = [command, "--family", family]
    if command == "sweep":
        argv += ["--axis", axis, "--grid", SWEEP_GRIDS[axis][0]]
        argv += ["--optimize"] if optimize else []
    else:
        argv += ["--format", "json"]
        argv += ["--no-cross-check"] if command == "fidelity" else []
    for name, value in BASE.items():
        if name in reads:
            argv += [f"--{name}", value]
    code, base, _ = run(capsys, *argv)
    assert code == EXIT_OK
    argv += [f"--{flag}"] + ([FLAG_VALUES[flag]] if FLAG_VALUES[flag] else [])
    code, out, err = run(capsys, *argv)
    if flag not in reads:
        assert code == EXIT_USAGE
        assert out == "" and f"--{flag} " in err and family in err
    elif flag == "r" and axis == "r":
        # the one exception: --r is required, but the axis sets r at every row
        assert (code, out) == (EXIT_OK, base)
    else:
        assert code == EXIT_OK
        assert computed(command, out) != computed(command, base)


@pytest.mark.parametrize("order, expected", [
    (("--T", "0.9", "--T1", "0.95"), (0.95, 0.9)),
    (("--T1", "0.95", "--T", "0.9"), (0.9, 0.9)),
    (("--T2", "0.8", "--T", "0.9", "--T1", "0.95"), (0.95, 0.9)),
])
def test_the_last_flag_to_set_a_field_wins(capsys, order, expected):
    code, out, _ = run(capsys, "state", "--r", "1", "--s", "0.05", *order,
                       "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert (record["T1"], record["T2"]) == expected


def test_sweep_refuses_to_optimize_along_s_exit_2(capsys):
    code, out, err = run(capsys, "sweep", "--r", "1", "--axis", "s",
                         "--grid", "0:1:0.25", "--optimize")
    assert code == EXIT_USAGE
    assert out == ""
    assert "along s" in err


@pytest.mark.parametrize("optimize", [(), ("--optimize",)])
def test_sweep_refuses_eta_with_ideal_projectors_exit_2(capsys, optimize):
    code, out, err = run(capsys, "sweep", "--family", "scheme-ideal", "--r", "1",
                         "--s", "0.01", "--axis", "eta", "--grid", "0.1:0.5:0.2", *optimize)
    assert code == EXIT_USAGE
    assert out == ""
    assert "along eta" in err


@pytest.mark.parametrize("argv, message", [
    (("state", "--r", "-1"), "r must be finite and nonnegative"),
    (("state", "--r", "1", "--phi-zeta", "inf"), "phi_zeta must be finite"),
    (("state", "--r", "1", "--T", "0"), "T1 must lie in (0, 1]"),
    (("state", "--r", "1", "--n-thermal", "-1"), "n_thermal must be finite and nonnegative"),
    (("state", "--family", "scheme-realistic", "--r", "1", "--eta3", "0"),
     "eta3 must lie in (0, 1]"),
    (("sweep", "--r", "1", "--axis", "s", "--grid", "0:1:0.5", "--optimize"),
     "a sweep along s cannot also optimize s at each point"),
    (("sweep", "--r", "1", "--axis", "eta", "--grid", "0.1:0.5:0.2"),
     "ideal projectors have no efficiency to sweep along eta"),
    (("sweep", "--r", "1", "--axis", "loss", "--grid", "0:1:0.5"),
     "--loss must lie in [0, 1)"),
    (("sweep", "--r", "1", "--axis", "r", "--grid", "0.5:1:0.5", "--optimize", "--s", "0.5"),
     "sweep along r does not read --s for family scheme-ideal"),
    # the flag and the sweep axis name the loss level alike
    (("state", "--r", "1", "--loss", "1"), "--loss must lie in [0, 1)"),
])
def test_refusal_messages_are_exact(capsys, argv, message):
    # the whole stderr line of each refusal the flag table and the
    # configuration checks decide, so a rewrite of either keeps it as it is
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("grid, message", [
    ("0:inf:0.1", "finite"), ("nan:1:0.1", "finite"), ("0:1:-inf", "finite"),
    (f"0:{MAX_GRID_POINTS}:1", "MAX_GRID_POINTS")])
def test_non_finite_or_oversized_grid_exit_2(capsys, grid, message):
    code, out, err = run(capsys, "sweep", "--r", "1", "--axis", "s", "--grid", grid)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


def test_largest_grid_is_accepted(capsys):
    code, out, _ = run(capsys, "sweep", "--r", "1", "--axis", "T",
                       "--grid", f"0.5:{0.5 + (MAX_GRID_POINTS - 1) * 5e-5}:5e-5")
    assert code == EXIT_OK
    assert out.count("\n") == MAX_GRID_POINTS + 1


# a point of each dataset of scheme rows: its column field and value, and
# how the error names it: after the CSV's label of its series, where the
# dataset has several (in fig3 and fig6, s = 0.8 first ends the r = 0.8
# series; in fig4, fig5 and fig7 the optimized series comes first)
FAILING_POINTS = {"table2": ("r", 1.6, "failure: r = 1.6: "),
                  "fig3": ("s", 0.8, "failure: r=0.8: s = 0.8: "),
                  "fig4": ("r", 1.6, "failure: scheme-optimized: r = 1.6: "),
                  "fig5": ("r", 1.6, "failure: scheme-optimized: r = 1.6: "),
                  "fig6": ("s", 0.8, "failure: r=0.8: s = 0.8: "),
                  "fig7": ("T_loss", 0.9, "failure: optimized: loss = 0.1: ")}


@pytest.mark.parametrize("target, failure", [
    *(pytest.param(target, kernel.UNPHYSICAL, id=target) for target in FAILING_POINTS),
    # a degenerate point is refused with the exit code `optimize` gives it
    pytest.param("table2", kernel.DEGENERATE, id="table2-degenerate")])
def test_failed_dataset_point_exit_3_and_writes_nothing(tmp_path, capsys,
                                                        monkeypatch, target, failure):
    field, value, name = FAILING_POINTS[target]
    columns_pf = kernel.columns_pf

    def failing(columns, detector):
        P, F, status = columns_pf(columns, detector)
        status[np.isclose(columns[kernel.COLUMN_FIELDS.index(field)], value)] = failure
        return P, F, status

    monkeypatch.setattr(kernel, "columns_pf", failing)
    code, out, err = run(capsys, "reproduce", target, "--outdir", str(tmp_path))
    assert out == ""
    if failure == kernel.DEGENERATE:
        assert code == EXIT_DEGENERATE
        assert err.startswith("degenerate postselection: ")
        assert name.removeprefix("failure: ") + "degenerate-postselection: " in err
    else:
        assert code == EXIT_NUMERICAL
        assert name in err and "PhysicalityError" in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_target_exit_2(capsys):
    code = main(["reproduce", "table9"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_sweep_command_monotone(tmp_path, capsys):
    out_file = tmp_path / "loss.csv"
    code, out, _ = run(capsys, "sweep", "--family", "scheme-realistic",
                       "--r", "1.6", "--eta", "0.15", "--axis", "loss",
                       "--grid", "0:0.3:0.05", "--optimize",
                       "--output", str(out_file))
    assert code == EXIT_OK
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "loss,fidelity,success_prob,s_star,error"
    fids = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(fids) == 7
    assert all(b < a for a, b in zip(fids, fids[1:]))
    sidecar = json.loads(out_file.with_suffix(".config.json").read_text())
    assert sidecar["config"]["r"] == 1.6
    assert sidecar["version"]


def test_sweep_without_output_prints_the_csv(tmp_path, capsys):
    argv = ("sweep", "--family", "scheme-realistic", "--r", "1.3", "--eta", "0.2",
            "--axis", "s", "--grid", "0:0.2:0.1")
    code, printed, _ = run(capsys, *argv)
    assert code == EXIT_OK
    out_file = tmp_path / "s.csv"
    assert run(capsys, *argv, "--output", str(out_file))[0] == EXIT_OK
    assert printed == out_file.read_text()
    assert printed.count("\n") == 4


def test_reproduce_table2_schema_and_values(tmp_path, capsys):
    code, out, _ = run(capsys, "reproduce", "table2", "--outdir", str(tmp_path))
    assert code == EXIT_OK
    lines = (tmp_path / "table2.csv").read_text().strip().splitlines()
    assert lines[0] == "r,s_star,fidelity"
    assert len(lines) == 9
    rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert rows[1.6] == pytest.approx(0.056, abs=0.005)
    sidecar = json.loads((tmp_path / "table2.config.json").read_text())
    assert sidecar["target"] == "table2"


def test_reproduce_fig7_series(tmp_path, capsys):
    code, out, _ = run(capsys, "reproduce", "fig7", "--outdir", str(tmp_path))
    assert code == EXIT_OK
    lines = (tmp_path / "fig7.csv").read_text().strip().splitlines()
    series = {line.split(",")[0] for line in lines[1:]}
    assert series == {"optimized", "s=0", "s=r"}
    losses = sorted({float(line.split(",")[1]) for line in lines[1:]})
    assert losses[0] == 0.0 and losses[-1] == pytest.approx(0.30)


@pytest.mark.parametrize("target", list(DATASETS))
def test_byte_identical_reruns(tmp_path, capsys, target):
    for outdir in ("a", "b"):
        assert run(capsys, "reproduce", target, "--outdir",
                   str(tmp_path / outdir))[0] == EXIT_OK
    for suffix in (".csv", ".config.json"):
        assert (tmp_path / "a" / (target + suffix)).read_bytes() == \
            (tmp_path / "b" / (target + suffix)).read_bytes()


# the datasets and sidecars as written before the optimizer's searches ran
# in lockstep; a change to the search must not move a byte of them
COMMITTED = Path(__file__).parent / "data" / "reproduce"
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("target", list(DATASETS))
def test_reproduce_matches_committed_datasets(tmp_path, capsys, target):
    assert run(capsys, "reproduce", target, "--outdir", str(tmp_path))[0] == EXIT_OK
    for suffix in (".csv", ".config.json"):
        assert (tmp_path / (target + suffix)).read_bytes() == \
            (COMMITTED / (target + suffix)).read_bytes()


# kernel calls of each dataset: one plain call for the s sweeps of fig3 and
# fig6 (all eight series), and otherwise one per round of the longest
# search (its coarse grid, its opening pair, then two golden-section steps
# a round), the plain series joining the first round
KERNEL_CALLS = {"table2": 10, "fig3": 1, "fig4": 10, "fig5": 10, "fig6": 1, "fig7": 9}


@pytest.mark.parametrize("target", list(DATASETS))
def test_each_dataset_makes_one_kernel_call_per_search_round(tmp_path, monkeypatch, target):
    columns_pf, calls = kernel.columns_pf, []

    def counting(columns, detector):
        calls.append(columns.shape[1])
        return columns_pf(columns, detector)

    monkeypatch.setattr(kernel, "columns_pf", counting)
    DATASETS[target](tmp_path)
    assert len(calls) == KERNEL_CALLS[target]


def test_committed_datasets_and_reproduce_all_follow_the_table():
    # one CSV and one sidecar per target of cli.DATASETS, and nothing else;
    # scripts/reproduce_all.py takes its targets from the table
    expected = {target + suffix for target in DATASETS
                for suffix in (".csv", ".config.json")}
    assert {p.name for p in COMMITTED.iterdir()} == expected
    script = (ROOT / "scripts" / "reproduce_all.py").read_text()
    assert [target for target in DATASETS if target in script] == []


def test_dataset_sidecar_is_not_a_config_file(capsys):
    # a dataset sidecar records provenance; its keys are no flags of the CLI
    code, out, err = run(capsys, "--config", str(COMMITTED / "table2.config.json"),
                         "reproduce", "table2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "unrecognized arguments" in err


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"r": 1.6, "s": 0.056, "family": "scheme-ideal",
                                    "no-cross-check": True}))
    code, out, _ = run(capsys, "fidelity", "--config", str(cfg_file))
    assert code == EXIT_OK
    assert float(parse_kv(out)["fidelity"]) == pytest.approx(0.974, abs=2e-3)
    # explicit flag wins over the file value
    code, out, _ = run(capsys, "fidelity", "--config", str(cfg_file), "--s", "0")
    assert float(parse_kv(out)["fidelity"]) == pytest.approx(0.9615, abs=2e-3)


def test_config_file_equals_form(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"family": "twin-beam", "r": 0.5}))
    spaced = run(capsys, "--config", str(cfg_file), "fidelity", "--no-cross-check")
    joined = run(capsys, f"--config={cfg_file}", "fidelity", "--no-cross-check")
    assert spaced[0] == joined[0] == EXIT_OK
    assert joined[1] == spaced[1]
    assert float(parse_kv(joined[1])["fidelity"]) == pytest.approx(0.731, abs=1e-3)
    # an explicit --flag=value still wins over the file value
    code, out, _ = run(capsys, f"--config={cfg_file}", "fidelity",
                       "--no-cross-check", "--r=0")
    assert code == EXIT_OK
    assert float(parse_kv(out)["fidelity"]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("explicit, expected", [
    (("--T1", "0.9", "--eta3", "0.5"), (0.9, 0.95, 0.5, 0.3)),
    (("--T2", "0.9", "--eta4", "0.5"), (0.95, 0.9, 0.3, 0.5)),
])
def test_explicit_field_flag_beats_a_config_shortcut(tmp_path, capsys, explicit, expected):
    # the file's T and eta set both fields; an explicit field keeps its value
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"T": 0.95, "eta": 0.3}))
    code, out, _ = run(capsys, "state", "--config", str(cfg_file), "--family",
                       "scheme-realistic", "--r", "0.5", "--s", "0.05", *explicit,
                       "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert (record["T1"], record["T2"], record["eta3"], record["eta4"]) == expected


def test_abbreviated_flag_beats_config(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"n-thermal": 0.2}))
    code, out, _ = run(capsys, "state", "--config", str(cfg_file), "--r", "0.5",
                       "--s", "0.05", "--n-therm", "0.1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["n_thermal"] == 0.1


def test_config_without_path_exit_2(capsys):
    code, _, err = run(capsys, "fidelity", "--config")
    assert code == EXIT_USAGE
    assert "--config" in err


def test_repeated_config_exit_2(tmp_path, capsys):
    # a second --config is refused in either form, not silently dropped
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps({"r": 0.5}))
    second.write_text(json.dumps({"r": 0.9}))
    for argv in (("--config", str(first), "--config", str(second)),
                 (f"--config={first}", f"--config={second}"),
                 ("--config", str(first), f"--config={second}"),
                 ("--conf", str(first), "--config", str(second))):
        code, out, err = run(capsys, *argv, "state", "--family", "twin-beam")
        assert code == EXIT_USAGE
        assert "--config is given more than once" in err and not out


@pytest.mark.parametrize("config", [("--conf", "{}"), ("--conf={}",), ("--c", "{}")])
@pytest.mark.parametrize("before_command", [True, False])
def test_abbreviated_config_applies_the_file(tmp_path, capsys, config, before_command):
    # an abbreviated --config is read like any other abbreviated flag
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"s": 0.3}))
    config = tuple(arg.format(cfg_file) for arg in config)
    command = ("state", "--r", "1", "--format", "json")
    argv = config + command if before_command else command + config
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["s"] == 0.3


def test_config_path_unreadable_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "fidelity", "--config", str(tmp_path))
    assert code == EXIT_USAGE
    assert "error" in err
    code, _, _ = run(capsys, "fidelity", "--config", str(tmp_path / "missing.json"))
    assert code == EXIT_USAGE


def test_sidecar_reproduces_sweep(tmp_path, capsys):
    first = tmp_path / "first.csv"
    run(capsys, "sweep", "--family", "scheme-realistic", "--r", "1.3",
        "--eta", "0.2", "--loss", "0.1", "--axis", "s", "--grid", "0:0.2:0.1",
        "--output", str(first))
    second = tmp_path / "second.csv"
    code, _, _ = run(capsys, "sweep", "--config",
                     str(first.with_suffix(".config.json")),
                     "--output", str(second))
    assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("argv, flags", [
    (("--family", "scheme-ideal", "--r", "1", "--s", "0.05", "--loss", "0.1",
      "--n-thermal", "0.2", "--axis", "T", "--grid", "0.9:0.99:0.03"),
     {"r": 1.0, "s": 0.05, "loss": 0.1, "n-thermal": 0.2}),
    (("--family", "scheme-realistic", "--r", "1", "--T1", "0.8", "--T", "0.9",
      "--T2", "0.95", "--eta", "0.3", "--axis", "loss", "--grid", "0:0.2:0.1",
      "--optimize"),
     {"r": 1.0, "T": 0.9, "T2": 0.95, "eta": 0.3}),
], ids=["ideal-along-T", "optimize"])
@pytest.mark.filterwarnings("ignore::sqbell.kernel.LossyProjectorWarning")
def test_sidecar_holds_the_flags_read_and_reproduces_sweep(tmp_path, capsys, argv, flags):
    # the sidecar of a sweep holds the flags its command read, less those a
    # later flag overrode, so feeding it back passes none the command refuses
    first = tmp_path / "first.csv"
    assert run(capsys, "sweep", *argv, "--output", str(first))[0] == EXIT_OK
    sidecar = json.loads(first.with_suffix(".config.json").read_text())
    assert {k: v for k, v in sidecar["flags"].items()
            if k not in ("family", "axis", "grid", "optimize")} == flags
    second = tmp_path / "second.csv"
    code, _, _ = run(capsys, "sweep", "--config", str(first.with_suffix(".config.json")),
                     "--output", str(second))
    assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(second.with_suffix(".config.json").read_text()) == sidecar


def test_json_output_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    code, _, _ = run(capsys, "fidelity", "--family", "twin-beam", "--r", "1.2",
                     "--no-cross-check", "--output", str(out_file))
    assert code == EXIT_OK
    record = json.loads(out_file.read_text())
    assert record["family"] == "twin-beam"
    assert 0.9 < record["fidelity"] < 1.0


def test_module_entry_point_attributes_the_warning_to_a_source_file():
    # under `python -m` the first frame outside the package is runpy's
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(kernel.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "sqbell.cli", "state", "--r", "0.5",
         "--s", "0.05", "--loss", "0.1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK
    assert "LossyProjectorWarning" in proc.stderr
    assert "<frozen" not in proc.stderr


@pytest.mark.parametrize("argv, config, message", [
    (("state", "--r", "1", "--loss", "1"), None, "--loss must lie in [0, 1)"),
    (("state", "--r", "1", "--loss", "-0.1"), None, "--loss must lie in [0, 1)"),
    (("sweep", "--r", "1", "--axis", "s", "--grid", "0:1"), None, "start:stop:step"),
    (("sweep", "--r", "1", "--axis", "s", "--grid", "0:1:0.1:2"), None, "start:stop:step"),
    (("sweep", "--r", "1", "--axis", "s", "--grid", "0:1:0"), None, "step must be positive"),
    (("sweep", "--r", "1", "--axis", "s", "--grid", "0:1:-0.1"), None, "step must be positive"),
    (("sweep", "--r", "1", "--axis", "s", "--grid", "1e308:-1e308:1e-300"), None,
     "point count (stop - start) / step is not finite"),
    (("state",), "[0.5, 0.05]", "JSON object"),
], ids=["loss-one", "loss-negative", "grid-two-parts", "grid-four-parts", "step-zero",
        "step-negative", "grid-span-overflow", "config-list"])
def test_refusals_exit_2(tmp_path, capsys, argv, config, message):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(config)
        argv = ("--config", str(path), *argv)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


def test_signal_loss_only_sidecar_round_trip(tmp_path, capsys):
    # the sidecar records the flag, and --config feeds it back
    first = tmp_path / "first.csv"
    code, _, _ = run(capsys, "sweep", "--family", "scheme-realistic", "--r", "1.0",
                     "--eta", "0.3", "--loss", "0.2", "--signal-loss-only",
                     "--axis", "s", "--grid", "0:0.1:0.05", "--output", str(first))
    assert code == EXIT_OK
    sidecar = json.loads(first.with_suffix(".config.json").read_text())
    assert sidecar["flags"]["signal-loss-only"] is True
    assert sidecar["config"]["loss_on_detector_modes"] is False
    second = tmp_path / "second.csv"
    code, _, _ = run(capsys, "sweep", "--config", str(first.with_suffix(".config.json")),
                     "--output", str(second))
    assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(second.with_suffix(".config.json").read_text()) == sidecar

"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqbell import kernel
from sqbell import resources as rs
from sqbell import teleport as tp
from sqbell.cli import EXIT_DEGENERATE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


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
    P, F, status = rs.scheme_pf([cfg], "on-off")
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


def test_state_reports_equivalent_angle(capsys):
    code, out, _ = run(capsys, "state", "--family", "scheme-ideal",
                       "--r", "1", "--s", "0.011", "--T", "0.99")
    assert code == EXIT_OK
    record = parse_kv(out)
    assert float(record["delta_equivalent"]) == pytest.approx(0.4432, abs=1e-3)
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
    # the cross-check needs about ten subdivisions; one is not enough
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
    code, _, err = run(capsys, "fidelity", "--family", "twin-beam")
    assert code == EXIT_USAGE


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
def test_unphysical_fidelity_fails_the_state_too(capsys):
    # P = 4.7e-16 with a NaN fidelity: building the state already fails
    for command in ("state", "fidelity"):
        code, out, err = run(capsys, command, "--r", "20", "--s", "0.05",
                             "--loss", "0.1")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "unphysical" in err


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


@pytest.mark.parametrize("target", ["table2", "fig3", "fig4", "fig5", "fig6", "fig7"])
def test_byte_identical_reruns(tmp_path, capsys, target):
    for outdir in ("a", "b"):
        assert run(capsys, "reproduce", target, "--outdir",
                   str(tmp_path / outdir))[0] == EXIT_OK
    for suffix in (".csv", ".config.json"):
        assert (tmp_path / "a" / (target + suffix)).read_bytes() == \
            (tmp_path / "b" / (target + suffix)).read_bytes()


# the datasets and sidecars as written before the optimizer's searches ran
# in lockstep; a change to the search must not move a byte of them
DATASETS = Path(__file__).parent / "data" / "reproduce"


@pytest.mark.parametrize("target", ["table2", "fig3", "fig4", "fig5", "fig6", "fig7"])
def test_reproduce_matches_committed_datasets(tmp_path, capsys, target):
    assert run(capsys, "reproduce", target, "--outdir", str(tmp_path))[0] == EXIT_OK
    for suffix in (".csv", ".config.json"):
        assert (tmp_path / (target + suffix)).read_bytes() == \
            (DATASETS / (target + suffix)).read_bytes()


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


def test_config_without_path_exit_2(capsys):
    code, _, err = run(capsys, "fidelity", "--config")
    assert code == EXIT_USAGE
    assert "--config" in err


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

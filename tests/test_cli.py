import importlib
import json
import math
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import fracvar.constants
from fracvar.cli import main
from fracvar.constants import bubble_constants
from fracvar.mountainpass import MountainPassError
from fracvar.problem import ConfigError, load_config
from fracvar.quad import QuadratureError
from fracvar.solver import SolverError, assemble, first_eigenvalue

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CFG = str(ROOT / "default.cfg")


@pytest.fixture(autouse=True)
def _sandbox_cwd(tmp_path, monkeypatch):
    # commands default --out to "."; keep stray artifacts out of the repo
    monkeypatch.chdir(tmp_path)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_constants_json(tmp_path, capsys):
    rc, out, _ = run(capsys, "constants", "--n", "6", "--s", "0.5",
                     "--q", "2.2", "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["q_s"] == pytest.approx(2.4)
    assert payload["Ss"] == pytest.approx(148.1374078903823, rel=1e-10)
    assert payload["Kq_s"] is not None
    # keys sorted in the emitted bytes
    raw = (tmp_path / "constants.json").read_text()
    keys = [line.split('"')[1] for line in raw.splitlines() if '":' in line]
    assert keys == sorted(keys)


def test_validate_default_config(capsys):
    rc, out, _ = run(capsys, "validate", "--config", DEFAULT_CFG)
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_validate_inadmissible_order_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 3\ns = 0.3\nseed = 1\n")
    rc, out, err = run(capsys, "validate", "--config", str(cfg))
    assert rc == 2
    assert "s < 0.25" in err
    assert json.loads(out)["ns_admissible"] is False


def test_validate_structural_error_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 2\ns = 0.5\nseed = 1\n")
    rc, _, err = run(capsys, "validate", "--config", str(cfg))
    assert rc == 2
    assert "E_DIMENSION" in err


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "nosuchcommand")[0] == 1
    assert run(capsys, "constants")[0] == 1  # missing required --n/--s
    rc, _, err = run(capsys, "fiber", "--config", DEFAULT_CFG, "--eps-grid", ",")
    assert rc == 1
    assert "usage" in err


def test_missing_config_file_exits_1(capsys):
    rc, _, _ = run(capsys, "eigen", "--config", "/nonexistent/x.cfg")
    assert rc == 1


def test_malformed_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 6\ns = 0.5\nbogus_key = 1\nseed = 1\n")
    rc, _, err = run(capsys, "validate", "--config", str(cfg))
    assert rc == 1
    assert "ConfigError" in err


@pytest.mark.parametrize("weight_lines", [
    "weight.variant = Constant\n",
    "weight.variant = TabulatedRadial\nweight.table = 0:1.0, 1:1.2, 2:1.0\n",
], ids=["Constant", "TabulatedRadial"])
def test_weight_variants_the_commands_ignore_exit_1(tmp_path, capsys, weight_lines):
    # every command rebuilds a TruncatedPower weight (default.cfg's variant,
    # which the other CLI tests run), so another variant is refused
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(Path(DEFAULT_CFG).read_text().replace("weight.variant = TruncatedPower\n", weight_lines))
    for command in ("validate", "eigen"):
        rc, out, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path))
        assert (rc, out) == (1, "")
        assert "ConfigError" in err and "TruncatedPower" in err


def test_bubble_point_values(capsys):
    rc, out, _ = run(capsys, "bubble", "--eps", "0.2", "--x", "0.5")
    assert rc == 0
    payload = json.loads(out)
    assert 0.0 < payload["u"] < payload["U"]


def test_bubble_norms_csv(tmp_path, capsys):
    rc, _, _ = run(capsys, "bubble-norms", "--q", "2.4",
                   "--eps-grid", "0.2,0.1", "--out", str(tmp_path))
    assert rc == 0
    lines = (tmp_path / "bubble_norms.csv").read_text().splitlines()
    assert lines[0] == "eps,lq_norm"
    assert len(lines) == 3
    eps, val = lines[1].split(",")
    assert float(eps) == 0.2
    # 12-significant-digit scientific format
    assert "e" in val and len(val.split("e")[0].split(".")[1]) == 11
    assert float(val) == pytest.approx(bubble_constants(6, 0.5).Kqs, rel=1e-2)


def test_seminorm_radial(tmp_path, capsys):
    rc, out, _ = run(capsys, "seminorm", "--config", DEFAULT_CFG,
                     "--eps", "0.5", "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["method"] == "RadialDeterministic"
    assert payload["value"] > 0.0


def test_seminorm_mc_seed_reproducible(tmp_path, capsys):
    args = ("seminorm", "--config", DEFAULT_CFG, "--method", "mc",
            "--eps", "1.0", "--samples", "50000", "--seed", "9",
            "--out", str(tmp_path))
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.loads(out1)["method"] == "MonteCarlo"


def test_fiber_csv(tmp_path, capsys):
    rc, out, _ = run(capsys, "fiber", "--config", DEFAULT_CFG,
                     "--eps-grid", "0.2", "0.1", "--out", str(tmp_path))
    assert rc == 0
    lines = (tmp_path / "fiber.csv").read_text().splitlines()
    assert lines[0] == "eps,X_tilde,t_eps,Y_eps,limit_gap"
    gaps = [float(line.split(",")[4]) for line in lines[1:]]
    assert gaps[0] > gaps[1] > 0.0
    assert json.loads(out)["final_limit_gap"] == pytest.approx(gaps[1], rel=1e-9)


def test_minimize_outputs(tmp_path, capsys):
    rc, out, _ = run(capsys, "minimize", "--config", DEFAULT_CFG,
                     "--grid", "64", "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["energy"] < bubble_constants(6, 0.5).Ss
    lines = (tmp_path / "minimize_field.csv").read_text().splitlines()
    assert lines[0] == "r,u"
    assert len(lines) == 66  # 65 nodes + header


def test_eigen_matches_library(tmp_path, capsys):
    rc, out, _ = run(capsys, "eigen", "--config", DEFAULT_CFG,
                     "--grid", "48", "--out", str(tmp_path))
    assert rc == 0
    cfg = load_config(DEFAULT_CFG)
    lam1, _ = first_eigenvalue(assemble(cfg.params, 48))
    assert json.loads(out)["lambda1"] == pytest.approx(lam1, rel=1e-11)


def test_mountain_pass_outputs(tmp_path, capsys):
    rc, out, _ = run(capsys, "mountain-pass", "--config", DEFAULT_CFG,
                     "--grid", "64", "--path-points", "11",
                     "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert 0.0 < payload["beta"] <= payload["level"] * 1.5
    assert payload["level"] < payload["bound"]
    lines = (tmp_path / "mountain_pass_path.csv").read_text().splitlines()
    assert lines[0] == "index,arc_fraction,phi"
    arcs = [float(line.split(",")[1]) for line in lines[1:]]
    assert arcs[0] == 0.0 and arcs[-1] == pytest.approx(1.0)
    assert all(b >= a for a, b in zip(arcs, arcs[1:]))


def test_verify_estimates_single_suite(tmp_path, capsys):
    rc, out, _ = run(capsys, "verify-estimates", "--config", DEFAULT_CFG,
                     "--suite", "A", "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["A"]["pass"] is True
    assert abs(payload["A"]["fit_slope"] - payload["A"]["claimed_rate"]) < 0.3
    lines = (tmp_path / "estimates_A.csv").read_text().splitlines()
    assert lines[0] == "eps,value,fit_residual"


def test_out_env_overrides_flag(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "flag", tmp_path / "env"
    monkeypatch.setenv("FRACVAR_OUT", str(b))
    rc, _, _ = run(capsys, "constants", "--n", "6", "--s", "0.5",
                   "--out", str(a))
    assert rc == 0
    assert (b / "constants.json").exists()
    assert not a.exists()


def test_threads_flag(capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "unset-sentinel")
    rc, _, _ = run(capsys, "constants", "--n", "6", "--s", "0.5",
                   "--threads", "2")
    assert rc == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert run(capsys, "constants", "--n", "6", "--s", "0.5",
               "--threads", "0")[0] == 1


@pytest.mark.parametrize("module, name, argv", [
    ("fracvar.constants", "bubble_constants", ("constants", "--n", "6", "--s", "0.5")),
    ("fracvar.verifysuite", "run_all", ("verify", "--config", DEFAULT_CFG)),
])
@pytest.mark.parametrize("exc", [TypeError("injected"), BrokenProcessPool("injected")])
def test_programming_errors_escape_with_their_traceback(capsys, monkeypatch, module,
                                                        name, argv, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(importlib.import_module(module), name, broken)
    with pytest.raises(type(exc), match="injected"):
        main(list(argv))


@pytest.mark.parametrize("exc, code", [
    (ValueError("bad input"), 2),
    (QuadratureError("no convergence"), 2),
    (SolverError("no convergence"), 2),
    (MountainPassError("no convergence"), 2),
    (ConfigError("bad key"), 1),
])
def test_known_failures_map_to_exit_codes(capsys, monkeypatch, exc, code):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(fracvar.constants, "bubble_constants", failing)
    rc, _, err = run(capsys, "constants", "--n", "6", "--s", "0.5")
    assert rc == code
    assert f"{type(exc).__name__}: {exc}" in err

import hashlib
import importlib
import json
import math
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import fracvar.constants
import fracvar.quad
import fracvar.solver
import fracvar.verifysuite
from fracvar.cli import _build_parser, main
from fracvar.constants import bubble_constants
from fracvar.mountainpass import MountainPassError
from fracvar.problem import ConfigError, load_config
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


@pytest.mark.parametrize("extra", ["seed = -1\n", "weight.table = 0:1.0, 1:1.2, 2:1.0\n"],
                         ids=["negative-seed", "table-without-variant"])
def test_config_keys_that_change_nothing_exit_1(tmp_path, capsys, extra):
    # a negative seed would fail later inside numpy; no weight reads a table
    text = "".join(line for line in Path(DEFAULT_CFG).read_text().splitlines(keepends=True)
                   if not line.startswith("seed"))
    cfg = tmp_path / "extra.cfg"
    cfg.write_text(text + extra)
    rc, out, err = run(capsys, "validate", "--config", str(cfg))
    assert (rc, out) == (1, "")
    assert "ConfigError" in err


@pytest.mark.parametrize("table", ["0:1.0, x:1.2", "1:1.0, 2:1.2"], ids=["not-a-number", "not-from-0"])
def test_malformed_weight_table_exits_1(tmp_path, capsys, table):
    # weight.table is an unknown key, well-formed or not
    cfg = tmp_path / "table.cfg"
    cfg.write_text(Path(DEFAULT_CFG).read_text().replace(
        "weight.variant = TruncatedPower\n",
        f"weight.variant = TabulatedRadial\nweight.table = {table}\n"))
    rc, out, err = run(capsys, "validate", "--config", str(cfg))
    assert (rc, out) == (1, "")
    assert "ConfigError" in err and "weight.table" in err


@pytest.mark.parametrize("weight_lines", [
    "weight.variant = Constant\n",
    "weight.variant = TabulatedRadial\n",
], ids=["Constant", "TabulatedRadial"])
def test_weight_variants_the_commands_ignore_exit_1(tmp_path, capsys, weight_lines):
    # the weight is the TruncatedPower bump of the parameters (default.cfg's
    # variant, which the other CLI tests run), so another variant is refused
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(Path(DEFAULT_CFG).read_text().replace("weight.variant = TruncatedPower\n", weight_lines))
    for command, *rest in (("validate",), ("eigen", "--out", str(tmp_path))):
        rc, out, err = run(capsys, command, "--config", str(cfg), *rest)
        assert (rc, out) == (1, "")
        assert "ConfigError" in err and "TruncatedPower" in err


@pytest.mark.parametrize("line, code", [
    ("R = 2.0", "E_DOMAIN"), ("q = 3.5", "E_EXPONENT"), ("p0 = -1.0", "E_WEIGHT_MIN"),
], ids=["R", "q", "p0"])
@pytest.mark.parametrize("command", [
    ("eigen", "--grid", "32"), ("minimize", "--grid", "32"), ("seminorm", "--eps", "0.5"),
    ("mountain-pass", "--grid", "32"),
], ids=lambda argv: argv[0])
def test_invalid_config_exits_2_before_computing(tmp_path, capsys, monkeypatch, command, line, code):
    # validate's errors stop every command that loads the config, not only validate
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(ln for ln in Path(DEFAULT_CFG).read_text().splitlines(keepends=True)
                           if ln.split("=")[0].strip() != line.split("=")[0].strip()) + line + "\n")
    for name in ("assemble", "first_eigenvalue", "minimize_S"):
        monkeypatch.setattr(fracvar.solver, name, None)  # any computation raises TypeError
    monkeypatch.setattr(fracvar.quad, "seminorm_radial", None)
    out = tmp_path / "out"
    rc, stdout, err = run(capsys, *command, "--config", str(cfg), "--out", str(out))
    assert (rc, stdout) == (2, "")
    assert code in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("bubble", "--eps", "nan", "--x", "0.5"),
    ("bubble", "--eps", "0.2", "--x", "0.5", "--eta", "inf"),
    ("seminorm", "--config", DEFAULT_CFG, "--eps", "nan"),
    ("fiber", "--config", DEFAULT_CFG, "--eps-grid", "0.2,nan,0.1"),
], ids=["bubble-eps", "bubble-eta", "seminorm", "fiber"])
def test_non_finite_widths_exit_2(tmp_path, capsys, argv):
    # eps <= 0 is false for NaN; a width must be finite and positive
    rc, out, err = run(capsys, *argv, *(("--out", str(tmp_path)) if argv[0] != "bubble" else ()))
    assert (rc, out) == (2, "")
    assert "must be finite and positive" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("bubble", "--eps", "0.2", "--x", "nan"),
    ("bubble", "--eps", "0.2", "--x", "-1"),
    ("bubble", "--eps", "0.2", "--x", "inf"),
    ("seminorm", "--config", DEFAULT_CFG, "--method", "mc", "--eps", "1.0", "--samples", "0"),
    ("seminorm", "--config", DEFAULT_CFG, "--method", "mc", "--eps", "1.0", "--samples", "-5"),
], ids=["x-nan", "x-negative", "x-inf", "samples-0", "samples-negative"])
def test_bad_radius_or_sample_count_exits_2(tmp_path, capsys, argv):
    # a radius is finite and >= 0, and Monte Carlo needs at least one pair
    out = tmp_path / "out"
    rc, stdout, err = run(capsys, *argv, *(("--out", str(out)) if argv[0] != "bubble" else ()))
    assert (rc, stdout) == (2, "")
    assert "ValueError" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (("bubble", "--eps", "0.2", "--x", "0.5", "--s", "nan"), "--s"),
    (("bubble", "--eps", "0.2", "--x", "0.5", "--n", "0"), "--n"),
    (("bubble-norms", "--q", "nan", "--eps-grid", "0.2"), "--q"),
    (("bubble-norms", "--q", "2.4", "--s", "5", "--eps-grid", "0.2"), "--s"),
    (("constants", "--n", "6", "--s", "0.5", "--q", "nan"), "--q"),
    (("constants", "--n", "6", "--s", "nan"), "--s"),
    (("constants", "--n", "6", "--s", "0.5", "--q", "0.5"), "--q"),
    (("constants", "--n", "2", "--s", "0.5"), "--n"),
    (("verify", "--config", DEFAULT_CFG, "--tol", "nan"), "--tol"),
    (("verify", "--config", DEFAULT_CFG, "--tol=-1e300"), "--tol"),
    (("verify", "--config", DEFAULT_CFG, "--tol", "-1e300"), "--tol"),
    (("bubble", "--eps", "0.2", "--x", "-1e-3"), "--x"),
], ids=["bubble-s-nan", "bubble-n-0", "norms-q-nan", "norms-s-5", "constants-q-nan",
        "constants-s-nan", "constants-q-diverges", "constants-n-2", "verify-tol-nan",
        "verify-tol-negative", "verify-tol-negative-exponent", "bubble-x-negative-exponent"])
def test_bad_shape_flags_exit_2(tmp_path, capsys, monkeypatch, argv, flag):
    # n >= 3 and 0 < s < 1 as in critical_exponent, q where the command's integral
    # converges, tol finite and >= 0, x >= 0; the battery must not start.  A
    # negative value in exponent notation is a value, not an option name.
    monkeypatch.setattr(fracvar.verifysuite, "run_all", None)
    out = tmp_path / "out"
    rc, stdout, err = run(capsys, *argv, *(("--out", str(out)) if argv[0] != "bubble" else ()))
    assert (rc, stdout) == (2, "")
    assert f"ValueError: {flag} " in err
    assert not out.exists()


def test_bubble_point_values(capsys):
    # --x is the radius; the cutoff is 1 up to eta = 1 and 0 from 2 eta on
    def point(x):
        rc, out, _ = run(capsys, "bubble", "--eps", "0.2", "--x", str(x))
        assert rc == 0
        payload = json.loads(out)
        return payload["U"], payload["u"]

    U, u = point(0.5)
    assert U == pytest.approx((0.2 / (0.2**2 + 0.5**2)) ** ((6 - 2 * 0.5) / 2), rel=1e-12)
    assert u == U
    U, u = point(1.5)
    assert 0.0 < u < U
    assert point(2.5)[1] == 0.0


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


# The shortest valid call of each command, and the flags the command does not read.
_BASE_ARGV = {
    "validate": ("--config", DEFAULT_CFG),
    "constants": ("--n", "6", "--s", "0.5"),
    "bubble": ("--eps", "0.2", "--x", "0.5"),
    "bubble-norms": ("--q", "2.4", "--eps-grid", "0.2"),
    "seminorm": ("--config", DEFAULT_CFG, "--eps", "0.5"),
    "verify-estimates": ("--config", DEFAULT_CFG, "--suite", "norms"),
    "minimize": ("--config", DEFAULT_CFG, "--grid", "16"),
    "eigen": ("--config", DEFAULT_CFG, "--grid", "16"),
    "fiber": ("--config", DEFAULT_CFG, "--eps-grid", "0.2"),
    "mountain-pass": ("--config", DEFAULT_CFG, "--grid", "16"),
    "verify": ("--config", DEFAULT_CFG),
}
_UNREAD = {
    "validate": ("--out", "--seed", "--threads", "--tol"),
    "constants": ("--config", "--seed", "--threads", "--tol"),
    "bubble": ("--config", "--out", "--seed", "--threads", "--tol"),
    "bubble-norms": ("--config", "--seed", "--threads", "--tol"),
    "seminorm": ("--threads", "--tol"),
    "verify-estimates": ("--threads", "--tol"),
    "minimize": ("--seed", "--threads", "--tol"),
    "eigen": ("--seed", "--threads", "--tol"),
    "fiber": ("--seed", "--threads", "--tol"),
    "mountain-pass": ("--seed", "--threads", "--tol"),
    "verify": ("--threads",),
}
_FLAG_VALUE = {"--out": "d", "--seed": "3", "--threads": "2", "--tol": "5",
               "--config": DEFAULT_CFG}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _UNREAD.items() for f in flags])
def test_flags_a_command_does_not_read_exit_1(tmp_path, capsys, monkeypatch, command, flag):
    monkeypatch.delenv("FRACVAR_OUT", raising=False)
    rc, out, err = run(capsys, command, *_BASE_ARGV[command], flag, _FLAG_VALUE[flag])
    assert (rc, out) == (1, "")
    assert flag in err and "usage" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("seminorm", "--config", DEFAULT_CFG, "--method", "mc", "--eps", "1", "--seed", "-1"),
    ("verify-estimates", "--config", DEFAULT_CFG, "--suite", "delta", "--seed", "-3"),
    ("verify", "--config", DEFAULT_CFG, "--seed", "-1"),
    ("verify", "--config", DEFAULT_CFG, "--seed", str(2**64)),
    ("verify", "--config", DEFAULT_CFG, "--seed", "1.5"),
])
def test_seed_outside_u64_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    def not_started(*args, **kwargs):
        raise AssertionError("the battery started")

    monkeypatch.setattr(fracvar.verifysuite, "run_all", not_started)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert "--seed" in err and "2^64" in err
    assert list(tmp_path.iterdir()) == []


def test_largest_u64_seed_is_accepted():
    args = _build_parser().parse_args(["verify", "--config", DEFAULT_CFG,
                                       "--seed", str(2**64 - 1)])
    assert args.seed == 2**64 - 1


def test_readme_command_lines_parse():
    # every `fracvar ...` example of README's command-line section uses flags its command reads
    section = (ROOT / "README.md").read_text().split("## Command line")[1].split("\n## ")[0]
    lines = [ln.split("#")[0].split() for ln in section.splitlines() if ln.startswith("fracvar ")]
    assert len(lines) >= 11
    parser = _build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


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


# the ids are fixed, so that a case keeps its name when another is added or removed
@pytest.mark.parametrize("exc, code", [
    pytest.param(ValueError("bad input"), 2, id="exc0-2"),
    pytest.param(SolverError("no convergence"), 2, id="exc2-2"),
    pytest.param(MountainPassError("no convergence"), 2, id="exc3-2"),
    pytest.param(ConfigError("bad key"), 1, id="exc4-1"),
])
def test_known_failures_map_to_exit_codes(capsys, monkeypatch, exc, code):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(fracvar.constants, "bubble_constants", failing)
    rc, _, err = run(capsys, "constants", "--n", "6", "--s", "0.5")
    assert rc == code
    assert f"{type(exc).__name__}: {exc}" in err


# One invocation per subcommand (``bubble`` and ``verify`` aside; the
# acceptance suite pins ``verify``'s artifacts), with the exit code, the
# printed payload and the sha256 of every artifact it writes.
OUT = object()  # stands for the test's output directory
GOLDEN = {
    "validate": (
        ("validate", "--config", DEFAULT_CFG), 0,
        {"errors": [], "k_admissible": True, "ns_admissible": True, "ok": True,
         "regime_errors": [], "theorem1_regime": True, "warnings": []},
        {}),
    "constants": (
        ("constants", "--n", "6", "--s", "0.5", "--q", "2.2", "--out", OUT), 0,
        {"K2s": 1.29192819501, "Kq_s": 0.787460995055, "Kqs": 0.516771278005,
         "Ks": 85.4568172972, "Ss": 148.137407891, "q_s": 2.4},
        {"constants.json": "8f63d7d2156ecefd7ad58754e7c7a6de57dcaa2893c64322a910509d4b4eff30"}),
    "bubble-norms": (
        ("bubble-norms", "--q", "2.4", "--eps-grid", "0.2,0.1", "--out", OUT), 0,
        {"csv": "bubble_norms.csv", "q": 2.4, "rows": 2},
        {"bubble_norms.csv": "9054343646135ef9c22ed68be45e506eb320e4005483a279a962f647f232be74"}),
    "seminorm-radial": (
        ("seminorm", "--config", DEFAULT_CFG, "--eps", "0.5", "--out", OUT), 0,
        {"abs_error": 2.56065391113e-10, "method": "RadialDeterministic",
         "samples_or_panels": 72, "value": 90.7602353528},
        {"seminorm.json": "a28b962d223a9f12db5374e075ff09ef0c7c8d15c0244194f3b54de458ee3613"}),
    "seminorm-mc": (
        ("seminorm", "--config", DEFAULT_CFG, "--method", "mc", "--eps", "1.0",
         "--samples", "20000", "--seed", "9", "--out", OUT), 0,
        {"abs_error": 14.6527234519, "method": "MonteCarlo",
         "samples_or_panels": 19968, "value": 86.1139579971},
        {"seminorm.json": "316d2ce584778cfb64b700b875a916ecf55dd92b96dcc683bcf8bc81855300be"}),
    "verify-estimates-delta": (
        ("verify-estimates", "--config", DEFAULT_CFG, "--suite", "delta", "--seed", "5",
         "--out", OUT), 0,
        {"delta": {"pass": True, "worst_ratio": 0.999998823031}},
        {"estimates_delta.csv": "be180087e174fc322b40789b2fff35acbdee3241eeb128bc9a87c5c1fbb3a804",
         "estimates_summary.json": "20a65713ba86e5a606d335905e8395ad9140c3590c04a103334f96bcd3409fa8"}),
    "verify-estimates-norms": (
        ("verify-estimates", "--config", DEFAULT_CFG, "--suite", "norms", "--out", OUT), 0,
        {"norms_deficit": {"claimed_rate": 6.0, "fit_slope": 5.83211623745, "pass": True},
         "norms_l2": {"claimed_rate": 1.0, "fit_slope": 0.987683886324, "pass": True},
         "norms_lq": {"claimed_rate": 1.0, "fit_slope": 0.987683886324, "pass": True}},
        {"estimates_norms_deficit.csv": "bf7595727b22e8522960f8a444796dde1a4d1aa704a0582ce1ed17cd0593a13b",
         "estimates_norms_l2.csv": "385776d1e0456456ca2b70536bdad8a4135bf3932f06083983a1b36dd05d6fcd",
         "estimates_norms_lq.csv": "385776d1e0456456ca2b70536bdad8a4135bf3932f06083983a1b36dd05d6fcd",
         "estimates_summary.json": "d3ff0907773a0f79fe1d3df6d9f949fc5916b6e7005c1c52676d028794559c18"}),
    "minimize": (
        ("minimize", "--config", DEFAULT_CFG, "--grid", "64", "--out", OUT), 0,
        {"below_threshold": True, "constraint_residual": 2.22044604925e-16, "converged": True,
         "energy": 109.267274966, "iterations": 55, "status": "converged"},
        {"minimize.json": "eeaf2c7732dc01474d84bcbbc51f6a944049dbca373e21b4881267bd116f02d2",
         "minimize_field.csv": "be4f787dae313614b04889a850277259fc148843e4317ed7a3de42d6f093e4b5"}),
    "eigen": (
        ("eigen", "--config", DEFAULT_CFG, "--grid", "64", "--out", OUT), 0,
        {"lambda1": 41.9283537987},
        {"eigen.json": "48da54bb57d147444f06601e03a66cb118abf59a65816f15d225a61e422fbd90"}),
    "fiber": (
        ("fiber", "--config", DEFAULT_CFG, "--eps-grid", "0.2", "0.1", "--out", OUT), 0,
        {"csv": "fiber.csv", "final_limit_gap": 13457.28049, "rows": 2},
        {"fiber.csv": "047de6301c386ed605eebea02c4fdd15aaf0d00488ed3dc990cac802ef23f7fd"}),
    "mountain-pass": (
        ("mountain-pass", "--config", DEFAULT_CFG, "--grid", "64", "--path-points", "11",
         "--out", OUT), 0,
        {"beta": 13619800422.1, "bound": 880657829443.0, "converged": True,
         "iterations": 126, "level": 141827166822.0, "rho": 572219.121501},
        {"mountain_pass.json": "2dbed13f77f3c4c939de36fd5e3b761710ebfa7eb99fc79c1fbf1d3d2ba4f140",
         "mountain_pass_path.csv": "a6cab03a870f3e8b241d625398dae853312b988a0d2792ba39332db65e957d49"}),
    "empty-eps-grid": (("fiber", "--config", DEFAULT_CFG, "--eps-grid", ",", "--out", OUT), 1, None, {}),
    "missing-config-file": (("eigen", "--config", "/nonexistent/x.cfg", "--out", OUT), 1, None, {}),
    "bad-eps-grid-value": (("bubble-norms", "--q", "2.4", "--eps-grid", "0.2,x", "--out", OUT), 1, None, {}),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_golden_outputs(tmp_path, capsys, monkeypatch, case):
    monkeypatch.delenv("FRACVAR_OUT", raising=False)
    argv, code, payload, artifacts = GOLDEN[case]
    out = tmp_path / "out"
    rc, stdout, _ = run(capsys, *(str(out) if a is OUT else a for a in argv))
    assert rc == code
    expected = "" if payload is None else \
        json.dumps(payload, sort_keys=True, indent=1, ensure_ascii=False) + "\n"
    assert stdout == expected
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()} if out.exists() else {}
    assert written == artifacts

"""Presets, golden-table integrity, problem files and the CLI surface."""

import hashlib
import json

import numpy as np
import pytest

from twophase import cli
from twophase.errors import ConfigError
from twophase.problems import (
    GOLDEN_TABLES,
    PRESETS,
    get_problem,
    load_problem_file,
    table_states,
)

# guards the fixtures against accidental edits; regenerate only when
# the printed tables themselves are at stake
GOLDEN_SHA256 = "ed75bce504137dee21ac5237b441f9128b478909651697de964cd3500001b8eb"


def test_golden_tables_checksum():
    payload = json.dumps(GOLDEN_TABLES, sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN_SHA256


def test_presets_complete():
    assert set(PRESETS) == {"RP1", "RP2", "RP3", "RP4", "RP5", "RP6"}
    for name, p in PRESETS.items():
        left, right = p.riemann_data()
        assert left.alpha1 != right.alpha1 or name in ("RP2", "RP3", "RP4")
        sol = p.build_exact()
        assert sol.elements


def test_rp5_rp6_fixture_data_consistency():
    # the shooting-derived constructions reproduce the published
    # initial data
    for name in ("RP5", "RP6"):
        p = get_problem(name)
        sol = p.build_exact()
        assert np.max(np.abs(sol.left_state.as_array() - p.left.as_array())) < 1e-6
        assert np.max(np.abs(sol.right_state.as_array() - p.right.as_array())) < 1e-6


def test_get_problem_unknown():
    with pytest.raises(ConfigError):
        get_problem("RP9")


def test_problem_file_round_trip(tmp_path):
    path = tmp_path / "custom.txt"
    path.write_text(
        """
# a custom shock-in-rarefaction run
phase1.A = 1.0
phase1.gamma = 1.4
phase2.A = 1.0
phase2.gamma = 2.0
grid.x_min = -1.0
grid.x_max = 1.0
grid.t_end = 0.25
grid.cells = 500
waves.seed.alpha1 = 0.7
waves.seed.rho1 = 0.47883
waves.seed.rho2 = 1.1064
waves.seed.u1 = -0.18865
waves.seed.u2 = -0.14351
waves.alpha1_right = 0.3
waves.left = raref:2-:-2.0, raref:1-:-2.5
waves.right = sir:1+:1.5:1.0
"""
    )
    p = load_problem_file(path)
    assert p.desk_cells == 500
    sol = p.build_exact()
    ref = get_problem("RP1").build_exact()
    assert np.allclose(sol.left_state.as_array(), ref.left_state.as_array(), rtol=1e-12)
    left, right = p.riemann_data()
    assert np.allclose(left.as_array(), sol.left_state.as_array(), rtol=1e-14)


def test_problem_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("phase1.A = 1.0\nnonsense line\n")
    with pytest.raises(ConfigError):
        load_problem_file(path)
    path.write_text("phase1.A = 1.0\nphase2.A = 1.0\n")
    with pytest.raises(ConfigError):
        load_problem_file(path)
    # half a Riemann pair, and half a state
    path.write_text(RIEMANN_FILE.split("right.alpha1")[0])
    with pytest.raises(ConfigError, match="pair"):
        load_problem_file(path)
    path.write_text(RIEMANN_FILE.replace("right.rho1 = 1.0\n", ""))
    with pytest.raises(ConfigError, match="right.rho1"):
        load_problem_file(path)


RIEMANN_FILE = """
phase1.A = 1.0
phase1.gamma = 1.4
phase2.A = 1.0
phase2.gamma = 2.0
grid.x_min = -1.0
grid.x_max = 1.0
grid.t_end = 0.25
left.alpha1 = 0.7
left.rho1 = 2.0
left.rho2 = 1.0
left.u1 = 0.0
left.u2 = 0.0
right.alpha1 = 0.3
right.rho1 = 1.0
right.rho2 = 2.0
right.u1 = 0.0
right.u2 = 0.0
"""


SEED_LINES = """
waves.seed.alpha1 = 0.7
waves.seed.rho1 = 0.47883
waves.seed.rho2 = 1.1064
waves.seed.u1 = -0.18865
waves.seed.u2 = -0.14351
"""


BAD_FILE_CASES = [
    ("right.u2", "oops", ""),
    ("grid.t_end", "soon", ""),
    ("right.alpha1", "1.5", ""),
    # keys the file cannot honour are rejected, not ignored
    ("grid.typo_key", "3", ""),
    ("grid.theta1", "1e-3", ""),
    ("grid.theta2", "1e-8", ""),
    ("waves.left", "raref:1-:-2.5", ""),  # no waves.seed state
    ("waves.right", "raref:9+:1.0", SEED_LINES),  # unknown family
]


@pytest.mark.parametrize(
    "key, value, extra", BAD_FILE_CASES, ids=[f"{k}-{v}" for k, v, _ in BAD_FILE_CASES]
)
def test_cli_problem_file_errors_exit_2(tmp_path, capsys, key, value, extra):
    # a bad value or key is a configuration error naming the key, not a
    # raw traceback or a numerics failure
    path = tmp_path / "bad.txt"
    text = RIEMANN_FILE + extra
    if f"\n{key} = " in text:
        text = text.replace(f"{key} = ", f"{key} = {value}  # ")
    else:
        text += f"{key} = {value}\n"
    path.write_text(text)
    rc = cli.main(["simulate", str(path), "--cells", "8", "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION
    assert key in capsys.readouterr().err


def test_cli_exact_and_eigen(tmp_path):
    out = tmp_path / "exact"
    rc = cli.main(["exact", "RP1", "--samples", "301", "--out", str(out)])
    assert rc == 0
    csv = (out / "solution.csv").read_text().splitlines()
    assert csv[0] == "xi,alpha1,rho1,rho2,u1,u2,rho,u,w,p,p_bar"
    assert len(csv) == 302
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"]
    waves = json.loads((out / "waves.json").read_text())
    assert waves["alpha1_right"] == 0.3
    assert (out / "plots.gp").exists()

    rc = cli.main(["eigen", "RP1", "--samples", "41", "--out", str(tmp_path / "eig")])
    assert rc == 0
    lines = (tmp_path / "eig" / "eigen.csv").read_text().splitlines()
    assert lines[0] == "xi,lam1m,lam2m,lamC,lam1p,lam2p"


def test_cli_exact_two_samples_are_outer_states(tmp_path):
    out = tmp_path / "two"
    assert cli.main(["exact", "RP4", "--samples", "2", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 2
    tab = dict(table_states("RP4"))
    assert rows[0][2] == pytest.approx(tab["U_L"].rho1, rel=1e-4)
    assert rows[1][2] == pytest.approx(tab["U_R"].rho1, rel=1e-4)


def test_cli_simulate_and_determinism(tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    args = ["simulate", "RP5", "--cells", "120", "--out"]
    assert cli.main(args + [str(out1)]) == 0
    assert cli.main(args + [str(out2)]) == 0
    assert (out1 / "snapshot.csv").read_bytes() == (out2 / "snapshot.csv").read_bytes()
    ledger = json.loads((out1 / "ledger.json").read_text())
    assert ledger["worst_step_closure"] < 1e-11
    header = (out1 / "snapshot.csv").read_text().splitlines()[0]
    assert header == "x,alpha1,rho1,rho2,u1,u2,rho,u,w,p"


def test_cli_simulate_relaxed_writes_kapila(tmp_path):
    out = tmp_path / "relax"
    rc = cli.main(
        ["simulate", "RP5", "--cells", "100", "--theta1", "1e-3", "--theta2", "1e-8",
         "--out", str(out)]
    )
    assert rc == 0
    diag = json.loads((out / "kapila.json").read_text())
    assert diag["velocity_disequilibrium_max"] < 1e-6


def test_cli_simulate_bn_model(tmp_path):
    out = tmp_path / "bn"
    rc = cli.main(["simulate", "RP6", "--model", "bn", "--cells", "100", "--out", str(out)])
    assert rc == 0


def test_cli_compare(tmp_path):
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "RP5", "--cells", "150", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "compare.json").read_text())
    assert "shtc|bn" in rep["pairs"]
    assert rep["reference_l1_rho"] > 0
    assert any("agree" in v for v in rep["verdicts"])


def test_cli_validate(tmp_path):
    assert cli.main(["validate", "RP3", "--out", str(tmp_path / "v")]) == 0


def test_cli_unknown_problem_exit_code(tmp_path, capsys):
    assert cli.main(["exact", "NOPE", "--out", str(tmp_path / "x")]) == cli.EXIT_VALIDATION


def test_cli_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("TPR_OUTPUT_DIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["eigen", "RP2", "--samples", "11"]) == 0
    assert (tmp_path / "envout" / "eigen.csv").exists()


def test_cli_positivity_failure_exit_code(tmp_path):
    # violent counter-streaming data in strict mode ends with the
    # numerics exit code
    path = tmp_path / "violent.txt"
    path.write_text(
        """
phase1.A = 1.0
phase1.gamma = 1.4
phase2.A = 1.0
phase2.gamma = 2.0
grid.x_min = -1.0
grid.x_max = 1.0
grid.t_end = 0.25
grid.cells = 64
left.alpha1 = 0.5
left.rho1 = 1.0
left.rho2 = 1.0
left.u1 = -60.0
left.u2 = -60.0
right.alpha1 = 0.5
right.rho1 = 1.0
right.rho2 = 1.0
right.u1 = 60.0
right.u2 = 60.0
"""
    )
    rc = cli.main(
        ["simulate", str(path), "--limiter", "superbee", "--out", str(tmp_path / "v")]
    )
    assert rc == cli.EXIT_NUMERICS


def test_cli_eigen_constant_problem(tmp_path):
    path = tmp_path / "const.txt"
    path.write_text(
        """
phase1.A = 1.0
phase1.gamma = 1.4
phase2.A = 1.0
phase2.gamma = 2.0
grid.x_min = -1.0
grid.x_max = 1.0
grid.t_end = 0.1
waves.seed.alpha1 = 0.6
waves.seed.rho1 = 1.3
waves.seed.rho2 = 0.9
waves.seed.u1 = 0.25
waves.seed.u2 = 0.25
"""
    )
    out = tmp_path / "eig"
    assert cli.main(["eigen", str(path), "--samples", "21", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "eigen.csv", delimiter=",", skiprows=1)
    # five horizontal lines
    for col in range(1, 6):
        assert np.ptp(rows[:, col]) < 1e-12

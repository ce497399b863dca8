"""Presets, golden-table integrity, problem files and the CLI surface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twophase
from twophase import cli, exact, fv, problems
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
    # nan and inf parse as floats but are no data
    ("phase1.gamma", "nan", ""),
    ("right.rho2", "nan", ""),
    ("grid.x_max", "inf", ""),
    ("waves.right", "raref:1+:-inf", SEED_LINES),
    ("phase1.gamma", "1e300", "phase1.rho_ref = 2.0\n"),  # rho_ref**gamma overflows
    ("phase2.gamma", "1e300", "phase2.rho_ref = 0.5\n"),  # ... or underflows to 0
    # the file picks the shtc scheme only; it must not swap in BN
    ("grid.scheme", "muscl-pathcons-bn", ""),
    ("phase1.mode", "isothermal", ""),  # gamma alone selects the regime
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


def test_cli_unreadable_problem_file_or_repeated_key_exit_2(tmp_path, capsys):
    # a file that is not UTF-8 text, a directory, and a key given twice
    # fail as configuration errors naming the path (and the line and key)
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(RIEMANN_FILE.encode() + b"# caf\xe9\n")
    repeated = tmp_path / "repeated.txt"
    repeated.write_text(RIEMANN_FILE + "left.rho1 = 3.0\n")
    line = len(RIEMANN_FILE.splitlines()) + 1
    for path, named in ((latin1, f"{latin1}: "), (tmp_path, f"{tmp_path}: "),
                        (repeated, f"{repeated}:{line}: left.rho1 given twice")):
        rc = cli.main(["simulate", str(path), "--cells", "8", "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_VALIDATION
        assert named in capsys.readouterr().err


_LOADER_KEYS = sorted(problems._KNOWN_KEYS) + ["grid.typo_key"]
_LOADER_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-10, 10**6).map(str),
    st.sampled_from(["raref:1-:-2.5", "shock:2+:1.0", "sir:1+:1.5:1.0", "raref:9+:1", "sir:1+",
                     "isothermal", "muscl-rusanov", "1e400", ""]),
    st.text(max_size=12),
)
_VALID_LINES = (RIEMANN_FILE + SEED_LINES).strip().splitlines() + [
    "waves.alpha1_right = 0.3", "waves.left = raref:2-:-2.0", "waves.right = sir:1+:1.5:1.0",
]


@st.composite
def _problem_texts(draw):
    # a valid file under a few edits: a line dropped, repeated, given
    # another key or value, or a line of any text put in
    lines = list(_VALID_LINES)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        key, _, value = lines[i].partition(" = ")
        edit = draw(st.sampled_from(("drop", "repeat", "key", "value", "text")))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "key":
            lines[i] = f"{draw(st.sampled_from(_LOADER_KEYS))} = {value}"
        elif edit == "value":
            lines[i] = f"{key} = {draw(_LOADER_VALUES)}"
        else:
            lines.insert(i, draw(st.text(max_size=30)))
    return "\n".join(lines)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(_problem_texts(), st.text()))
def test_problem_file_loader_returns_problem_or_config_error(tmp_path, text):
    # whatever the text, the loader gives a Problem or a ConfigError
    path = tmp_path / "fuzz.txt"
    path.write_text(text, encoding="utf-8")
    try:
        problem = load_problem_file(path)
    except ConfigError:
        return
    assert isinstance(problem, problems.Problem)


_BAD_RUN_TIMES = [("compare", "--t-end", v) for v in ("inf", "nan", "0", "-1")] + [
    ("simulate", flag, v) for flag in ("--theta1", "--theta2") for v in ("nan", "inf")
]


@pytest.mark.parametrize("command, flag, value", _BAD_RUN_TIMES,
                         ids=[f"{c}{f}={v}" for c, f, v in _BAD_RUN_TIMES])
def test_cli_run_times_must_be_finite_and_positive(tmp_path, capsys, monkeypatch, command,
                                                   flag, value):
    # an end time or relaxation time that is not finite and positive is a
    # configuration error before any run
    def no_runs(*args, **kwargs):
        raise AssertionError("a backend ran")

    monkeypatch.setattr(cli, "run_simulation", no_runs)
    monkeypatch.setattr(cli, "run_simulations", no_runs)
    rc = cli.main([command, "RP6", "--cells", "64", flag, value, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "configuration error" in err and flag[2:].replace("-", "_") in err


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


def test_cli_reports_relaxation_counters(tmp_path, capsys):
    relaxed = ["--cells", "64", "--t-end", "0.02", "--theta1", "1e-3", "--theta2", "1e-8"]
    assert cli.main(["simulate", "RP6", *relaxed, "--out", str(tmp_path / "sim")]) == 0
    relax = json.loads((tmp_path / "sim" / "ledger.json").read_text())["telemetry"]["relax"]
    assert relax["solves"] > 0 and relax["newton_iterations"] > 0
    assert (f"relaxation: {relax['solves']} pressure solves, {relax['newton_iterations']} "
            "Newton iterations") in capsys.readouterr().out
    # compare's workers send their counters back with their results
    assert cli.main(["compare", "RP6", *relaxed, "--out", str(tmp_path / "cmp")]) == 0
    report = json.loads((tmp_path / "cmp" / "compare.json").read_text())
    assert report["telemetry"]["shtc"]["relax"] == relax
    assert report["telemetry"]["bn"]["relax"]["solves"] > 0


def test_cli_simulate_bn_model(tmp_path):
    out = tmp_path / "bn"
    rc = cli.main(["simulate", "RP6", "--model", "bn", "--cells", "100", "--out", str(out)])
    assert rc == 0


def test_cli_simulate_bn_rejects_scheme(tmp_path, capsys, monkeypatch):
    # --model bn has one scheme; a --scheme beside it is an error, not dropped
    def no_runs(*args, **kwargs):
        raise AssertionError("a backend ran")

    monkeypatch.setattr(cli, "run_simulation", no_runs)
    rc = cli.main(["simulate", "RP4", "--model", "bn", "--scheme", "force-godunov",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_VALIDATION
    assert "--scheme" in capsys.readouterr().err


def test_cli_header_labels_the_regime_by_gamma(tmp_path, capsys):
    # gamma = 1 is the isothermal law, any other gamma the isentropic one
    path = tmp_path / "iso.txt"
    path.write_text(RIEMANN_FILE.replace("phase1.gamma = 1.4", "phase1.gamma = 1.0"))
    assert cli.main(["validate", "RP1", "--out", str(tmp_path / "v")]) == 0
    assert cli.main(["simulate", str(path), "--cells", "8", "--t-end", "1e-3",
                     "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert out.count("[isentropic]") == 3 and out.count("[isothermal]") == 1
    assert "phase1: p(rho) = 1*(rho/1)^1 + 0  [isothermal]" in out


def test_cli_compare(tmp_path):
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "RP5", "--cells", "150", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "compare.json").read_text())
    assert "shtc|bn" in rep["pairs"]
    assert rep["reference_l1_rho"] > 0
    assert any("agree" in v for v in rep["verdicts"])



BAD_MODELS = {
    "shtc,kapila": "--models names shtc and bn once each, in either order; got 'shtc,kapila'",
    "shtc,shtc": "--models names shtc and bn once each, in either order; got 'shtc,shtc'",
    "bn, shtc,bn": "--models names shtc and bn once each, in either order; got 'bn, shtc,bn'",
    "shtc": "--models names shtc and bn once each, in either order; got 'shtc'",
}


@pytest.mark.parametrize("models", list(BAD_MODELS))
def test_cli_compare_rejects_bad_model_names(tmp_path, capsys, monkeypatch, models):
    # unknown, repeated and too few names are configuration errors before any run
    def no_runs(*args, **kwargs):
        raise AssertionError("a backend ran")

    monkeypatch.setattr(cli, "run_simulations", no_runs)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "RP5", "--cells", "40", "--models", models, "--out", str(out)])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "configuration error" in err and BAD_MODELS[models] in err
    assert not (out / "compare.json").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_cli_zero_cells_is_a_config_error(tmp_path, capsys, command):
    # --cells 0 is a bad grid, not a request for the desk-scale default
    rc = cli.main([command, "RP5", "--cells", "0", "--out", str(tmp_path / "z")])
    assert rc == cli.EXIT_VALIDATION
    assert "at least 4 cells" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_cli_paper_scale_excludes_cells(tmp_path, capsys, command):
    # --paper-scale and --cells both set the resolution; argparse refuses the pair
    with pytest.raises(SystemExit) as done:
        cli.main([command, "RP5", "--paper-scale", "--cells", "40", "--out", str(tmp_path / "p")])
    assert done.value.code == cli.EXIT_VALIDATION
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.filterwarnings("error")
def test_cli_tiny_t_end_takes_a_step(tmp_path, capsys):
    # a positive t_end below the end tolerance still takes one step, so
    # compare's x/t sampling divides by t_end, not by 0
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "RP6", "--cells", "32", "--t-end", "1e-16", "--out", str(out)])
    assert rc == cli.EXIT_OK
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["steps"] >= 1 and ledger["time"] == 1e-16
    capsys.readouterr()
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "RP6", "--cells", "32", "--t-end", "1e-16", "--out", str(out)])
    assert rc == cli.EXIT_OK
    ran = [line for line in capsys.readouterr().out.splitlines() if "  ran " in line]
    assert len(ran) == 2 and all(int(line.split()[-2]) >= 1 for line in ran)
    report = json.loads((out / "compare.json").read_text())
    assert all(np.isfinite(err) for err in report["exact_errors_rho"].values())


def test_cli_compare_worker_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a guard below 1 trips in this process's run and in the worker, which
    # inherits it through the fork
    monkeypatch.setattr(fv, "WAVESPEED_GROWTH_GUARD", 0.5)
    rc = cli.main(["compare", "RP5", "--cells", "40", "--out", str(tmp_path / "cmp")])
    assert rc == cli.EXIT_NUMERICS
    err = capsys.readouterr().err
    assert "numerics failure" in err and "max wave speed grew" in err


def test_cli_compare_prints_each_line_once(tmp_path):
    # block-buffered stdout: no worker may write its copy of the buffer again
    src = str(Path(twophase.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    log = tmp_path / "stdout.txt"
    with open(log, "w") as fh:
        subprocess.run(
            [sys.executable, "-m", "twophase.cli", "compare", "RP5", "--cells", "40",
             "--out", str(tmp_path / "cmp")],
            env=env, stdout=fh, check=True, timeout=120,
        )
    lines = log.read_text().splitlines()
    assert lines[0].startswith("problem RP5:")
    assert len(lines) == len(set(lines))
    assert [line.split(" (")[0] for line in lines if "  ran " in line] == [
        "  ran shtc", "  ran bn",
    ]

def test_cli_validate(tmp_path):
    assert cli.main(["validate", "RP3", "--out", str(tmp_path / "v")]) == 0


@pytest.mark.parametrize("command", ["exact", "validate"])
def test_cli_construction_failing_validation_exits_2(tmp_path, capsys, command):
    # the 1- shock at S = -1.5 solves its jump conditions but is an
    # expansion shock: validation fails inside the build, which names it
    # (declared inside the 2- fan, which runs outward of it, so that the
    # side is not crossed)
    path = tmp_path / "expansion.txt"
    path.write_text(
        RIEMANN_FILE.split("left.alpha1")[0] + SEED_LINES + "waves.alpha1_right = 0.3\n"
        "waves.left = shock:1-:-1.5, raref:2-:-2.0\nwaves.right = sir:1+:1.5:1.0\n"
    )
    assert cli.main([command, str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "construction failed: wave shock(1-, S=-1.5): " in err and "expansion shock" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["exact", "validate"])
def test_cli_derives_the_report_once(tmp_path, monkeypatch, command):
    # the build validates the solution and keeps the report the command prints
    derived = []
    derive = exact._derive_report
    monkeypatch.setattr(exact, "_derive_report", lambda sol: derived.append(sol) or derive(sol))
    problems._build_cached.cache_clear()
    assert cli.main([command, "RP1", "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert len(derived) == 1


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

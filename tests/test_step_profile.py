"""tools/step_profile.py: per-stage figures of a small run, names restored."""

import importlib.util
from pathlib import Path

import pytest

from twophase import fv, state


@pytest.fixture(scope="module")
def step_profile():
    path = Path(__file__).resolve().parent.parent / "tools" / "step_profile.py"
    spec = importlib.util.spec_from_file_location("step_profile", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize(
    "scheme, stages",
    [("force-godunov", {"_force_prepare", "_advance", "_force_godunov", "_force",
                        "_cons_flux_rows", "_phase_terms", "_invalid_cons", "driver"}),
     ("muscl-pathcons-bn", {"_decode_prepare", "_advance", "_muscl_hancock", "limited_slope",
                            "_bn_flux", "_phase_terms", "_bn_nonconservative", "_bn_prim_rows",
                            "driver"})],
)
def test_step_profile_reports_every_stage_and_restores_names(step_profile, scheme, stages):
    before = {name: vars(mod)[name] for mod, name in step_profile.STAGES if name in vars(mod)}
    out = step_profile.profile("RP4", scheme, cells=16, repeats=1)
    assert {n: vars(m)[n] for m, n in step_profile.STAGES if n in vars(m)} == before
    assert out["steps"] > 0 and out["us_per_step"] > 0.0
    assert stages <= set(out["stages"])
    assert list(out["stages"])[-1] == "driver"
    for row in out["stages"].values():
        assert row["calls"] >= 0.0 and row["py_calls"] >= 0.0
    # each step calls its preparation, its update and its kernel once
    prepare = "_force_prepare" if scheme == "force-godunov" else "_decode_prepare"
    kernel = "_force_godunov" if scheme == "force-godunov" else "_muscl_hancock"
    for name in (prepare, "_advance", kernel):
        assert out["stages"][name]["calls"] == 1.0
    assert out["py_calls_per_step"] == pytest.approx(
        sum(row["py_calls"] for row in out["stages"].values()))
    assert fv._advance is before["_advance"] and state._phase_terms is fv._phase_terms


def test_step_profile_prints_a_table(step_profile, capsys):
    assert step_profile.main(["RP4", "--scheme", "force-godunov", "--cells", "16",
                              "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("RP4 force-godunov, 16 cells:")
    assert lines[1].split() == ["stage", "calls/step", "self", "us/step", "py", "calls/step"]
    assert lines[-1].split()[0] == "driver"


@pytest.mark.parametrize("scheme, relax", [("muscl-rusanov", "_relax_cons"),
                                           ("muscl-pathcons-bn", "_relax_bn")])
def test_step_profile_reports_the_relaxation_stages(step_profile, scheme, relax):
    # rp6-kapila's relaxation times: two half steps per step, each with
    # one pressure solve
    solve = fv._equilibrium_alpha
    out = step_profile.profile("RP6", scheme, cells=64, repeats=1, theta1=1e-3, theta2=1e-8)
    for name in (relax, "_equilibrium_alpha"):
        assert out["stages"][name]["calls"] == 2.0
        assert out["stages"][name]["self_us"] > 0.0
    assert fv._equilibrium_alpha is solve
    # and the run's relaxation counters, one pressure solve per half step
    relax = out["relax"]
    assert set(relax) == set(fv.RELAX_COUNTERS)
    assert relax["solves"] == 2 * out["steps"]
    assert 0 < relax["max_iterations"] <= relax["newton_iterations"]


def test_step_profile_prints_the_relaxation_counters(step_profile, capsys):
    argv = ["RP6", "--cells", "16", "--repeats", "1"]
    assert step_profile.main([*argv, "--theta1", "1e-3", "--theta2", "1e-8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    words = lines[1].split()
    assert words[0] == "relaxation:" and words[2:4] == ["pressure", "solves,"]
    assert lines[1].endswith("in one solve") and "iterations per solve" in lines[1]
    solves = step_profile.profile("RP6", cells=16, repeats=1, theta1=1e-3, theta2=1e-8)["relax"]
    assert int(words[1]) == solves["solves"] > 0
    assert float(words[4]) == pytest.approx(solves["newton_iterations"] / solves["solves"],
                                            abs=5e-3)
    assert lines[2].split()[0] == "stage"
    # an unrelaxed run prints no relaxation line
    assert step_profile.main(argv) == 0
    assert not any(line.startswith("relaxation:") for line in capsys.readouterr().out.splitlines())


def test_step_profile_exact_mode(step_profile, capsys):
    # the exact path phase by phase: each phase runs and makes calls, and
    # sampling twice the points takes no more Python-level calls
    out = step_profile.exact_profile("RP1", repeats=1, points=40, eigen_points=10)
    assert list(out) == ["build", "validate", "sample_many", "eigen_curves"]
    for row in out.values():
        assert row["us"] > 0.0 and row["py_calls"] > 0
    wider = step_profile.exact_profile("RP1", repeats=1, points=80, eigen_points=20)
    for name in ("sample_many", "eigen_curves"):
        assert wider[name]["py_calls"] == out[name]["py_calls"]
    assert step_profile.main(["RP4", "--exact", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "RP4 exact, 600 sample and 150 eigen points (median of 1)"
    assert [line.split()[0] for line in lines[2:]] == list(out)

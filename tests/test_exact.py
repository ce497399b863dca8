"""Inverse construction, sampling and whole-solution validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coincident_state, snapshot_tool
from twophase import exact, waves
from twophase.errors import ConfigError, ConstructionError
from twophase.exact import (
    build_solution,
    raref,
    shock,
    shock_in_raref,
    solution_table,
    validate_solution,
)
from twophase.problems import IDEAL_PAIR, PRESETS, get_problem, table_states
from twophase.state import PrimitiveState, eigenvalues
from twophase.waves import family_from_key

# frozen reconstruction of the shock-in-rarefaction benchmark: the
# printed table's post-shock column is inconsistent with the jump
# conditions at ~1e-3 (see the acceptance suite), so the golden values
# here are the exact construction from the same seed and wave speeds
RP1_GOLDEN = {
    "U_L": [0.7, 1.2448909776538446, 1.296901635092628, -1.2637956094373581, -0.38947112097135683],
    "U*_L": [0.7, 0.47883, 1.296901635092628, -0.18865, -0.38947112097135683],
    "U**_L": [0.7, 0.47883, 1.1064, -0.18865, -0.14351],
    "U**_R": [0.3, 0.30576655947984127, 0.8939681572551795, -0.24825789203667087, -0.15416041070875472],
    "Ubar": [0.3, 0.401869333017137, 0.8939681572551795, 0.013990745754219214, -0.15416041070875472],
    "U*_R": [0.3, 0.42154253046658335, 0.7331616887555823, 0.0600073475056202, -0.4073057435522345],
    "U_R": [0.3, 0.6035535174795043, 0.7331616887555823, 0.4304350194876712, -0.4073057435522345],
}


def rp1_solution():
    return get_problem("RP1").build_exact()


def chain_states(sol):
    """Name the constant states of the RP1-like layout."""
    fan_1m = [e for e in sol.elements if e.kind == "rarefaction" and str(e.family) == "1-"][0]
    ish = [e for e in sol.elements if e.kind == "interior-shock"][0]
    return {
        "U_L": sol.left_state,
        "U*_L": fan_1m.right,
        "U**_L": sol.contact_left,
        "U**_R": sol.contact_right,
        "Ubar": ish.left,
        "U*_R": ish.right,
        "U_R": sol.right_state,
    }


def test_rp1_reconstruction_matches_frozen_golden():
    states = chain_states(rp1_solution())
    for name, expected in RP1_GOLDEN.items():
        got = states[name].as_array()
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-13), name


def test_rp1_consistent_table_columns():
    # the five columns untouched by the inconsistent interior-shock row
    # reproduce the printed table at its 5-figure precision
    states = chain_states(rp1_solution())
    for name, tab in table_states("RP1"):
        if name in ("U*_R", "U_R"):
            continue
        got = states[name].as_array()
        ref = tab.as_array()
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-12)) < 1e-4, name


def test_constant_solution():
    st = PrimitiveState(0.55, 1.1, 0.8, 0.2, 0.2)  # w = 0
    sol = build_solution(st, 0.55, [], [], IDEAL_PAIR)
    for xi in (-3.0, 0.0, 2.0):
        assert np.allclose(sol.sample(xi).as_array(), st.as_array(), rtol=1e-12)
    assert np.allclose(sol.left_state.as_array(), sol.right_state.as_array(), rtol=1e-14)


def test_initial_data_rp4_matches_table():
    sol = get_problem("RP4").build_exact()
    left, right = sol.left_state, sol.right_state
    tab = dict(table_states("RP4"))
    assert np.max(np.abs(left.as_array() - tab["U_L"].as_array()) / np.abs(tab["U_L"].as_array())) < 1e-4
    assert np.max(np.abs(right.as_array() - tab["U_R"].as_array()) / np.abs(tab["U_R"].as_array())) < 1e-4


def test_sampling_outside_and_plateaus():
    sol = rp1_solution()
    states = chain_states(sol)
    assert np.allclose(sol.sample(-5.0).as_array(), states["U_L"].as_array(), rtol=1e-12)
    assert np.allclose(sol.sample(4.0).as_array(), states["U_R"].as_array(), rtol=1e-12)
    # center plateaus on both sides of the contact
    assert np.allclose(sol.sample(-0.5).as_array(), states["U**_L"].as_array(), rtol=1e-12)
    assert np.allclose(sol.sample(0.2).as_array(), states["U**_R"].as_array(), rtol=1e-12)
    # plateau between the interior shock and the resumed fan holds the
    # post-shock state (the plateau carries the downstream side)
    assert np.allclose(sol.sample(1.02).as_array(), states["U*_R"].as_array(), rtol=1e-12)


def test_sampling_rejects_nan_and_takes_the_outer_states_at_infinity():
    # NaN compares false with every speed, so it used to take alpha1 right
    # of the contact with U_L's phase states: a state found nowhere
    sol = rp1_solution()
    for call in (lambda: sol.sample_many([np.nan]), lambda: sol.sample(np.nan),
                 lambda: sol.sample_many([0.1, np.nan, 2.0])):
        with pytest.raises(ConfigError, match="NaN"):
            call()
    rows = sol.sample_many([-np.inf, np.inf])
    assert np.array_equal(rows[0], sol.left_state.as_array())
    assert np.array_equal(rows[1], sol.right_state.as_array())


@pytest.mark.parametrize("xis, n", [(0.3, 1), ([-1.0, 0.3, 1.2], 3), ([], 0), (np.zeros(0), 0)])
def test_sample_many_and_eigen_curves_shapes(xis, n):
    # one C-ordered row per point: (1, 5) for a scalar, (0, 5) when empty
    sol = rp1_solution()
    for rows in (sol.sample_many(xis), sol.eigen_curves(xis)):
        assert rows.shape == (n, 5) and rows.flags.c_contiguous
    if n:
        assert np.array_equal(sol.sample_many(xis)[-1], sol.sample(np.ravel(xis)[-1]).as_array())


def test_sampling_inside_fans_defining_relation():
    sol = rp1_solution()
    # overlap cone of the two left fans: both phases in-fan simultaneously
    for xi in (-1.9, -1.75, -1.65):
        lam = eigenvalues(sol.sample(xi), IDEAL_PAIR)
        assert lam["1-"] == pytest.approx(xi, abs=1e-9)
        assert lam["2-"] == pytest.approx(xi, abs=1e-9)
    # host fan right of the contact
    lam = eigenvalues(sol.sample(0.8), IDEAL_PAIR)
    assert lam["1+"] == pytest.approx(0.8, abs=1e-9)


def test_sampling_self_similar_only():
    sol = rp1_solution()
    x, t = 0.35, 0.25
    a = sol.sample(x / t).as_array()
    b = sol.sample((2 * x) / (2 * t)).as_array()
    assert np.array_equal(a, b)


def test_alpha_single_jump():
    sol = rp1_solution()
    xis = np.linspace(-4, 4, 1601)
    alphas = np.array([sol.sample(x).alpha1 for x in xis])
    assert set(np.round(np.unique(alphas), 12)) == {0.3, 0.7}
    switches = np.nonzero(np.diff(alphas))[0]
    assert len(switches) == 1
    assert xis[switches[0]] <= sol.contact_speed <= xis[switches[0] + 1]


def test_sampling_converges_to_bounding_states():
    sol = rp1_solution()
    for el in sol.elements:
        if not el.is_discontinuity:
            continue
        eps = 1e-9 * max(1.0, abs(el.speed))
        left = sol.sample(el.speed - eps).as_array()
        right = sol.sample(el.speed + eps).as_array()
        assert np.allclose(left, el.left.as_array(), rtol=1e-6, atol=1e-9)
        assert np.allclose(right, el.right.as_array(), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_sampling_right_continuous_at_discontinuities(name):
    # at a discontinuity's own speed both phases take the state right of
    # it, interior shocks included (phase 1 used to stop in its host fan)
    sol = get_problem(name).build_exact()
    for el in sol.elements:
        if not el.is_discontinuity:
            continue
        got = sol.sample(el.speed).as_array()
        want = el.right.as_array()
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), el.label()


def _mirrored_rp1():
    """RP1 mirrored: the right-center state reflected, the sides swapped,
    the families flipped and the speeds negated; its interior shock has a
    minus host."""
    cr = rp1_solution().contact_right
    return build_solution(
        PrimitiveState(cr.alpha1, cr.rho1, cr.rho2, -cr.u1, -cr.u2), 0.7,
        [shock_in_raref("1-", -1.5, -1.0)], [raref("2+", 2.0), raref("1+", 2.5)], IDEAL_PAIR,
    )


def test_mirror_symmetry():
    sol = get_problem("RP1").build_exact()
    sol_m = _mirrored_rp1()
    for xi in (-3.0, -1.2, -0.9, 0.1, 1.7, 0.44):
        a = sol_m.sample(xi)
        b = sol.sample(-xi)
        assert a.alpha1 == pytest.approx(b.alpha1, rel=1e-9)
        assert a.rho1 == pytest.approx(b.rho1, rel=1e-7)
        assert a.rho2 == pytest.approx(b.rho2, rel=1e-7)
        assert a.u1 == pytest.approx(-b.u1, rel=1e-7, abs=1e-9)
        assert a.u2 == pytest.approx(-b.u2, rel=1e-7, abs=1e-9)


def test_rp3_mirror_symmetric_about_contact():
    sol = get_problem("RP3").build_exact()
    assert sol.contact_speed == pytest.approx(0.0, abs=1e-12)
    for xi in (500.0, 1500.0, 3500.0):
        a = sol.sample(xi)
        b = sol.sample(-xi)
        assert a.rho1 == pytest.approx(b.rho1, rel=1e-10)
        assert a.rho2 == pytest.approx(b.rho2, rel=1e-10)
        assert a.u1 == pytest.approx(-b.u1, rel=1e-10, abs=1e-9)
        assert a.u2 == pytest.approx(-b.u2, rel=1e-10, abs=1e-9)


def test_rp3_table_reproduction():
    sol = get_problem("RP3").build_exact()
    fans_2m = [e for e in sol.elements if e.kind == "rarefaction" and str(e.family) == "2-"][0]
    chain = {
        "U_L": sol.left_state,
        "U*_L": fans_2m.left,
        "U**_L": sol.contact_left,
        "U**_R": sol.contact_right,
        "U_R": sol.right_state,
    }
    for name, tab in table_states("RP3"):
        if name not in chain:
            continue
        got = chain[name].as_array()
        ref = tab.as_array()
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-4, name


def test_validation_all_presets_green():
    for name in ("RP1", "RP2", "RP3", "RP4", "RP5", "RP6"):
        rep = validate_solution(get_problem(name).build_exact())
        assert rep.passed, (name, rep.failures)
        d = rep.as_dict()
        assert d["passed"] and d["elements"]


def _preset_build(name, validate=True):
    p = get_problem(name)
    es = p.exact_spec
    return build_solution(es.contact_left, es.alpha1_right, list(es.left_waves),
                          list(es.right_waves), p.eos_pair, validate=validate)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_kept_report_equals_a_fresh_derivation(name):
    # the report build_solution keeps is the one validate_solution would
    # derive on an unvalidated build: repr compares every float bit for bit
    kept = validate_solution(_preset_build(name))
    fresh = validate_solution(_preset_build(name, validate=False))
    assert kept is not fresh
    assert repr(kept.as_dict()) == repr(fresh.as_dict())


def test_validate_solution_derives_the_report_once(monkeypatch):
    derived = []
    derive = exact._derive_report
    monkeypatch.setattr(exact, "_derive_report", lambda sol: derived.append(sol) or derive(sol))
    built = _preset_build("RP3")
    assert derived == [built]
    report = validate_solution(built)
    assert validate_solution(built) is report and derived == [built]
    unvalidated = _preset_build("RP3", validate=False)
    assert len(derived) == 1
    assert validate_solution(unvalidated) is validate_solution(unvalidated)
    assert derived == [built, unvalidated]
    # the report is kept outside the fields: a replaced solution has none
    replaced = dataclasses.replace(built, elements=built.elements)
    assert replaced == built and validate_solution(replaced) is not report
    assert len(derived) == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.elements = ()


def test_derivation_takes_each_state_and_label_once(monkeypatch):
    # neighbouring elements share the state between them: a derivation
    # takes its eigenvalues and resonance once per state object, formats
    # each element's label once, and takes one census per discontinuity of
    # non-zero strength, from which a shock's Lax class is read as well
    # (lax_check takes no census of its own)
    names = ("eigenvalues", "check_resonance", "classify_discontinuity")
    seen = {name: [] for name in (*names, "label", "lax census")}

    def counted(name, fn):
        return lambda first, *rest: seen[name].append(id(first)) or fn(first, *rest)

    for name in names:
        monkeypatch.setattr(exact, name, counted(name, getattr(exact, name)))
    monkeypatch.setattr(waves, "classify_discontinuity",
                        counted("lax census", waves.classify_discontinuity))
    monkeypatch.setattr(exact.WaveElement, "label", counted("label", exact.WaveElement.label))
    for name in sorted(PRESETS):
        sol = _preset_build(name, validate=False)
        for ids in seen.values():
            ids.clear()
        assert validate_solution(sol).passed
        states = {id(s) for el in sol.elements for s in (el.left, el.right)}
        assert sorted(seen["eigenvalues"]) == sorted(states), name
        assert sorted(seen["check_resonance"]) == sorted(states), name
        assert seen["label"] == [id(el) for el in sol.elements], name
        jumps = [el for el in sol.elements if el.is_discontinuity and not exact._is_zero_strength(el)]
        assert seen["classify_discontinuity"] == [id(el.left) for el in jumps], name
        assert seen["lax census"] == [], name


def test_validation_flags_corrupted_state():
    sol = rp1_solution()
    els = list(sol.elements)
    for i, el in enumerate(els):
        if el.kind == "interior-shock":
            bad = dataclasses.replace(
                el, left=dataclasses.replace(el.left, rho1=el.left.rho1 * 1.01)
            )
            els[i] = bad
    corrupted = dataclasses.replace(sol, elements=els)
    rep = validate_solution(corrupted)
    assert not rep.passed
    assert any("residual" in f for f in rep.failures)


def test_validation_flags_shock_resonance_ensemble():
    sol4 = get_problem("RP4").build_exact()
    els = list(sol4.elements)
    shocks = [e for e in els if e.kind == "shock"]
    # coalesce two shock speeds: move the second onto the first's speed
    a, b = shocks[0], shocks[1]
    moved = dataclasses.replace(b, xi_head=a.xi_head, xi_tail=a.xi_tail)
    els[els.index(b)] = moved
    corrupted = dataclasses.replace(sol4, elements=els)
    rep = validate_solution(corrupted)
    assert any("coinciding discontinuities" in f for f in rep.failures)


def test_validation_flags_resonant_state():
    # lambda_{1+} = u on both sides of a zero-strength contact
    st = coincident_state(IDEAL_PAIR)
    sol = build_solution(st, st.alpha1, [], [], IDEAL_PAIR, validate=False)
    rep = validate_solution(sol)
    assert not rep.passed
    assert any("resonant left state: lambda_1+" in f for f in rep.failures)
    assert any("resonant right state: lambda_1+" in f for f in rep.failures)
    with pytest.raises(ConstructionError, match="lambda_1\\+"):
        build_solution(st, st.alpha1, [], [], IDEAL_PAIR)


def _element_of(sol, kind, family):
    return next(el for el in sol.elements if el.kind == kind and str(el.family) == family)


def _at(el, speed):
    """The discontinuity el moved to another speed."""
    return dataclasses.replace(el, xi_head=speed, xi_tail=speed)


# (solution, kind and family of the element corrupted, its corruption,
# the flag it must raise): each one is a validation branch of its own
FLAG_CASES = {
    "plus-host mass flux": (
        rp1_solution, "interior-shock", "2+", lambda el: _at(el, el.left.u - 0.1),
        "mixture mass flux has the wrong sign for a plus-family host",
    ),
    "plus-host tangency": (
        rp1_solution, "interior-shock", "2+", lambda el: _at(el, el.speed + 0.1),
        "host characteristic not tangent on the inner side",
    ),
    "minus-host tangency": (
        _mirrored_rp1, "interior-shock", "2-", lambda el: _at(el, el.speed + 0.1),
        "host characteristic not tangent on the inner side",
    ),
    "minus-host mass flux": (
        _mirrored_rp1, "interior-shock", "2-", lambda el: _at(el, el.left.u + 0.1),
        "mixture mass flux has the wrong sign for a minus-family host",
    ),
    "contact residual": (
        rp1_solution, "contact", "C",
        lambda el: dataclasses.replace(
            el, right=dataclasses.replace(el.right, rho1=el.right.rho1 * 1.01)),
        "contact residual",
    ),
    "contact off the mixture velocity": (
        rp1_solution, "contact", "C", lambda el: _at(el, el.speed + 0.1),
        "contact census is not evolutionary",
    ),
    "fan bounds": (
        lambda: get_problem("RP5").build_exact(), "rarefaction", "1-",
        lambda el: dataclasses.replace(el, xi_head=el.xi_head + 0.1),
        "fan bounds do not match the characteristic speeds",
    ),
    "fan compresses": (
        lambda: get_problem("RP5").build_exact(), "rarefaction", "1-",
        lambda el: dataclasses.replace(el, left=el.right, right=el.left),
        "fan is not expanding",
    ),
    "alpha1 off the contact": (
        lambda: get_problem("RP2").build_exact(), "shock", "1+",
        lambda el: dataclasses.replace(el, right=dataclasses.replace(el.right, alpha1=0.6)),
        "alpha1 jumps away from the contact",
    ),
    "same-phase overlap": (
        # the 1+ fan nearer the contact runs into the one resumed past the shock
        rp1_solution, "rarefaction", "1+", lambda el: dataclasses.replace(el, xi_tail=1.2),
        "same-phase fans overlap",
    ),
    "contact inside a fan": (
        lambda: get_problem("RP5").build_exact(), "rarefaction", "2+",
        lambda el: dataclasses.replace(el, xi_head=-0.5),
        "contact lies inside the fan",
    ),
    "undeclared shock in a fan": (
        lambda: get_problem("RP6").build_exact(), "shock", "2-",
        lambda el: _at(el, -1.3),
        "undeclared shock touching fan",
    ),
}


@pytest.mark.parametrize("case", sorted(FLAG_CASES))
def test_validation_flags_each_corruption(case):
    # a solution corrupted by dataclasses.replace keeps no report of the
    # valid one: its own derivation must flag the corruption
    make, kind, family, corrupt, flag = FLAG_CASES[case]
    sol = make()
    assert validate_solution(sol).passed
    old = _element_of(sol, kind, family)
    new = corrupt(old)
    bad = dataclasses.replace(sol, elements=tuple(new if el is old else el for el in sol.elements))
    report = validate_solution(bad)
    assert not report.passed
    assert any(flag in f for f in report.failures), (case, report.failures)


def test_grammar_rejects_wave_past_contact():
    # a left wave whose fan interval crosses the contact speed
    seed = PrimitiveState(0.9, 1.0, 1.0, 2.0, -20.0)  # u = -0.2, lam1- = 0.82
    with pytest.raises(ConstructionError, match="crosses the contact speed"):
        build_solution(seed, 0.8, [raref("1-", 0.5)], [], IDEAL_PAIR)
    # a volume fraction jump the contact solve cannot reach is named too
    with pytest.raises(ConstructionError) as err:
        build_solution(seed, 0.3, [raref("1-", 0.5)], [], IDEAL_PAIR)
    assert err.value.wave == "contact"


# RP1's spec with one wave replaced: (side, replaced wave index, wave)
_RP1_REJECTIONS = {
    "compressive-left-fan": ("left", 0, raref("2-", -1.0)),
    "compressive-right-fan": ("right", 0, raref("1+", 0.5)),
    "compressive-host-fan": ("right", 0, shock_in_raref("1+", 0.5, 0.6)),
    "interior-shock-outside-host": ("right", 0, shock_in_raref("1+", 1.5, 1.6)),
    "host-fan-cannot-resume": ("right", 0, shock_in_raref("1+", 0.9, 0.8)),  # resumes at 0.982
    # specs that the wave grammar's helpers never make
    "contact-family-wave": ("left", 0, exact.WaveSpec(family_from_key("C"), exact.RAREFACTION, -2.0)),
    "unknown-wave-kind": ("left", 0, exact.WaveSpec(family_from_key("2-"), "fan", -2.0)),
    "interior-shock-speed-missing": (
        "right", 0, exact.WaveSpec(family_from_key("1+"), exact.SHOCK_IN_RAREFACTION, 1.5)),
}


@pytest.mark.parametrize("case", sorted(_RP1_REJECTIONS))
def test_construction_rejects_compressive_fans_and_stray_interior_shocks(case):
    # each is rejected with the label of the wave at fault
    side, index, wave = _RP1_REJECTIONS[case]
    spec = get_problem("RP1").exact_spec
    waves = {"left": list(spec.left_waves), "right": list(spec.right_waves)}
    waves[side][index] = wave
    with pytest.raises(ConstructionError) as err:
        build_solution(spec.contact_left, spec.alpha1_right, waves["left"], waves["right"],
                       IDEAL_PAIR)
    assert err.value.wave.startswith(f"{side}{index + 1}:")


def test_construction_names_an_ensemble_only_failure(monkeypatch):
    # a report whose flags are all the ensemble's names no wave
    spec = get_problem("RP1").exact_spec
    checks = exact._ensemble_checks
    monkeypatch.setattr(exact, "_ensemble_checks",
                        lambda sol, ensemble: checks(sol, ensemble) or ensemble.append("planted"))
    with pytest.raises(ConstructionError, match="planted") as err:
        build_solution(spec.contact_left, spec.alpha1_right, list(spec.left_waves),
                       list(spec.right_waves), IDEAL_PAIR)
    assert err.value.wave == "ensemble"


def test_grammar_rejects_wrong_side_family():
    seed = PrimitiveState(0.5, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ConstructionError):
        build_solution(seed, 0.5, [raref("1+", 2.0)], [], IDEAL_PAIR)
    with pytest.raises(ConstructionError):
        build_solution(seed, 0.5, [], [shock("2-", -2.0)], IDEAL_PAIR)


def test_grammar_rejects_undeclared_shock_in_fan():
    # RP6's disjoint declaration: the phase-1 shock lands inside the
    # phase-2 fan and must be declared as hosted
    p = get_problem("RP6")
    es = p.exact_spec
    with pytest.raises(ConstructionError):
        build_solution(
            es.contact_left,
            es.alpha1_right,
            list(es.left_waves),
            [shock("1+", 1.5157292580814836), raref("2+", 2.0)],
            IDEAL_PAIR,
        )


def test_grammar_rejects_crossed_side():
    # RP6's contact and right waves with two left shocks walked in the
    # wrong order: the outer 1- shock at -0.8 runs inside the inner 2-
    # shock at -1.4, so the sampled profile would not be a weak solution
    p = get_problem("RP6")
    es = p.exact_spec
    with pytest.raises(ConstructionError) as err:
        build_solution(es.contact_left, es.alpha1_right, [shock("2-", -1.4), shock("1-", -0.8)],
                       list(es.right_waves), IDEAL_PAIR)
    assert err.value.wave == "left2:shock(1-, -0.8)"
    assert "shock(1-, S=-0.8) crosses shock(2-, S=-1.4), nearer the contact" in str(err.value)
    # walked in speed order, the same two shocks build
    build_solution(es.contact_left, es.alpha1_right, [shock("1-", -0.8), shock("2-", -1.4)],
                   list(es.right_waves), IDEAL_PAIR)


def test_grammar_rejects_interior_shock_outside_host():
    seed = PrimitiveState(0.7, 0.47883, 1.1064, -0.18865, -0.14351)
    with pytest.raises(ConstructionError):
        build_solution(
            seed, 0.3,
            [raref("2-", -2.0), raref("1-", -2.5)],
            [shock_in_raref("1+", 1.5, 2.0)],  # interior speed beyond the tail
            IDEAL_PAIR,
        )


def test_solution_table_and_summary():
    sol = rp1_solution()
    xis = np.linspace(-3, 3, 11)
    tab = solution_table(sol, xis)
    assert tab.shape == (11, 11)
    # mixture density column consistent with the phase columns
    rho = tab[:, 1] * tab[:, 2] + (1 - tab[:, 1]) * tab[:, 3]
    assert np.allclose(rho, tab[:, 6], rtol=1e-12)
    summ = sol.summary()
    assert summ["alpha1_left"] == 0.7 and summ["alpha1_right"] == 0.3
    kinds = [w["kind"] for w in summ["waves"]]
    assert "interior-shock" in kinds and "contact" in kinds


def test_eigen_curves_overlap_and_diagonal():
    sol = rp1_solution()
    xis = np.array([-1.9, -1.75])
    cur = sol.eigen_curves(xis)
    # inside the overlap both minus-family curves ride the diagonal
    assert np.allclose(cur[:, 0], xis, atol=1e-9)
    assert np.allclose(cur[:, 1], xis, atol=1e-9)


def test_rp4_eigenvalue_order_changes_across_every_shock():
    sol = get_problem("RP4").build_exact()
    pair = get_problem("RP4").eos_pair
    for el in sol.elements:
        if el.kind != "shock":
            continue
        order_l = tuple(
            sorted(eigenvalues(el.left, pair), key=lambda k: eigenvalues(el.left, pair)[k])
        )
        order_r = tuple(
            sorted(eigenvalues(el.right, pair), key=lambda k: eigenvalues(el.right, pair)[k])
        )
        assert order_l != order_r


def test_rp2_overlap_cone_sampling():
    # inside the intersection of the two left fans both phases sit on
    # their own fan relation simultaneously
    sol = get_problem("RP2").build_exact()
    spans = {}
    for el in sol.elements:
        if el.kind == "rarefaction":
            spans[str(el.family)] = (el.xi_head, el.xi_tail)
    lo = max(spans["1-"][0], spans["2-"][0])
    hi = min(spans["1-"][1], spans["2-"][1])
    assert lo < hi  # the cones really overlap
    for xi in np.linspace(lo + 0.05, hi - 0.05, 5):
        lam = eigenvalues(sol.sample(xi), IDEAL_PAIR)
        assert lam["1-"] == pytest.approx(xi, abs=1e-9)
        assert lam["2-"] == pytest.approx(xi, abs=1e-9)


def test_rp2_zero_strength_contact():
    # equal volume fractions and no slip at the center: all quantities
    # stay constant across the contact
    sol = get_problem("RP2").build_exact()
    eps = 1e-6
    a = sol.sample(sol.contact_speed - eps).as_array()
    b = sol.sample(sol.contact_speed + eps).as_array()
    assert np.allclose(a, b, rtol=1e-9, atol=1e-12)


def test_sample_many_matches_snapshot():
    # samples frozen by tools/fv_snapshot.py before sampling moved from
    # per-phase event lists to the element list: the same points (grid,
    # breakpoints and their float neighbours) and the same samples within
    # 1e-12 of each field's scale
    tool = snapshot_tool()
    ref = np.load(tool.DEFAULT_OUT)
    for name in sorted(PRESETS):
        sol = get_problem(name).build_exact()
        xi = tool.exact_points(sol)
        want_xi = ref[f"exact|{name}|xi"]
        assert xi.shape == want_xi.shape, name
        assert np.all(np.abs(xi - want_xi) <= 1e-12 * np.max(np.abs(want_xi))), name
        want = ref[f"exact|{name}|sample"]
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(sol.sample_many(xi) - want) <= 1e-12 * scale), name


def test_exact_construction_matches_snapshot():
    # element states, head and tail speeds and the validation report of
    # every preset, frozen by `tools/fv_snapshot.py --exact`: equal bit
    # for bit (float leaves compared by their IEEE bit patterns)
    tool = snapshot_tool()
    ref = np.load(tool.EXACT_OUT)
    for name in sorted(PRESETS):
        got = tool.exact_arrays(get_problem(name).build_exact())
        for key in ("states", "speeds", "report_floats"):
            want = ref[f"{name}|{key}"]
            assert got[key].shape == want.shape, (name, key)
            assert np.array_equal(got[key].view(np.int64), want.view(np.int64)), (name, key)
        assert got["report_flags"][()] == ref[f"{name}|report_flags"][()], name


def _speeds(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _constructions(draw):
    """(contact_left, alpha1_right, left_waves, right_waves): up to two
    waves a side, their speeds placed from the seed's own characteristic
    speeds so that a fair share of the draws can be built."""
    seed = PrimitiveState(
        draw(_speeds(0.1, 0.9)), draw(_speeds(0.3, 3.0)), draw(_speeds(0.3, 3.0)),
        draw(_speeds(-1.0, 1.0)), draw(_speeds(-1.0, 1.0)),
    )
    sides = []
    for sign, outward in (("-", -1.0), ("+", 1.0)):
        specs = []
        for _ in range(draw(st.integers(0, 2))):
            key = draw(st.sampled_from("12")) + sign
            lam = family_from_key(key).speed_of(seed, IDEAL_PAIR)
            kind = draw(st.sampled_from([raref, shock, shock_in_raref]))
            if kind is raref:
                specs.append(raref(key, lam + outward * draw(_speeds(0.02, 3.0))))
            elif kind is shock:
                specs.append(shock(key, lam - outward * draw(_speeds(0.02, 1.0))))
            else:
                tail = lam + outward * draw(_speeds(0.5, 3.0))
                specs.append(shock_in_raref(key, tail, lam + outward * draw(_speeds(0.02, 2.5))))
        sides.append(specs)
    return seed, draw(_speeds(0.1, 0.9)), sides[0], sides[1]


@st.composite
def _interior_shock_constructions(draw):
    """RP1 or RP6 with the contact's left state, alpha1 right of it, the
    interior shock's speed and its host fan's tail perturbed, the left
    waves kept or dropped.  The pre-shock side of every interior shock
    is sonic in the host phase, so shock_connect starts Newton from its
    displaced starts only."""
    spec = get_problem(draw(st.sampled_from(["RP1", "RP6"]))).exact_spec
    cl, (host,) = spec.contact_left, spec.right_waves

    def scaled(value, rel):
        return value * (1.0 + draw(_speeds(-rel, rel)))

    seed = PrimitiveState(
        cl.alpha1, scaled(cl.rho1, 0.1), scaled(cl.rho2, 0.1),
        cl.u1 + draw(_speeds(-0.1, 0.1)), cl.u2 + draw(_speeds(-0.1, 0.1)),
    )
    right = shock_in_raref(str(host.family), scaled(host.speed, 0.2), scaled(host.shock_speed, 0.2))
    left = list(spec.left_waves) if draw(st.booleans()) else []
    return seed, scaled(spec.alpha1_right, 0.2), left, [right]


def _raises_or_samples(case):
    """Either ConstructionError or a solution whose samples are finite over
    its breakpoints and equal el.right at the speed of every
    discontinuity and el.left just left of it, so each sampled jump is
    the one whose conditions were checked; returns the solution or None."""
    try:
        sol = build_solution(*case, IDEAL_PAIR)
    except ConstructionError:
        return None
    speeds = np.array(sol.wave_speeds())
    pad = 0.25 * max(speeds[-1] - speeds[0], 1.0)
    xi = np.concatenate([np.linspace(speeds[0] - pad, speeds[-1] + pad, 201), speeds])
    assert np.all(np.isfinite(sol.sample_many(xi)))
    for el in sol.elements:
        if el.is_discontinuity:
            got = sol.sample_many([el.speed, np.nextafter(el.speed, -np.inf)])
            assert np.allclose(got[0], el.right.as_array(), rtol=1e-9, atol=0.0), el.label()
            assert np.allclose(got[1], el.left.as_array(), rtol=1e-9, atol=1e-12), el.label()
    return sol


@settings(max_examples=300, deadline=None)
@given(case=_constructions())
def test_build_solution_raises_or_samples(case):
    # every declaration either fails with ConstructionError or builds a
    # validated solution that samples its checked jumps
    _raises_or_samples(case)


@settings(max_examples=150, deadline=None)
@given(case=_interior_shock_constructions())
def test_build_solution_interior_shocks_raise_or_sample(case):
    # the same contract where every draw declares a shock inside a fan;
    # a built one validated every jump to RESIDUAL_TOL and holds the shock
    sol = _raises_or_samples(case)
    if sol is not None:
        assert [el.kind for el in sol.elements].count("interior-shock") == 1

"""Wave connectors, jump systems and admissibility machinery.

The golden anchors are the published benchmark states (problems.py);
independent oracles: quadrature for the fan invariant, hand bisection
for the fan root, the linear mass-flux system for shock consistency.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from twophase.eos import BarotropicEos, EosPair
from twophase import waves
from twophase.errors import (
    DegenerateShockError,
    EosDomainError,
    InadmissibleWaveError,
    NumericsError,
    OutOfFanError,
    TwoPhaseError,
)
from twophase.problems import IDEAL_PAIR, STIFF_PAIR, table_states
from twophase.state import PrimitiveState, eigenvalues, mixture_pressures
from twophase.waves import (
    CONTACT,
    F1M,
    F1P,
    F2M,
    F2P,
    M_RELATIONS,
    N_UNKNOWNS,
    NEWTON_TOL,
    _fan_state,
    _with_phase,
    classify_discontinuity,
    contact_connect,
    contact_residuals,
    entropy_production,
    lax_check,
    rarefaction_connect,
    rhc_residuals,
    shock_connect,
    shock_mass_flux_system,
)

RP1 = dict(table_states("RP1"))
RP4 = dict(table_states("RP4"))


def mirror(state):
    return PrimitiveState(state.alpha1, state.rho1, state.rho2, -state.u1, -state.u2)


def fan(state, family, xi, pair):
    """State at speed xi of the fan through `state`, which may be either
    edge; rarefaction_connect only walks outward from the near edge."""
    rho, u = _fan_state(family, family.eos_of(pair), family.rho_of(state), family.u_of(state), xi)
    return _with_phase(state, family.phase, rho, u)


# ---------------------------------------------------------------------------
# rarefactions
# ---------------------------------------------------------------------------

def test_rarefaction_zero_strength():
    st = RP1["U**_L"]
    head = F2M.speed_of(st, IDEAL_PAIR)
    assert rarefaction_connect(st, F2M, head, IDEAL_PAIR) is st


def test_rarefaction_rp1_right_fan():
    # U*_R -> U_R across the lambda_{1+} fan: rho2, u2 frozen
    st = RP1["U*_R"]
    out = rarefaction_connect(st, F1P, 1.5, IDEAL_PAIR)
    assert out.rho1 == pytest.approx(RP1["U_R"].rho1, rel=1e-4)
    assert out.u1 == pytest.approx(RP1["U_R"].u1, rel=1e-4)
    assert out.rho2 == st.rho2 and out.u2 == st.u2 and out.alpha1 == st.alpha1


def test_rarefaction_invariant_quadrature_oracle():
    st = PrimitiveState(0.4, 1.8, 0.9, 0.3, -0.2)
    out = rarefaction_connect(st, F1M, -3.0, IDEAL_PAIR)
    eos = IDEAL_PAIR.phase1
    integral, _ = quad(lambda r: eos.sound_speed(r) / r, st.rho1, out.rho1, epsrel=1e-13)
    # minus family: u + int a/rho drho is invariant
    assert out.u1 + integral == pytest.approx(st.u1, abs=1e-10)
    # closed-form invariant u + 2a/(gamma-1)
    inv = lambda s: s.u1 + 2 * eos.sound_speed(s.rho1) / 0.4
    assert inv(out) == pytest.approx(inv(st), abs=1e-10)


def test_rarefaction_compression_rejected():
    st = RP1["U**_L"]
    head = F2M.speed_of(st, IDEAL_PAIR)
    with pytest.raises(InadmissibleWaveError):
        rarefaction_connect(st, F2M, head + 0.5, IDEAL_PAIR)
    with pytest.raises(InadmissibleWaveError):
        rarefaction_connect(st, F1P, F1P.speed_of(st, IDEAL_PAIR) - 0.5, IDEAL_PAIR)


def test_rarefaction_sample_head_is_edge():
    st = RP1["U**_R"]
    head = F1P.speed_of(st, IDEAL_PAIR)
    s = fan(st, F1P, head, IDEAL_PAIR)
    assert np.allclose(s.as_array(), st.as_array(), rtol=1e-12)


def test_rarefaction_sample_defining_property():
    st = RP1["U**_R"]
    for xi in (0.7, 0.85, 0.99):
        s = rarefaction_connect(st, F1P, xi, IDEAL_PAIR)
        assert F1P.speed_of(s, IDEAL_PAIR) == pytest.approx(xi, abs=1e-10)


ISOTHERMAL_PAIR = EosPair(BarotropicEos(1.0, 1.0), BarotropicEos(1.0, 1.0))
ISOTHERMAL_STATE = PrimitiveState(0.5, 1.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "connect, pair, state, family, xi, bracket",
    [
        # ideal gamma = 1.4, density rising from the head of a 1+ fan
        (rarefaction_connect, IDEAL_PAIR, RP1["U**_R"], F1P, 0.9, (RP1["U**_R"].rho1, 2.0)),
        # stiff closure (gamma = 2.8, B != 0) on RP3's 2- fan
        (rarefaction_connect, STIFF_PAIR, dict(table_states("RP3"))["U**_L"], F2M, -2000.0,
         (200.0, 2000.0)),
        # isothermal (gamma = 1): a minus fan from its head, a plus fan
        # from its dense far edge
        (fan, ISOTHERMAL_PAIR, ISOTHERMAL_STATE, F1M, -1.5, (1.0, 10.0)),
        (fan, ISOTHERMAL_PAIR, ISOTHERMAL_STATE, F2P, 0.4, (0.01, 1.0)),
    ],
    ids=["ideal-1+", "stiff-2-", "isothermal-1-", "isothermal-2+"],
)
def test_rarefaction_sample_bisection_oracle(connect, pair, state, family, xi, bracket):
    # independent bisection on the fan relation finds the same density
    s = connect(state, family, xi, pair)
    eos = family.eos_of(pair)
    rho_e, u_e = family.rho_of(state), family.u_of(state)

    def rising(rho):
        # sign * (lambda - xi) grows with rho for both families
        u = u_e + family.sign * eos.riemann_integral(rho_e, rho)
        return family.sign * (u + family.sign * eos.sound_speed(rho) - xi)

    lo, hi = bracket
    assert rising(lo) < 0 < rising(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rising(mid) > 0:
            hi = mid
        else:
            lo = mid
    assert family.rho_of(s) == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_rarefaction_sample_out_of_fan():
    st = RP1["U**_R"]
    # beyond the vacuum front of the fan (low-density side of a plus fan)
    with pytest.raises(OutOfFanError):
        fan(st, F1P, -100.0, IDEAL_PAIR)
    # gamma = 1 has no finite vacuum front; far enough out the density
    # underflows to zero
    with pytest.raises(OutOfFanError):
        fan(ISOTHERMAL_STATE, F1P, -1000.0, ISOTHERMAL_PAIR)
    # on the dense side the density overflows instead
    with pytest.raises(NumericsError):
        fan(ISOTHERMAL_STATE, F1P, 1000.0, ISOTHERMAL_PAIR)


def _numpy_scalar_fan(eos, sign, rho_e, u_e, xi):
    """The gamma != 1 fan formula on np.float64 scalars, spelled out."""
    a_e = np.sqrt(np.float64(eos.sound_speed_sq(rho_e)))
    a = a_e + sign * (eos.gamma - 1.0) / (eos.gamma + 1.0) * (xi - (u_e + sign * a_e))
    return rho_e * (a / a_e) ** (2.0 / (eos.gamma - 1.0)), xi - sign * a


def _bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("eos", [IDEAL_PAIR.phase1, IDEAL_PAIR.phase2, STIFF_PAIR.phase2],
                         ids=["gamma1.4", "gamma2", "gamma2.8-stiff"])
def test_fan_scalar_and_array_targets_agree(eos):
    # seeded edges and in-fan targets of every family.  A float target
    # gives the bits of the formula on numpy scalars, so built solutions
    # do not move.  Numpy's vectorised array power is not correctly
    # rounded: on AVX-512 hosts it differs from the scalar pow in the
    # last bits of ~2% of these densities (at most 2 ulp measured), so
    # an array target is held to 4 ulp and to the same outcome
    rng = np.random.default_rng(29)
    scale = eos.rho_ref
    for family in (F1M, F1P, F2M, F2P):
        for _ in range(300):
            rho_e = scale * 10.0 ** rng.uniform(-1.0, 1.0)
            a_e = eos.sound_speed(rho_e)
            u_e = a_e * rng.normal()
            # inside the fan on either side of the edge, short of the vacuum front
            front = (eos.gamma + 1.0) / (eos.gamma - 1.0) * a_e
            xi = u_e + family.sign * a_e + family.sign * rng.uniform(-0.9 * front, 3.0 * a_e)
            rho, u = _fan_state(family, eos, rho_e, u_e, xi)
            assert isinstance(rho, float) and isinstance(u, float)
            want = _numpy_scalar_fan(eos, family.sign, rho_e, u_e, xi)
            assert (_bits(rho), _bits(u)) == tuple(map(_bits, want))
            rho_a, u_a = _fan_state(family, eos, rho_e, u_e, np.array([xi]))
            assert abs(rho_a[0] - rho) <= 4.0 * np.spacing(rho) and u_a[0] == u


@pytest.mark.parametrize("xi, error, match", [
    (-2500.0, OutOfFanError, "vacuum front"),  # beyond the vacuum front: a <= 0
    (-1000.0, OutOfFanError, "vacuum front"),  # a > 0, but (a/a_e)**2000 underflows to zero
    (2000.0, NumericsError, "not finite"),  # the density overflows
    (math.nan, NumericsError, "not finite"),
], ids=["vacuum", "underflow", "overflow", "nan"])
def test_fan_scalar_and_array_targets_raise_alike(xi, error, match):
    # gamma = 1.001 puts the 1+ fan's vacuum front near xi = -2001 and
    # makes the density exponent 2000; a float target and a one-point array
    # end in the same error
    eos = BarotropicEos(1.0, 1.001)
    for target in (xi, np.array([xi])):
        with pytest.raises(error, match=match):
            _fan_state(F1P, eos, 1.0, 0.0, target)


# ---------------------------------------------------------------------------
# shocks
# ---------------------------------------------------------------------------

def rp4_left_inner():
    """(pre, post, S) of the lambda_{1-} shock, speeds from mass-flux
    continuity of the tabulated states."""
    pre, post = RP4["U**_L"], RP4["U*_L"]
    S = (post.rho1 * post.u1 - pre.rho1 * pre.u1) / (post.rho1 - pre.rho1)
    return pre, post, S


def rp4_left_outer():
    pre, post = RP4["U*_L"], RP4["U_L"]
    S = (post.rho2 * post.u2 - pre.rho2 * pre.u2) / (post.rho2 - pre.rho2)
    return pre, post, S


def test_rp4_table_pair_residuals():
    pre, post, S = rp4_left_inner()
    assert np.max(rhc_residuals(post, pre, S, STIFF_PAIR)) < 1e-6


def test_shock_connect_reproduces_rp4():
    pre, post_tab, S = rp4_left_inner()
    post = shock_connect(pre, F1M, S, STIFF_PAIR)
    err = np.abs(post.as_array() - post_tab.as_array()) / np.abs(post_tab.as_array())
    assert np.max(err) < 1e-4
    Q, Q1 = -pre.rho * (pre.u - S), -pre.rho1 * (pre.u1 - S)
    assert Q < 0 and Q1 < 0  # left shock mass fluxes
    assert entropy_production(post, pre, S, STIFF_PAIR) < 0


def test_shock_connect_mirror_symmetry():
    pre, _, S = rp4_left_inner()
    post = shock_connect(pre, F1M, S, STIFF_PAIR)
    post_m = shock_connect(mirror(pre), F1P, -S, STIFF_PAIR)
    assert np.allclose(post_m.as_array(), mirror(post).as_array(), rtol=1e-12)


def test_shock_zero_strength_rejected():
    pre = RP4["U**_L"]
    lam = F1M.speed_of(pre, STIFF_PAIR)
    with pytest.raises(DegenerateShockError):
        shock_connect(pre, F1M, lam, STIFF_PAIR)


def test_shock_collapse_onto_the_unjumped_state(monkeypatch):
    # a fixed draw whose converged starts all fall back onto the known
    # side: the weak-shock, +8% and +20% starts do not converge, and the
    # -8% and -20% starts each collapse; with no other root the solve
    # names the collapse
    st = PrimitiveState(0.19669485236666234, 1.1858845362708126, 2.7203089816079733,
                        0.45563214701868393, -0.632563069903322)
    roots, solve = [], waves._damped_newton
    monkeypatch.setattr(waves, "_damped_newton", lambda *a: roots.append(solve(*a)) or roots[-1])
    with pytest.raises(DegenerateShockError, match="collapses onto the unjumped state"):
        shock_connect(st, F1P, 1.700512721229747, IDEAL_PAIR)
    assert len(roots) == 2
    assert all(abs(x[0] - st.rho1) < waves.ZERO_STRENGTH_TOL * st.rho1 for x in roots)


def test_shock_u_equals_s_rejected():
    pre = RP4["U**_L"]  # u = 0
    with pytest.raises(InadmissibleWaveError):
        shock_connect(pre, F1M, pre.u, STIFF_PAIR)


def test_random_shock_linear_system_consistency():
    # connect random admissible shocks, then recover Q^2 from the 2x2
    # linear jump system as an independent check; draws whose speed
    # escapes the family's clean Lax window are resampled (existence of
    # a single-family root is not guaranteed for arbitrary S)
    rng = np.random.default_rng(10)
    checked = 0
    attempts = 0
    while checked < 25:
        attempts += 1
        assert attempts < 400
        st = PrimitiveState(
            rng.uniform(0.15, 0.85), rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
            rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
        )
        fam = (F1M, F2M, F1P, F2P)[checked % 4]
        lam = fam.speed_of(st, IDEAL_PAIR)
        S = lam + fam.sign * rng.uniform(0.1, 0.4) * (1 + abs(lam))
        if abs(S - st.u) < 1e-6:
            continue
        try:
            post = shock_connect(st, fam, S, IDEAL_PAIR)
        except DegenerateShockError:
            continue
        # mass fluxes of the known side
        Q, Q1, Q2 = -st.rho * (st.u - S), -st.rho1 * (st.u1 - S), -st.rho2 * (st.u2 - S)
        w_l, w_r = (st, post) if lam > S else (post, st)
        if lax_check(w_l, w_r, S, fam, IDEAL_PAIR) != "compressive":
            continue
        q1sq, q2sq, det = shock_mass_flux_system(w_l, w_r, st.alpha1, IDEAL_PAIR)
        assert q1sq == pytest.approx(Q1**2, rel=1e-8)
        assert q2sq == pytest.approx(Q2**2, rel=1e-8)
        # mass fluxes continuous across the returned shock
        for s_, sign in ((w_l, 1), (w_r, 1)):
            assert -s_.rho1 * (s_.u1 - S) == pytest.approx(Q1, rel=1e-9)
            assert -s_.rho2 * (s_.u2 - S) == pytest.approx(Q2, rel=1e-9)
            q_mix = -s_.rho * (s_.u - S)
            assert q_mix == pytest.approx(Q, rel=1e-9)
        # coupling Q2 = rho2 (Q1/rho1 + w) on both sides
        for s_ in (w_l, w_r):
            assert s_.rho2 * (Q1 / s_.rho1 + s_.w) == pytest.approx(Q2, rel=1e-9)
        # redundant forms: mixture momentum and relative-velocity brackets
        def jump(f):
            return f(w_r) - f(w_l)

        (p_l, pbar_l), (p_r, pbar_r) = (mixture_pressures(s_, IDEAL_PAIR) for s_ in (w_l, w_r))
        r_mom = -Q * (w_r.u - w_l.u) + (pbar_r - pbar_l)
        assert abs(r_mom) < 1e-8 * max(1.0, abs(p_l), abs(p_r))
        e1, e2 = IDEAL_PAIR.phase1, IDEAL_PAIR.phase2
        r_w = (
            0.5 * (Q1 / w_r.rho1) ** 2 - 0.5 * (Q1 / w_l.rho1) ** 2
            - 0.5 * (Q2 / w_r.rho2) ** 2 + 0.5 * (Q2 / w_l.rho2) ** 2
            + jump(lambda s: e1.psi(s.rho1) - e2.psi(s.rho2))
        )
        assert abs(r_w) < 1e-8 * max(1.0, e1.sound_speed_sq(w_l.rho1))
        checked += 1


def test_lax_sign_chain_left_shock():
    # left shock: -rho_R a_R < Q_mu < -rho_L a_L < 0 in the shock phase
    pre, post, S = rp4_left_inner()
    post_c = shock_connect(pre, F1M, S, STIFF_PAIR)
    w_l, w_r = post_c, pre
    Q1 = -pre.rho1 * (pre.u1 - S)
    a_l = STIFF_PAIR.phase1.sound_speed(w_l.rho1)
    a_r = STIFF_PAIR.phase1.sound_speed(w_r.rho1)
    assert -w_r.rho1 * a_r < Q1 < -w_l.rho1 * a_l < 0


def test_shock_mass_flux_system_degenerate():
    # zero jump in rho2 makes the matrix singular
    w_l = PrimitiveState(0.5, 2.0, 1.0, 0.5, 0.1)
    w_r = PrimitiveState(0.5, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(DegenerateShockError):
        shock_mass_flux_system(w_l, w_r, 0.5, IDEAL_PAIR)


def test_no_shock_with_single_density_jump():
    # forcing [[rho2]] = 0 leaves the momentum and relative-velocity
    # brackets with no common root in rho1 (both densities must jump)
    pre, _, S = rp4_left_inner()
    Q1 = -pre.rho1 * (pre.u1 - S)
    Q2 = -pre.rho2 * (pre.u2 - S)
    e1, e2 = STIFF_PAIR.phase1, STIFF_PAIR.phase2
    a1, a2 = pre.alpha1, 1 - pre.alpha1

    def r_mom(r1):
        return a1 * (Q1**2 * (1 / r1 - 1 / pre.rho1) + e1.pressure(r1) - e1.pressure(pre.rho1))

    def r_w(r1):
        return 0.5 * Q1**2 * (1 / r1**2 - 1 / pre.rho1**2) + e1.psi(r1) - e1.psi(pre.rho1)

    from scipy.optimize import brentq

    root_mom = brentq(r_mom, pre.rho1 * 0.02, pre.rho1 * 0.9999)
    root_w = brentq(r_w, pre.rho1 * 0.02, pre.rho1 * 0.9999)
    assert abs(root_mom - root_w) > 1e-3 * root_mom


# ---------------------------------------------------------------------------
# contact
# ---------------------------------------------------------------------------

def test_contact_identity():
    st = PrimitiveState(0.6, 1.2, 0.7, 0.4, 0.4)  # w = 0
    out = contact_connect(st, 0.6, IDEAL_PAIR)
    assert np.allclose(out.as_array(), st.as_array(), rtol=1e-12)


def test_contact_rp1():
    out = contact_connect(RP1["U**_L"], 0.3, IDEAL_PAIR)
    tab = RP1["U**_R"]
    assert np.max(np.abs(out.as_array() - tab.as_array()) / np.abs(tab.as_array())) < 1e-4
    assert out.u == pytest.approx(RP1["U**_L"].u, rel=1e-13)


def test_contact_invariants():
    # a connecting state need not exist for every (left state, alpha)
    # pair (large slip or volume-fraction jumps can defeat the jump
    # system); every solution found must carry the four invariants
    from twophase.errors import NumericsError

    rng = np.random.default_rng(12)
    solved = 0
    for _ in range(25):
        st = PrimitiveState(
            rng.uniform(0.25, 0.75), rng.uniform(0.4, 2.5), rng.uniform(0.4, 2.5),
            rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
        )
        a_r = float(np.clip(st.alpha1 + rng.uniform(-0.3, 0.3), 0.05, 0.95))
        try:
            out = contact_connect(st, a_r, IDEAL_PAIR)
        except NumericsError:
            continue
        solved += 1
        assert np.max(contact_residuals(st, out, IDEAL_PAIR)) < 1e-8
        _, pbar_l = mixture_pressures(st, IDEAL_PAIR)
        _, pbar_r = mixture_pressures(out, IDEAL_PAIR)
        assert pbar_r == pytest.approx(pbar_l, rel=1e-8)
        assert out.u == pytest.approx(st.u, rel=1e-12, abs=1e-12)
    assert solved >= 18


def test_contact_large_alpha_jump_continuation():
    st = PrimitiveState(0.9, 1.5, 0.8, 0.3, -0.5)
    out = contact_connect(st, 0.08, IDEAL_PAIR)
    assert np.max(contact_residuals(st, out, IDEAL_PAIR)) < 1e-8


def test_contact_fine_continuation_retry():
    # the direct Newton solve at alpha1_right fails here; only the
    # 40-step continuation in alpha1 reaches the root
    st = PrimitiveState(
        0.6320762574992899, 4.997054781128296, 2.2704365584482193,
        1.5939123971392566, -1.4832896860687574,
    )
    out = contact_connect(st, 0.3858564277313927, IDEAL_PAIR)
    assert np.max(contact_residuals(st, out, IDEAL_PAIR)) < 1e-12


# ---------------------------------------------------------------------------
# entropy production and Lax classification
# ---------------------------------------------------------------------------

def test_entropy_contact_zero():
    st = RP1["U**_L"]
    out = contact_connect(st, 0.3, IDEAL_PAIR)
    assert entropy_production(st, out, st.u, IDEAL_PAIR, check=False) == 0.0


def test_entropy_lax_shock_negative_reversed_positive():
    pre, _, S = rp4_left_inner()
    post = shock_connect(pre, F1M, S, STIFF_PAIR)
    prod = entropy_production(post, pre, S, STIFF_PAIR)
    assert prod < 0
    assert entropy_production(pre, post, S, STIFF_PAIR) > 0  # expansion shock


def test_entropy_requires_connected_states():
    with pytest.raises(InadmissibleWaveError):
        entropy_production(RP4["U**_L"], RP4["U_L"], -409.0, STIFF_PAIR)


def test_lax_rp4_outer_pair_compressive_family_2m():
    pre, post, S = rp4_left_outer()
    # x-ordered: post (U_L) sits left of pre (U*_L)
    assert lax_check(post, pre, S, F2M, STIFF_PAIR) == "compressive"
    # the crossing family is 2-, not 1- (lambda_{1-} does not straddle S)
    assert lax_check(post, pre, S, F1M, STIFF_PAIR) == "fails"


def test_lax_zero_strength_fails():
    st = RP4["U**_L"]
    assert lax_check(st, st, 100.0, F1M, STIFF_PAIR) == "fails"


def test_lax_tangency_fails_and_overcompressive_pair():
    pre, post, _ = rp4_left_outer()
    # S on a characteristic of either side is a tangency, not a shock
    for side in (post, pre):
        for lam in eigenvalues(side, STIFF_PAIR).values():
            assert lax_check(post, pre, lam, F2M, STIFF_PAIR) == "fails"
    # every left characteristic above S and every right one below it
    left = PrimitiveState(0.5, 1.0, 1.0, 50.0, 50.0)
    right = PrimitiveState(0.5, 1.0, 1.0, -50.0, -50.0)
    assert max(eigenvalues(right, IDEAL_PAIR).values()) < 0.0 < min(
        eigenvalues(left, IDEAL_PAIR).values())
    assert lax_check(left, right, 0.0, F1M, IDEAL_PAIR) == "overcompressive"


def test_connectors_reject_what_they_cannot_connect():
    st = RP4["U**_L"]
    with pytest.raises(InadmissibleWaveError, match="acoustic"):
        rarefaction_connect(st, CONTACT, 0.0, STIFF_PAIR)
    with pytest.raises(InadmissibleWaveError, match="acoustic"):
        shock_connect(st, CONTACT, 0.0, STIFF_PAIR)
    for alpha1 in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(InadmissibleWaveError, match="alpha1_right outside"):
            contact_connect(st, alpha1, STIFF_PAIR)


# ---------------------------------------------------------------------------
# characteristic census (the section-5 case law)
# ---------------------------------------------------------------------------

def test_census_contact_evolutionary():
    w_l = RP1["U**_L"]
    w_r = contact_connect(w_l, 0.3, IDEAL_PAIR)
    c = classify_discontinuity(w_l, w_r, w_l.u, IDEAL_PAIR)
    assert (c.i, c.o, c.c) == (4, 4, 2)
    assert c.count_ok and c.evolutionary


def test_census_shock_with_tangent_contact_rejected():
    # synthetic pattern of the excluded u = S discontinuity: the count
    # balances (o = 4) but the 2+ family emits on both sides
    w_l = PrimitiveState(0.5, 1.0, 1.0, 2.0, -2.0)   # u = 0 = S
    w_r = PrimitiveState(0.5, 1.0, 1.0, 0.5, -0.5)
    c = classify_discontinuity(w_l, w_r, 0.0, IDEAL_PAIR)
    assert c.c == 2 and c.o == 4 and c.count_ok
    assert c.undetermined == ("2+",)
    assert not c.evolutionary


def test_census_isolated_lax_shock():
    pre, post, S = rp4_left_inner()
    c = classify_discontinuity(post, pre, S, STIFF_PAIR)
    assert c.evolutionary and (c.i, c.o, c.c) == (6, 4, 0)


def test_census_shock_resonance_rejected():
    # shocks in both phases at the same speed: seven incoming, three outgoing
    w_l = PrimitiveState(0.5, 1.0, 1.0, 2.0, 2.0)
    w_r = PrimitiveState(0.5, 2.0, 2.0, 0.5, 0.5)
    c = classify_discontinuity(w_l, w_r, 0.0, IDEAL_PAIR)
    assert (c.i, c.o, c.c) == (7, 3, 0)
    assert not c.evolutionary
    # mixed orientation (minus-family and plus-family shock coinciding)
    w_l = PrimitiveState(0.5, 1.0, 2.0, 2.0, -0.5)
    w_r = PrimitiveState(0.5, 2.0, 1.0, 0.5, -2.0)
    c = classify_discontinuity(w_l, w_r, 0.0, IDEAL_PAIR)
    assert not c.evolutionary


def _rp1_interior_pair():
    from twophase.problems import get_problem

    sol = get_problem("RP1").build_exact()
    el = [e for e in sol.elements if e.kind == "interior-shock"][0]
    return el.left, el.right, el.speed


def test_census_case_iii_exact_listing():
    # mirrored case (iii): mu = 2 (shock), nu = 1 (host fan, plus side)
    w_l, w_r, S = _rp1_interior_pair()
    c = classify_discontinuity(w_l, w_r, S, IDEAL_PAIR)
    assert c.evolutionary
    assert set(c.coinciding) == {("1+", "left")}
    assert set(c.incoming) == {
        ("2+", "left"), ("2+", "right"), ("2-", "right"), ("1-", "right"), ("C", "right"),
    }
    assert set(c.outgoing) == {
        ("2-", "left"), ("1+", "right"), ("1-", "left"), ("C", "left"),
    }


def test_case_ii_shock_strictly_inside_fan_rejected():
    # place the interior shock away from the tangency: the host
    # characteristic then crosses the discontinuity (case ii) and the
    # census loses the balance (o = 5)
    from twophase.problems import get_problem

    sol = get_problem("RP1").build_exact()
    host_edge = sol.contact_right
    pre = rarefaction_connect(host_edge, F1P, 0.95, IDEAL_PAIR)
    # branch with the host characteristic crossing (lambda_{1+} rises
    # above S behind the shock); the preferred branch would dodge it
    post = shock_connect(
        pre, F2P, 1.0, IDEAL_PAIR,
        initial_guess=[pre.rho1 * 1.15, pre.rho2 * 0.82],
    )
    assert F1P.speed_of(post, IDEAL_PAIR) > 1.0
    c = classify_discontinuity(pre, post, 1.0, IDEAL_PAIR)
    assert c.o == 5
    assert not c.evolutionary


def _left_side_case_iii_pair():
    """Minus-family host: prescribe the downstream (right) side of a
    2- shock with its lambda_{1-} exactly tangent to the shock speed,
    i.e. u1+ = S + a1(rho1+), and solve for the upstream side."""
    S = -1.0
    a1 = IDEAL_PAIR.phase1.sound_speed(1.2)
    a2 = IDEAL_PAIR.phase2.sound_speed(1.8)
    w_plus = PrimitiveState(0.4, 1.2, 1.8, S + a1, S + 0.5 * a2)
    w_minus = shock_connect(w_plus, F2M, S, IDEAL_PAIR)
    return w_minus, w_plus, S


def test_census_case_iii_left_side_printed_listing():
    # original (minus-host) shock-in-rarefaction census: mu = 2, nu = 1
    w_minus, w_plus, S = _left_side_case_iii_pair()
    assert F1M.speed_of(w_plus, IDEAL_PAIR) == pytest.approx(S, abs=1e-7)
    c = classify_discontinuity(w_minus, w_plus, S, IDEAL_PAIR)
    assert c.evolutionary
    assert set(c.coinciding) == {("1-", "right")}
    assert set(c.incoming) == {
        ("2-", "left"), ("2-", "right"), ("2+", "left"), ("1+", "left"), ("C", "left"),
    }
    assert set(c.outgoing) == {
        ("2+", "right"), ("1-", "left"), ("1+", "right"), ("C", "right"),
    }
    # minus-family host carries negative mixture mass flux
    assert -w_plus.rho * (w_plus.u - S) < 0
    assert entropy_production(w_minus, w_plus, S, IDEAL_PAIR) < 0


def test_case_iv_rejected_by_entropy_sign():
    # The tangent-upstream configuration: the phase-nu jump bracket
    #   f(rho) = Psi(rho) - Psi(rho-) + Q_nu^2/2 (1/rho^2 - 1/rho-^2),
    #   Q_nu = -rho- a(rho-),
    # has a strict minimum 0 at rho = rho- (f' = 0 there, rho*a
    # monotone), so any jump gives f > 0 and, with Q < 0 from the
    # incoming contact characteristic, production -Q f > 0: the energy
    # inequality rules configuration (iv) out.  (The 2x2 jump system
    # folds exactly at this tangency, so no connected pair exists to
    # instantiate it; the energy argument is the rejection itself.)
    eos = IDEAL_PAIR.phase1
    for rho_minus in (0.5, 1.0, 2.3):
        q2 = (rho_minus * eos.sound_speed(rho_minus)) ** 2

        def bracket(rho):
            return eos.psi(rho) - eos.psi(rho_minus) + 0.5 * q2 * (
                1.0 / rho**2 - 1.0 / rho_minus**2
            )

        for rho in np.linspace(0.3 * rho_minus, 4.0 * rho_minus, 41):
            if abs(rho - rho_minus) < 1e-9:
                continue
            assert bracket(rho) > 0.0
        # mirrored admissible shape (tangency downstream): f <= 0 on the
        # compression side rho < rho+, as in the energy analysis of (iii)
        rho_plus = rho_minus

        def bracket_iii(rho):
            return (eos.psi(rho_plus) + 0.5 * q2 / rho_plus**2) - (
                eos.psi(rho) + 0.5 * q2 / rho**2
            )

        for rho in np.linspace(0.3 * rho_plus, rho_plus, 21):
            assert bracket_iii(rho) <= 1e-15

    # operationally: a reversed admissible pair (tangency flipped to the
    # upstream side) is flagged by positive entropy production
    w_minus, w_plus, S = _left_side_case_iii_pair()
    swapped = entropy_production(w_plus, w_minus, S, IDEAL_PAIR)
    assert swapped > 0


def test_census_family_and_side_bookkeeping():
    pre, post, S = rp4_left_inner()
    c = classify_discontinuity(post, pre, S, STIFF_PAIR)
    assert (N_UNKNOWNS, M_RELATIONS) == (11, 5) and c.count_ok
    assert c.i + c.o + c.c == 10


def test_rarefaction_frozen_quantities_bitwise():
    # alpha1 and the other phase are not merely close: they are the
    # same floats before and after the connect
    rng = np.random.default_rng(77)
    for _ in range(20):
        st = PrimitiveState(
            rng.uniform(0.2, 0.8), rng.uniform(0.4, 2.0), rng.uniform(0.4, 2.0),
            rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
        )
        head = F2M.speed_of(st, IDEAL_PAIR)
        out = rarefaction_connect(st, F2M, head - rng.uniform(0.1, 1.0), IDEAL_PAIR)
        assert out.alpha1 == st.alpha1
        assert out.rho1 == st.rho1 and out.u1 == st.u1
        out = rarefaction_connect(st, F1P, F1P.speed_of(st, IDEAL_PAIR) + 0.7, IDEAL_PAIR)
        assert out.rho2 == st.rho2 and out.u2 == st.u2


def test_fan_overflow_is_a_numerics_error():
    # gamma near 1 makes the fan exponent 2/(gamma-1) = 2000: a far target
    # overflows the density, which must end in NumericsError, not in a
    # raw OverflowError from scalar float arithmetic
    pair = EosPair(BarotropicEos(1.0, 1.001), BarotropicEos(1.0, 1.4))
    st = PrimitiveState(0.5, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(NumericsError, match="not finite"):
        rarefaction_connect(st, F1M, -2000.0, pair)


# Newton convergence over a seeded sweep, measured on the iterates
# of 1ee7627: at most 7 (shock) and 8 (contact) iterations, and at
# most C = 1.1e4 on the full steps below 1e-4
NEWTON_ITERATIONS = {"shock": 10, "contact": 10}
NEWTON_C = 5e4
ROUNDOFF = 1e-2 * NEWTON_TOL  # scaled residual the last step may stall at


def _traced_newton_solves(monkeypatch):
    """Run the sweep with `_damped_newton` traced; per converged solve
    the kind, the scaled errors of the accepted iterates and, per
    step, whether it was a full Newton step (lambda = 1), that is the
    iterate plus `_newton_step` of its Jacobian and residual."""
    solves = []
    newton = waves._damped_newton

    def traced(residual, jacobian, x0, scales, what):
        seen, path = {}, []

        def res(x):
            seen[x] = f = residual(x)
            return f

        def jac(x):
            path.append((x, jacobian(x)))
            return path[-1][1]

        x = newton(res, jac, x0, scales, what)
        xs = [p[0] for p in path]
        if not xs or x != xs[-1]:
            xs.append(x)
        errs = [float(np.max(np.abs(seen[y]) / scales)) for y in xs]
        full = [
            tuple(a + s for a, s in zip(xk, waves._newton_step(jk, seen[xk]))) == xn
            for (xk, jk), xn in zip(path, xs[1:])
        ]
        solves.append((what, errs, full))
        return x

    monkeypatch.setattr(waves, "_damped_newton", traced)
    rng = np.random.default_rng(12345)
    for i in range(300):
        st = PrimitiveState(
            rng.uniform(0.15, 0.85), rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
            rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
        )
        fam = (F1M, F2M, F1P, F2P)[i % 4]
        lam = fam.speed_of(st, IDEAL_PAIR)
        try:
            shock_connect(st, fam, lam + fam.sign * rng.uniform(0.1, 0.4) * (1 + abs(lam)), IDEAL_PAIR)
        except TwoPhaseError:
            pass
    for _ in range(300):
        st = PrimitiveState(
            rng.uniform(0.15, 0.85), rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
            rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
        )
        try:
            contact_connect(st, rng.uniform(0.15, 0.85), IDEAL_PAIR)
        except TwoPhaseError:
            pass
    return solves


def test_damped_newton_converges_quadratically(monkeypatch):
    solves = _traced_newton_solves(monkeypatch)
    kinds = [what for what, _, _ in solves]
    assert kinds.count("shock") > 200 and kinds.count("contact") > 1000
    checked = 0
    for what, errs, full in solves:
        assert errs[-1] < 1e-9
        assert len(errs) - 1 <= NEWTON_ITERATIONS[what], (what, errs)
        for err, err_next, is_full in zip(errs, errs[1:], full):
            if is_full and NEWTON_TOL <= err < 1e-4:
                checked += 1
                assert err_next <= max(NEWTON_C * err**2, ROUNDOFF), (what, errs)
    assert checked > 1000


def test_preset_builds_take_the_direct_path(monkeypatch):
    # each preset's contact is one direct Newton solve, and no Newton
    # solve of any build fails: the sonic start of an interior shock,
    # whose Jacobian is singular, is not tried
    from twophase.exact import build_solution
    from twophase.problems import PRESETS, get_problem

    calls = []
    newton = waves._damped_newton

    def traced(residual, jacobian, x0, scales, what):
        calls.append((what, "raised"))
        x = newton(residual, jacobian, x0, scales, what)
        calls[-1] = (what, "converged")
        return x

    monkeypatch.setattr(waves, "_damped_newton", traced)
    for name in sorted(PRESETS):
        problem = get_problem(name)
        spec = problem.exact_spec
        calls.clear()
        # build_solution itself: build_exact caches its answer
        build_solution(spec.contact_left, spec.alpha1_right, list(spec.left_waves),
                       list(spec.right_waves), problem.eos_pair)
        assert all(outcome == "converged" for _, outcome in calls), (name, calls)
        assert [what for what, _ in calls].count("contact") == 1, (name, calls)


def test_preset_builds_make_no_linalg_solve(monkeypatch):
    # the Newton steps of every preset build are float arithmetic
    from twophase.exact import build_solution
    from twophase.problems import PRESETS, get_problem

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    for name in sorted(PRESETS):
        problem = get_problem(name)
        spec = problem.exact_spec
        build_solution(spec.contact_left, spec.alpha1_right, list(spec.left_waves),
                       list(spec.right_waves), problem.eos_pair)


@pytest.mark.parametrize("start", [[0.0, 1.0], [-1.0, 1.0], [math.nan, 1.0], [1e200, 1.0]])
def test_shock_newton_start_checked_before_arithmetic(start):
    # a start density that is not positive is a domain error before any
    # arithmetic; a start whose residual overflows fails its own solve
    # only, and the next start finds the root
    st = PrimitiveState(0.5, 1.0, 1.0, 0.0, 0.0)
    if start[0] > 0.0:
        got = shock_connect(st, F1P, 2.0, IDEAL_PAIR, initial_guess=start)
        assert got == shock_connect(st, F1P, 2.0, IDEAL_PAIR)
    else:
        with pytest.raises(EosDomainError, match="density must be positive"):
            shock_connect(st, F1P, 2.0, IDEAL_PAIR, initial_guess=start)


def test_damped_newton_overflow_halves_the_step_or_fails():
    # root (11, 1); from 7 the full step lands near 4350, where 10.0**x
    # overflows, and halving reaches the root
    trials = []

    def residual(x):
        trials.append(x)
        return 10.0 ** (x[0] - 10.0) - 10.0, x[1] - 1.0

    def jacobian(x):
        return (math.log(10.0) * 10.0 ** (x[0] - 10.0), 0.0), (0.0, 1.0)

    x = waves._damped_newton(residual, jacobian, (7.0, 1.0), (10.0, 1.0), "test")
    assert x[0] == pytest.approx(11.0, rel=1e-14) and x[1] == 1.0
    with pytest.raises(OverflowError):
        10.0 ** (trials[1][0] - 10.0)
    with pytest.raises(NumericsError, match="test Newton did not converge"):
        waves._damped_newton(residual, jacobian, (400.0, 1.0), (10.0, 1.0), "test")


@pytest.mark.parametrize("jac", [
    ((1.0, 2.0), (2.0, 4.0)),  # zero determinant
    ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),  # zero second pivot
])
def test_damped_newton_stops_on_a_singular_jacobian(jac):
    n = len(jac)
    trials = []

    def residual(x):
        trials.append(x)
        return (1.0,) * n

    with pytest.raises(NumericsError) as exc:
        waves._damped_newton(residual, lambda x: jac, (1.0,) * n, (1.0,) * n, "test")
    assert exc.value.residual == 1.0 and len(trials) == 1

"""Conversions, flux assembly and the eigenstructure."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    coincident_state,
    primitive_rows,
    random_state_array,
    random_states,
    round_trip_error,
)
from twophase import fv
from twophase.eos import BarotropicEos, EosPair
from twophase.errors import StateDecodeError
from twophase.problems import IDEAL_PAIR, STIFF_PAIR
from twophase.state import (
    ACOUSTIC_KEYS,
    FAMILY_KEYS,
    PrimitiveState,
    _cons_flux_rows,
    _cons_rows,
    _invalid_cons,
    _max_wavespeed_rows,
    _prim_rows,
    check_resonance,
    eigenstructure,
    eigenvalues,
    field_characterization,
    flux_conserved_array,
    flux_primitive_array,
    jacobian_primitive,
    mixture_pressures,
    prim_to_cons_array,
)

RP1_LEFT = PrimitiveState(0.7, 1.2449, 1.2969, -1.2638, -0.38947)


def test_symmetric_rest_state_conversion():
    w = prim_to_cons_array(PrimitiveState(0.5, 1.0, 1.0, 0.0, 0.0).as_array())
    assert tuple(w) == (0.5, 0.5, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("rho1, rho2", [(0.0, 1.0), (1.0, -1.0), (float("nan"), 1.0)])
def test_primitive_state_rejects_non_positive_densities(rho1, rho2):
    with pytest.raises(StateDecodeError, match="non-positive phase density"):
        PrimitiveState(0.5, rho1, rho2, 0.0, 0.0)


def test_rp1_left_mixture_density():
    w = prim_to_cons_array(RP1_LEFT.as_array())
    assert w[2] == pytest.approx(0.7 * 1.2449 + 0.3 * 1.2969, rel=1e-14)


def decode(u):
    """Primitive cells (n, 5) of conservative cells u (n, 5) that pass the invariant mask."""
    w = np.asarray(u, dtype=float).T
    assert not np.any(_invalid_cons(w))
    return np.stack(_prim_rows(w), axis=-1)


def test_round_trip_scalar():
    v = PrimitiveState(0.37, 2.1, 0.6, 1.3, -0.8).as_array()
    back = decode(prim_to_cons_array(v))
    assert np.allclose(back, v, rtol=1e-14, atol=0)


def test_round_trip_property():
    rng = np.random.default_rng(0)
    v = random_state_array(rng, 10_000)
    back = decode(prim_to_cons_array(v))
    assert np.max(np.abs(back - v) / np.maximum(np.abs(v), 1.0)) < 1e-13


@settings(max_examples=500, deadline=None)
@given(v=primitive_rows())
def test_prim_rows_invert_cons_rows(v):
    back = _prim_rows(np.array(_cons_rows(v)))
    assert np.all(round_trip_error(v, back) <= 1e-12), (v, back)


def test_decode_rejects_boundary(ideal_pair):
    # the mask flags rows on the edge of the invariant set, and fv.step,
    # the one checked entry, rejects them before any decode
    for row in ([0.5, 0.25, 0.5, 0.0, 0.0], [0.2, 0.5, 0.4, 0.0, 0.0]):  # w1 == w3; w2 > w3
        assert _invalid_cons(np.array(row))
        with pytest.raises(StateDecodeError, match="input cell 0 "):
            fv.step(np.array([row]), 1e-4, 0.01, fv.SolverConfig(t_end=1.0), ideal_pair)


def test_flux_rest_state(ideal_pair):
    st = PrimitiveState(0.4, 1.2, 0.9, 0.0, 0.0)
    f = flux_conserved_array(prim_to_cons_array(st.as_array()), ideal_pair)
    p, _ = mixture_pressures(st, ideal_pair)
    psi_diff = ideal_pair.phase1.psi(st.rho1) - ideal_pair.phase2.psi(st.rho2)
    assert np.allclose(f[:3], 0.0, atol=1e-15)
    assert f[3] == pytest.approx(p, rel=1e-14)
    assert f[4] == pytest.approx(psi_diff, rel=1e-14)


def test_flux_identity_row(ideal_pair):
    w = prim_to_cons_array(RP1_LEFT.as_array())
    f = flux_conserved_array(w, ideal_pair)
    assert f[2] == pytest.approx(w[3], rel=1e-14)


ISOTHERMAL_PAIR = EosPair(BarotropicEos(1.0, 1.0), BarotropicEos(2.0, 1.0))


@pytest.mark.parametrize(
    "pair, rho",
    [(IDEAL_PAIR, (0.1, 5.0)), (STIFF_PAIR, (0.5, 1500.0)), (ISOTHERMAL_PAIR, (0.1, 5.0))],
    ids=("ideal", "stiff", "isothermal"),
)
def test_flux_two_assembly_paths(pair, rho):
    # the conserved-row algebra against the independent primitive one, and
    # its wave speeds against those of the decoded rows; the stiff pair
    # (B != 0) is sampled over gas and liquid densities
    rng = np.random.default_rng(1)
    v = random_state_array(rng, 500, rho=rho)
    w = prim_to_cons_array(v)
    f_cons = flux_conserved_array(w, pair)
    f_prim = flux_primitive_array(v, pair)
    scale = np.maximum(np.abs(f_cons), 1.0)
    assert np.max(np.abs(f_cons - f_prim) / scale) < 1e-12
    f_rows, speeds = _cons_flux_rows(w.T, pair, speeds=True)
    assert f_rows.tobytes() == f_cons.T.tobytes()
    want = _max_wavespeed_rows(_prim_rows(w.T), pair)
    assert np.max(np.abs(speeds - want) / want) < 1e-13


def test_jacobian_first_column_degenerate(ideal_pair):
    # u1 = u2 = u and p1 = p2 zero out every first-column entry but A[0,0]
    rho1 = 1.3
    rho2 = rho1 ** (1.4 / 2.0)  # p2(rho2) = p1(rho1) for the unit laws
    st = PrimitiveState(0.6, rho1, rho2, 0.7, 0.7)
    A = jacobian_primitive(st, ideal_pair)
    assert np.allclose(A[:, 0], [0.7, 0.0, 0.0, 0.0, 0.0], atol=1e-13)


def test_jacobian_eigenvalues_match_formulas(ideal_pair):
    rng = np.random.default_rng(2)
    for st in random_states(rng, 300):
        A = jacobian_primitive(st, ideal_pair)
        lam = eigenvalues(st, ideal_pair)
        num = np.sort(np.linalg.eigvals(A).real)
        ana = np.sort([lam[k] for k in FAMILY_KEYS])
        assert np.max(np.abs(num - ana)) < 1e-10 * max(1.0, np.max(np.abs(ana)))


def _fd_jacobian_primitive(st, pair, h=1e-7):
    """A = (dU/dV)^-1 (dF/dV) by central differences of the conservative maps."""
    v0 = st.as_array()
    dU = np.zeros((5, 5))
    dF = np.zeros((5, 5))
    for j in range(5):
        hj = h * max(1.0, abs(v0[j]))
        vp, vm = v0.copy(), v0.copy()
        vp[j] += hj
        vm[j] -= hj
        dU[:, j] = (prim_to_cons_array(vp) - prim_to_cons_array(vm)) / (2 * hj)
        dF[:, j] = (flux_primitive_array(vp, pair) - flux_primitive_array(vm, pair)) / (2 * hj)
    return np.linalg.solve(dU, dF)


def test_jacobian_consistent_with_flux_differencing(ideal_pair):
    rng = np.random.default_rng(3)
    for st in random_states(rng, 25):
        A = jacobian_primitive(st, ideal_pair)
        A_fd = _fd_jacobian_primitive(st, ideal_pair)
        scale = max(1.0, np.max(np.abs(A)))
        assert np.max(np.abs(A - A_fd)) / scale < 1e-5


def test_eigenstructure_rest_state(ideal_pair):
    st = PrimitiveState(0.5, 1.0, 1.0, 0.0, 0.0)
    speeds, _ = eigenstructure(st, ideal_pair)
    assert speeds["C"] == 0.0
    assert speeds["1+"] == pytest.approx(np.sqrt(1.4))
    assert speeds["1-"] == pytest.approx(-np.sqrt(1.4))


def test_eigenstructure_rp1_left(ideal_pair):
    speeds, _ = eigenstructure(RP1_LEFT, ideal_pair)
    a1 = ideal_pair.phase1.sound_speed(1.2449)
    assert speeds["1-"] == pytest.approx(-1.2638 - a1, rel=1e-12)
    A = jacobian_primitive(RP1_LEFT, ideal_pair)
    assert np.min(np.abs(np.linalg.eigvals(A).real - speeds["1-"])) < 1e-12


def test_eigen_residuals_random(ideal_pair):
    rng = np.random.default_rng(4)
    for st in random_states(rng, 300):
        A = jacobian_primitive(st, ideal_pair)
        if check_resonance(st, ideal_pair).coinciding:
            continue
        speeds, vectors = eigenstructure(st, ideal_pair)
        nA = np.linalg.norm(A)
        for k in FAMILY_KEYS:
            R = vectors[k]
            resid = np.linalg.norm(A @ R - speeds[k] * R) / (nA * np.linalg.norm(R))
            assert resid < 1e-9


def test_contact_speed_bounded(ideal_pair):
    rng = np.random.default_rng(5)
    for st in random_states(rng, 500):
        lam = eigenvalues(st, ideal_pair)
        assert min(lam["1-"], lam["2-"]) < lam["C"] < max(lam["1+"], lam["2+"])


def test_degeneracy_flag_and_collapse(ideal_pair):
    st = coincident_state(ideal_pair)
    lam = eigenvalues(st, ideal_pair)
    assert lam["1+"] == pytest.approx(lam["C"], abs=1e-12)
    assert check_resonance(st, ideal_pair).coinciding
    _, vectors = eigenstructure(st, ideal_pair)
    # R_C falls into span{R_1-, R_1+}: components 0, 2, 4 vanish
    rc = vectors["C"]
    assert np.max(np.abs(rc[[0, 2, 4]])) < 1e-9 * max(np.linalg.norm(rc), 1e-30)


def test_check_resonance_reports(ideal_pair):
    rng = np.random.default_rng(6)
    generic = PrimitiveState(0.3, 1.0, 2.0, 0.5, -0.4)
    rep = check_resonance(generic, ideal_pair)
    assert rep.coinciding == () and not rep.rc_null

    single = coincident_state(ideal_pair)
    rep = check_resonance(single, ideal_pair)
    assert rep.coinciding == ("1+",)
    assert rep.collapsed == ("1+",)
    assert not rep.rc_null

    # both phases coincident: R_C is the null vector
    rho1, rho2, u = 1.1, 0.8, 0.2
    a1 = ideal_pair.phase1.sound_speed(rho1)
    a2 = ideal_pair.phase2.sound_speed(rho2)
    # u - u1 = -c2 w = a1 and u - u2 = c1 w = -a2 require c2/c1 = a1/a2
    c2_req = a1 / (a1 + a2)
    alpha1 = 1.0 / (1.0 + c2_req * rho1 / ((1.0 - c2_req) * rho2))
    rho = alpha1 * rho1 + (1 - alpha1) * rho2
    c1 = alpha1 * rho1 / rho
    c2 = 1 - c1
    assert c2 == pytest.approx(c2_req, rel=1e-12)
    w = -a1 / c2
    both = PrimitiveState(alpha1, rho1, rho2, u + c2 * w, u - c1 * w)
    lam = eigenvalues(both, ideal_pair)
    assert lam["1+"] == pytest.approx(lam["C"], abs=1e-12)
    assert lam["2-"] == pytest.approx(lam["C"], abs=1e-12)
    rep = check_resonance(both, ideal_pair)
    assert rep.rc_null
    assert set(rep.coinciding) == {"1+", "2-"}


def _fd_grad_lambda(st, pair, key, h=1e-7):
    v0 = st.as_array()
    g = np.zeros(5)
    for j in range(5):
        hj = h * max(1.0, abs(v0[j]))
        vp, vm = v0.copy(), v0.copy()
        vp[j] += hj
        vm[j] -= hj
        lp = eigenvalues(PrimitiveState.from_array(vp), pair)[key]
        lm = eigenvalues(PrimitiveState.from_array(vm), pair)[key]
        g[j] = (lp - lm) / (2 * hj)
    return g


def test_field_characterization(ideal_pair):
    rng = np.random.default_rng(8)
    for st in random_states(rng, 30):
        if check_resonance(st, ideal_pair).coinciding:
            continue
        _, vectors = eigenstructure(st, ideal_pair)
        vals = field_characterization(st, ideal_pair)
        assert vals["C"] == 0.0
        a1 = ideal_pair.phase1.sound_speed(st.rho1)
        g1 = ideal_pair.phase1.fundamental_derivative(st.rho1)
        assert vals["1+"] == pytest.approx(a1 * g1 / st.rho1, rel=1e-13)
        for k in ACOUSTIC_KEYS:
            fd = _fd_grad_lambda(st, ideal_pair, k) @ vectors[k]
            assert fd == pytest.approx(vals[k], rel=1e-6)
        # contact field: gradient dotted with the analytic eigenvector
        scale = abs(st.w) * max(
            ideal_pair.phase1.sound_speed_sq(st.rho1) / st.rho1**2,
            ideal_pair.phase2.sound_speed_sq(st.rho2) / st.rho2**2,
        )
        fd_c = _fd_grad_lambda(st, ideal_pair, "C") @ vectors["C"]
        assert abs(fd_c) < 1e-6 * max(scale, 1.0)


def test_contact_field_exactly_zero_at_zero_slip(ideal_pair):
    st = PrimitiveState(0.4, 1.5, 0.7, 0.9, 0.9)
    grad = _fd_grad_lambda(st, ideal_pair, "C")
    _, vectors = eigenstructure(st, ideal_pair)
    # the gradient prefactors carry w = 0, so the product vanishes identically
    assert abs(grad @ vectors["C"]) < 1e-9


def _fd_flux_jacobian_conserved(u0, pair, h=1e-7):
    dF = np.zeros((5, 5))
    for j in range(5):
        hj = h * max(1.0, abs(u0[j]))
        up, um = u0.copy(), u0.copy()
        up[j] += hj
        um[j] -= hj
        dF[:, j] = (flux_conserved_array(up, pair) - flux_conserved_array(um, pair)) / (2 * hj)
    return dF


def test_conserved_flux_jacobian_spectrum(ideal_pair):
    # dF/dU differenced numerically shares the analytic spectrum
    rng = np.random.default_rng(14)
    for st in random_states(rng, 15, u=(-1.5, 1.5)):
        u0 = prim_to_cons_array(st.as_array())
        spec_num = np.sort(np.linalg.eigvals(_fd_flux_jacobian_conserved(u0, ideal_pair)).real)
        lam = eigenvalues(st, ideal_pair)
        spec_ana = np.sort([lam[k] for k in FAMILY_KEYS])
        scale = max(1.0, np.max(np.abs(spec_ana)))
        assert np.max(np.abs(spec_num - spec_ana)) / scale < 1e-5

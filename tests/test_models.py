"""Source-basis conversions, the interface closure and Kapila diagnostics."""

import numpy as np
import pytest

from conftest import random_states
from twophase.fv import _bn_rows
from twophase.models import (
    conversion_matrix_bn_to_shtc,
    conversion_matrix_shtc_to_bn,
    interface_closure,
    kapila_coefficients,
    kapila_limit_diagnostics,
)
from twophase.state import PrimitiveState


def _closure(st, eos_pair):
    # the closure on the Baer-Nunziato block of one primitive state
    return interface_closure(*_bn_rows(st.as_array()), eos_pair)


def test_bc_identity_random(ideal_pair):
    rng = np.random.default_rng(21)
    for st in random_states(rng, 1000):
        B = conversion_matrix_bn_to_shtc(st)
        C = conversion_matrix_shtc_to_bn(st)
        assert np.max(np.abs(B @ C - np.eye(5))) < 1e-12
    # round trip on a random source vector
    st = PrimitiveState(0.35, 1.4, 0.9, 0.7, -0.4)
    zeta = rng.normal(size=5)
    back = conversion_matrix_shtc_to_bn(st) @ (conversion_matrix_bn_to_shtc(st) @ zeta)
    assert np.allclose(back, zeta, rtol=1e-12, atol=1e-14)


def test_pressure_relaxation_source_sparsity(ideal_pair):
    # a pure zeta_1 source maps to xi with the conservation pattern
    # xi_2 = xi_3 = xi_4 = 0
    st = PrimitiveState(0.6, 1.1, 1.7, 0.2, -0.6)
    xi = conversion_matrix_bn_to_shtc(st) @ np.array([2.5, 0, 0, 0, 0])
    assert xi[0] == pytest.approx(st.rho * 2.5, rel=1e-14)
    assert np.allclose(xi[1:], 0.0, atol=1e-15)


def test_physical_sources_momentum_antisymmetry(ideal_pair):
    # xi = ((p1-p2)/theta1, 0, 0, 0, -c1 c2 w / theta2) maps to a zeta
    # whose phase momentum sources cancel
    rng = np.random.default_rng(33)
    for st in random_states(rng, 50):
        p1 = ideal_pair.phase1.pressure(st.rho1)
        p2 = ideal_pair.phase2.pressure(st.rho2)
        xi = np.array([(p1 - p2) / 1e-2, 0, 0, 0, -st.c1 * st.c2 * st.w / 1e-3])
        zeta = conversion_matrix_shtc_to_bn(st) @ xi
        assert zeta[3] + zeta[4] == pytest.approx(0.0, abs=1e-12 * (1 + abs(zeta[3])))


def test_conversion_bookkeeping_identities(ideal_pair):
    # zeta2 + zeta3 = xi3 and zeta4 + zeta5 = xi4 for any source vector
    rng = np.random.default_rng(17)
    for st in random_states(rng, 100):
        xi = rng.normal(size=5)
        zeta = conversion_matrix_shtc_to_bn(st) @ xi
        assert zeta[1] + zeta[2] == pytest.approx(xi[2], rel=1e-12, abs=1e-12)
        assert zeta[3] + zeta[4] == pytest.approx(xi[3], rel=1e-12, abs=1e-12)


def test_interface_closure_values(ideal_pair):
    st = PrimitiveState(0.4, 1.0, 1.0, 0.7, 0.7)  # p1 = p2 = 1, u1 = u2
    u_i, p_i = _closure(st, ideal_pair)
    assert p_i == pytest.approx(1.0, rel=1e-14)
    assert u_i == pytest.approx(0.7, rel=1e-14)
    # RP1 left state: u_I is the mass-weighted mixture velocity
    rp1 = PrimitiveState(0.7, 1.2449, 1.2969, -1.2638, -0.38947)
    u_i, p_i = _closure(rp1, ideal_pair)
    assert u_i == pytest.approx(rp1.c1 * rp1.u1 + rp1.c2 * rp1.u2, rel=1e-14)
    # and p_I weights each phase pressure by the other phase's mass
    p1 = ideal_pair.phase1.pressure(rp1.rho1)
    p2 = ideal_pair.phase2.pressure(rp1.rho2)
    assert p_i == pytest.approx(rp1.c2 * p1 + rp1.c1 * p2, rel=1e-14)


def test_interface_pressure_convex(ideal_pair):
    # on rows of 200 blocks at once, as the path-conservative kernel calls it
    rng = np.random.default_rng(9)
    v = np.array([st.as_array() for st in random_states(rng, 200)]).T
    p1 = ideal_pair.phase1.pressure(v[1])
    p2 = ideal_pair.phase2.pressure(v[2])
    _, p_i = interface_closure(*_bn_rows(v), ideal_pair)
    assert p_i.shape == (200,)
    assert np.all((np.minimum(p1, p2) - 1e-14 <= p_i) & (p_i <= np.maximum(p1, p2) + 1e-14))


def test_kapila_coefficients(ideal_pair):
    # equal bulk moduli: K = rho a^2 = gamma p; match them across phases
    st = PrimitiveState(0.3, 2.0, (1.4 * 2.0**1.4 / 2.0) ** 0.5, 0.0, 0.0)
    K1, K2, coeff = kapila_coefficients(st, ideal_pair)
    assert K1 == pytest.approx(K2, rel=1e-12)
    assert coeff == pytest.approx(0.0, abs=1e-12)

    st = PrimitiveState(0.5, 1.0, 1.0, 0.0, 0.0)
    K1, K2, coeff = kapila_coefficients(st, ideal_pair)
    assert (K1, K2) == (pytest.approx(1.4), pytest.approx(2.0))
    assert coeff == pytest.approx(0.5 * 0.5 * (1.4 - 2.0) / (0.5 * 2.0 + 0.5 * 1.4), rel=1e-13)

    tiny = PrimitiveState(1e-9, 1.0, 1.0, 0.0, 0.0)
    _, _, c0 = kapila_coefficients(tiny, ideal_pair)
    assert abs(c0) < 1e-8


def test_kapila_coefficient_phase_swap_antisymmetry(ideal_pair):
    from twophase.eos import EosPair

    swapped_pair = EosPair(ideal_pair.phase2, ideal_pair.phase1)
    rng = np.random.default_rng(2)
    for st in random_states(rng, 50):
        _, _, c = kapila_coefficients(st, ideal_pair)
        st_sw = PrimitiveState(st.alpha2, st.rho2, st.rho1, st.u2, st.u1)
        _, _, c_sw = kapila_coefficients(st_sw, swapped_pair)
        assert c_sw == pytest.approx(-c, rel=1e-12, abs=1e-15)


def test_kapila_diagnostics_relaxed_snapshot(ideal_pair):
    # exactly relaxed cells: equal pressures and no slip
    rho1 = 1.3
    rho2 = (1.4 * rho1**1.4 / 1.0) ** (1 / 2.0)  # p2(rho2) = p1(rho1)?  no: match p only
    rho2 = rho1**0.7  # p2 = rho2^2 = rho1^1.4 = p1
    prim = np.tile([0.4, rho1, rho2, 0.3, 0.3], (8, 1))
    d = kapila_limit_diagnostics(prim, ideal_pair)
    assert d["pressure_disequilibrium_max"] < 1e-14
    assert d["velocity_disequilibrium_max"] == 0.0
    assert d["in_kapila_regime"]


def test_kapila_diagnostics_flags_homogeneous_run(ideal_pair):
    prim = np.array([[0.5, 1.0, 2.0, 0.8, -0.8], [0.5, 2.0, 1.0, -0.5, 0.7]])
    d = kapila_limit_diagnostics(prim, ideal_pair)
    assert d["velocity_disequilibrium_max"] > 0.1
    assert not d["in_kapila_regime"]

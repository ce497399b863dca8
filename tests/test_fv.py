"""Finite-volume kernels: fluxes, steps, relaxation, driver."""

import logging
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import random_state_array, snapshot_tool
from twophase import fv
from twophase.eos import BarotropicEos, EosPair
from twophase.errors import ConfigError, NumericsError, PositivityError, StateDecodeError
from twophase.fv import (
    LIMITERS,
    Grid,
    SolverConfig,
    bn_from_prim,
    bn_to_prim,
    force_flux,
    force_godunov_step,
    limited_slope,
    muscl_hancock_step,
    path_conservative_step,
    relax_primitive,
    run_simulation,
    run_simulations,
)
from twophase.problems import get_problem
from twophase.state import (
    PrimitiveState,
    _flux_rows,
    _invalid_cons,
    _max_wavespeed_rows,
    _prim_rows,
    cons_to_prim_array,
    flux_conserved_array,
    flux_primitive_array,
    jacobian_primitive,
    prim_to_cons_array,
)


def rusanov_flux(ul, ur, eos_pair):
    """Rusanov flux between conservative cells ul and ur (n, 5), built from
    the row helpers the MUSCL-Hancock kernel uses."""
    cl, cr = np.asarray(ul, dtype=float).T, np.asarray(ur, dtype=float).T
    vl, vr = _prim_rows(cl), _prim_rows(cr)
    sl, sr = _max_wavespeed_rows(vl, eos_pair), _max_wavespeed_rows(vr, eos_pair)
    return fv._rusanov(cl, cr, _flux_rows(vl, eos_pair), _flux_rows(vr, eos_pair), sl, sr).T


def max_wavespeed(v, eos_pair):
    """max |lambda| of primitive cells v (n, 5), through the checked EOS."""
    _, rho1, rho2, u1, u2 = np.asarray(v, dtype=float).T
    a1, a2 = eos_pair.phase1.sound_speed(rho1), eos_pair.phase2.sound_speed(rho2)
    return np.maximum(np.abs(u1) + a1, np.abs(u2) + a2)


def test_grid_and_config_validation():
    g = Grid(-1.0, 1.0, 10)
    assert g.dx == pytest.approx(0.2)
    assert len(g.centers()) == 10
    with pytest.raises(ConfigError):
        Grid(0.0, 1.0, 2)
    with pytest.raises(ConfigError):
        SolverConfig(t_end=1.0, cfl=0.9)
    with pytest.raises(ConfigError):
        SolverConfig(t_end=1.0, scheme="upwind")
    with pytest.raises(ConfigError):
        SolverConfig(t_end=1.0, theta1=-1.0)


def test_limiters_basics():
    dl = np.array([1.0, -1.0, 1.0, 0.0])
    dr = np.array([2.0, -3.0, -1.0, 2.0])
    assert np.allclose(limited_slope(dl, dr, "minmod"), [1.0, -1.0, 0.0, 0.0])
    mc = limited_slope(dl, dr, "mc")
    assert np.allclose(mc, [1.5, -2.0, 0.0, 0.0])
    sb = limited_slope(dl, dr, "superbee")
    assert np.allclose(sb, [2.0, -2.0, 0.0, 0.0])
    vl = limited_slope(dl, dr, "vanleer")
    assert np.allclose(vl, [4.0 / 3.0, -1.5, 0.0, 0.0])


def test_rusanov_consistency(ideal_pair):
    rng = np.random.default_rng(0)
    u = prim_to_cons_array(random_state_array(rng, 20))
    f = rusanov_flux(u, u, ideal_pair)
    assert np.allclose(f, flux_primitive_array(cons_to_prim_array(u), ideal_pair), rtol=1e-13)


def test_rusanov_against_eigensolve_oracle(ideal_pair):
    rng = np.random.default_rng(1)
    vl = random_state_array(rng, 10)
    vr = random_state_array(rng, 10)
    ul, ur = prim_to_cons_array(vl), prim_to_cons_array(vr)
    f = rusanov_flux(ul, ur, ideal_pair)
    for i in range(10):
        sl = np.max(np.abs(np.linalg.eigvals(
            jacobian_primitive(PrimitiveState.from_array(vl[i]), ideal_pair)).real))
        sr = np.max(np.abs(np.linalg.eigvals(
            jacobian_primitive(PrimitiveState.from_array(vr[i]), ideal_pair)).real))
        smax = max(sl, sr)
        fl = flux_primitive_array(vl[i], ideal_pair)
        fr = flux_primitive_array(vr[i], ideal_pair)
        expected = 0.5 * (fl + fr) - 0.5 * smax * (ur[i] - ul[i])
        assert np.allclose(f[i], expected, rtol=1e-10, atol=1e-12)


def test_rusanov_reflection_symmetry(ideal_pair):
    vl = np.array([[0.4, 1.2, 0.8, 0.5, -0.1]])
    vr = np.array([[0.6, 0.9, 1.1, -0.3, 0.2]])
    mirror = lambda v: v * np.array([1.0, 1.0, 1.0, -1.0, -1.0])
    f = rusanov_flux(prim_to_cons_array(vl), prim_to_cons_array(vr), ideal_pair)
    fm = rusanov_flux(prim_to_cons_array(mirror(vr)), prim_to_cons_array(mirror(vl)), ideal_pair)
    # under x-reflection: even components flip sign, odd rows (mass-like) too;
    # for the five-field system F -> (-F1, -F2, -F3, +F4, +F5) with U mirrored
    assert np.allclose(fm[0][:3], -f[0][:3], rtol=1e-12, atol=1e-14)
    assert np.allclose(fm[0][3:], f[0][3:], rtol=1e-12, atol=1e-14)


def test_force_consistency_and_lf_limit(ideal_pair):
    rng = np.random.default_rng(2)
    u = prim_to_cons_array(random_state_array(rng, 6))
    f = force_flux(u, u, 0.1, 0.01, ideal_pair)
    assert np.allclose(f, flux_primitive_array(cons_to_prim_array(u), ideal_pair), rtol=1e-13)
    # dt -> 0: the Lax-Friedrichs half dominates
    ul, ur = u[:3], u[3:]
    dx = 0.1
    smax = float(np.max(max_wavespeed(cons_to_prim_array(u), ideal_pair)))
    dt = 1e-12 * dx / smax
    f = force_flux(ul, ur, dx, dt, ideal_pair)
    fl = flux_primitive_array(cons_to_prim_array(ul), ideal_pair)
    fr = flux_primitive_array(cons_to_prim_array(ur), ideal_pair)
    f_lf = 0.5 * (fl + fr) - 0.5 * (dx / dt) * (ur - ul)
    assert np.allclose(f, 0.5 * f_lf, rtol=1e-9)


def test_force_flux_textbook_oracle(ideal_pair):
    # the mean of the Lax-Friedrichs flux and the flux at the two-step
    # Lax-Wendroff midpoint, assembled through the conserved-variable flux
    rng = np.random.default_rng(7)
    ul = prim_to_cons_array(random_state_array(rng, 8))
    ur = prim_to_cons_array(random_state_array(rng, 8))
    dx, dt = 0.05, 0.002
    fl = flux_conserved_array(ul, ideal_pair)
    fr = flux_conserved_array(ur, ideal_pair)
    lf = 0.5 * (fl + fr) - 0.5 * dx / dt * (ur - ul)
    lw = flux_conserved_array(0.5 * (ul + ur) - 0.5 * dt / dx * (fr - fl), ideal_pair)
    got = force_flux(ul, ur, dx, dt, ideal_pair)
    assert np.allclose(got, 0.5 * (lf + lw), rtol=1e-12, atol=1e-12)


def _violent_force_cells():
    # 40 sets of 16 random cells with |u| up to 60; stepped at dt/dx = 2,
    # far above the CFL limit, each has Lax-Wendroff midpoints outside the
    # invariant set
    rng = np.random.default_rng(11)
    for _ in range(40):
        yield prim_to_cons_array(random_state_array(rng, 16, u=(-60.0, 60.0)))


def test_force_floor_mode_survives_violent_steps(ideal_pair):
    dx = 0.01
    dt = 2.0 * dx
    floor = SolverConfig(t_end=1.0, positivity="floor")
    strict = SolverConfig(t_end=1.0)
    for u in _violent_force_cells():
        out, _ = force_godunov_step(u, dt, dx, floor, ideal_pair)
        assert np.all(np.isfinite(out))
        v = cons_to_prim_array(out)
        assert np.all((v[:, 0] > 0) & (v[:, 0] < 1))
        assert np.all(v[:, 0] * v[:, 1] > 0)
        assert np.all((1 - v[:, 0]) * v[:, 2] > 0)
        with pytest.raises(PositivityError):
            force_godunov_step(u, dt, dx, strict, ideal_pair)


def test_muscl_step_preserves_uniform_state(ideal_pair):
    v = np.tile([0.35, 1.4, 0.9, 0.4, -0.2], (32, 1))
    u = prim_to_cons_array(v)
    cfg = SolverConfig(t_end=1.0)
    out, (fl, fr) = muscl_hancock_step(u, 1e-3, 0.01, cfg, ideal_pair)
    assert np.allclose(out, u, rtol=1e-13, atol=1e-15)
    assert np.allclose(fl, fr, rtol=1e-13)


def test_muscl_step_conserves_compact_perturbation(ideal_pair):
    # equal end states: boundary fluxes cancel, totals frozen (w5 too)
    rng = np.random.default_rng(3)
    v = np.tile([0.5, 1.0, 1.0, 0.1, 0.0], (64, 1))
    v[20:40, 1] += 0.3 * rng.random(20)
    v[20:40, 3] -= 0.2 * rng.random(20)
    u = prim_to_cons_array(v)
    cfg = SolverConfig(t_end=1.0)
    dt, dx = 5e-4, 0.01
    out, (fl, fr) = muscl_hancock_step(u, dt, dx, cfg, ideal_pair)
    change = out.sum(axis=0) - u.sum(axis=0) + dt / dx * (fr - fl)
    scale = np.abs(u).sum(axis=0)
    assert np.max(np.abs(change) / scale) < 1e-12


# the two cell systems of the shared MUSCL-Hancock kernel: step, encode, decode
SYSTEMS = {
    "shtc": (muscl_hancock_step, prim_to_cons_array, cons_to_prim_array),
    "bn": (path_conservative_step, bn_from_prim, bn_to_prim),
}


@pytest.mark.parametrize("system", ["shtc", "bn"])
def test_muscl_positivity_error_names_cell(ideal_pair, system):
    step, encode, decode = SYSTEMS[system]
    v = np.tile([0.5, 1.0, 1.0, 0.0, 0.0], (16, 1))
    v[7:, 3] = 40.0   # violent expansion
    v[:7, 3] = -40.0
    u = encode(v)
    cfg = SolverConfig(t_end=1.0)
    with pytest.raises(PositivityError) as err:
        step(u, 2e-2, 0.01, cfg, ideal_pair, t=0.123)
    assert err.value.cell == 6
    assert err.value.time == 0.123
    # floor mode survives the same update with every invariant restored
    cfg_floor = SolverConfig(t_end=1.0, positivity="floor")
    out, _ = step(u, 2e-2, 0.01, cfg_floor, ideal_pair)
    assert np.all(np.isfinite(out))
    vout = decode(out)
    assert np.all((vout[:, 0] > 0) & (vout[:, 0] < 1))
    assert np.all(vout[:, 0] * vout[:, 1] > 0)
    assert np.all((1 - vout[:, 0]) * vout[:, 2] > 0)
    if system == "shtc":
        assert np.all(out[:, 2] > 0)


def _half_step_fault(n, k):
    # only cell k has a velocity slope; at dt/dx = 0.2 its expansion
    # empties both face masses in the half step
    v = np.tile([0.5, 1.0, 1.0, 0.0, 0.0], (n, 1))
    v[k, 3:] = 20.0
    v[k + 1:, 3:] = 40.0
    return v


def _reconstruction_fault(n, k):
    # valid conservative cells whose superbee slopes at cell k alone give
    # a right face with w2 > w3 (w3 has a local minimum there)
    u = prim_to_cons_array(np.tile([0.5, 1.0, 1.0, 0.0, 0.0], (n, 1)))
    u[:k, :3] = [0.5, 0.1, 1.0]
    u[k, :3] = [0.4, 0.6, 0.8]
    u[k + 1:, :3] = [0.5, 0.99, 1.0]
    return u


@pytest.mark.parametrize("system", ["shtc", "bn"])
def test_stage_errors_name_the_cell(ideal_pair, system):
    # the reconstruction and half-step masks run over the cells plus one
    # ghost per side; the error names the cell, not the row
    step, encode, _ = SYSTEMS[system]
    n, k = 16, 6
    with pytest.raises(PositivityError, match=r"cell 6 \(half step\)") as err:
        step(encode(_half_step_fault(n, k)), 2e-3, 0.01, SolverConfig(t_end=1.0), ideal_pair)
    assert err.value.cell == k
    if system == "shtc":
        cfg = SolverConfig(t_end=1.0, limiter="superbee")
        with pytest.raises(PositivityError, match=r"cell 6 \(reconstruction\)") as err:
            step(_reconstruction_fault(n, k), 1e-4, 0.01, cfg, ideal_pair)
        assert err.value.cell == k
    # a broken cell reaches the kernel's first mask only past the input
    # check of the public steps; that mask names it too, with the ghost
    # row beside cell 0 (also broken) clipped to the cell
    kernel_system = {"shtc": fv._SHTC, "bn": fv._BN}[system]
    broken = [0.6, 0.8, 0.5, 0.0, 0.0] if system == "shtc" else [1.2, 0.5, -0.2, 0.0, 0.0]
    for cell in (k, 0, n - 1):
        c = encode(np.tile([0.5, 1.0, 1.0, 0.0, 0.0], (n, 1))).T.copy()
        c[:, cell] = broken
        with pytest.raises(PositivityError, match=r"\(reconstruction\)") as err:
            fv._muscl_hancock(kernel_system, c, 1e-4, 0.01, SolverConfig(t_end=1.0),
                              ideal_pair, 0.0)
        assert err.value.cell == cell


# 16 valid cells of each system but for cell 9, which takes the row below
BROKEN_INPUTS = {
    "shtc w2 > w3": ("shtc", [0.4, 0.9, 0.8, 0.0, 0.0]),
    "shtc non-finite": ("shtc", [0.4, 0.3, 0.8, np.nan, 0.0]),
    "bn alpha1 > 1, m2 < 0": ("bn", [1.2, 1.2, -0.2, 0.0, 0.0]),
    "bn m1 < 0": ("bn", [0.5, -0.5, 0.5, 0.0, 0.0]),
}


@pytest.mark.parametrize("positivity", ["strict", "floor"])
@pytest.mark.parametrize("case", sorted(BROKEN_INPUTS))
def test_broken_input_cell_raises_state_decode_error(ideal_pair, case, positivity):
    # one outcome in both modes: the public steps scan their input once
    system, row = BROKEN_INPUTS[case]
    step, encode, _ = SYSTEMS[system]
    cells = encode(np.tile([0.5, 1.0, 1.0, 0.2, -0.1], (16, 1)))
    cells[9] = row
    steps = [step] + ([force_godunov_step] if system == "shtc" else [])
    for step in steps:
        cfg = SolverConfig(t_end=1.0, positivity=positivity)
        with pytest.raises(StateDecodeError, match="input cell 9 "):
            step(cells, 1e-4, 0.01, cfg, ideal_pair)


def _rows_near_invariants(lead):
    # rows anywhere in float64 (NaN and inf included), mixed with rows whose
    # other entries are fractions of the lead entry, so that many lie in the
    # invariant set or on its edges
    anything = st.floats(allow_nan=True, allow_infinity=True)

    @st.composite
    def rows(draw):
        w = [draw(anything) for _ in range(5)]
        scale = w[lead] if np.isfinite(w[lead]) else 1.0
        for i in (0, 1, 2):
            if i != lead and draw(st.booleans()):
                w[i] = draw(st.floats(0.0, 1.0)) * scale
        return np.array(w)

    return rows()


@settings(max_examples=1000, deadline=None)
@given(w=_rows_near_invariants(2))
# the kind of row this property found: 0 < w1 < w3, yet w1/w3 rounds to 0
@example(w=np.array([1e-300, 1.0, 1e30, 0.0, 0.0]))
def test_cons_mask_implies_decodable(w):
    # a conserved row the mask passes decodes, without the strict scan and
    # the EOS density checks the kernel no longer runs, to 0 < alpha1 < 1
    # and positive densities; decoding by rows equals cons_to_prim_array.
    # Rows near the float range may overflow to inf in the decode, which
    # the density check accepts, so overflow lies outside this property.
    if _invalid_cons(w):
        with pytest.raises(StateDecodeError):
            cons_to_prim_array(w)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        alpha1, rho1, rho2, u1, u2 = _prim_rows(w)
        assert 0.0 < alpha1 < 1.0 and rho1 > 0.0 and rho2 > 0.0
        assert np.array_equal(cons_to_prim_array(w), [alpha1, rho1, rho2, u1, u2], equal_nan=True)


@settings(max_examples=1000, deadline=None)
@given(b=_rows_near_invariants(0))
def test_bn_mask_implies_decodable(b):
    if fv._invalid_bn(b):
        return
    with np.errstate(over="ignore", invalid="ignore"):
        alpha1, rho1, rho2, u1, u2 = fv._bn_prim_rows(b)
        assert 0.0 < alpha1 < 1.0 and rho1 > 0.0 and rho2 > 0.0
        assert np.array_equal(bn_to_prim(b), [alpha1, rho1, rho2, u1, u2], equal_nan=True)


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("system", ["shtc", "bn"])
def test_muscl_survives_violent_steps(ideal_pair, system, limiter):
    # the FORCE test's 40 violent cell sets, stepped at dt/dx = 2: strict
    # mode stops with PositivityError alone, floor mode returns finite
    # cells inside the invariant set; any RuntimeWarning fails the test
    step, encode, decode = SYSTEMS[system]
    dx = 0.01
    dt = 2.0 * dx
    floor = SolverConfig(t_end=1.0, limiter=limiter, positivity="floor")
    strict = SolverConfig(t_end=1.0, limiter=limiter)
    for u in _violent_force_cells():
        cells = encode(cons_to_prim_array(u))
        out, _ = step(cells, dt, dx, floor, ideal_pair)
        assert np.all(np.isfinite(out))
        v = decode(out)
        assert np.all((v[:, 0] > 0) & (v[:, 0] < 1))
        assert np.all(v[:, 0] * v[:, 1] > 0)
        assert np.all((1 - v[:, 0]) * v[:, 2] > 0)
        with pytest.raises(PositivityError):
            step(cells, dt, dx, strict, ideal_pair)


@pytest.mark.parametrize(
    "stage, cells, limiter, dt",
    [
        ("reconstruction", lambda: _reconstruction_fault(16, 6), "superbee", 1e-4),
        ("half step", lambda: prim_to_cons_array(_half_step_fault(16, 6)), "minmod", 2e-3),
    ],
)
def test_floor_fallbacks_are_logged(ideal_pair, caplog, stage, cells, limiter, dt):
    cfg = SolverConfig(t_end=1.0, limiter=limiter, positivity="floor")
    with caplog.at_level(logging.WARNING, logger="twophase.fv"):
        muscl_hancock_step(cells(), dt, 0.01, cfg, ideal_pair, t=0.5)
    assert any(
        r.getMessage().endswith(f" 1 cells at t=0.5 ({stage})") for r in caplog.records
    ), [r.getMessage() for r in caplog.records]


# ---------------------------------------------------------------------------
# Baer-Nunziato block backend
# ---------------------------------------------------------------------------

def test_bn_round_trip():
    rng = np.random.default_rng(4)
    v = random_state_array(rng, 200)
    assert np.allclose(bn_to_prim(bn_from_prim(v)), v, rtol=1e-13)


def test_bn_constant_alpha_equals_decoupled_euler(ideal_pair):
    # constant volume fraction: the path-conservative update must match
    # two independent single-phase runs through the same formulas
    rng = np.random.default_rng(5)
    n = 48
    v = np.tile([0.6, 1.0, 1.0, 0.0, 0.0], (n, 1))
    v[10:30, 1] = 1.0 + 0.4 * rng.random(20)
    v[15:35, 2] = 1.0 + 0.3 * rng.random(20)
    v[12:20, 3] = 0.3
    v[25:40, 4] = -0.2
    b = bn_from_prim(v)
    cfg = SolverConfig(t_end=1.0, scheme="muscl-pathcons-bn")
    dt, dx = 4e-4, 0.01
    out, _ = path_conservative_step(b, dt, dx, cfg, ideal_pair)
    vout = bn_to_prim(out)

    # the coupled scheme dissipates every row with the mixture-wide
    # spectral radius, so the independent oracle below advances the
    # two decoupled Euler systems with that joint speed
    def joint_step(rho_a, mom_a, gam_a, rho_b, mom_b, gam_b):
        qa = np.column_stack([rho_a, mom_a])
        qb = np.column_stack([rho_b, mom_b])

        def pad(q):
            return np.vstack([q[:1], q[:1], q, q[-1:], q[-1:]])

        def one(q, gam, smax_pair):
            qp = pad(q)
            dl = qp[1:-1] - qp[:-2]
            dr = qp[2:] - qp[1:-1]
            slope = limited_slope(dl, dr, "minmod")
            qm = qp[1:-1] - 0.5 * slope
            qpl = qp[1:-1] + 0.5 * slope
            flux = lambda z: np.column_stack(
                [z[:, 1], z[:, 1] ** 2 / z[:, 0] + z[:, 0] ** gam]
            )
            evo = 0.5 * dt / dx * (flux(qpl) - flux(qm))
            return qm - evo, qpl - evo, flux

        am, ap, fa = one(qa, gam_a, None)
        bm, bp, fb = one(qb, gam_b, None)
        speed = lambda z, gam: np.abs(z[:, 1] / z[:, 0]) + np.sqrt(gam * z[:, 0] ** (gam - 1))
        sl = np.maximum(speed(ap[:-1], gam_a), speed(bp[:-1], gam_b))
        sr = np.maximum(speed(am[1:], gam_a), speed(bm[1:], gam_b))
        s = np.maximum(sl, sr)[:, None]
        f_a = 0.5 * (fa(ap[:-1]) + fa(am[1:])) - 0.5 * s * (am[1:] - ap[:-1])
        f_b = 0.5 * (fb(bp[:-1]) + fb(bm[1:])) - 0.5 * s * (bm[1:] - bp[:-1])
        return qa - dt / dx * (f_a[1:] - f_a[:-1]), qb - dt / dx * (f_b[1:] - f_b[:-1])

    q1, q2 = joint_step(v[:, 1], v[:, 1] * v[:, 3], 1.4, v[:, 2], v[:, 2] * v[:, 4], 2.0)
    assert np.max(np.abs(vout[:, 1] - q1[:, 0])) < 1e-12
    assert np.max(np.abs(vout[:, 2] - q2[:, 0])) < 1e-12
    assert np.max(np.abs(vout[:, 1] * vout[:, 3] - q1[:, 1])) < 1e-12
    assert np.max(np.abs(vout[:, 2] * vout[:, 4] - q2[:, 1])) < 1e-12
    assert np.allclose(vout[:, 0], 0.6, atol=1e-15)


def test_bn_total_momentum_conserved(ideal_pair):
    # nonconservative p_I terms cancel in the momentum sum
    p = get_problem("RP6")
    left, right = p.riemann_data()
    n = 64
    v = np.where((np.arange(n) < n // 2)[:, None], left.as_array(), right.as_array())
    b = bn_from_prim(v)
    cfg = SolverConfig(t_end=1.0, scheme="muscl-pathcons-bn")
    dt, dx = 2e-3, 2.0 / n
    out, (gl, gr) = path_conservative_step(b, dt, dx, cfg, ideal_pair)
    mom_change = (out[:, 3] + out[:, 4]).sum() - (b[:, 3] + b[:, 4]).sum()
    flux_diff = dt / dx * ((gr[3] + gr[4]) - (gl[3] + gl[4]))
    scale = max(np.abs(out[:, 3:5]).sum(), 1.0)
    assert mom_change + flux_diff == pytest.approx(0.0, abs=1e-13 * scale)


def _pares_bn_step(b, dt, dx, limiter, eos_pair):
    """Reference path-conservative MUSCL-Hancock step in fluctuation form
    (Pares 2006): each interface splits its flux jump plus segment-path
    product into D-/D+ with Rusanov dissipation, and each cell adds the
    flux difference and product of its half-evolved face states."""

    def flux(q):
        alpha1, m1, m2, q1, q2 = q.T
        p1 = eos_pair.phase1.pressure(m1 / alpha1)
        p2 = eos_pair.phase2.pressure(m2 / (1.0 - alpha1))
        z = np.zeros_like(alpha1)
        return np.column_stack(
            [z, q1, q2, q1**2 / m1 + alpha1 * p1, q2**2 / m2 + (1.0 - alpha1) * p2]
        )

    def product(ql, qr):
        # B(V) dV at the segment midpoint, u_I = u, p_I = (m2 p1 + m1 p2)/rho
        alpha1, m1, m2, q1, q2 = (0.5 * (ql + qr)).T
        dalpha = qr[:, 0] - ql[:, 0]
        rho = m1 + m2
        p1 = eos_pair.phase1.pressure(m1 / alpha1)
        p2 = eos_pair.phase2.pressure(m2 / (1.0 - alpha1))
        p_i = (m2 * p1 + m1 * p2) / rho
        z = np.zeros_like(alpha1)
        return np.column_stack([(q1 + q2) / rho * dalpha, z, z, -p_i * dalpha, p_i * dalpha])

    bp = np.vstack([b[:1], b[:1], b, b[-1:], b[-1:]])
    slope = limited_slope(bp[1:-1] - bp[:-2], bp[2:] - bp[1:-1], limiter)
    b_minus = bp[1:-1] - 0.5 * slope
    b_plus = bp[1:-1] + 0.5 * slope
    evo = 0.5 * dt / dx * (flux(b_plus) - flux(b_minus) + product(b_minus, b_plus))
    b_minus_h, b_plus_h = b_minus - evo, b_plus - evo
    vl, vr = b_plus_h[:-1], b_minus_h[1:]
    total = flux(vr) - flux(vl) + product(vl, vr)
    smax = np.maximum(
        max_wavespeed(bn_to_prim(vl), eos_pair),
        max_wavespeed(bn_to_prim(vr), eos_pair),
    )[:, None]
    d_minus = 0.5 * total - 0.5 * smax * (vr - vl)
    d_plus = 0.5 * total + 0.5 * smax * (vr - vl)
    inner_m, inner_p = b_minus_h[1:-1], b_plus_h[1:-1]
    in_cell = flux(inner_p) - flux(inner_m) + product(inner_m, inner_p)
    b_new = b - dt / dx * (d_plus[:-1] + d_minus[1:] + in_cell)
    return b_new, (flux(vl)[0], flux(vr)[-1])


@pytest.mark.parametrize("limiter", LIMITERS)
def test_bn_step_matches_fluctuation_form(ideal_pair, limiter):
    # the flux-difference update of the shared kernel equals the D-/D+
    # fluctuation sum to round-off, with alpha1 jumping between cells so
    # that every nonconservative product is active
    rng = np.random.default_rng(9)
    b = bn_from_prim(random_state_array(rng, 40, u=(-1.0, 1.0)))
    dx = 0.01
    dt = 0.2 * dx / np.max(max_wavespeed(bn_to_prim(b), ideal_pair))
    cfg = SolverConfig(t_end=1.0, scheme="muscl-pathcons-bn", limiter=limiter)
    out, (fl, fr) = path_conservative_step(b, dt, dx, cfg, ideal_pair)
    ref, (rl, rr) = _pares_bn_step(b, dt, dx, limiter, ideal_pair)
    assert np.ptp(ref[:, 0]) > 0.5
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(out - ref) <= 1e-13 * scale)
    # transmissive ghosts: the edge fluxes are the physical ones
    assert np.all(np.abs(fl - rl) <= 1e-13 * scale)
    assert np.all(np.abs(fr - rr) <= 1e-13 * scale)


# ---------------------------------------------------------------------------
# relaxation
# ---------------------------------------------------------------------------

def test_relaxation_fixed_point(ideal_pair):
    # equal pressures, zero slip: nothing moves
    rho1 = 1.2
    rho2 = rho1**0.7
    v = np.tile([0.45, rho1, rho2, 0.3, 0.3], (8, 1))
    out = relax_primitive(v, 1e-3, 1e-4, 1e-4, ideal_pair)
    assert np.allclose(out, v, rtol=1e-12, atol=1e-14)


def test_velocity_projection_conserves_momentum(ideal_pair):
    rng = np.random.default_rng(6)
    v = random_state_array(rng, 100)
    out = relax_primitive(v, 1.0, None, 1e-30, ideal_pair)
    w = out[:, 3] - out[:, 4]
    assert np.max(np.abs(w)) < 1e-12
    rho_u = lambda a: a[:, 0] * a[:, 1] * a[:, 3] + (1 - a[:, 0]) * a[:, 2] * a[:, 4]
    assert np.allclose(rho_u(out), rho_u(v), rtol=1e-13, atol=1e-14)
    # masses untouched
    assert np.allclose(out[:, :3], v[:, :3], rtol=1e-15)


def test_velocity_exponential_decay(ideal_pair):
    v = np.array([[0.5, 1.0, 1.0, 0.4, -0.4]])
    theta2, dt = 0.05, 0.02
    out = relax_primitive(v, dt, None, theta2, ideal_pair)
    c1 = 0.5
    expected_w = 0.8 * np.exp(-c1 * (1 - c1) * dt / theta2)
    assert out[0, 3] - out[0, 4] == pytest.approx(expected_w, rel=1e-12)


def test_pressure_projection_equilibrates(ideal_pair):
    rng = np.random.default_rng(7)
    v = random_state_array(rng, 60, u=(-0.5, 0.5))
    out = relax_primitive(v, 1.0, 1e-30, None, ideal_pair)
    p1 = out[:, 1] ** 1.4
    p2 = out[:, 2] ** 2.0
    assert np.max(np.abs(p1 - p2) / np.maximum(p1, p2)) < 1e-10
    # partial masses conserved
    m1 = lambda a: a[:, 0] * a[:, 1]
    m2 = lambda a: (1 - a[:, 0]) * a[:, 2]
    assert np.allclose(m1(out), m1(v), rtol=1e-12)
    assert np.allclose(m2(out), m2(v), rtol=1e-12)


def test_pressure_projection_matches_bisection_oracle(ideal_pair):
    v = np.array([[0.35, 1.8, 0.7, 0.1, -0.2]])
    out = relax_primitive(v, 1.0, 1e-30, None, ideal_pair)
    m1 = 0.35 * 1.8
    m2 = 0.65 * 0.7
    alpha = brentq(
        lambda a: (m1 / a) ** 1.4 - (m2 / (1 - a)) ** 2.0, 1e-12, 1 - 1e-12, xtol=1e-15
    )
    assert out[0, 0] == pytest.approx(alpha, abs=1e-12)


def test_implicit_pressure_step_partial(ideal_pair):
    # moderate theta1: alpha moves toward equilibrium but not onto it
    v = np.array([[0.5, 2.0, 1.0, 0.0, 0.0]])
    p1_0, p2_0 = 2.0**1.4, 1.0
    out = relax_primitive(v, 1e-3, 1e-2, None, ideal_pair)
    a_new = out[0, 0]
    # implicit Euler balance: (a - a0) = dt/theta1 (p1 - p2) at the new state
    p1 = out[0, 1] ** 1.4
    p2 = out[0, 2] ** 2.0
    assert a_new - 0.5 == pytest.approx(1e-3 / 1e-2 * (p1 - p2), rel=1e-10)
    assert 0.5 < a_new < 1.0  # p1 > p2 pushes alpha1 up
    assert abs(p1 - p2) < abs(p1_0 - p2_0)


def test_pressure_relaxation_newton_iteration_count():
    # every iteration of the vectorized Newton evaluates the phase-1
    # sound speed once; a cell that has met the tolerance must not be
    # sent back to its bracket midpoint and hold the whole batch up
    calls = []

    class CountingEos(BarotropicEos):
        def sound_speed_sq(self, rho):
            calls.append(1)
            return super().sound_speed_sq(rho)

    pair = EosPair(CountingEos(1.0, 1.4), BarotropicEos(1.0, 2.0))
    rng = np.random.default_rng(21)
    n = 2000
    v = np.column_stack([
        rng.uniform(0.05, 0.95, n), rng.uniform(0.3, 3.0, n), rng.uniform(0.3, 3.0, n),
        np.zeros(n), np.zeros(n),
    ])
    dt = 1e-3
    # implicit step (mu = theta1/dt) and projection (theta1 << dt, mu = 0)
    for theta1, mu in ((1e-3, 1.0), (1e-12, 0.0)):
        calls.clear()
        out = relax_primitive(v, dt, theta1, None, pair)
        assert 0 < len(calls) <= 25, theta1
        p1 = out[:, 1] ** 1.4
        p2 = out[:, 2] ** 2.0
        balance = mu * (out[:, 0] - v[:, 0]) - (p1 - p2)
        assert np.max(np.abs(balance) / np.maximum(mu, np.maximum(p1, p2))) < 1e-12


def test_relaxation_step_conserved_view(ideal_pair):
    rng = np.random.default_rng(8)
    u = prim_to_cons_array(random_state_array(rng, 50, u=(-0.5, 0.5)))
    v = relax_primitive(cons_to_prim_array(u), 1e-2, 1e-3, 1e-8, ideal_pair)
    out = prim_to_cons_array(v)
    # alpha1 rho1, rho, rho u conserved; alpha1 rho and w carry sources
    assert np.allclose(out[:, 1], u[:, 1], rtol=1e-12)
    assert np.allclose(out[:, 2], u[:, 2], rtol=1e-14)
    assert np.allclose(out[:, 3], u[:, 3], rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def test_run_zero_time(ideal_pair):
    p = get_problem("RP5")
    left, right = p.riemann_data()
    g = Grid(-1.0, 1.0, 50)
    res = run_simulation(left, right, g, SolverConfig(t_end=0.0), ideal_pair)
    assert res.steps == 0
    assert np.allclose(res.prim[:25], left.as_array(), rtol=1e-14)
    assert np.allclose(res.prim[25:], right.as_array(), rtol=1e-14)


def test_run_conservation_ledger(ideal_pair):
    p = get_problem("RP1")
    left, right = p.riemann_data()
    g = Grid(-1.0, 1.0, 200)
    res = run_simulation(left, right, g, SolverConfig(t_end=0.05), ideal_pair, x0=0.0)
    assert res.ledger["worst_step_closure"] < 1e-12
    totals = np.array(res.ledger["totals"])
    initial = np.array(res.ledger["totals_initial"])
    boundary = np.array(res.ledger["boundary_flux_integrals"])
    scale = np.maximum(np.abs(initial), 1.0)
    assert np.max(np.abs(totals - initial + boundary) / scale) < 1e-12


def test_run_convergence_toward_exact(ideal_pair):
    p = get_problem("RP5")
    left, right = p.riemann_data()
    sol = p.build_exact()
    errs = []
    for n in (100, 200):
        g = Grid(-1.0, 1.0, n)
        res = run_simulation(left, right, g, SolverConfig(t_end=p.t_end), ideal_pair, x0=0.0)
        xi = res.x / res.t
        ex = sol.sample_many(xi)
        rho_n = res.prim[:, 0] * res.prim[:, 1] + (1 - res.prim[:, 0]) * res.prim[:, 2]
        rho_e = ex[:, 0] * ex[:, 1] + (1 - ex[:, 0]) * ex[:, 2]
        errs.append(np.sum(np.abs(rho_n - rho_e)) * g.dx)
    assert errs[1] < 0.7 * errs[0]


def test_wavespeed_guard_trips(ideal_pair, monkeypatch):
    p = get_problem("RP5")
    left, right = p.riemann_data()
    g = Grid(-1.0, 1.0, 32)
    cfg = SolverConfig(t_end=p.t_end)
    # RP5 is an expansion: max|lambda| decays, the guard must stay quiet
    monkeypatch.setattr(fv, "WAVESPEED_GROWTH_GUARD", 1.0000001)
    res = run_simulation(left, right, g, cfg, ideal_pair)
    assert res.steps > 0
    # an absurd guard factor below 1 trips on the first comparison
    monkeypatch.setattr(fv, "WAVESPEED_GROWTH_GUARD", 0.5)
    with pytest.raises(PositivityError) as err:
        run_simulation(left, right, g, cfg, ideal_pair)
    assert "wave speed" in str(err.value)


def test_bn_driver_matches_shtc_on_smooth_problem(ideal_pair):
    p = get_problem("RP5")
    left, right = p.riemann_data()
    g = Grid(-1.0, 1.0, 150)
    shtc = run_simulation(left, right, g, SolverConfig(t_end=0.05), ideal_pair)
    bn = run_simulation(
        left, right, g, SolverConfig(t_end=0.05, scheme="muscl-pathcons-bn"), ideal_pair
    )
    rho = lambda v: v[:, 0] * v[:, 1] + (1 - v[:, 0]) * v[:, 2]
    gap = np.sum(np.abs(rho(shtc.prim) - rho(bn.prim))) * g.dx
    assert gap < 0.01
    assert bn.ledger["worst_step_closure"] < 1e-12


def test_strang_velocity_relaxation_removes_slip(ideal_pair):
    # theta2 = 1e-8 projects the slip away in the closing half step
    p = get_problem("RP5")
    left, right = p.riemann_data()
    g = Grid(-1.0, 1.0, 100)
    strang = run_simulation(
        left, right, g, SolverConfig(t_end=0.02, theta1=1e-3, theta2=1e-8), ideal_pair
    )
    assert np.max(np.abs(strang.prim[:, 3] - strang.prim[:, 4])) < 1e-12


def test_force_godunov_converges_on_double_shock(ideal_pair):
    # the first-order FORCE backend resolves the four-shock benchmark
    p = get_problem("RP4")
    left, right = p.riemann_data()
    sol = p.build_exact()
    errs = []
    for n in (200, 400):
        g = Grid(p.x_min, p.x_max, n)
        res = run_simulation(
            left, right, g,
            SolverConfig(t_end=p.t_end, cfl=p.cfl, scheme="force-godunov"),
            p.eos_pair, x0=p.x0,
        )
        xi = (g.centers() - p.x0) / res.t
        ex = sol.sample_many(xi)
        rho_n = res.prim[:, 0] * res.prim[:, 1] + (1 - res.prim[:, 0]) * res.prim[:, 2]
        rho_e = ex[:, 0] * ex[:, 1] + (1 - ex[:, 0]) * ex[:, 2]
        errs.append(np.sum(np.abs(rho_n - rho_e)) / np.sum(np.abs(rho_e)))
    # relative L1 error drops roughly first order under refinement
    assert errs[0] < 0.15
    assert errs[1] < 0.65 * errs[0]


def test_floor_mode_survives_reconstruction_violations(ideal_pair):
    # adjacent cells whose component-wise envelopes break w2 < w3
    v = np.tile([0.5, 1.0, 1.0, 0.0, 0.0], (12, 1))
    u = prim_to_cons_array(v)
    u[5] = [0.9, 0.85, 1.0, 0.0, 0.0]
    u[6] = [1.4, 0.9, 1.5, 0.0, 0.0]
    u[7] = [0.3, 0.1, 1.1, 0.0, 0.0]
    cfg = SolverConfig(t_end=1.0, positivity="floor", limiter="superbee")
    out, _ = muscl_hancock_step(u, 1e-3, 0.01, cfg, ideal_pair)
    # offending cells drop to first order instead of producing floored
    # near-vacuum reconstructions with astronomical fluxes
    assert np.all(out[:, 2] > 0)
    assert np.all((out[:, 1] > 0) & (out[:, 1] < out[:, 2]))
    assert np.max(np.abs(out)) < 10.0
    # the same data aborts in strict mode
    with pytest.raises(PositivityError):
        muscl_hancock_step(u, 1e-3, 0.01, SolverConfig(t_end=1.0, limiter="superbee"), ideal_pair)


def test_ledger_dt_range(ideal_pair):
    p = get_problem("RP1")
    left, right = p.riemann_data()
    g = Grid(-1.0, 1.0, 200)
    cfg = SolverConfig(t_end=0.05)
    res = run_simulation(left, right, g, cfg, ideal_pair, x0=0.0)
    lo, hi = res.ledger["dt_min"], res.ledger["dt_max"]
    assert 0.0 < lo <= hi
    assert res.steps * lo <= res.t <= res.steps * hi
    v0 = np.array([left.as_array(), right.as_array()])
    assert hi >= cfg.cfl * g.dx / np.max(max_wavespeed(v0, ideal_pair))
    idle = run_simulation(left, right, g, SolverConfig(t_end=0.0), ideal_pair)
    assert idle.ledger["dt_min"] is None and idle.ledger["dt_max"] is None


def test_run_simulation_matches_snapshot():
    # answers frozen by tools/fv_snapshot.py before the kernel moved to
    # component-major rows: equal step counts, primitives within 1e-12 of
    # each field's scale
    tool = snapshot_tool()
    ref = np.load(Path(__file__).resolve().parent / "data" / "fv_snapshot.npz")
    keys = [key for key, _, _ in tool.cases()]
    assert sorted(k + "|prim" for k in keys) == sorted(k for k in ref.files if k.endswith("|prim"))
    for key, name, options in tool.cases():
        res = tool.run_case(name, options)
        assert res.steps == int(ref[key + "|steps"]), key
        want = ref[key + "|prim"]
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(res.prim - want) <= 1e-12 * scale), key


def _same_run(a, b):
    ledger_a = {k: v for k, v in a.ledger.items() if k != "wall_seconds"}
    ledger_b = {k: v for k, v in b.ledger.items() if k != "wall_seconds"}
    return (
        a.grid == b.grid and a.config == b.config and a.t == b.t and a.steps == b.steps
        and a.prim.tobytes() == b.prim.tobytes() and a.cons.tobytes() == b.cons.tobytes()
        and ledger_a == ledger_b
    )


def test_run_simulations_matches_serial_loop():
    # more configs than CPUs, so workers queue and must come back in order
    p = get_problem("RP5")
    left, right = p.riemann_data()
    g = Grid(p.x_min, p.x_max, 64)
    configs = [
        SolverConfig(t_end=p.t_end, cfl=p.cfl, scheme=scheme, theta1=th1, theta2=th2)
        for scheme, th1, th2 in (
            ("muscl-rusanov", None, None),
            ("muscl-pathcons-bn", None, None),
            ("force-godunov", None, None),
            ("muscl-rusanov", 1e-3, 1e-8),
        )
    ]
    serial = [run_simulation(left, right, g, c, p.eos_pair, x0=p.x0) for c in configs]
    forked = run_simulations(left, right, g, configs, p.eos_pair, x0=p.x0)
    assert len(forked) == len(serial)
    for config, a, b in zip(configs, serial, forked):
        assert _same_run(a, b), config


def test_run_simulations_raises_the_worker_error(ideal_pair):
    # counter-streaming data breaks a cell in strict mode; the error comes
    # back from the worker as the serial run raises it
    left = PrimitiveState(0.5, 1.0, 1.0, -60.0, -60.0)
    right = PrimitiveState(0.5, 1.0, 1.0, 60.0, 60.0)
    g = Grid(-1.0, 1.0, 64)
    violent = SolverConfig(t_end=0.25, limiter="superbee")
    with pytest.raises(PositivityError) as serial:
        run_simulation(left, right, g, violent, ideal_pair)
    with pytest.raises(PositivityError) as forked:
        run_simulations(left, right, g, [SolverConfig(t_end=0.25), violent], ideal_pair)
    assert str(forked.value) == str(serial.value)
    assert forked.value.cell == serial.value.cell is not None
    assert forked.value.time == serial.value.time is not None


def test_run_simulations_names_a_worker_that_dies(ideal_pair, monkeypatch):
    # the fork carries the patched module into the worker, which exits
    # without sending anything
    monkeypatch.setattr(fv, "run_simulation", lambda *args: os._exit(7))
    p = get_problem("RP5")
    left, right = p.riemann_data()
    configs = [SolverConfig(t_end=0.01, scheme="muscl-pathcons-bn")]
    with pytest.raises(NumericsError, match="muscl-pathcons-bn worker ended.*exit code 7"):
        run_simulations(left, right, Grid(-1.0, 1.0, 16), configs, ideal_pair)

"""Finite-volume kernels: fluxes, steps, relaxation, driver."""

import logging
import multiprocessing
import os
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import primitive_rows, random_state_array, round_trip_error, snapshot_tool
from twophase import fv
from twophase.eos import BarotropicEos, EosPair
from twophase.errors import ConfigError, NumericsError, PositivityError, StateDecodeError
from twophase.fv import (
    LIMITERS,
    SCHEMES,
    Grid,
    SolverConfig,
    limited_slope,
    run_simulation,
    run_simulations,
)
from twophase.problems import get_problem
from twophase.state import (
    PrimitiveState,
    _cons_flux_rows,
    _flux_rows,
    _invalid_cons,
    _max_wavespeed_rows,
    _prim_rows,
    flux_conserved_array,
    flux_primitive_array,
    jacobian_primitive,
    prim_to_cons_array,
)


def encode(system, v):
    """Cells (n, 5) in the layout of a cell system of primitive cells v (n, 5)."""
    return np.stack(system.encode(np.asarray(v, dtype=float).T), axis=-1)


def decode(system, u):
    """Primitive cells (n, 5) of cells u (n, 5) that pass the system's invariant mask."""
    c = np.asarray(u, dtype=float).T
    assert not np.any(system.invalid(c))
    return np.stack(system.decode(c), axis=-1)


def relax(system, v, dt, theta1, theta2, eos_pair):
    """The relaxation sub-step of the driver on primitive cells v (n, 5),
    taken on the rows of a cell system."""
    config = SolverConfig(t_end=1.0, theta1=theta1, theta2=theta2)
    c = system.relax(system.encode(np.asarray(v, dtype=float).T), dt, config, eos_pair, None)
    return np.stack(system.decode(c), axis=-1)


def rusanov_flux(ul, ur, eos_pair):
    """Rusanov flux between conservative cells ul and ur (n, 5), built from
    the row helpers the MUSCL-Hancock kernel uses."""
    cl, cr = np.asarray(ul, dtype=float).T, np.asarray(ur, dtype=float).T
    vl, vr = _prim_rows(cl), _prim_rows(cr)
    sl, sr = _max_wavespeed_rows(vl, eos_pair), _max_wavespeed_rows(vr, eos_pair)
    return fv._rusanov(cl, cr, _flux_rows(vl, eos_pair), _flux_rows(vr, eos_pair), sl, sr).T


def force_face_flux(ul, ur, dx, dt, eos_pair):
    """FORCE flux between conservative cells ul and ur (n, 5), built from
    the row helpers the FORCE kernel uses."""
    cl, cr = np.asarray(ul, dtype=float).T, np.asarray(ur, dtype=float).T
    fl, fr = _cons_flux_rows(cl, eos_pair), _cons_flux_rows(cr, eos_pair)
    return fv._force(cl, cr, fl, fr, dx, dt, eos_pair, "strict", 0.0).T


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
    with pytest.raises(ConfigError, match="empty domain"):
        Grid(1.0, 0.0, 8)
    with pytest.raises(ConfigError, match="unknown limiter 'x'"):
        SolverConfig(t_end=1.0, limiter="x")
    with pytest.raises(ConfigError, match="positivity mode"):
        SolverConfig(t_end=1.0, positivity="x")
    with pytest.raises(ConfigError, match="unknown limiter 'x'"):
        limited_slope(np.ones(3), np.ones(3), "x")


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
    assert np.allclose(f, flux_primitive_array(decode(fv._SHTC, u), ideal_pair), rtol=1e-13)


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
    f = force_face_flux(u, u, 0.1, 0.01, ideal_pair)
    assert np.allclose(f, flux_primitive_array(decode(fv._SHTC, u), ideal_pair), rtol=1e-13)
    # dt -> 0: the Lax-Friedrichs half dominates
    ul, ur = u[:3], u[3:]
    dx = 0.1
    smax = float(np.max(max_wavespeed(decode(fv._SHTC, u), ideal_pair)))
    dt = 1e-12 * dx / smax
    f = force_face_flux(ul, ur, dx, dt, ideal_pair)
    fl = flux_primitive_array(decode(fv._SHTC, ul), ideal_pair)
    fr = flux_primitive_array(decode(fv._SHTC, ur), ideal_pair)
    f_lf = 0.5 * (fl + fr) - 0.5 * (dx / dt) * (ur - ul)
    assert np.allclose(f, 0.5 * f_lf, rtol=1e-9)


def test_force_textbook_oracle(ideal_pair):
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
    got = force_face_flux(ul, ur, dx, dt, ideal_pair)
    assert np.allclose(got, 0.5 * (lf + lw), rtol=1e-12, atol=1e-12)


def _violent_cells():
    # 40 sets of 16 random primitive cells with |u| up to 60; stepped at
    # dt/dx = 2, far above the CFL limit, each has Lax-Wendroff midpoints
    # outside the invariant set
    rng = np.random.default_rng(11)
    for _ in range(40):
        yield random_state_array(rng, 16, u=(-60.0, 60.0))


def test_force_floor_mode_survives_violent_steps(ideal_pair):
    dx = 0.01
    dt = 2.0 * dx
    floor = SolverConfig(t_end=1.0, scheme="force-godunov", positivity="floor")
    strict = SolverConfig(t_end=1.0, scheme="force-godunov")
    for v in _violent_cells():
        u = prim_to_cons_array(v)
        out, _ = fv.step(u, dt, dx, floor, ideal_pair)
        assert np.all(np.isfinite(out))
        v = decode(fv._SHTC, out)
        assert np.all((v[:, 0] > 0) & (v[:, 0] < 1))
        assert np.all(v[:, 0] * v[:, 1] > 0)
        assert np.all((1 - v[:, 0]) * v[:, 2] > 0)
        with pytest.raises(PositivityError):
            fv.step(u, dt, dx, strict, ideal_pair)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_force_strict_failure_names_the_face(ideal_pair, k):
    # six cells diverging at the face left of cell k, the only face whose
    # Lax-Wendroff midpoint empties: faces count from the left boundary
    # face (0), so the first and last interior faces are 1 and 5
    v = np.array([[0.5, 1.0, 1.0, -3.0, -3.0]] * k + [[0.5, 1.0, 1.0, 3.0, 3.0]] * (6 - k))
    with pytest.raises(PositivityError, match=f"in face {k} \\(FORCE midpoint\\)") as err:
        fv.step(prim_to_cons_array(v), 0.05, 0.1, SolverConfig(t_end=1.0, scheme="force-godunov"),
                ideal_pair)
    assert err.value.cell == k


def test_force_boundary_fluxes_are_the_edge_cells_fluxes(ideal_pair):
    # a transmissive edge face joins two equal states, so its FORCE flux
    # is the edge cell's physical flux from its conserved row, bit for bit
    rng = np.random.default_rng(5)
    u = prim_to_cons_array(random_state_array(rng, 9))
    _, (f_left, f_right) = fv.step(u, 1e-3, 0.1, SolverConfig(t_end=1.0, scheme="force-godunov"),
                                   ideal_pair)
    edge = flux_conserved_array(u[[0, -1]], ideal_pair)
    assert np.array_equal(f_left, edge[0]) and np.array_equal(f_right, edge[1])


def test_muscl_step_preserves_uniform_state(ideal_pair):
    v = np.tile([0.35, 1.4, 0.9, 0.4, -0.2], (32, 1))
    u = prim_to_cons_array(v)
    cfg = SolverConfig(t_end=1.0)
    out, (fl, fr) = fv.step(u, 1e-3, 0.01, cfg, ideal_pair)
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
    out, (fl, fr) = fv.step(u, dt, dx, cfg, ideal_pair)
    change = out.sum(axis=0) - u.sum(axis=0) + dt / dx * (fr - fl)
    scale = np.abs(u).sum(axis=0)
    assert np.max(np.abs(change) / scale) < 1e-12


# the two cell systems of the shared MUSCL-Hancock kernel: scheme, system
SYSTEMS = {
    "shtc": ("muscl-rusanov", fv._SHTC),
    "bn": ("muscl-pathcons-bn", fv._BN),
}


@pytest.mark.parametrize("system", ["shtc", "bn"])
def test_muscl_positivity_error_names_cell(ideal_pair, system):
    scheme, cells = SYSTEMS[system]
    v = np.tile([0.5, 1.0, 1.0, 0.0, 0.0], (16, 1))
    v[7:, 3] = 40.0   # violent expansion
    v[:7, 3] = -40.0
    u = encode(cells, v)
    cfg = SolverConfig(t_end=1.0, scheme=scheme)
    with pytest.raises(PositivityError) as err:
        fv.step(u, 2e-2, 0.01, cfg, ideal_pair, t=0.123)
    assert err.value.cell == 6
    assert err.value.time == 0.123
    # floor mode survives the same update with every invariant restored
    cfg_floor = SolverConfig(t_end=1.0, scheme=scheme, positivity="floor")
    out, _ = fv.step(u, 2e-2, 0.01, cfg_floor, ideal_pair)
    assert np.all(np.isfinite(out))
    vout = decode(cells, out)
    assert np.all((vout[:, 0] > 0) & (vout[:, 0] < 1))
    assert np.all(vout[:, 0] * vout[:, 1] > 0)
    assert np.all((1 - vout[:, 0]) * vout[:, 2] > 0)
    if system == "shtc":
        assert np.all(out[:, 2] > 0)
    # the floored cells keep no momentum, so no phase moves faster than
    # the fastest input cell
    assert np.max(np.abs(vout[:, 3:])) <= 40.0


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
    scheme, cells = SYSTEMS[system]
    n, k = 16, 6
    cfg = SolverConfig(t_end=1.0, scheme=scheme)
    with pytest.raises(PositivityError, match=r"cell 6 \(half step\)") as err:
        fv.step(encode(cells, _half_step_fault(n, k)), 2e-3, 0.01, cfg, ideal_pair)
    assert err.value.cell == k
    if system == "shtc":
        cfg = SolverConfig(t_end=1.0, limiter="superbee")
        with pytest.raises(PositivityError, match=r"cell 6 \(reconstruction\)") as err:
            fv.step(_reconstruction_fault(n, k), 1e-4, 0.01, cfg, ideal_pair)
        assert err.value.cell == k
    # a broken cell reaches the kernel's first mask only past the input
    # check of fv.step; that mask names it too, with the ghost row beside
    # cell 0 (also broken) clipped to the cell
    broken = [0.6, 0.8, 0.5, 0.0, 0.0] if system == "shtc" else [1.2, 0.5, -0.2, 0.0, 0.0]
    for cell in (k, 0, n - 1):
        c = encode(cells, np.tile([0.5, 1.0, 1.0, 0.0, 0.0], (n, 1))).T.copy()
        c[:, cell] = broken
        with pytest.raises(PositivityError, match=r"\(reconstruction\)") as err:
            fv._muscl_hancock(cells, c, 1e-4, 0.01, SolverConfig(t_end=1.0), ideal_pair, 0.0)
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
    # one outcome in both modes: fv.step scans its input once
    system, row = BROKEN_INPUTS[case]
    scheme, cells = SYSTEMS[system]
    u = encode(cells, np.tile([0.5, 1.0, 1.0, 0.2, -0.1], (16, 1)))
    u[9] = row
    for scheme in [scheme] + (["force-godunov"] if system == "shtc" else []):
        cfg = SolverConfig(t_end=1.0, scheme=scheme, positivity=positivity)
        with pytest.raises(StateDecodeError, match="input cell 9 "):
            fv.step(u, 1e-4, 0.01, cfg, ideal_pair)


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
def test_cons_mask_implies_decodable(ideal_pair, w):
    # a conserved row the mask passes decodes, without the strict scan and
    # the EOS density checks the kernel no longer runs, to 0 < alpha1 < 1
    # and positive densities; fv.step rejects a row the mask flags.  Rows
    # near the float range may overflow to inf in the decode, which the
    # density check accepts, so overflow lies outside this property.
    _check_mask_implies_decodable(ideal_pair, "muscl-rusanov", w)


@settings(max_examples=1000, deadline=None)
@given(b=_rows_near_invariants(0))
def test_bn_mask_implies_decodable(ideal_pair, b):
    _check_mask_implies_decodable(ideal_pair, "muscl-pathcons-bn", b)


def _check_mask_implies_decodable(eos_pair, scheme, row):
    system = fv._scheme(SolverConfig(t_end=1.0, scheme=scheme))[-1]
    if system.invalid(row):
        with pytest.raises(StateDecodeError, match="input cell 0 "):
            fv.step(row[None], 1e-4, 0.01, SolverConfig(t_end=1.0, scheme=scheme), eos_pair)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        alpha1, rho1, rho2, _, _ = system.decode(row)
        assert 0.0 < alpha1 < 1.0 and rho1 > 0.0 and rho2 > 0.0


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("system", ["shtc", "bn"])
def test_muscl_survives_violent_steps(ideal_pair, system, limiter):
    # the FORCE test's 40 violent cell sets, stepped at dt/dx = 2: strict
    # mode stops with PositivityError alone, floor mode returns finite
    # cells inside the invariant set; any RuntimeWarning fails the test
    scheme, cells = SYSTEMS[system]
    dx = 0.01
    dt = 2.0 * dx
    floor = SolverConfig(t_end=1.0, scheme=scheme, limiter=limiter, positivity="floor")
    strict = SolverConfig(t_end=1.0, scheme=scheme, limiter=limiter)
    for v in _violent_cells():
        u = encode(cells, v)
        out, _ = fv.step(u, dt, dx, floor, ideal_pair)
        assert np.all(np.isfinite(out))
        v = decode(cells, out)
        assert np.all((v[:, 0] > 0) & (v[:, 0] < 1))
        assert np.all(v[:, 0] * v[:, 1] > 0)
        assert np.all((1 - v[:, 0]) * v[:, 2] > 0)
        with pytest.raises(PositivityError):
            fv.step(u, dt, dx, strict, ideal_pair)


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
        fv.step(cells(), dt, 0.01, cfg, ideal_pair, t=0.5)
    assert any(
        r.getMessage().endswith(f" 1 cells at t=0.5 ({stage})") for r in caplog.records
    ), [r.getMessage() for r in caplog.records]


# ---------------------------------------------------------------------------
# Baer-Nunziato block backend
# ---------------------------------------------------------------------------

def test_bn_round_trip():
    rng = np.random.default_rng(4)
    v = random_state_array(rng, 200)
    assert np.allclose(decode(fv._BN, encode(fv._BN, v)), v, rtol=1e-13)


@settings(max_examples=500, deadline=None)
@given(v=primitive_rows())
def test_bn_prim_rows_invert_bn_rows(v):
    back = fv._bn_prim_rows(np.array(fv._bn_rows(v)))
    assert np.all(round_trip_error(v, back) <= 1e-12), (v, back)


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
    b = encode(fv._BN, v)
    cfg = SolverConfig(t_end=1.0, scheme="muscl-pathcons-bn")
    dt, dx = 4e-4, 0.01
    out, _ = fv.step(b, dt, dx, cfg, ideal_pair)
    vout = decode(fv._BN, out)

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
    b = encode(fv._BN, v)
    cfg = SolverConfig(t_end=1.0, scheme="muscl-pathcons-bn")
    dt, dx = 2e-3, 2.0 / n
    out, (gl, gr) = fv.step(b, dt, dx, cfg, ideal_pair)
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
        max_wavespeed(decode(fv._BN, vl), eos_pair),
        max_wavespeed(decode(fv._BN, vr), eos_pair),
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
    b = encode(fv._BN, random_state_array(rng, 40, u=(-1.0, 1.0)))
    dx = 0.01
    dt = 0.2 * dx / np.max(max_wavespeed(decode(fv._BN, b), ideal_pair))
    cfg = SolverConfig(t_end=1.0, scheme="muscl-pathcons-bn", limiter=limiter)
    out, (fl, fr) = fv.step(b, dt, dx, cfg, ideal_pair)
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
    for _, system in SYSTEMS.values():
        out = relax(system, v, 1e-3, 1e-4, 1e-4, ideal_pair)
        assert np.allclose(out, v, rtol=1e-12, atol=1e-14)


def test_velocity_projection_conserves_momentum(ideal_pair):
    rng = np.random.default_rng(6)
    v = random_state_array(rng, 100)
    rho_u = lambda a: a[:, 0] * a[:, 1] * a[:, 3] + (1 - a[:, 0]) * a[:, 2] * a[:, 4]
    for _, system in SYSTEMS.values():
        out = relax(system, v, 1.0, None, 1e-30, ideal_pair)
        w = out[:, 3] - out[:, 4]
        assert np.max(np.abs(w)) < 1e-12
        assert np.allclose(rho_u(out), rho_u(v), rtol=1e-13, atol=1e-14)
        # masses untouched
        assert np.allclose(out[:, :3], v[:, :3], rtol=1e-15)


def test_velocity_exponential_decay(ideal_pair):
    v = np.array([[0.5, 1.0, 1.0, 0.4, -0.4]])
    theta2, dt = 0.05, 0.02
    c1 = 0.5
    expected_w = 0.8 * np.exp(-c1 * (1 - c1) * dt / theta2)
    for _, system in SYSTEMS.values():
        out = relax(system, v, dt, None, theta2, ideal_pair)
        assert out[0, 3] - out[0, 4] == pytest.approx(expected_w, rel=1e-12)


def test_pressure_projection_equilibrates(ideal_pair):
    rng = np.random.default_rng(7)
    v = random_state_array(rng, 60, u=(-0.5, 0.5))
    m1 = lambda a: a[:, 0] * a[:, 1]
    m2 = lambda a: (1 - a[:, 0]) * a[:, 2]
    for _, system in SYSTEMS.values():
        out = relax(system, v, 1.0, 1e-30, None, ideal_pair)
        p1 = out[:, 1] ** 1.4
        p2 = out[:, 2] ** 2.0
        assert np.max(np.abs(p1 - p2) / np.maximum(p1, p2)) < 1e-10
        # partial masses conserved
        assert np.allclose(m1(out), m1(v), rtol=1e-12)
        assert np.allclose(m2(out), m2(v), rtol=1e-12)


def test_pressure_projection_matches_bisection_oracle(ideal_pair):
    v = np.array([[0.35, 1.8, 0.7, 0.1, -0.2]])
    m1 = 0.35 * 1.8
    m2 = 0.65 * 0.7
    alpha = brentq(
        lambda a: (m1 / a) ** 1.4 - (m2 / (1 - a)) ** 2.0, 1e-12, 1 - 1e-12, xtol=1e-15
    )
    for _, system in SYSTEMS.values():
        out = relax(system, v, 1.0, 1e-30, None, ideal_pair)
        assert out[0, 0] == pytest.approx(alpha, abs=1e-12)


def test_implicit_pressure_step_partial(ideal_pair):
    # moderate theta1: alpha moves toward equilibrium but not onto it
    v = np.array([[0.5, 2.0, 1.0, 0.0, 0.0]])
    p1_0, p2_0 = 2.0**1.4, 1.0
    for _, system in SYSTEMS.values():
        out = relax(system, v, 1e-3, 1e-2, None, ideal_pair)
        a_new = out[0, 0]
        # implicit Euler balance: (a - a0) = dt/theta1 (p1 - p2) at the new state
        p1 = out[0, 1] ** 1.4
        p2 = out[0, 2] ** 2.0
        assert a_new - 0.5 == pytest.approx(1e-3 / 1e-2 * (p1 - p2), rel=1e-10)
        assert 0.5 < a_new < 1.0  # p1 > p2 pushes alpha1 up
        assert abs(p1 - p2) < abs(p1_0 - p2_0)


def test_pressure_relaxation_newton_iteration_count():
    # every iteration of the Newton solve evaluates the unchecked phase-1
    # sound speed once; a cell that has met the tolerance must not be
    # sent back to its bracket midpoint and hold the whole batch up
    calls = []

    class CountingEos(BarotropicEos):
        def _sound_speed_sq(self, rho):
            calls.append(1)
            return super()._sound_speed_sq(rho)

    pair = EosPair(CountingEos(1.0, 1.4), BarotropicEos(1.0, 2.0))
    rng = np.random.default_rng(21)
    n = 2000
    v = np.column_stack([
        rng.uniform(0.05, 0.95, n), rng.uniform(0.3, 3.0, n), rng.uniform(0.3, 3.0, n),
        np.zeros(n), np.zeros(n),
    ])
    dt = 1e-3
    # implicit step (mu = theta1/dt) and projection (theta1 << dt, mu = 0)
    for (_, system), (theta1, mu) in product(SYSTEMS.values(), ((1e-3, 1.0), (1e-12, 0.0))):
        calls.clear()
        out = relax(system, v, dt, theta1, None, pair)
        assert 0 < len(calls) <= 25, theta1
        p1 = out[:, 1] ** 1.4
        p2 = out[:, 2] ** 2.0
        balance = mu * (out[:, 0] - v[:, 0]) - (p1 - p2)
        assert np.max(np.abs(balance) / np.maximum(mu, np.maximum(p1, p2))) < 1e-12


def _dense_equilibrium_alpha(alpha0, m1, m2, dt, theta1, eos_pair, tol=1e-13):
    # the solve as it was before it iterated on the unconverged cells only:
    # every iterate evaluates every cell with the checked EOS and stops
    # when all cells meet the tolerance
    mu = 0.0 if theta1 < fv.RELAX_PROJECTION_FACTOR * dt else theta1 / dt
    e1, e2 = eos_pair.phase1, eos_pair.phase2

    def residual(a):
        p1 = e1.pressure(m1 / a)
        p2 = e2.pressure(m2 / (1.0 - a))
        return mu * (a - alpha0) - (p1 - p2), p1, p2

    def derivative(a):
        a1sq = e1.sound_speed_sq(m1 / a)
        a2sq = e2.sound_speed_sq(m2 / (1.0 - a))
        return mu + a1sq * m1 / a**2 + a2sq * m2 / (1.0 - a) ** 2

    lo = np.full_like(alpha0, 1e-14)
    hi = np.full_like(alpha0, 1.0 - 1e-14)
    x = np.clip(alpha0, 1e-12, 1.0 - 1e-12)
    f, p1, p2 = residual(x)
    for _ in range(200):
        fscale = np.maximum(np.maximum(mu, np.maximum(np.abs(p1), np.abs(p2))), 1e-300)
        active = ~(np.abs(f) <= tol * fscale)
        if not np.any(active) or np.all(hi - lo < 1e-16):
            return x
        above = f > 0.0
        hi = np.where(above, np.minimum(hi, x), hi)
        lo = np.where(~above, np.maximum(lo, x), lo)
        xn = x - f / derivative(x)
        outside = (xn < lo) | (xn > hi) | ~np.isfinite(xn)
        x = np.where(active, np.where(outside, 0.5 * (lo + hi), xn), x)
        f, p1, p2 = residual(x)
    raise AssertionError("dense oracle did not converge")


@pytest.mark.parametrize("theta1", [1e-3, 1e-12])  # mu = 1 and mu = 0 (projection)
def test_pressure_relaxation_matches_dense_oracle(ideal_pair, theta1):
    # iterating on the unconverged cells only changes no bit of the answer
    rng = np.random.default_rng(31)
    n = 2000
    alpha0 = rng.uniform(0.05, 0.95, n)
    m1 = alpha0 * rng.uniform(0.3, 3.0, n)
    m2 = (1.0 - alpha0) * rng.uniform(0.3, 3.0, n)
    want = _dense_equilibrium_alpha(alpha0, m1, m2, 1e-3, theta1, ideal_pair)
    assert np.array_equal(fv._equilibrium_alpha(alpha0, m1, m2, 1e-3, theta1, ideal_pair), want)


def _relaxation_residual(a, alpha0, m1, m2, mu, eos_pair):
    p1 = eos_pair.phase1.pressure(m1 / a)
    p2 = eos_pair.phase2.pressure(m2 / (1.0 - a))
    return mu * (a - alpha0) - (p1 - p2), p1, p2


@settings(max_examples=150, deadline=None)
@given(
    stiff=st.booleans(),
    cells=st.lists(
        st.tuples(st.floats(1e-6, 1.0 - 1e-6), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        min_size=1, max_size=12,
    ),
    mu=st.one_of(st.just(0.0), st.floats(1e-3, 1e9)),
)
# m1 = 100 against m2 = 0.01: the root near alpha1 = 0.9996 is met at round-off only
@example(stiff=False, cells=[(0.5, 1.0, 0.0)], mu=0.0)
def test_pressure_relaxation_meets_tolerance_or_roundoff(ideal_pair, stiff_pair, stiff, cells,
                                                         mu):
    # the solve returns alpha in (0, 1), and each cell either meets the
    # tolerance or is a closest double to its root: the residual changes
    # sign between it and one of its neighbouring doubles.  Masses span
    # four decades around the RP1-RP6 states of each pair.
    pair = stiff_pair if stiff else ideal_pair
    alpha0, s1, s2 = (np.array(c) for c in zip(*cells))
    m1 = 1e-2 * 10.0 ** (4.0 * s1)
    m2 = (1e0 if stiff else 1e-2) * 10.0 ** (4.0 * s2)
    theta1 = mu if mu else 1e-30  # dt = 1: mu = theta1, or projection
    x = fv._equilibrium_alpha(alpha0, m1, m2, 1.0, theta1, pair)
    assert np.all((x > 0.0) & (x < 1.0))
    f, p1, p2 = _relaxation_residual(x, alpha0, m1, m2, mu, pair)
    met = np.abs(f) <= 1e-13 * np.maximum(np.maximum(np.abs(p1), np.abs(p2)), max(mu, 1e-300))
    below = _relaxation_residual(np.nextafter(x, 0.0), alpha0, m1, m2, mu, pair)[0]
    above = _relaxation_residual(np.nextafter(x, 1.0), alpha0, m1, m2, mu, pair)[0]
    closest = (np.sign(f) != np.sign(below)) | (np.sign(f) != np.sign(above)) | (f == 0.0)
    assert np.all(met | closest), (x[~(met | closest)], f[~(met | closest)])


@pytest.mark.parametrize("theta1", [1e-3, 1e-2, 0.1])
def test_relaxed_rp4_bn_finishes(theta1):
    # on RP4's stiff pair the residual's round-off floor |f'| ulp(alpha)
    # can exceed the tolerance; such cells stop at round-off, where the
    # solve used to iterate them to its limit and raise RelaxationError
    p = get_problem("RP4")
    left, right = p.riemann_data()
    cfg = SolverConfig(t_end=p.t_end, cfl=p.cfl, scheme="muscl-pathcons-bn", theta1=theta1)
    res = run_simulation(left, right, Grid(p.x_min, p.x_max, 200), cfg, p.eos_pair, x0=p.x0)
    assert res.t == pytest.approx(p.t_end, rel=1e-12)
    assert np.all(np.isfinite(res.prim))
    assert np.all((res.prim[:, 0] > 0.0) & (res.prim[:, 0] < 1.0))
    relax = res.ledger["telemetry"]["relax"]
    assert relax["solves"] == 2 * res.steps
    assert relax["roundoff_stops"] > 0


def test_relaxation_counters_in_ledger(ideal_pair):
    p = get_problem("RP6")
    left, right = p.riemann_data()
    g = Grid(p.x_min, p.x_max, 64)
    relaxed = SolverConfig(t_end=0.05, theta1=1e-3, theta2=1e-8)
    res = run_simulation(left, right, g, relaxed, ideal_pair)
    relax = res.ledger["telemetry"]["relax"]
    assert set(relax) == set(fv.RELAX_COUNTERS)
    assert relax["solves"] == 2 * res.steps
    assert 0 < relax["max_iterations"] <= 25
    assert relax["max_iterations"] <= relax["newton_iterations"] <= 25 * relax["solves"]
    assert relax["roundoff_stops"] == 0
    # the counters come back from a forked worker with its result
    forked = run_simulations(left, right, g, [SolverConfig(t_end=0.05), relaxed], ideal_pair)
    assert forked[1].ledger["telemetry"]["relax"] == relax
    # a run without theta1 solves nothing
    assert set(forked[0].ledger["telemetry"]["relax"].values()) == {0}


def test_relaxation_step_conserved_view(ideal_pair):
    # alpha1 rho1, rho, rho u of the conservative cells are conserved
    # (alpha1 rho and w carry sources), as are the masses and q1 + q2 of
    # the Baer-Nunziato blocks
    rng = np.random.default_rng(8)
    v = random_state_array(rng, 50, u=(-0.5, 0.5))
    config = SolverConfig(t_end=1.0, theta1=1e-3, theta2=1e-8)
    conserved = {"shtc": lambda c: c[1:4], "bn": lambda b: (b[1], b[2], b[3] + b[4])}
    for name, (_, system) in SYSTEMS.items():
        c = system.encode(v.T)
        u = conserved[name](c)
        out = conserved[name](system.relax(c, 1e-2, config, ideal_pair, None))
        assert np.allclose(out[0], u[0], rtol=1e-12)
        assert np.allclose(out[1], u[1], rtol=1e-14)
        assert np.allclose(out[2], u[2], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("thetas", [(1e-3, 1e-8), (1e-3, None), (None, 1e-8), (1e-30, 1e-30)])
def test_relax_holds_its_invariant_rows(ideal_pair, thetas):
    # relaxation changes alpha1 and the slip only: the conservative rows
    # alpha1 rho1, rho and rho u and the Baer-Nunziato masses come back
    # bit for bit, and q1 + q2 to round-off
    rng = np.random.default_rng(16)
    v = random_state_array(rng, 400, u=(-1.0, 1.0))
    config = SolverConfig(t_end=1.0, theta1=thetas[0], theta2=thetas[1])
    c = fv._SHTC.encode(v.T)
    out = fv._SHTC.relax(c, 1e-2, config, ideal_pair, None)
    assert out[1:4].tobytes() == c[1:4].tobytes()
    b = fv._BN.encode(v.T)
    out = fv._BN.relax(b, 1e-2, config, ideal_pair, None)
    assert out[1:3].tobytes() == b[1:3].tobytes()
    q = b[3] + b[4]
    scale = np.abs(b[3]) + np.abs(b[4])
    assert np.all(np.abs(out[3] + out[4] - q) <= 4 * np.finfo(float).eps * scale)


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


@pytest.mark.parametrize("t_end", [1e-16, 1e-300, 5e-324])
def test_run_tiny_time_takes_one_step(ideal_pair, t_end):
    # the end tolerance never swallows a positive t_end whole
    p = get_problem("RP5")
    left, right = p.riemann_data()
    res = run_simulation(left, right, Grid(-1.0, 1.0, 50), SolverConfig(t_end=t_end), ideal_pair)
    assert res.steps == 1
    assert res.t == res.ledger["time"] == t_end


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
    # the totals are pairwise sums along the cell rows; a plain column sum
    # of the final cells agrees to round-off of the L1 mass
    l1 = np.abs(res.cons).sum(axis=0) * g.dx
    assert np.all(np.abs(totals - res.cons.sum(axis=0) * g.dx) <= 1e-12 * l1)


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


@pytest.mark.parametrize(
    "problem, scheme, mask, decode, stages",
    [
        ("RP4", "force-godunov", "_invalid_cons", "_cons_flux_rows", 2),
        ("RP6", "muscl-rusanov", "_invalid_cons", "_prim_rows", 3),
        ("RP6", "muscl-pathcons-bn", "_invalid_bn", "_bn_prim_rows", 3),
    ],
)
def test_driver_checks_and_decodes_once_per_stage(monkeypatch, problem, scheme, mask, decode,
                                                  stages):
    # The driver checks its initial cells once; after that each stage masks
    # what it makes, once, and no step re-checks its input.  FORCE has 2
    # stages (Lax-Wendroff midpoint, update), MUSCL-Hancock 3
    # (reconstruction, half step, update): 1 + stages*steps masks, of which
    # 1 + steps see the cells (input and update checks).  MUSCL-Hancock
    # decodes the cells once per step, for the wave speed, and once more
    # at the end; with one decode per later stage (faces before and after
    # the half step) that is 1 + stages*steps decodes, of which 1 + steps
    # see the cells.  FORCE takes its cells' flux rows and wave speeds in
    # one conservative-row pass per step, which its update reuses, and one
    # more pass per step at the Lax-Wendroff midpoints: stages*steps
    # passes, of which steps see the cells; it decodes only at the end.
    calls = _count_masks_and_decodes(monkeypatch)
    p = get_problem(problem)
    left, right = p.riemann_data()
    n = 64
    cfg = SolverConfig(t_end=p.t_end, cfl=p.cfl, scheme=scheme)
    res = run_simulation(left, right, Grid(p.x_min, p.x_max, n), cfg, p.eos_pair, x0=p.x0)
    assert res.steps > 0
    final = int(decode != "_cons_flux_rows")  # the end decode, if by `decode`
    assert set(calls) == {mask, decode} | ({"_prim_rows"} if not final else set())
    assert len(calls[mask]) == 1 + stages * res.steps
    assert calls[mask].count((n,)) == 1 + res.steps
    assert len(calls[decode]) == final + stages * res.steps
    assert calls[decode].count((n,)) == final + res.steps
    if not final:
        assert calls["_prim_rows"] == [(n,)]


def test_relaxed_force_passes_once_per_stage(monkeypatch):
    # a relaxation half step would make FORCE's cell flux rows stale, so a
    # relaxed run's step preparation only decodes the cells for the wave
    # speed; the kernel takes one conservative-row pass on the relaxed
    # cells and one at the Lax-Wendroff midpoints
    calls = _count_masks_and_decodes(monkeypatch)
    p = get_problem("RP4")
    n = 64
    cfg = SolverConfig(t_end=p.t_end, cfl=p.cfl, scheme="force-godunov", theta1=1e-3, theta2=1e-8)
    res = run_simulation(*p.riemann_data(), Grid(p.x_min, p.x_max, n), cfg, p.eos_pair, x0=p.x0)
    assert res.steps > 0
    assert len(calls["_cons_flux_rows"]) == 2 * res.steps
    assert calls["_cons_flux_rows"].count((n,)) == res.steps
    assert calls["_prim_rows"] == [(n,)] * (res.steps + 1)


def _count_masks_and_decodes(monkeypatch):
    calls = {}
    for name in ("_invalid_cons", "_invalid_bn", "_prim_rows", "_bn_prim_rows", "_cons_flux_rows"):
        def counted(x, *args, real=getattr(fv, name), name=name, **kwargs):
            calls.setdefault(name, []).append(np.shape(x)[1:])
            return real(x, *args, **kwargs)
        monkeypatch.setattr(fv, name, counted)
    return calls


def _riemann_step(problem, scheme, n=64):
    """Riemann cells of a problem in the layout of a scheme, with a dt below the CFL limit."""
    p = get_problem(problem)
    grid = Grid(p.x_min, p.x_max, n)
    v = fv._riemann_cells(*p.riemann_data(), grid, p.x0)
    dt = 0.5 * p.cfl * grid.dx / float(np.max(_max_wavespeed_rows(v.T, p.eos_pair)))
    return p, grid, encode(fv._scheme(SolverConfig(t_end=1.0, scheme=scheme))[-1], v), dt


@pytest.mark.parametrize(
    "problem, scheme", [("RP6", "muscl-rusanov"), ("RP6", "muscl-pathcons-bn"),
                        ("RP4", "force-godunov")],
)
def test_step_equals_one_driver_step(problem, scheme):
    # a run whose t_end lies below the CFL dt takes one step of dt = t_end
    p, grid, u, dt = _riemann_step(problem, scheme)
    cfg = SolverConfig(t_end=dt, cfl=p.cfl, scheme=scheme)
    res = run_simulation(*p.riemann_data(), grid, cfg, p.eos_pair, x0=p.x0)
    assert res.steps == 1
    out, _ = fv.step(u, dt, grid.dx, cfg, p.eos_pair)
    assert decode(fv._scheme(cfg)[-1], out).tobytes() == res.prim.tobytes()


@pytest.mark.parametrize(
    "problem, scheme, mask, decoder, stages, decodes, cell_decodes",
    [
        ("RP4", "force-godunov", "_invalid_cons", "_cons_flux_rows", 2, 2, 1),
        ("RP6", "muscl-rusanov", "_invalid_cons", "_prim_rows", 3, 2, 0),
        ("RP6", "muscl-pathcons-bn", "_invalid_bn", "_bn_prim_rows", 3, 2, 0),
    ],
)
def test_step_checks_its_input_once(monkeypatch, problem, scheme, mask, decoder, stages,
                                    decodes, cell_decodes):
    # fv.step masks its (n,) input once, then each stage masks what it
    # makes once (the update check is the other mask of shape (n,)).  No
    # wave speed is taken, so MUSCL decodes only its faces, before and
    # after the half step; FORCE takes the flux rows of its cells and of
    # its Lax-Wendroff midpoints straight from the conserved rows.
    p, grid, u, dt = _riemann_step(problem, scheme)
    calls = _count_masks_and_decodes(monkeypatch)
    fv.step(u, dt, grid.dx, SolverConfig(t_end=1.0, scheme=scheme), p.eos_pair)
    assert set(calls) == {mask, decoder}
    assert len(calls[mask]) == 1 + stages
    assert calls[mask].count((grid.n_cells,)) == 2
    assert len(calls[decoder]) == decodes
    assert calls[decoder].count((grid.n_cells,)) == cell_decodes


@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    limiter=st.sampled_from(LIMITERS),
    positivity=st.sampled_from(("strict", "floor")),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 24),
    speed=st.floats(0.0, 60.0),
    ratio=st.floats(1e-3, 2.0),
)
def test_step_raises_or_returns_valid_cells(ideal_pair, scheme, limiter, positivity, seed, n,
                                           speed, ratio):
    # on admissible cells, strict mode either stops with PositivityError or
    # returns finite cells inside the invariant set; floor mode always
    # returns such cells.  dt/dx runs from well below to far above the CFL
    # limit.
    cfg = SolverConfig(t_end=1.0, scheme=scheme, limiter=limiter, positivity=positivity)
    system = fv._scheme(cfg)[-1]
    u = encode(system, random_state_array(np.random.default_rng(seed), n, u=(-speed, speed)))
    try:
        out, _ = fv.step(u, ratio * 0.01, 0.01, cfg, ideal_pair)
    except PositivityError:
        assert positivity == "strict"
        return
    assert out.shape == u.shape and np.all(np.isfinite(out))
    assert not np.any(system.invalid(out.T))


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
    out, _ = fv.step(u, 1e-3, 0.01, cfg, ideal_pair)
    # offending cells drop to first order instead of producing floored
    # near-vacuum reconstructions with astronomical fluxes
    assert np.all(out[:, 2] > 0)
    assert np.all((out[:, 1] > 0) & (out[:, 1] < out[:, 2]))
    assert np.max(np.abs(out)) < 10.0
    # the same data aborts in strict mode
    with pytest.raises(PositivityError):
        fv.step(u, 1e-3, 0.01, SolverConfig(t_end=1.0, limiter="superbee"), ideal_pair)


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
    # answers frozen by tools/fv_snapshot.py before the driver held its
    # cells as rows (the RP4 and floor-mode cases), before relaxation
    # worked on the cell rows (the theta1-only, theta2-only and relaxed
    # RP4 cases) or before the kernel moved to component-major rows (the
    # rest): equal step counts, primitives within 1e-12 of each field's
    # scale.  The ledger figures, frozen before the ledger was settled once
    # per run, are equal byte for byte on the MUSCL-Hancock cases; the
    # FORCE cases, whose flux rows moved to the conserved-row algebra, hold
    # them within 1e-12 of each component's ledger scale (the larger of the
    # figure and the component's L1 mass), and worst_step_closure, itself
    # relative to that scale, within 1e-12
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
        abs_mass = np.abs(res.cons).sum(axis=0) * res.grid.dx
        for entry, got in tool.ledger_arrays(key, res).items():
            want = ref[entry]
            if "force-godunov" not in key:
                assert got.tobytes() == want.tobytes(), entry
            elif entry.endswith("worst_step_closure"):
                assert abs(got - want) <= 1e-12, entry
            else:
                scale = np.maximum(np.abs(want), abs_mass)
                assert np.all(np.abs(got - want) <= 1e-12 * scale), entry


@pytest.mark.parametrize(
    "scheme, thetas",
    [("muscl-rusanov", {}), ("muscl-pathcons-bn", {}), ("force-godunov", {}),
     ("muscl-rusanov", {"theta1": 1e-3, "theta2": 1e-8}),
     ("muscl-pathcons-bn", {"theta1": 1e-3, "theta2": 1e-8})],
    ids=("muscl-rusanov", "muscl-pathcons-bn", "force-godunov", "muscl-rusanov-relaxed",
         "muscl-pathcons-bn-relaxed"),
)
def test_ledger_equals_a_per_step_settlement(monkeypatch, scheme, thetas):
    # the ledger settled once per run equals, byte for byte, a settlement
    # step by step on the same cells: each transport step's input and
    # output rows, boundary fluxes and dt, recorded around fv._advance
    steps = []

    def recorded(kernel, system, c, dt, *args, real=fv._advance):
        c_new, fluxes = real(kernel, system, c, dt, *args)
        steps.append((c, c_new, fluxes, dt))
        return c_new, fluxes

    monkeypatch.setattr(fv, "_advance", recorded)
    p = get_problem("RP6")
    grid = Grid(p.x_min, p.x_max, 64)
    cfg = SolverConfig(t_end=p.t_end, cfl=p.cfl, scheme=scheme, **thetas)
    res = run_simulation(*p.riemann_data(), grid, cfg, p.eos_pair, x0=p.x0)
    view, dx = fv._scheme(cfg)[-1].conserved_view, grid.dx
    worst, boundary = 0.0, np.zeros(5)
    for c, c_new, (f_left, f_right), dt in steps:
        total, after = c.sum(axis=1) * dx, c_new.sum(axis=1) * dx
        boundary += dt * (f_right - f_left)
        closure = view(after - total) + dt * view(f_right - f_left)
        scale = np.maximum(np.abs(view(after)), view(np.abs(c_new).sum(axis=1) * dx))
        worst = max(worst, float(np.max(np.abs(closure) / np.maximum(scale, 1e-30))))
    ledger = res.ledger
    assert res.steps == len(steps) > 0
    assert np.array(ledger["worst_step_closure"]).tobytes() == np.array(worst).tobytes()
    assert np.array(ledger["boundary_flux_integrals"]).tobytes() == boundary.tobytes()
    dts = [dt for *_, dt in steps]
    assert (ledger["dt_min"], ledger["dt_max"]) == (min(dts), max(dts))
    if not thetas:  # relaxation moves the totals after the last transport
        assert np.array(ledger["totals"]).tobytes() == after.tobytes()


def _same_run(a, b):
    ledger_a = {k: v for k, v in a.ledger.items() if k != "wall_seconds"}
    ledger_b = {k: v for k, v in b.ledger.items() if k != "wall_seconds"}
    return (
        a.grid == b.grid and a.config == b.config and a.t == b.t and a.steps == b.steps
        and a.prim.tobytes() == b.prim.tobytes() and a.cons.tobytes() == b.cons.tobytes()
        and ledger_a == ledger_b
    )


def test_run_simulations_matches_serial_loop():
    # three workers at once, whose results must come back in config order
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
    # without sending anything; this process runs the first config itself
    here = os.getpid()

    def exit_in_worker(*args):
        if os.getpid() != here:
            os._exit(7)
        return run_simulation(*args)

    monkeypatch.setattr(fv, "run_simulation", exit_in_worker)
    p = get_problem("RP5")
    left, right = p.riemann_data()
    configs = [SolverConfig(t_end=0.01), SolverConfig(t_end=0.01, scheme="muscl-pathcons-bn")]
    with pytest.raises(NumericsError, match="muscl-pathcons-bn worker ended.*exit code 7"):
        run_simulations(left, right, Grid(-1.0, 1.0, 16), configs, ideal_pair)


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_simulations_runs_the_first_config_here(monkeypatch, cpus):
    # the calling process runs configs[0] after forking a worker for each
    # later config, so all of them are alive when its own run starts (a
    # worker waits before its run, so it is still alive to be counted),
    # however few CPUs this process may use
    p = get_problem("RP5")
    left, right = p.riemann_data()
    g = Grid(p.x_min, p.x_max, 32)
    configs = [
        SolverConfig(t_end=p.t_end, cfl=p.cfl, scheme=scheme)
        for scheme in ("muscl-rusanov", "muscl-pathcons-bn", "force-godunov")
    ]
    serial = [run_simulation(left, right, g, c, p.eos_pair, x0=p.x0) for c in configs]
    here = os.getpid()
    calls = []  # a worker appends to its own copy, so only this process's calls show

    def recorder(*args):
        if os.getpid() != here:
            time.sleep(0.2)
        calls.append((args[3], len(multiprocessing.active_children())))
        return run_simulation(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(fv, "run_simulation", recorder)
    forked = run_simulations(left, right, g, configs, p.eos_pair, x0=p.x0)
    assert calls == [(configs[0], len(configs) - 1)]
    assert all(_same_run(a, b) for a, b in zip(serial, forked))
    assert multiprocessing.active_children() == []


def test_run_simulations_raises_the_earlier_worker_error(ideal_pair, monkeypatch):
    # both workers fail, the later config's first: the error of the earlier
    # config is raised, and the other worker is reaped before it leaves
    here = os.getpid()

    def fail_in_worker(*args):
        if os.getpid() != here:
            scheme = args[3].scheme
            time.sleep(0.3 if scheme == "muscl-pathcons-bn" else 0.0)
            raise NumericsError(f"{scheme} failed", residual=len(scheme))
        return run_simulation(*args)

    monkeypatch.setattr(fv, "run_simulation", fail_in_worker)
    left = PrimitiveState(0.5, 1.0, 1.0, 0.0, 0.0)
    configs = [
        SolverConfig(t_end=0.01, scheme=scheme)
        for scheme in ("muscl-rusanov", "muscl-pathcons-bn", "force-godunov")
    ]
    with pytest.raises(NumericsError, match="^muscl-pathcons-bn failed$") as raised:
        run_simulations(left, left, Grid(-1.0, 1.0, 16), configs, ideal_pair)
    assert raised.value.residual == len("muscl-pathcons-bn")
    assert multiprocessing.active_children() == []


def test_run_simulations_of_one_config_forks_nothing(ideal_pair, monkeypatch):
    p = get_problem("RP5")
    left, right = p.riemann_data()
    g = Grid(-1.0, 1.0, 16)
    config = SolverConfig(t_end=0.01)
    serial = run_simulation(left, right, g, config, ideal_pair)

    def no_fork():
        raise AssertionError("a single config forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    (alone,) = run_simulations(left, right, g, [config], ideal_pair)
    assert _same_run(alone, serial)
    assert run_simulations(left, right, g, [], ideal_pair) == []


def test_run_simulations_reaps_workers_when_its_own_run_raises(ideal_pair, monkeypatch):
    # counter-streaming data break the caller's strict run while a worker,
    # held back before its run, is still going: the worker is terminated
    # and joined before the error leaves
    left = PrimitiveState(0.5, 1.0, 1.0, -60.0, -60.0)
    right = PrimitiveState(0.5, 1.0, 1.0, 60.0, 60.0)
    g = Grid(-1.0, 1.0, 64)
    violent = SolverConfig(t_end=0.25, limiter="superbee")
    here = os.getpid()
    live = []

    def slow_worker(*args):
        if os.getpid() != here:
            time.sleep(60.0)
        live.append(len(multiprocessing.active_children()))
        return run_simulation(*args)

    monkeypatch.setattr(fv, "run_simulation", slow_worker)
    with pytest.raises(PositivityError):
        run_simulations(left, right, g, [violent, SolverConfig(t_end=0.25)], ideal_pair)
    assert live == [1]
    assert multiprocessing.active_children() == []

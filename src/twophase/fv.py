"""One-dimensional finite-volume solvers.

Three schemes share the grid and time loop:

  muscl-rusanov     second order MUSCL-Hancock on the conservative
                    five-equation (SHTC) system, Rusanov interface flux;
  muscl-pathcons-bn the same kernel on the Baer-Nunziato block variables
                    (alpha1, a1*r1, a2*r2, a1*r1*u1, a2*r2*u2), path-
                    conservative: Rusanov flux of the conservative part
                    plus the segment-path products of u_I and p_I;
  force-godunov     first order Godunov update with the FORCE flux
                    (mean of Lax-Friedrichs and two-step Lax-Wendroff).

The two models share their eigenvalues; a small system description
(`_System`) carries all that separates their second-order schemes.

Pressure and velocity relaxation enter by operator splitting (Strang by
default).  The velocity sub-step integrates dw/dt = -c1*c2*w/theta2
exactly with frozen mass fractions; the pressure sub-step advances
dalpha1/dt = (p1 - p2)/theta1 by an implicit solve in alpha1 with the
partial masses frozen.  Both project instantaneously for theta below
1e-6*dt.  The sub-steps conserve the partial masses, the mixture
density and the mixture momentum to round-off.
"""

import logging
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, PositivityError, RelaxationError
from .state import (
    cons_to_prim_array,
    flux_primitive_array,
    max_wavespeed_array,
    prim_to_cons_array,
)

RELAX_PROJECTION_FACTOR = 1e-6  # theta < factor*dt switches to projection
ALPHA_FLOOR = 1e-12
RHO_FLOOR = 1e-12

_log = logging.getLogger(__name__)

SCHEMES = ("muscl-rusanov", "force-godunov", "muscl-pathcons-bn")
LIMITERS = ("minmod", "superbee", "mc", "vanleer")


@dataclass(frozen=True)
class Grid:
    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 4:
            raise ConfigError("need at least 4 cells (two ghost layers per side)")
        if self.x_max <= self.x_min:
            raise ConfigError("empty domain")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self):
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl: float = 0.25
    scheme: str = "muscl-rusanov"
    limiter: str = "minmod"
    theta1: float = None  # pressure relaxation time; None = off
    theta2: float = None  # velocity relaxation time; None = off
    boundary: str = "transmissive"
    positivity: str = "strict"  # or "floor"
    splitting: str = "strang"  # or "godunov"
    wavespeed_growth_guard: float = 1.5  # abort when max|lambda| jumps by more

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.limiter not in LIMITERS:
            raise ConfigError(f"unknown limiter {self.limiter!r}")
        if not 0.0 < self.cfl <= 0.5:
            raise ConfigError("MUSCL-Hancock needs 0 < cfl <= 0.5")
        if self.boundary != "transmissive":
            raise ConfigError("only transmissive boundaries are supported")
        if self.positivity not in ("strict", "floor"):
            raise ConfigError("positivity mode must be strict or floor")
        if self.splitting not in ("strang", "godunov"):
            raise ConfigError("splitting must be strang or godunov")
        for th in (self.theta1, self.theta2):
            if th is not None and th <= 0.0:
                raise ConfigError("relaxation times must be positive (or None for off)")

    @property
    def relaxing(self):
        return self.theta1 is not None or self.theta2 is not None


# ---------------------------------------------------------------------------
# slope limiters
# ---------------------------------------------------------------------------

def limited_slope(dl, dr, limiter):
    """TVD slope from one-sided differences, elementwise."""
    if limiter == "minmod":
        return _minmod2(dl, dr)
    if limiter == "superbee":
        a = _minmod2(dr, 2.0 * dl)
        b = _minmod2(dl, 2.0 * dr)
        return np.where(np.abs(a) > np.abs(b), a, b)
    if limiter == "mc":
        c = 0.5 * (dl + dr)
        s = np.minimum(np.abs(c), np.minimum(2.0 * np.abs(dl), 2.0 * np.abs(dr)))
        return np.where((dl > 0) & (dr > 0), s, np.where((dl < 0) & (dr < 0), -s, 0.0))
    if limiter == "vanleer":
        denom = dl + dr
        prod = dl * dr
        return np.where(prod > 0, 2.0 * prod / np.where(denom == 0.0, 1.0, denom), 0.0)
    raise ConfigError(f"unknown limiter {limiter!r}")


def _minmod2(a, b):
    s = np.where((a > 0) & (b > 0), np.minimum(a, b), 0.0)
    return np.where((a < 0) & (b < 0), np.maximum(a, b), s)


def _pad_transmissive(u, layers=2):
    head = np.repeat(u[:1], layers, axis=0)
    tail = np.repeat(u[-1:], layers, axis=0)
    return np.concatenate([head, u, tail], axis=0)


# ---------------------------------------------------------------------------
# cell systems: conservative (SHTC) cells and Baer-Nunziato blocks
# ---------------------------------------------------------------------------

def _invalid_cons(u):
    w1, w2, w3 = u[:, 0], u[:, 1], u[:, 2]
    bad = (w3 <= 0.0) | (w1 <= 0.0) | (w1 >= w3) | (w2 <= 0.0) | (w2 >= w3)
    return bad | ~np.all(np.isfinite(u), axis=1)


def _floor_cons(u, bad):
    # rebuild from clipped primitives, keeping mixture mass; cells whose
    # density or mass partition had to be floored are emptied of
    # momentum and slip (a vacuum cell has no meaningful velocity and a
    # stale w4 over a floored w3 explodes the speeds)
    w1, w2, w3 = np.nan_to_num(u[:, :3], nan=RHO_FLOOR).T
    vacuous = bad & ((w3 <= RHO_FLOOR) | (w2 <= RHO_FLOOR) | (w2 >= w3 - RHO_FLOOR))
    w3f = np.maximum(w3, RHO_FLOOR)
    alpha = np.clip(w1 / w3f, ALPHA_FLOOR, 1.0 - ALPHA_FLOOR)
    m1 = np.clip(np.minimum(w2, w3f - RHO_FLOOR), RHO_FLOOR, None)
    m2 = np.clip(w3f - m1, RHO_FLOOR, None)
    out = np.nan_to_num(u, nan=0.0)
    out[:, 0] = alpha * (m1 + m2)
    out[:, 1] = m1
    out[:, 2] = m1 + m2
    out[vacuous, 3:] = 0.0
    return out


def bn_from_prim(v):
    v = np.asarray(v, dtype=float)
    alpha1, rho1, rho2, u1, u2 = (v[..., i] for i in range(5))
    m1 = alpha1 * rho1
    m2 = (1.0 - alpha1) * rho2
    return np.stack([alpha1, m1, m2, m1 * u1, m2 * u2], axis=-1)


def bn_to_prim(b):
    b = np.asarray(b, dtype=float)
    alpha1, m1, m2, q1, q2 = (b[..., i] for i in range(5))
    return np.stack(
        [alpha1, m1 / alpha1, m2 / (1.0 - alpha1), q1 / m1, q2 / m2], axis=-1
    )


def _bn_flux(b, v, eos_pair):
    """Conservative part of the Baer-Nunziato flux of blocks b decoded
    to v: (0, m1 u1, m2 u2, m1 u1^2 + alpha1 p1, m2 u2^2 + alpha2 p2)."""
    alpha1, m1, m2, q1, q2 = (b[..., i] for i in range(5))
    p1 = eos_pair.phase1.pressure(v[..., 1])
    p2 = eos_pair.phase2.pressure(v[..., 2])
    z = np.zeros_like(alpha1)
    return np.stack(
        [z, q1, q2, q1**2 / m1 + alpha1 * p1, q2**2 / m2 + (1.0 - alpha1) * p2],
        axis=-1,
    )


def _bn_nonconservative(bl, br, eos_pair):
    """B(V) dV along the segment path from bl to br: (u_I dalpha, 0, 0,
    -p_I dalpha, +p_I dalpha) with u_I = u and p_I = (m2 p1 + m1 p2)/rho
    at the midpoint.  The single nonconservative column makes the path
    integral exact up to the midpoint rule for u_I, p_I."""
    alpha1, m1, m2, q1, q2 = ((0.5 * (bl + br))[..., i] for i in range(5))
    dalpha = br[..., 0] - bl[..., 0]
    rho = m1 + m2
    u_i = (q1 + q2) / rho
    p1 = eos_pair.phase1.pressure(m1 / alpha1)
    p2 = eos_pair.phase2.pressure(m2 / (1.0 - alpha1))
    p_i = (m2 * p1 + m1 * p2) / rho
    z = np.zeros_like(alpha1)
    return np.stack([u_i * dalpha, z, z, -p_i * dalpha, p_i * dalpha], axis=-1)


def _invalid_bn(b):
    alpha1, m1, m2 = b[:, 0], b[:, 1], b[:, 2]
    bad = (alpha1 <= 0.0) | (alpha1 >= 1.0) | (m1 <= 0.0) | (m2 <= 0.0)
    return bad | ~np.all(np.isfinite(b), axis=1)


def _floor_bn(b, bad):
    out = np.nan_to_num(b, nan=RHO_FLOOR)
    out[:, 0] = np.clip(out[:, 0], ALPHA_FLOOR, 1.0 - ALPHA_FLOOR)
    out[:, 1:3] = np.clip(out[:, 1:3], RHO_FLOOR, None)
    return out


@dataclass(frozen=True)
class _System:
    """What the MUSCL-Hancock kernel and run_simulation need of a cell layout.
    Entries look their helpers up by module-level name at call time, so
    a rebinding of those names (by a profiler, say) reaches every call."""

    decode: Callable  # cells -> primitive (n, 5)
    encode: Callable  # primitive -> cells
    flux: Callable  # (c, v, eos_pair): conservative flux of cells c decoded to v
    nonconservative: Optional[Callable]  # (cl, cr, eos_pair): product on the path cl -> cr
    invalid: Callable  # cells -> mask of broken state invariants
    floor: Callable  # (c, bad): floor-mode repair of the masked cells
    conserved_view: Callable  # the components of a 5-vector the ledger closure balances
    variables: tuple  # names of the five cell components


_SHTC = _System(
    decode=lambda c: cons_to_prim_array(c),
    encode=lambda v: prim_to_cons_array(v),
    flux=lambda c, v, eos_pair: flux_primitive_array(v, eos_pair),
    nonconservative=None,
    invalid=lambda c: _invalid_cons(c),
    floor=lambda c, bad: _floor_cons(c, bad),
    conserved_view=lambda vec: np.asarray(vec),
    variables=("alpha1*rho", "alpha1*rho1", "rho", "rho*u", "w"),
)

# alpha1 and the phase momenta are not conservative; closure is checked
# on the masses and the momentum sum
_BN = _System(
    decode=lambda b: bn_to_prim(b),
    encode=lambda v: bn_from_prim(v),
    flux=lambda b, v, eos_pair: _bn_flux(b, v, eos_pair),
    nonconservative=lambda bl, br, eos_pair: _bn_nonconservative(bl, br, eos_pair),
    invalid=lambda b: _invalid_bn(b),
    floor=lambda b, bad: _floor_bn(b, bad),
    conserved_view=lambda vec: np.array([vec[1], vec[2], vec[3] + vec[4]]),
    variables=("alpha1", "alpha1*rho1", "alpha2*rho2", "q1", "q2"),
)


# ---------------------------------------------------------------------------
# numerical fluxes
# ---------------------------------------------------------------------------

def _cons_flux(u, eos_pair):
    return flux_primitive_array(cons_to_prim_array(u), eos_pair)


def rusanov_flux(ul, ur, eos_pair, system=_SHTC):
    """0.5 (F_L + F_R) - 0.5 s_max (U_R - U_L) with the analytic spectral
    radius over both states, each decoded once for its flux and speed;
    conservative cells unless `system` says otherwise."""
    ul = np.asarray(ul, dtype=float)
    ur = np.asarray(ur, dtype=float)
    vl = system.decode(ul)
    vr = system.decode(ur)
    fl = system.flux(ul, vl, eos_pair)
    fr = system.flux(ur, vr, eos_pair)
    smax = np.maximum(max_wavespeed_array(vl, eos_pair), max_wavespeed_array(vr, eos_pair))
    return 0.5 * (fl + fr) - 0.5 * smax[..., None] * (ur - ul)


def force_combine(fl, fr, ul, ur, dx, dt, flux_of):
    """Standard FORCE assembly given the two physical fluxes, the two
    states and a flux evaluator for the Lax-Wendroff midpoint."""
    f_lf = 0.5 * (fl + fr) - 0.5 * (dx / dt) * (ur - ul)
    u_lw = 0.5 * (ul + ur) - 0.5 * (dt / dx) * (fr - fl)
    return 0.5 * (f_lf + flux_of(u_lw))


def force_flux(ul, ur, dx, dt, eos_pair):
    ul = np.asarray(ul, dtype=float)
    ur = np.asarray(ur, dtype=float)
    fl = _cons_flux(ul, eos_pair)
    fr = _cons_flux(ur, eos_pair)
    return force_combine(fl, fr, ul, ur, dx, dt, lambda u: _cons_flux(u, eos_pair))


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def _abort_if_strict(bad, states, mode, t, where):
    if mode != "strict":
        return
    cell = int(np.argmax(bad))
    raise PositivityError(
        f"state invariants violated in cell {cell} ({where}): {states[cell]}",
        cell=cell, time=t,
    )


def _enforce_positivity(system, c, mode, t):
    bad = system.invalid(c)
    if not np.any(bad):
        return c
    _abort_if_strict(bad, c, mode, t, "update")
    _log.warning("flooring %d cells at t=%g (update)", int(np.sum(bad)), t)
    return system.floor(c, bad)


def _muscl_hancock(system, c, dt, dx, config, eos_pair, t):
    """One second-order MUSCL-Hancock update of the interior cells
    (Toro, ch. 14) in path-conservative form (Pares 2006):

        c - dt/dx (F_{i+1/2} - F_{i-1/2} + (P_{i-1/2} + P_{i+1/2})/2 + P_i)

    with Rusanov fluxes F between the half-evolved face states, the
    products P_{i+-1/2} along the segments joining them and the in-cell
    product P_i; the P terms vanish for a conservative system.  Returns
    (c_new, boundary_fluxes), the interface fluxes at the two domain
    edges, which the ledger needs.
    """
    cp = _pad_transmissive(c, 2)
    dl = cp[1:-1] - cp[:-2]
    dr = cp[2:] - cp[1:-1]
    slope = limited_slope(dl, dr, config.limiter)
    # component-wise TVD slopes can still break the cross-component
    # state invariants near extreme jumps; strict mode aborts, floor
    # mode drops the offending cells to first order
    c_minus = cp[1:-1] - 0.5 * slope
    c_plus = cp[1:-1] + 0.5 * slope
    bad = system.invalid(c_minus) | system.invalid(c_plus)
    if np.any(bad):
        _abort_if_strict(bad, c_minus, config.positivity, t, "reconstruction")
        slope[bad] = 0.0
        c_minus = cp[1:-1] - 0.5 * slope
        c_plus = cp[1:-1] + 0.5 * slope
    f_minus = system.flux(c_minus, system.decode(c_minus), eos_pair)
    f_plus = system.flux(c_plus, system.decode(c_plus), eos_pair)
    drift = f_plus - f_minus
    if system.nonconservative is not None:
        drift = drift + system.nonconservative(c_minus, c_plus, eos_pair)
    evo = 0.5 * (dt / dx) * drift
    c_minus_h = c_minus - evo
    c_plus_h = c_plus - evo
    bad = system.invalid(c_minus_h) | system.invalid(c_plus_h)
    if np.any(bad):
        _abort_if_strict(bad, c_minus_h, config.positivity, t, "half step")
        c_minus_h[bad] = c_minus[bad]
        c_plus_h[bad] = c_plus[bad]
    # interface i+1/2 joins the right face of cell i to the left face of i+1
    cl, cr = c_plus_h[:-1], c_minus_h[1:]
    flux = rusanov_flux(cl, cr, eos_pair, system)
    div = flux[1:] - flux[:-1]
    if system.nonconservative is not None:
        p_face = system.nonconservative(cl, cr, eos_pair)
        p_cell = system.nonconservative(c_minus_h[1:-1], c_plus_h[1:-1], eos_pair)
        div = div + 0.5 * (p_face[:-1] + p_face[1:]) + p_cell
    c_new = _enforce_positivity(system, c - (dt / dx) * div, config.positivity, t)
    return c_new, (flux[0], flux[-1])


def muscl_hancock_step(u, dt, dx, config, eos_pair, t=0.0):
    """MUSCL-Hancock update of conservative cells (see _muscl_hancock)."""
    return _muscl_hancock(_SHTC, u, dt, dx, config, eos_pair, t)


def path_conservative_step(b, dt, dx, config, eos_pair, t=0.0):
    """Path-conservative MUSCL-Hancock update of Baer-Nunziato blocks
    (see _muscl_hancock); the Rusanov dissipation uses the analytic
    spectral radius, which the blocks share with the conservative form."""
    return _muscl_hancock(_BN, b, dt, dx, config, eos_pair, t)


def force_godunov_step(u, dt, dx, config, eos_pair, t=0.0):
    """First-order Godunov-type update with the FORCE flux."""
    up = _pad_transmissive(u, 1)
    flux = force_flux(up[:-1], up[1:], dx, dt, eos_pair)
    u_new = u - (dt / dx) * (flux[1:] - flux[:-1])
    u_new = _enforce_positivity(_SHTC, u_new, config.positivity, t)
    return u_new, (flux[0], flux[-1])


# ---------------------------------------------------------------------------
# relaxation sources
# ---------------------------------------------------------------------------

def _equilibrium_alpha(alpha0, m1, m2, dt, theta1, eos_pair, tol=1e-13):
    """Advance dalpha1/dt = (p1 - p2)/theta1 implicitly (or project to
    p1 = p2 for theta1 below the stiff threshold), partial masses
    frozen.  Vectorized safeguarded Newton on the increasing residual
    mu (alpha - alpha0) - (p1 - p2), mu = theta1/dt (0 when projecting);
    the root is always bracketed in (0, 1), and a cell stops moving
    once it meets the tolerance."""
    mu = 0.0 if theta1 < RELAX_PROJECTION_FACTOR * dt else theta1 / dt

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
        active = ~(np.abs(f) <= tol * fscale)  # a NaN residual stays active
        if not np.any(active) or np.all(hi - lo < 1e-16):
            break
        above = f > 0.0
        hi = np.where(above, np.minimum(hi, x), hi)
        lo = np.where(~above, np.maximum(lo, x), lo)
        xn = x - f / derivative(x)
        outside = (xn < lo) | (xn > hi) | ~np.isfinite(xn)
        x = np.where(active, np.where(outside, 0.5 * (lo + hi), xn), x)
        f, p1, p2 = residual(x)
    else:
        raise RelaxationError("pressure relaxation solve did not converge")
    if np.any((x <= 0.0) | (x >= 1.0)):
        raise RelaxationError("equilibrium volume fraction left (0, 1)")
    return x


def relax_primitive(v, dt, theta1, theta2, eos_pair):
    """Apply the relaxation sources to an (n, 5) primitive array.

    Partial masses alpha_i rho_i, the mixture density and the mixture
    momentum are invariants of both sub-steps.
    """
    v = np.asarray(v, dtype=float)
    alpha1, rho1, rho2, u1, u2 = (v[..., i].copy() for i in range(5))
    m1 = alpha1 * rho1
    m2 = (1.0 - alpha1) * rho2
    rho = m1 + m2
    c1 = m1 / rho
    c2 = m2 / rho
    u = c1 * u1 + c2 * u2
    w = u1 - u2
    if theta2 is not None:
        if theta2 < RELAX_PROJECTION_FACTOR * dt:
            w = np.zeros_like(w)
        else:
            w = w * np.exp(-c1 * c2 * dt / theta2)
    if theta1 is not None:
        alpha1 = _equilibrium_alpha(alpha1, m1, m2, dt, theta1, eos_pair)
        rho1 = m1 / alpha1
        rho2 = m2 / (1.0 - alpha1)
    u1 = u + c2 * w
    u2 = u - c1 * w
    return np.stack([alpha1, rho1, rho2, u1, u2], axis=-1)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class SimulationResult:
    grid: Grid
    config: SolverConfig
    t: float
    steps: int
    prim: np.ndarray  # (n, 5) primitive cells
    cons: np.ndarray  # (n, 5) conservative cells
    ledger: dict
    max_wavespeed_history: list = field(repr=False, default_factory=list)

    @property
    def x(self):
        return self.grid.centers()


def _riemann_cells(left, right, grid, x0):
    x = grid.centers()
    return np.where(
        (x < x0)[:, None], left.as_array()[None, :], right.as_array()[None, :]
    )


def run_simulation(left, right, grid, config, eos_pair, x0=None):
    """March Riemann data to t_end under the configured scheme.

    Returns the final snapshot plus a conservation ledger: totals are
    cell sums times dx; for source-free components the change must
    balance the time-integrated boundary fluxes to round-off.
    """
    if x0 is None:
        x0 = 0.5 * (grid.x_min + grid.x_max)
    v0 = _riemann_cells(left, right, grid, x0)
    dx = grid.dx
    system = _BN if config.scheme == "muscl-pathcons-bn" else _SHTC
    stepper = {
        "muscl-rusanov": muscl_hancock_step,
        "force-godunov": force_godunov_step,
        "muscl-pathcons-bn": path_conservative_step,
    }[config.scheme]
    cells = system.encode(v0)

    t = 0.0
    steps = 0
    totals0 = cells.sum(axis=0) * dx
    boundary_integral = np.zeros(5)
    relax_delta = np.zeros(5)

    def relax(c, dt):
        vp = relax_primitive(system.decode(c), dt, config.theta1, config.theta2, eos_pair)
        out = system.encode(vp)
        relax_delta[:] += out.sum(axis=0) * dx - c.sum(axis=0) * dx
        return out
    worst_closure = 0.0
    smax_history = []
    smax_prev = None
    t_wall = _time.perf_counter()
    while t < config.t_end - 1e-15 * max(1.0, config.t_end):
        prim = system.decode(cells)
        smax = float(np.max(max_wavespeed_array(prim, eos_pair)))
        smax_history.append(smax)
        if smax_prev is not None and smax > config.wavespeed_growth_guard * smax_prev:
            raise PositivityError(
                f"max wave speed grew from {smax_prev:.6g} to {smax:.6g} in one step "
                f"(guard factor {config.wavespeed_growth_guard}); t={t:.6g}, step={steps}",
                time=t,
            )
        smax_prev = smax
        dt = min(config.cfl * dx / smax, config.t_end - t)

        if config.relaxing and config.splitting == "strang":
            cells = relax(cells, 0.5 * dt)

        before = cells.sum(axis=0) * dx
        cells, (f_left, f_right) = stepper(cells, dt, dx, config, eos_pair, t)
        after = cells.sum(axis=0) * dx
        boundary_integral += dt * (np.asarray(f_right) - np.asarray(f_left))
        view = system.conserved_view
        closure = view(after - before) + dt * view(np.asarray(f_right) - np.asarray(f_left))
        # totals of signed fields can cancel to zero; scale by the L1 mass
        abs_mass = view(np.abs(cells).sum(axis=0) * dx)
        scale = np.maximum(np.abs(view(after)), abs_mass)
        scale = np.maximum(scale, 1e-30)
        worst_closure = max(worst_closure, float(np.max(np.abs(closure) / scale)))

        if config.relaxing:
            cells = relax(cells, 0.5 * dt if config.splitting == "strang" else dt)

        t += dt
        steps += 1

    totals = cells.sum(axis=0) * dx
    ledger = {
        "time": t,
        "totals": totals.tolist(),
        "totals_initial": totals0.tolist(),
        "boundary_flux_integrals": boundary_integral.tolist(),
        "relaxation_source_integrals": relax_delta.tolist(),
        "worst_step_closure": worst_closure,
        "variables": list(system.variables),
        "wall_seconds": _time.perf_counter() - t_wall,
        "steps": steps,
    }
    prim = system.decode(cells)
    cons = prim_to_cons_array(prim)
    return SimulationResult(grid, config, t, steps, prim, cons, ledger, smax_history)

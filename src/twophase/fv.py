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
(`_System`) carries all that separates their second-order schemes.  The
kernels hold cells component-major, as (5, n) rows, and check the state
invariants once per stage; the public (n, 5) steps check their input once.

Pressure and velocity relaxation enter as Strang-split half steps
around each transport step.  The velocity sub-step integrates
dw/dt = -c1*c2*w/theta2 exactly with frozen mass fractions; the
pressure sub-step advances dalpha1/dt = (p1 - p2)/theta1 by an
implicit solve in alpha1 with the partial masses frozen.  Both project
instantaneously for theta below 1e-6*dt.  The sub-steps conserve the
partial masses, the mixture density and the mixture momentum to
round-off.

`run_simulation` marches one configuration in this process;
`run_simulations` marches several, each in a forked worker process, and
returns exactly what a loop over `run_simulation` would.
"""

import logging
import os
import time as _time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericsError, PositivityError, RelaxationError
from .state import (
    _checked_rows, _flux_rows, _invalid_cons, _max_wavespeed_rows, _or_nonfinite, _prim_rows,
    prim_to_cons_array,
)

RELAX_PROJECTION_FACTOR = 1e-6  # theta < factor*dt switches to projection
WAVESPEED_GROWTH_GUARD = 1.5  # abort when max|lambda| grows by more in one step
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
    positivity: str = "strict"  # or "floor"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.limiter not in LIMITERS:
            raise ConfigError(f"unknown limiter {self.limiter!r}")
        if not 0.0 < self.cfl <= 0.5:
            raise ConfigError("MUSCL-Hancock needs 0 < cfl <= 0.5")
        if self.positivity not in ("strict", "floor"):
            raise ConfigError("positivity mode must be strict or floor")
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
    # min(a, b) where both are positive, max(a, b) where both are negative, else 0
    return np.maximum(np.minimum(a, b), 0.0) + np.minimum(np.maximum(a, b), 0.0)


def _pad_transmissive(c, layers):
    """Rows c (5, n) with `layers` copies of each edge cell added."""
    return np.concatenate([c[:, :1]] * layers + [c] + [c[:, -1:]] * layers, axis=1)


# ---------------------------------------------------------------------------
# cell systems: conservative (SHTC) cells and Baer-Nunziato blocks, as rows
# (5, ...) with the component first
# ---------------------------------------------------------------------------

def _floor_cons(c, bad):
    # rebuild the masked cells from their floored mixture mass and clipped
    # volume and mass fractions, so that w1, w2 stay inside (0, w3); near-
    # vacuum or non-finite cells lose momentum and slip (a vacuum cell has
    # no velocity, and a stale w4 over a floored w3 explodes the speeds)
    w1, w2, w3 = c[:3, bad]
    vacuous = ~np.isfinite(c[:, bad]).all(axis=0) | ~(
        (w3 > RHO_FLOOR) & (w2 > RHO_FLOOR) & (w2 < w3 - RHO_FLOOR)
    )
    w3 = np.where(np.isfinite(w3) & (w3 > RHO_FLOOR), w3, RHO_FLOOR)
    out = c.copy()
    for i, w in ((0, w1), (1, w2)):
        share = np.nan_to_num(w / w3, nan=ALPHA_FLOOR)
        out[i, bad] = np.clip(share, ALPHA_FLOOR, 1.0 - ALPHA_FLOOR) * w3
    out[2, bad] = w3
    out[3:, bad] = np.where(vacuous, 0.0, c[3:, bad])
    return out


def bn_from_prim(v):
    v = np.asarray(v, dtype=float)
    alpha1, rho1, rho2, u1, u2 = (v[..., i] for i in range(5))
    m1 = alpha1 * rho1
    m2 = (1.0 - alpha1) * rho2
    return np.stack([alpha1, m1, m2, m1 * u1, m2 * u2], axis=-1)


def bn_to_prim(b):
    return np.stack(_bn_prim_rows(np.moveaxis(np.asarray(b, dtype=float), -1, 0)), axis=-1)


def _bn_prim_rows(b):
    alpha1, m1, m2, q1, q2 = b
    return alpha1, m1 / alpha1, m2 / (1.0 - alpha1), q1 / m1, q2 / m2


def _bn_flux(b, v, eos_pair):
    """Conservative part of the Baer-Nunziato flux of blocks b decoded
    to v: (0, m1 u1, m2 u2, m1 u1^2 + alpha1 p1, m2 u2^2 + alpha2 p2)."""
    alpha1, m1, m2, q1, q2 = b
    f = np.empty(np.shape(b))
    f[0] = 0.0
    f[1] = q1
    f[2] = q2
    np.add(q1**2 / m1, alpha1 * eos_pair.phase1._pressure(v[1]), out=f[3])
    np.add(q2**2 / m2, (1.0 - alpha1) * eos_pair.phase2._pressure(v[2]), out=f[4])
    return f


def _bn_nonconservative(bl, br, eos_pair):
    """B(V) dV along the segment path from bl to br: (u_I dalpha, 0, 0,
    -p_I dalpha, +p_I dalpha) with u_I = u and p_I = (m2 p1 + m1 p2)/rho
    at the midpoint.  The single nonconservative column makes the path
    integral exact up to the midpoint rule for u_I, p_I."""
    alpha1, m1, m2, q1, q2 = 0.5 * (bl + br)
    dalpha = br[0] - bl[0]
    rho = m1 + m2
    p1 = eos_pair.phase1._pressure(m1 / alpha1)
    p2 = eos_pair.phase2._pressure(m2 / (1.0 - alpha1))
    p_i = (m2 * p1 + m1 * p2) / rho
    out = np.empty(np.shape(bl))
    out[1:3] = 0.0
    np.multiply((q1 + q2) / rho, dalpha, out=out[0])
    np.multiply(-p_i, dalpha, out=out[3])
    np.multiply(p_i, dalpha, out=out[4])
    return out


def _invalid_bn(b):
    alpha1, m1, m2 = b[0], b[1], b[2]
    return _or_nonfinite((alpha1 <= 0.0) | (alpha1 >= 1.0) | (m1 <= 0.0) | (m2 <= 0.0), b)


def _floor_bn(b, bad):
    out = b.copy()
    fixed = np.nan_to_num(b[:, bad], nan=RHO_FLOOR)
    fixed[0] = np.clip(fixed[0], ALPHA_FLOOR, 1.0 - ALPHA_FLOOR)
    fixed[1:3] = np.clip(fixed[1:3], RHO_FLOOR, None)
    out[:, bad] = fixed
    return out


@dataclass(frozen=True)
class _System:
    """What the MUSCL-Hancock kernel and run_simulation need of a cell
    layout, on rows (5, ...) with the component first.  The kernel checks
    `invalid` once per stage (reconstruction, half step, update), and
    `decode`, `flux` and `nonconservative` evaluate what it passed with
    no second scan.  Entries look their helpers up by module-level name
    at call time, so a rebinding of those names (by a profiler, say)
    reaches every call."""

    decode: Callable  # rows -> primitive rows, unchecked
    encode: Callable  # primitive (n, 5) -> cells (n, 5)
    flux: Callable  # (c, v, eos_pair): conservative flux rows of rows c decoded to v
    nonconservative: Optional[Callable]  # (cl, cr, eos_pair): product on the path cl -> cr
    invalid: Callable  # rows -> mask of broken state invariants
    floor: Callable  # (c, bad): floor-mode repair of the masked rows
    conserved_view: Callable  # the components of a 5-vector the ledger closure balances
    variables: tuple  # names of the five cell components


_SHTC = _System(
    decode=lambda c: _prim_rows(c),
    encode=lambda v: prim_to_cons_array(v),
    flux=lambda c, v, eos_pair: _flux_rows(v, eos_pair),
    nonconservative=None,
    invalid=lambda c: _invalid_cons(c),
    floor=lambda c, bad: _floor_cons(c, bad),
    conserved_view=lambda vec: np.asarray(vec),
    variables=("alpha1*rho", "alpha1*rho1", "rho", "rho*u", "w"),
)

# alpha1 and the phase momenta are not conservative; closure is checked
# on the masses and the momentum sum
_BN = _System(
    decode=lambda b: _bn_prim_rows(b),
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

def _rusanov(cl, cr, fl, fr, sl, sr):
    """0.5 (F_L + F_R) - 0.5 s_max (U_R - U_L) on rows, with s_max the
    larger of the two states' analytic spectral radii sl, sr."""
    return 0.5 * (fl + fr) - 0.5 * np.maximum(sl, sr) * (cr - cl)


def _force(cl, cr, fl, fr, dx, dt, eos_pair, positivity, t):
    """FORCE flux rows of face states cl, cr with fluxes fl, fr."""
    f_lf = 0.5 * (fl + fr) - 0.5 * (dx / dt) * (cr - cl)
    c_lw = 0.5 * (cl + cr) - 0.5 * (dt / dx) * (fr - fl)
    bad = _invalid_cons(c_lw)
    if _fallback(bad, c_lw, positivity, t, "FORCE midpoint", "Lax-Friedrichs flux on", "face"):
        c_lw[:, bad] = cl[:, bad]  # any valid state: its flux is not used
    flux = 0.5 * (f_lf + _flux_rows(_prim_rows(c_lw), eos_pair))
    flux[:, bad] = f_lf[:, bad]
    return flux


def force_flux(ul, ur, dx, dt, eos_pair, positivity="strict", t=0.0):
    """FORCE flux (Toro & Billett 2000): the mean of the Lax-Friedrichs
    flux and the flux at the two-step Lax-Wendroff midpoint.  A face
    whose midpoint breaks the state invariants raises PositivityError in
    strict mode and takes the Lax-Friedrichs flux alone in floor mode."""
    cl, cr = _checked_rows(_invalid_cons, ul), _checked_rows(_invalid_cons, ur)
    fl, fr = _flux_rows(_prim_rows(cl), eos_pair), _flux_rows(_prim_rows(cr), eos_pair)
    return np.moveaxis(_force(cl, cr, fl, fr, dx, dt, eos_pair, positivity, t), 0, -1)


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def _fallback(bad, states, mode, t, where, action, unit="cell", extended=False):
    """Whether a stage masked some states.  Strict mode raises
    PositivityError naming the first; on an `extended` array (one ghost
    row per side) row i is cell i - 1.  Floor mode logs how many."""
    if not np.any(bad):
        return False
    if mode == "strict":
        row = int(np.argmax(bad))
        cell = min(max(row - 1, 0), bad.size - 3) if extended else row
        raise PositivityError(
            f"state invariants violated in {unit} {cell} ({where}): {states[..., row].T}",
            cell=cell, time=t,
        )
    _log.warning("%s %d %ss at t=%g (%s)", action, int(np.sum(bad)), unit, t, where)
    return True


_FACE_SIGNS = np.array([[-1.0], [1.0]])  # faces[:, 0] = mid - slope/2, faces[:, 1] = mid + slope/2


def _muscl_hancock(system, c, dt, dx, config, eos_pair, t):
    """One second-order MUSCL-Hancock update of the interior cells
    (Toro, ch. 14) in path-conservative form (Pares 2006):

        c - dt/dx (F_{i+1/2} - F_{i-1/2} + (P_{i-1/2} + P_{i+1/2})/2 + P_i)

    with Rusanov fluxes F between the half-evolved face states, the
    products P_{i+-1/2} along the segments joining them and the in-cell
    product P_i; the P terms vanish for a conservative system.  Cells c
    are rows (5, n); both face states of every cell, ghosts included, are
    held as faces[:, 0] (left) and faces[:, 1] (right) and checked once per
    stage.  Returns the bracket, which _step applies, and the fluxes.
    """
    cp = _pad_transmissive(c, 2)
    mid = cp[:, 1:-1]
    slope = limited_slope(mid - cp[:, :-2], cp[:, 2:] - mid, config.limiter)
    faces = mid[:, None] + _FACE_SIGNS * (0.5 * slope)[:, None]
    # component-wise TVD slopes can still break the cross-component
    # state invariants near extreme jumps; strict mode aborts, floor
    # mode drops the offending cells to first order
    bad = system.invalid(faces).any(axis=0)
    if _fallback(bad, faces, config.positivity, t, "reconstruction", "first order in",
                 extended=True):
        faces[:, :, bad] = mid[:, None, bad]
    v = system.decode(faces)
    f = system.flux(faces, v, eos_pair)
    drift = f[:, 1] - f[:, 0]
    if system.nonconservative is not None:
        drift = drift + system.nonconservative(faces[:, 0], faces[:, 1], eos_pair)
    faces_h = faces - (0.5 * (dt / dx) * drift)[:, None]
    bad = system.invalid(faces_h).any(axis=0)
    if _fallback(bad, faces_h, config.positivity, t, "half step", "half step dropped in",
                 extended=True):
        faces_h[:, :, bad] = faces[:, :, bad]
    # interface i+1/2 joins the right face of cell i to the left face of i+1
    v = system.decode(faces_h)
    f = system.flux(faces_h, v, eos_pair)
    s = _max_wavespeed_rows(v, eos_pair)
    cl, cr = faces_h[:, 1, :-1], faces_h[:, 0, 1:]
    flux = _rusanov(cl, cr, f[:, 1, :-1], f[:, 0, 1:], s[1, :-1], s[0, 1:])
    div = flux[:, 1:] - flux[:, :-1]
    if system.nonconservative is not None:
        p_face = system.nonconservative(cl, cr, eos_pair)
        p_cell = system.nonconservative(faces_h[:, 0, 1:-1], faces_h[:, 1, 1:-1], eos_pair)
        div = div + 0.5 * (p_face[:, :-1] + p_face[:, 1:]) + p_cell
    return div, flux


def _step(kernel, system, u, dt, dx, config, eos_pair, t):
    """Update cells u (n, 5) by dt with the flux divergence of a row
    kernel, after one check of the input and before one of the output;
    returns the new cells (n, 5) and the two boundary fluxes."""
    c = _checked_rows(system.invalid, u)
    div, flux = kernel(system, c, dt, dx, config, eos_pair, t)
    out = np.empty(np.shape(u))  # written as rows; stays C-ordered (n, 5) for the ledger
    c_new = np.subtract(c, (dt / dx) * div, out=out.T)
    bad = system.invalid(c_new)
    if _fallback(bad, c_new, config.positivity, t, "update", "flooring"):
        c_new = system.floor(c_new, bad)
    return np.ascontiguousarray(c_new.T), (flux[:, 0], flux[:, -1])


def muscl_hancock_step(u, dt, dx, config, eos_pair, t=0.0):
    """MUSCL-Hancock update of conservative cells (see _muscl_hancock)."""
    return _step(_muscl_hancock, _SHTC, u, dt, dx, config, eos_pair, t)


def path_conservative_step(b, dt, dx, config, eos_pair, t=0.0):
    """Path-conservative MUSCL-Hancock update of Baer-Nunziato blocks
    (see _muscl_hancock); the Rusanov dissipation uses the analytic
    spectral radius, which the blocks share with the conservative form."""
    return _step(_muscl_hancock, _BN, b, dt, dx, config, eos_pair, t)


def _force_godunov(system, c, dt, dx, config, eos_pair, t):
    cp = _pad_transmissive(c, 1)
    f = _flux_rows(_prim_rows(cp), eos_pair)
    flux = _force(cp[:, :-1], cp[:, 1:], f[:, :-1], f[:, 1:], dx, dt, eos_pair,
                  config.positivity, t)
    return flux[:, 1:] - flux[:, :-1], flux


def force_godunov_step(u, dt, dx, config, eos_pair, t=0.0):
    """First-order Godunov-type update with the FORCE flux."""
    return _step(_force_godunov, _SHTC, u, dt, dx, config, eos_pair, t)


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
        vp = relax_primitive(np.stack(system.decode(c.T), axis=-1), dt, config.theta1,
                             config.theta2, eos_pair)
        out = system.encode(vp)
        relax_delta[:] += out.sum(axis=0) * dx - c.sum(axis=0) * dx
        return out
    worst_closure = 0.0
    smax_prev = None
    dt_min, dt_max = np.inf, 0.0
    t_wall = _time.perf_counter()
    while t < config.t_end - 1e-15 * max(1.0, config.t_end):
        # cells stay (n, 5), which keeps the ledger's summation order; the
        # step functions check them, so this decode runs unchecked on rows
        smax = float(np.max(_max_wavespeed_rows(system.decode(cells.T), eos_pair)))
        if smax_prev is not None and smax > WAVESPEED_GROWTH_GUARD * smax_prev:
            raise PositivityError(
                f"max wave speed grew from {smax_prev:.6g} to {smax:.6g} in one step "
                f"(guard factor {WAVESPEED_GROWTH_GUARD}); t={t:.6g}, step={steps}",
                time=t,
            )
        smax_prev = smax
        dt = min(config.cfl * dx / smax, config.t_end - t)
        dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)

        if config.relaxing:
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
            cells = relax(cells, 0.5 * dt)

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
        # the last step is cut to reach t_end; None when no step was taken
        "dt_min": dt_min if steps else None,
        "dt_max": dt_max if steps else None,
    }
    prim = np.stack(system.decode(cells.T), axis=-1)
    cons = prim_to_cons_array(prim)
    return SimulationResult(grid, config, t, steps, prim, cons, ledger)


def _simulate_into(send, *args):
    """Worker body: run one simulation, send back its result or its error."""
    try:
        outcome = run_simulation(*args)
    except Exception as exc:
        outcome = exc
    send.send(outcome)
    send.close()


def run_simulations(left, right, grid, configs, eos_pair, x0=None):
    """run_simulation for every config, in config order, each in a forked
    worker process, at most as many at once as this process may use CPUs.

    A worker inherits its job through the fork (no callable is pickled,
    so a profiler's rebound functions run there too) and sends back only
    its result or its error; the error is raised here with its type,
    message and attributes.  A worker that ends without an answer raises
    NumericsError naming its scheme.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    fork = multiprocessing.get_context("fork")
    width = min(len(configs), len(os.sched_getaffinity(0)))
    results = [None] * len(configs)
    running = {}  # read end of a worker's pipe -> (config index, process)

    def start(i, config):
        recv, send = fork.Pipe(duplex=False)
        proc = fork.Process(target=_simulate_into,
                            args=(send, left, right, grid, config, eos_pair, x0))
        proc.start()
        send.close()  # the worker holds the only write end, so its death reads as EOF
        running[recv] = i, proc

    def finish():
        for recv in wait(list(running)):
            i, proc = running.pop(recv)
            try:
                outcome = recv.recv()
            except EOFError:
                outcome = None
            finally:
                recv.close()
                proc.join()
            if outcome is None:
                raise NumericsError(
                    f"{configs[i].scheme} worker ended (exit code {proc.exitcode}) "
                    "without a result"
                )
            if isinstance(outcome, Exception):
                raise outcome
            results[i] = outcome

    try:
        for i, config in enumerate(configs):
            if len(running) == width:
                finish()
            start(i, config)
        while running:
            finish()
    finally:
        for recv, (_, proc) in running.items():
            proc.terminate()
            proc.join()
            recv.close()
    return results

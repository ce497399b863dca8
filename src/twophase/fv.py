"""One-dimensional finite-volume solvers.

Three schemes share the grid and time loop:

  muscl-rusanov     second order MUSCL-Hancock on the conservative
                    five-equation (SHTC) system, Rusanov interface flux;
  muscl-pathcons-bn the same kernel on the Baer-Nunziato block variables
                    (alpha1, a1*r1, a2*r2, a1*r1*u1, a2*r2*u2), path-
                    conservative: Rusanov flux of the conservative part
                    plus the segment-path products of u_I and p_I, the
                    closure of models.interface_closure;
  force-godunov     first order Godunov update with the FORCE flux
                    (mean of Lax-Friedrichs and two-step Lax-Wendroff).

The two models share their eigenvalues; a small system description
(`_System`) carries all that separates their second-order schemes.  One
row stepper (`_advance`) serves the driver and `step`, the one public
step, whose (n, 5) cells take the layout of `config.scheme`; the driver
holds cells as contiguous (5, n) rows from encode to the final decode,
each stage checks what it makes once, and only `step` checks its input.

Pressure and velocity relaxation enter as Strang-split half steps
around each transport step, taken on the cell rows by `_System.relax`.
The velocity sub-step integrates dw/dt = -c1*c2*w/theta2 exactly; the
pressure sub-step advances dalpha1/dt = (p1 - p2)/theta1 by an implicit
solve in alpha1 (its theta1 -> 0 end is the instantaneous pressure
relaxation of Saurel & Abgrall 1999): a safeguarded Newton iteration
that, after the first residual, works on the unconverged cells only and
stops a cell at the tolerance or at round-off.  Both project for theta
below 1e-6*dt.  They rewrite alpha1*rho and w of conservative cells,
whose other rows stay bit for bit, and alpha1, q1 and q2 of
Baer-Nunziato blocks, whose masses stay bit for bit and q1 + q2 to
round-off.  The run's ledger counts the pressure solves, their Newton
iterations and their round-off stops under ledger["telemetry"]["relax"].

`run_simulation` marches one configuration in this process;
`run_simulations` marches several, the first in this process and each
other one in a forked worker process started before it, and returns
exactly what a loop over `run_simulation` would.
"""

import logging
import time as _time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericsError, PositivityError, RelaxationError, StateDecodeError
from .models import interface_closure
from .state import (
    _cons_flux_rows, _cons_rows, _flux_rows, _invalid_cons, _max_wavespeed_rows, _or_nonfinite,
    _prim_rows, prim_to_cons_array,
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
        # t_end = 0 is a run of no step that returns the initial cells
        if not 0.0 <= self.t_end < np.inf:
            raise ConfigError(f"t_end must be finite and non-negative, got {self.t_end}")
        for name in ("theta1", "theta2"):
            th = getattr(self, name)
            if th is not None and not 0.0 < th < np.inf:
                raise ConfigError(
                    f"relaxation time {name} must be finite and positive (or None for off), "
                    f"got {th}"
                )

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


def _bn_rows(v):
    alpha1, rho1, rho2, u1, u2 = v
    m1 = alpha1 * rho1
    m2 = (1.0 - alpha1) * rho2
    return alpha1, m1, m2, m1 * u1, m2 * u2


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
    -p_I dalpha, +p_I dalpha) with the closure u_I, p_I of
    models.interface_closure at the midpoint.  The single nonconservative
    column makes the path integral exact up to the midpoint rule for u_I,
    p_I."""
    u_i, p_i = interface_closure(*(0.5 * (bl + br)), eos_pair)
    dalpha = br[0] - bl[0]
    out = np.empty(np.shape(bl))
    out[1:3] = 0.0
    np.multiply(u_i, dalpha, out=out[0])
    np.multiply(-p_i, dalpha, out=out[3])
    np.multiply(p_i, dalpha, out=out[4])
    return out


def _invalid_bn(b):
    alpha1, m1, m2 = b[0], b[1], b[2]
    return _or_nonfinite((alpha1 <= 0.0) | (alpha1 >= 1.0) | (m1 <= 0.0) | (m2 <= 0.0), b)


def _floor_bn(b, bad):
    # as _floor_cons: a non-finite cell or a near-vacuum phase loses the
    # phase momenta, which would explode over a floored mass
    out = b.copy()
    fixed = np.nan_to_num(b[:, bad], nan=RHO_FLOOR)
    vacuous = ~np.isfinite(b[:, bad]).all(axis=0) | (fixed[1:3] <= RHO_FLOOR).any(axis=0)
    fixed[0] = np.clip(fixed[0], ALPHA_FLOOR, 1.0 - ALPHA_FLOOR)
    fixed[1:3] = np.clip(fixed[1:3], RHO_FLOOR, None)
    fixed[3:, vacuous] = 0.0
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
    encode: Callable  # primitive rows -> cell rows (5, n)
    relax: Callable  # (c, dt, config, eos_pair, counts): rows after the relaxation sources
    flux: Callable  # (c, v, eos_pair): conservative flux rows of rows c decoded to v
    nonconservative: Optional[Callable]  # (cl, cr, eos_pair): product on the path cl -> cr
    invalid: Callable  # rows -> mask of broken state invariants
    floor: Callable  # (c, bad): floor-mode repair of the masked rows
    conserved_view: Callable  # the components of (..., 5) the ledger closure balances
    variables: tuple  # names of the five cell components


_SHTC = _System(
    decode=lambda c: _prim_rows(c),
    encode=lambda v: np.stack(_cons_rows(v)),
    relax=lambda c, dt, config, eos_pair, counts: _relax_cons(c, dt, config, eos_pair, counts),
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
    encode=lambda v: np.stack(_bn_rows(v)),
    relax=lambda b, dt, config, eos_pair, counts: _relax_bn(b, dt, config, eos_pair, counts),
    flux=lambda b, v, eos_pair: _bn_flux(b, v, eos_pair),
    nonconservative=lambda bl, br, eos_pair: _bn_nonconservative(bl, br, eos_pair),
    invalid=lambda b: _invalid_bn(b),
    floor=lambda b, bad: _floor_bn(b, bad),
    conserved_view=lambda vec: np.stack([vec[..., 1], vec[..., 2], vec[..., 3] + vec[..., 4]], -1),
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
    """FORCE flux rows (Toro & Billett 2000) of the interior faces, face
    j + 1 joining states cl, cr (row j) with fluxes fl, fr: the mean of
    the Lax-Friedrichs flux and the flux at the two-step Lax-Wendroff
    midpoint.  A face whose midpoint breaks the state invariants raises
    PositivityError in strict mode and takes the Lax-Friedrichs flux
    alone in floor mode."""
    f_lf = 0.5 * (fl + fr) - 0.5 * (dx / dt) * (cr - cl)
    c_lw = 0.5 * (cl + cr) - 0.5 * (dt / dx) * (fr - fl)
    bad = _invalid_cons(c_lw)
    if masked := _fallback(bad, c_lw, positivity, t, "FORCE midpoint", "Lax-Friedrichs flux on",
                           "face", first=1):
        c_lw[:, bad] = cl[:, bad]  # any valid state: its flux is not used
    flux = 0.5 * (f_lf + _cons_flux_rows(c_lw, eos_pair))
    if masked:
        flux[:, bad] = f_lf[:, bad]
    return flux


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def _fallback(bad, states, mode, t, where, action, unit="cell", first=0):
    """Whether a stage masked some states.  Strict mode raises
    PositivityError naming the first; row i is item i + first, with
    first = -1 for one ghost row per side (a ghost names its edge cell)
    and 1 without both edge items.  Floor mode logs how many."""
    if not bad.any():
        return False
    if mode == "strict":
        row = int(np.argmax(bad))
        cell = min(max(row + first, 0), bad.size + 2 * first - 1)
        raise PositivityError(
            f"state invariants violated in {unit} {cell} ({where}): {states[..., row].T}",
            cell=cell, time=t,
        )
    _log.warning("%s %d %ss at t=%g (%s)", action, int(bad.sum()), unit, t, where)
    return True


_FACE_SIGNS = np.array([[-1.0], [1.0]])  # faces[:, 0] = mid - slope/2, faces[:, 1] = mid + slope/2


def _muscl_hancock(system, c, dt, dx, config, eos_pair, t, reuse=None):
    """One second-order MUSCL-Hancock update of the interior cells
    (Toro, ch. 14) in path-conservative form (Pares 2006):

        c - dt/dx (F_{i+1/2} - F_{i-1/2} + (P_{i-1/2} + P_{i+1/2})/2 + P_i)

    with Rusanov fluxes F between the half-evolved face states, the
    products P_{i+-1/2} along the segments joining them and the in-cell
    product P_i; the P terms vanish for a conservative system.  Cells c
    are rows (5, n), `reuse` is unused; both face states of every cell, ghosts
    included, are held as faces[:, 0] (left) and faces[:, 1] (right) and
    checked once per stage.  Returns the bracket, which _advance applies,
    and the fluxes.
    """
    cp = np.concatenate([c[:, :1], c[:, :1], c, c[:, -1:], c[:, -1:]], axis=1)  # transmissive
    mid = cp[:, 1:-1]
    slope = limited_slope(mid - cp[:, :-2], cp[:, 2:] - mid, config.limiter)
    faces = mid[:, None] + _FACE_SIGNS * (0.5 * slope)[:, None]
    # component-wise TVD slopes can still break the cross-component
    # state invariants near extreme jumps; strict mode aborts, floor
    # mode drops the offending cells to first order
    bad = system.invalid(faces).any(axis=0)
    if _fallback(bad, faces, config.positivity, t, "reconstruction", "first order in",
                 first=-1):
        faces[:, :, bad] = mid[:, None, bad]
    v = system.decode(faces)
    f = system.flux(faces, v, eos_pair)
    drift = f[:, 1] - f[:, 0]
    if system.nonconservative is not None:
        drift = drift + system.nonconservative(faces[:, 0], faces[:, 1], eos_pair)
    faces_h = faces - (0.5 * (dt / dx) * drift)[:, None]
    bad = system.invalid(faces_h).any(axis=0)
    if _fallback(bad, faces_h, config.positivity, t, "half step", "half step dropped in",
                 first=-1):
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


def _advance(kernel, system, c, dt, dx, config, eos_pair, t, reuse=None):
    """Update valid cell rows c (5, n) by dt with the flux divergence of a
    row kernel, then check the new rows once and, in floor mode, repair
    them; `reuse`, what the step preparation made of c if at hand, spares
    the kernel that work.  Returns the new rows and the two boundary fluxes."""
    div, flux = kernel(system, c, dt, dx, config, eos_pair, t, reuse)
    c_new = c - (dt / dx) * div
    bad = system.invalid(c_new)
    if _fallback(bad, c_new, config.positivity, t, "update", "flooring"):
        c_new = system.floor(c_new, bad)
    return c_new, (flux[:, 0], flux[:, -1])


def _force_godunov(system, c, dt, dx, config, eos_pair, t, f=None):
    """First-order FORCE update of conservative rows c, of flux rows f if
    the step preparation made them.  A transmissive edge face joins two
    equal states, so its FORCE flux is the edge cell's own flux (0.5 (f + f)
    - 0, the midpoint is the cell): only the interior faces are evaluated."""
    f = _cons_flux_rows(c, eos_pair) if f is None else f
    inner = _force(c[:, :-1], c[:, 1:], f[:, :-1], f[:, 1:], dx, dt, eos_pair,
                   config.positivity, t)
    flux = np.concatenate([f[:, :1], inner, f[:, -1:]], axis=1)
    return flux[:, 1:] - flux[:, :-1], flux


def _decode_prepare(system, c, eos_pair):
    return None, _max_wavespeed_rows(system.decode(c), eos_pair)


def _force_prepare(system, c, eos_pair):
    return _cons_flux_rows(c, eos_pair, speeds=True)


def _scheme(config):
    """Row kernel, step preparation (rows at the start of a step -> what the
    kernel reuses, and their speeds) and cell system of config.scheme."""
    if config.scheme == "force-godunov":
        return _force_godunov, _force_prepare, _SHTC
    return _muscl_hancock, _decode_prepare, _BN if config.scheme == "muscl-pathcons-bn" else _SHTC


def _checked_rows(invalid, c):
    """Rows c (5, ...) after one scan with the mask `invalid`; a broken
    cell raises StateDecodeError naming it."""
    if np.any(bad := invalid(c)):
        cell = int(np.argmax(bad))
        raise StateDecodeError(
            f"input cell {cell} violates the state invariants: {np.reshape(c, (5, -1))[:, cell]}"
        )
    return c


def step(u, dt, dx, config, eos_pair, t=0.0):
    """One transport step (no relaxation) of cells u (n, 5) in the layout
    of config.scheme: conservative cells, or Baer-Nunziato blocks for
    muscl-pathcons-bn.  The input is checked once, and a broken cell
    raises StateDecodeError naming it in either positivity mode.  Returns
    the new cells (n, 5) and the two boundary fluxes."""
    kernel, _, system = _scheme(config)
    c = _checked_rows(system.invalid, np.asarray(u, dtype=float).T)
    c, fluxes = _advance(kernel, system, c, dt, dx, config, eos_pair, t)
    return np.ascontiguousarray(c.T), fluxes


# ---------------------------------------------------------------------------
# relaxation sources
# ---------------------------------------------------------------------------

RELAX_COUNTERS = ("solves", "newton_iterations", "max_iterations", "roundoff_stops")


def _equilibrium_alpha(alpha0, m1, m2, dt, theta1, eos_pair, tol=1e-13, counts=None):
    """Advance dalpha1/dt = (p1 - p2)/theta1 implicitly (or project to
    p1 = p2 for theta1 below the stiff threshold), partial masses
    frozen.  Safeguarded Newton on the increasing residual
    mu (alpha - alpha0) - (p1 - p2), mu = theta1/dt (0 when projecting),
    with the root bracketed in (0, 1): a step that leaves the bracket,
    or is not finite, bisects it.

    The first residual is evaluated on every cell; after that only the
    cells still iterating are, gathered into one work array that sheds
    a cell as soon as it stops.  A cell stops when it meets the
    tolerance tol * max(|p1|, |p2|, mu), or at round-off: when its
    update leaves x unchanged or no double lies strictly inside its
    bracket, so that its iterates could only repeat.  Each cell's
    iterates are those of a solve of that cell alone.  The bracket
    [1e-14, 1 - 1e-14] keeps alpha, and so both densities, positive,
    and the unchecked EOS formulas serve.  `counts`, a dict over
    RELAX_COUNTERS, accumulates the solves, the Newton iterations (in
    total and the most in one solve) and the cells stopped at round-off
    short of the tolerance."""
    mu = 0.0 if theta1 < RELAX_PROJECTION_FACTOR * dt else theta1 / dt
    fscale_floor = max(mu, 1e-300)
    pressure1, pressure2 = eos_pair.phase1._pressure, eos_pair.phase2._pressure
    ssq1, ssq2 = eos_pair.phase1._sound_speed_sq, eos_pair.phase2._sound_speed_sq

    def residual(x, f, rho1, rho2, y, m1, m2, a0):
        # writes f, the densities and y = 1 - x at x into their rows and
        # returns the mask of the cells that meet the tolerance
        np.divide(m1, x, out=rho1)
        np.divide(m2, np.subtract(1.0, x, out=y), out=rho2)
        p1 = pressure1(rho1)
        p2 = pressure2(rho2)
        np.subtract(mu * (x - a0), p1 - p2, out=f)
        # a NaN residual meets no tolerance
        return np.abs(f) <= tol * np.maximum(np.maximum(np.abs(p1), np.abs(p2)), fscale_floor)

    # work rows: x, its bracket lo and hi, then f, rho1, rho2 and 1 - x
    # at x, then the frozen m1, m2 and alpha0
    work = np.empty((10, np.size(alpha0)))
    np.clip(alpha0, 1e-12, 1.0 - 1e-12, out=work[0])
    work[1] = 1e-14
    work[2] = 1.0 - 1e-14
    work[7:] = m1, m2, alpha0
    alpha = work[0]  # the answer on every cell; the gathers copy
    cells = np.flatnonzero(~residual(work[0], *work[3:]))
    work = work.take(cells, axis=1)
    roundoff = 0
    for iterations in range(200):
        if not cells.size:
            break
        x, lo, hi, f, rho1, rho2, y, m1, m2, a0 = work
        # x lies in [lo, hi], so it replaces the bound on its side
        above = f > 0.0
        np.copyto(hi, x, where=above)
        np.copyto(lo, x, where=~above)
        xn = x - f / (mu + ssq1(rho1) * m1 / x**2 + ssq2(rho2) * m2 / y**2)
        xn = np.where((xn >= lo) & (xn <= hi), xn, 0.5 * (lo + hi))  # NaN and inf bisect
        stuck = (xn == x) | (np.nextafter(lo, hi) >= hi)
        x[:] = xn
        met = residual(x, f, rho1, rho2, y, m1, m2, a0)
        done = met | stuck
        if stopped := np.count_nonzero(done):
            alpha[cells] = x
            roundoff += stopped - np.count_nonzero(met)
            keep = ~done
            cells = cells[keep]
            work = work.compress(keep, axis=1)
    else:
        raise RelaxationError("pressure relaxation solve did not converge")
    if counts is not None:
        counts["solves"] += 1
        counts["newton_iterations"] += iterations
        counts["max_iterations"] = max(counts["max_iterations"], iterations)
        counts["roundoff_stops"] += int(roundoff)
    return alpha


def _relaxed(alpha1, m1, m2, w, dt, config, eos_pair, counts):
    """alpha1 and the slip w after the relaxation sources over dt, the
    partial masses m1, m2 frozen; `counts` goes to _equilibrium_alpha."""
    if config.theta2 is not None:
        rho = m1 + m2
        if config.theta2 < RELAX_PROJECTION_FACTOR * dt:
            w = np.zeros_like(w)
        else:
            w = w * np.exp(-(m1 / rho) * (m2 / rho) * dt / config.theta2)
    if config.theta1 is not None:
        alpha1 = _equilibrium_alpha(alpha1, m1, m2, dt, config.theta1, eos_pair, counts=counts)
    return alpha1, w


def _relax_cons(c, dt, config, eos_pair, counts):
    # only w1 = alpha1 rho and w5 = w change
    alpha1, w = _relaxed(c[0] / c[2], c[1], c[2] - c[1], c[4], dt, config, eos_pair, counts)
    return np.stack((alpha1 * c[2], c[1], c[2], c[3], w))


def _relax_bn(b, dt, config, eos_pair, counts):
    # alpha1 changes, and q1, q2 move to m1 (u + c2 w), m2 (u - c1 w)
    # around the fixed mixture velocity u = (q1 + q2)/rho
    alpha1, m1, m2, q1, q2 = b
    alpha1, w = _relaxed(alpha1, m1, m2, q1 / m1 - q2 / m2, dt, config, eos_pair, counts)
    u = (q1 + q2) / (m1 + m2)
    slip = m1 * m2 * w / (m1 + m2)  # m1 c2 w = m2 c1 w
    return np.stack((alpha1, m1, m2, m1 * u + slip, m2 * u - slip))


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
    cell sums times dx, summed pairwise along contiguous rows; for
    source-free components the change must balance the time-integrated
    boundary fluxes to round-off.
    """
    if x0 is None:
        x0 = 0.5 * (grid.x_min + grid.x_max)
    dx = grid.dx
    kernel, prepare, system = _scheme(config)
    prepare = _decode_prepare if config.relaxing else prepare  # a half step stales reuse
    # cells stay contiguous rows (5, n) until the final decode; they are
    # checked here once, and after that each stage checks what it makes
    cells = _checked_rows(system.invalid, system.encode(_riemann_cells(left, right, grid, x0).T))

    t = 0.0
    steps = 0
    totals0 = total = cells.sum(axis=1) * dx
    relax_delta = np.zeros(5)
    relax_counts = dict.fromkeys(RELAX_COUNTERS, 0)

    def relax(c, total, dt):
        c = system.relax(c, dt, config, eos_pair, relax_counts)
        relaxed = c.sum(axis=1) * dx
        relax_delta[:] += relaxed - total
        return c, relaxed
    # one row per step, settled into the ledger at the end: the total before
    # transport, the sums and absolute sums after it, f_right - f_left, dt
    book = np.empty((256, 21))
    smax_prev = None
    t_wall = _time.perf_counter()
    # a positive t_end takes at least one step, however small
    while t < config.t_end - min(1e-15 * max(1.0, config.t_end), 0.5 * config.t_end):
        reuse, speeds = prepare(system, cells, eos_pair)
        smax = float(speeds.max())
        if smax_prev is not None and smax > WAVESPEED_GROWTH_GUARD * smax_prev:
            raise PositivityError(
                f"max wave speed grew from {smax_prev:.6g} to {smax:.6g} in one step "
                f"(guard factor {WAVESPEED_GROWTH_GUARD}); t={t:.6g}, step={steps}",
                time=t,
            )
        smax_prev = smax
        dt = min(config.cfl * dx / smax, config.t_end - t)

        if config.relaxing:
            cells, total = relax(cells, total, 0.5 * dt)

        if steps == len(book):
            book = np.concatenate([book, np.empty_like(book)])
        row = book[steps]
        row[:5], row[20] = total, dt
        cells, fluxes = _advance(kernel, system, cells, dt, dx, config, eos_pair, t, reuse)
        cells.sum(axis=1, out=row[5:10])
        np.abs(cells).sum(axis=1, out=row[10:15])
        np.subtract(fluxes[1], fluxes[0], out=row[15:20])
        total = row[5:10] * dx

        if config.relaxing:
            cells, total = relax(cells, total, 0.5 * dt)

        t += dt
        steps += 1

    # totals of signed fields can cancel to zero, so each closure is scaled
    # by the L1 mass; the boundary integral accumulates in step order
    book, view = book[:steps], system.conserved_view
    after, dt = book[:, 5:10] * dx, book[:, 20:]
    closure = view(after - book[:, :5]) + dt * view(book[:, 15:20])
    scale = np.maximum(np.abs(view(after)), view(book[:, 10:15] * dx))
    closure = np.abs(closure) / np.maximum(scale, 1e-30)
    boundary = np.add.accumulate(np.concatenate([np.zeros((1, 5)), dt * book[:, 15:20]]))
    ledger = {
        "time": t,
        "totals": total.tolist(),
        "totals_initial": totals0.tolist(),
        "boundary_flux_integrals": boundary[-1].tolist(),
        "relaxation_source_integrals": relax_delta.tolist(),
        "worst_step_closure": float(np.max(closure, initial=0.0)),
        "variables": list(system.variables),
        "wall_seconds": _time.perf_counter() - t_wall,
        "steps": steps,
        # the last step is cut to reach t_end; None when no step was taken
        "dt_min": float(np.min(dt)) if steps else None,
        "dt_max": float(np.max(dt)) if steps else None,
        # counters of the run's pressure relaxation solves (all 0 without theta1)
        "telemetry": {"relax": relax_counts},
    }
    prim = np.stack(system.decode(cells), axis=-1)
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
    """run_simulation for every config, in config order: each config after
    the first in a forked worker process, all of them started before this
    process runs configs[0], and their results read back in config order.

    A worker inherits its job through the fork (no callable is pickled,
    so a profiler's rebound functions run there too) and sends back only
    its result or its error; the error is raised here with its type,
    message and attributes.  A worker that ends without an answer raises
    NumericsError naming its scheme.  Whatever error leaves, the workers
    still running are terminated and joined first.
    """
    import multiprocessing

    if not configs:
        return []
    fork = multiprocessing.get_context("fork")
    workers = []  # (read end of the pipe, process), one per config after the first
    try:
        for config in configs[1:]:
            recv, send = fork.Pipe(duplex=False)
            proc = fork.Process(target=_simulate_into,
                                args=(send, left, right, grid, config, eos_pair, x0))
            proc.start()
            send.close()  # the worker holds the only write end, so its death reads as EOF
            workers.append((recv, proc))
        results = [run_simulation(left, right, grid, configs[0], eos_pair, x0)]
        for config, (recv, proc) in zip(configs[1:], workers):
            try:
                outcome = recv.recv()
            except EOFError:
                outcome = None
            proc.join()
            if outcome is None:
                raise NumericsError(
                    f"{config.scheme} worker ended (exit code {proc.exitcode}) "
                    "without a result"
                )
            if isinstance(outcome, Exception):
                raise outcome
            results.append(outcome)
    finally:
        for recv, proc in workers:
            proc.terminate()  # a no-op on a worker already joined
            proc.join()
            recv.close()
    return results

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
row stepper (`_advance`) serves the driver and the public `step`, whose
(n, 5) cells take the layout of `config.scheme`.  The driver holds cells
as contiguous (5, n) rows from encode to the final decode, fluxes and
speeds come straight from rows, each stage checks what it makes once,
and only `step` checks its input.  A broken stage raises PositivityError
in strict mode; floor mode lowers its order (conservatively at the update).

Pressure and velocity relaxation enter as Strang-split half steps
around each transport step, taken on the cell rows by `_System.relax`.
The velocity sub-step integrates dw/dt = -c1*c2*w/theta2 exactly; the
pressure sub-step solves dalpha1/dt = (p1 - p2)/theta1 implicitly in
alpha1 (its theta1 -> 0 end is the instantaneous pressure relaxation of
Saurel & Abgrall 1999) by safeguarded Halley steps, with both residual
derivatives in closed form from the power law, on the cells that its
first residual leaves unconverged, gathered once.  Both project for
theta below 1e-6*dt.  They rewrite alpha1*rho and w of conservative
cells and alpha1, q1 and q2 of Baer-Nunziato blocks: masses stay bit for
bit, q1 + q2 to round-off.  ledger["telemetry"]["relax"] counts the
pressure solves, their Halley updates and their round-off stops.

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
    _cons_flux_rows, _cons_rows, _invalid_cons, _max_wavespeed_rows, _or_nonfinite, _phase_terms,
    _prim_rows, prim_to_cons_array,
)

RELAX_PROJECTION_FACTOR = 1e-6  # theta < factor*dt switches to projection
RELAX_TOL = 1e-13  # relative residual at which the pressure-relaxation solve stops
WAVESPEED_GROWTH_GUARD = 1.5  # max|lambda| growth in a step: the driver aborts, floor lowers order

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
    positivity: str = "strict"  # or "floor": lower the order of a broken stage, never raise

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

def _bn_rows(v):
    alpha1, rho1, rho2, u1, u2 = v
    m1 = alpha1 * rho1
    m2 = (1.0 - alpha1) * rho2
    return alpha1, m1, m2, m1 * u1, m2 * u2


def _bn_prim_rows(b):
    alpha1, m1, m2, q1, q2 = b
    return alpha1, m1 / alpha1, m2 / (1.0 - alpha1), q1 / m1, q2 / m2


def _bn_flux(b, eos_pair, speeds=False):
    """Conservative part of the Baer-Nunziato flux of blocks b, unchecked:
    (0, q1, q2, q1 u1 + alpha1 p1, q2 u2 + alpha2 p2), u_k = q_k/m_k, with alpha_k
    p_k and a_k^2 from one power (state._phase_terms); speeds=True adds max |lambda|."""
    alpha1, m1, m2, q1, q2 = b
    u1, u2 = q1 / m1, q2 / m2
    ap1, a1sq, _ = _phase_terms(eos_pair.phase1, m1, alpha1)
    ap2, a2sq, _ = _phase_terms(eos_pair.phase2, m2, 1.0 - alpha1)
    f = np.empty(np.shape(b))
    f[0], f[1], f[2] = 0.0, q1, q2
    np.add(q1 * u1, ap1, out=f[3])
    np.add(q2 * u2, ap2, out=f[4])
    return (f, np.maximum(np.abs(u1) + np.sqrt(a1sq), np.abs(u2) + np.sqrt(a2sq))) if speeds else f


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


@dataclass(frozen=True)
class _System:
    """What the MUSCL-Hancock kernel and run_simulation need of a cell
    layout, on rows (5, ...) with the component first.  The kernel checks
    `invalid` once per stage (reconstruction, half step, update) and takes
    face fluxes and speeds from `flux` on the rows it passed, decoding
    none.  Entries look their helpers up by module-level name at call
    time, so a rebinding of those names (by a profiler, say) reaches
    every call."""

    decode: Callable  # rows -> primitive rows, unchecked
    encode: Callable  # primitive rows -> cell rows (5, n)
    relax: Callable  # (c, dt, config, eos_pair, counts): rows after the relaxation sources
    flux: Callable  # (c, eos_pair, speeds=False): flux rows of rows c [and max |lambda|]
    nonconservative: Optional[Callable]  # (cl, cr, eos_pair): product on the path cl -> cr
    invalid: Callable  # rows -> mask of broken state invariants
    conserved_view: Callable  # the components of (..., 5) the ledger closure balances
    variables: tuple  # names of the five cell components


_SHTC = _System(
    decode=lambda c: _prim_rows(c),
    encode=lambda v: np.stack(_cons_rows(v)),
    relax=lambda c, dt, config, eos_pair, counts: _relax_cons(c, dt, config, eos_pair, counts),
    flux=lambda c, eos_pair, speeds=False: _cons_flux_rows(c, eos_pair, speeds),
    nonconservative=None,
    invalid=lambda c: _invalid_cons(c),
    conserved_view=lambda vec: np.asarray(vec),
    variables=("alpha1*rho", "alpha1*rho1", "rho", "rho*u", "w"),
)

# alpha1 and the phase momenta are not conservative; closure is checked
# on the masses and the momentum sum
_BN = _System(
    decode=lambda b: _bn_prim_rows(b),
    encode=lambda v: np.stack(_bn_rows(v)),
    relax=lambda b, dt, config, eos_pair, counts: _relax_bn(b, dt, config, eos_pair, counts),
    flux=lambda b, eos_pair, speeds=False: _bn_flux(b, eos_pair, speeds),
    nonconservative=lambda bl, br, eos_pair: _bn_nonconservative(bl, br, eos_pair),
    invalid=lambda b: _invalid_bn(b),
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


def _force(l, r, dx, dt, eos_pair, positivity, t):
    """FORCE flux rows (Toro & Billett 2000) of the faces joining stacked
    cell and flux rows l = [cl; fl] to r = [cr; fr] (10, ...): the mean of
    the Lax-Friedrichs flux and the flux at the two-step Lax-Wendroff
    midpoint, both from one half-sum and one difference of the stacks.
    A face whose midpoint breaks the state invariants raises
    PositivityError in strict mode and takes the Lax-Friedrichs flux
    alone in floor mode."""
    half, jump = 0.5 * (l + r), r - l
    f_lf = half[5:] - 0.5 * (dx / dt) * jump[:5]
    c_lw = half[:5] - 0.5 * (dt / dx) * jump[5:]
    bad = _invalid_cons(c_lw)
    if masked := _fallback(bad, c_lw, positivity, t, "FORCE midpoint", "Lax-Friedrichs flux on",
                           "face", first=1):
        c_lw[:, bad] = l[:5, bad]  # any valid state: its flux is not used
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
    if not np.count_nonzero(bad):  # a third of what bad.any() costs
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


def _muscl_hancock(system, c, dt, dx, config, eos_pair, t, reuse=None):
    """One second-order MUSCL-Hancock update of the interior cells
    (Toro, ch. 14) in path-conservative form (Pares 2006):

        c - dt/dx (F_{i+1/2} - F_{i-1/2} + (P_{i-1/2} + P_{i+1/2})/2 + P_i)

    with Rusanov fluxes F between the half-evolved face states, the
    products P_{i+-1/2} along the segments joining them and the in-cell
    product P_i; the P terms vanish for a conservative system.  Cells c
    are rows (5, n), `reuse` is unused; both face states of every cell,
    ghosts included, are held as faces[:, 0] (left) and faces[:, 1]
    (right), checked once per stage and never decoded.  Returns F and the
    products P_{i+-1/2} and P_i (None for a conservative system).
    """
    cp = np.concatenate([c[:, :1], c[:, :1], c, c[:, -1:], c[:, -1:]], axis=1)  # transmissive
    mid = cp[:, 1:-1]
    half = 0.5 * limited_slope(mid - cp[:, :-2], cp[:, 2:] - mid, config.limiter)
    faces = np.empty((5, 2, mid.shape[1]))
    np.subtract(mid, half, out=faces[:, 0])
    np.add(mid, half, out=faces[:, 1])
    # component-wise TVD slopes can break the cross-component invariants near extreme
    # jumps; strict mode aborts, floor mode drops the offending cells to first order
    bad = system.invalid(faces)
    if _fallback(bad := bad[0] | bad[1], faces, config.positivity, t, "reconstruction",
                 "first order in", first=-1):
        faces[:, :, bad] = mid[:, None, bad]
    f = system.flux(faces, eos_pair)
    drift = f[:, 1] - f[:, 0]
    if system.nonconservative is not None:
        drift += system.nonconservative(faces[:, 0], faces[:, 1], eos_pair)
    faces_h = faces - (0.5 * (dt / dx) * drift)[:, None]
    bad = system.invalid(faces_h)
    if _fallback(bad := bad[0] | bad[1], faces_h, config.positivity, t, "half step",
                 "half step dropped in", first=-1):
        faces_h[:, :, bad] = faces[:, :, bad]
    # interface i+1/2 joins the right face of cell i to the left face of i+1
    f, s = system.flux(faces_h, eos_pair, speeds=True)
    cl, cr = faces_h[:, 1, :-1], faces_h[:, 0, 1:]
    flux = _rusanov(cl, cr, f[:, 1, :-1], f[:, 0, 1:], s[1, :-1], s[0, 1:])
    if system.nonconservative is None:
        return flux, None, None
    # faces in x order, FR_0 FL_1 FR_1 ... FR_n FL_n+1: even segments are interfaces, odd cells
    path = np.empty((5, 2 * cl.shape[1]))
    path[:, 0::2], path[:, 1::2] = cl, cr
    p = system.nonconservative(path[:, :-1], path[:, 1:], eos_pair)
    return flux, p[:, 0::2], p[:, 1::2]


def _advance(kernel, system, c, dt, dx, config, eos_pair, t, reuse=None, smax=None):
    """Update valid cell rows c (5, n) by dt with a row kernel's face terms
    and check the new rows once; `reuse`, what the step preparation made
    of c if at hand, spares the kernel that work.  Strict mode raises at a
    broken cell.  Floor mode decrements orders a posteriori (MOOD: Clain,
    Diot & Loubere 2011): a cell that breaks its invariants or outruns
    WAVESPEED_GROWTH_GUARD times smax, the fastest input cell's max
    |lambda|, goes up a level; a face takes its cells' higher level (0 the
    kernel's terms; 1 the input cells' first-order Rusanov flux and path
    product, and no in-cell product; 2 none), and the update is redone
    until no cell is flagged; no level map is made before the first flag.
    Every level is shared by a face's two cells, so floor mode conserves,
    and a level-2 cell keeps its valid input.  Returns the new rows, the
    two boundary fluxes and, in floor mode, the new rows' max |lambda|."""
    kept = flux, p_face, p_cell = kernel(system, c, dt, dx, config, eos_pair, t, reuse)
    level, passes, speeds = 0, 0, None
    while True:
        div = flux[:, 1:] - flux[:, :-1]
        if p_face is not None:
            div = div + 0.5 * (p_face[:, :-1] + p_face[:, 1:]) + p_cell
        c_new = c - (dt / dx) * div
        bad = system.invalid(c_new)
        if config.positivity == "strict":
            _fallback(bad, c_new, "strict", t, "update", None)
            break
        if smax is None:
            smax = float(_max_wavespeed_rows(system.decode(c), eos_pair).max())
        with np.errstate(all="ignore"):  # the speed of a broken cell is not read
            speeds = _max_wavespeed_rows(system.decode(c_new), eos_pair)
        fast = speeds > WAVESPEED_GROWTH_GUARD * smax
        flag = (bad | fast) & (level < 2)
        if not flag.any():
            break
        if not passes:  # the first-order terms, from the input cells and their ghosts
            cp = np.concatenate([c[:, :1], c, c[:, -1:]], axis=1)
            cl, cr = cp[:, :-1], cp[:, 1:]
            f, s = system.flux(cp, eos_pair, speeds=True)
            first = (_rusanov(cl, cr, f[:, :-1], f[:, 1:], s[:-1], s[1:]),
                     None if p_face is None else system.nonconservative(cl, cr, eos_pair), 0.0)
        level += flag
        passes += 1
        ghosted = np.concatenate([level[:1], level, level[-1:]])
        face = np.maximum(ghosted[:-1], ghosted[1:])
        flux, p_face, p_cell = (k if k is None else np.where(at == 0, k, np.where(at == 1, lo, 0))
                                for k, lo, at in zip(kept, first, (face, face, level)))
    if passes:
        _log.warning("lowered the face order of %d cells in %d passes at t=%g (update)",
                     np.count_nonzero(level), passes, t)
    return c_new, (flux[:, 0], flux[:, -1]), speeds


def _force_godunov(system, c, dt, dx, config, eos_pair, t, f=None):
    """First-order FORCE face fluxes (no products) of conservative rows c,
    of flux rows f if the step preparation made them.  A transmissive edge
    face joins two equal states, so its FORCE flux is the edge cell's own
    flux (0.5 (f + f) - 0, the midpoint is the cell): only the interior
    faces are evaluated, on the stacked rows [c; f]."""
    f = _cons_flux_rows(c, eos_pair) if f is None else f
    cf = np.concatenate([c, f])
    inner = _force(cf[:, :-1], cf[:, 1:], dx, dt, eos_pair, config.positivity, t)
    return np.concatenate([f[:, :1], inner, f[:, -1:]], axis=1), None, None


def _decode_prepare(system, c, eos_pair, speeds=None):
    return None, _max_wavespeed_rows(system.decode(c), eos_pair) if speeds is None else speeds


def _force_prepare(system, c, eos_pair, speeds=None):  # needs the flux rows anyway
    return _cons_flux_rows(c, eos_pair, speeds=True)


def _scheme(config):
    """Row kernel, step preparation (rows at the start of a step, and their
    speeds if the last update took them -> what the kernel reuses, and
    their speeds) and cell system of config.scheme."""
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
    c, fluxes, _ = _advance(kernel, system, c, dt, dx, config, eos_pair, t)
    return np.ascontiguousarray(c.T), fluxes


# ---------------------------------------------------------------------------
# relaxation sources
# ---------------------------------------------------------------------------

RELAX_COUNTERS = ("solves", "newton_iterations", "max_iterations", "roundoff_stops")


def _equilibrium_alpha(alpha0, m1, m2, dt, theta1, eos_pair, counts=None):
    """Advance dalpha1/dt = (p1 - p2)/theta1 implicitly (or project to
    p1 = p2 for theta1 below the stiff threshold), partial masses
    frozen.  Safeguarded Halley steps x - f f'/(f'^2 - f f''/2) on the
    increasing residual f = mu (x - alpha0) - (p1 - p2), mu = theta1/dt
    (0 when projecting), with the root bracketed in (0, 1): a step that
    leaves the bracket, or is not finite, bisects it.  Both derivatives
    come from the residual's one power per phase: with y = 1 - x and
    t_k = gamma_k P_k/(x, y), P_k = p_k - B_k the B-free pressures,
    f' = mu + t1 + t2 and f'' = (gamma2 + 1) t2/y - (gamma1 + 1) t1/x.

    The cells whose first residual misses the tolerance RELAX_TOL *
    max(|p1|, |p2|, mu) are gathered once and iterated until each
    stops, at the tolerance or at round-off (its update leaves x
    unchanged or no double lies strictly inside its bracket), and then
    its x is frozen; so each cell's iterates are those of a solve of
    that cell alone.  The bracket [1e-14, 1 - 1e-14] keeps both
    densities positive, and the unchecked EOS formulas serve.  `counts`,
    a dict over RELAX_COUNTERS, accumulates the solves, the Halley
    updates (`newton_iterations`: in total and the most in one solve)
    and the cells stopped at round-off short of the tolerance."""
    mu = 0.0 if theta1 < RELAX_PROJECTION_FACTOR * dt else theta1 / dt
    fscale_floor = max(mu, 1e-300)
    e1, e2 = eos_pair.phase1, eos_pair.phase2

    def residual(x, m1, m2, a0):
        # f, rho_k**gamma_k, y = 1 - x and which cells meet the tolerance (NaN: none)
        y = 1.0 - x
        r1, r2 = (m1 / x) ** e1.gamma, (m2 / y) ** e2.gamma
        p1, p2 = e1._p_scale * r1, e2._p_scale * r2  # B-free; adding B = 0 changes no p >= +0
        p1, p2 = p1 + e1.B if e1.B else p1, p2 + e2.B if e2.B else p2
        f = mu * (x - a0) - (p1 - p2)
        met = np.abs(f) <= RELAX_TOL * np.maximum(np.maximum(np.abs(p1), np.abs(p2)), fscale_floor)
        return f, r1, r2, y, met

    alpha = np.minimum(np.maximum(alpha0, 1e-12), 1.0 - 1e-12)
    *at_x, met = residual(alpha, m1, m2, alpha0)
    cells = np.flatnonzero(~met)
    x, m1, m2, a0, f, r1, r2, y = [v[cells] for v in (alpha, m1, m2, alpha0, *at_x)]
    lo, hi = 1e-14, 1.0 - 1e-14
    done = met = np.zeros(cells.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # a vanishing denominator bisects
        for iterations in range(200):
            if np.count_nonzero(done) == cells.size:
                break
            # x lies in [lo, hi], so it replaces the bound on its side
            above = f > 0.0
            lo, hi = np.where(above, lo, x), np.where(above, x, hi)
            t1, t2 = e1._k * r1 / x, e2._k * r2 / y  # _k = gamma _p_scale: gamma_k P_k/(x, y)
            d1, d2 = mu + t1 + t2, (e2.gamma + 1.0) * t2 / y - (e1.gamma + 1.0) * t1 / x
            xn = x - f * d1 / (d1 * d1 - 0.5 * f * d2)
            xn = np.where((xn >= lo) & (xn <= hi), xn, 0.5 * (lo + hi))  # NaN and inf bisect
            stuck = (xn == x) | (np.nextafter(lo, hi) >= hi)
            x = np.where(done, x, xn)
            f, r1, r2, y, met = residual(x, m1, m2, a0)
            done = done | met | stuck
        else:
            raise RelaxationError("pressure relaxation solve did not converge")
    alpha[cells] = x
    if counts is not None:
        counts["solves"] += 1
        counts["newton_iterations"] += iterations
        counts["max_iterations"] = max(counts["max_iterations"], iterations)
        # a frozen x repeats its residual: the cells left unmet stopped at round-off
        counts["roundoff_stops"] += int(cells.size - np.count_nonzero(met))
    return alpha


def _relaxed(alpha1, m1, m2, w, dt, config, eos_pair, counts):
    """alpha1 and the slip w after the relaxation sources over dt, the
    partial masses m1, m2 frozen; `counts` goes to _equilibrium_alpha."""
    if config.theta2 is not None:  # projected below the stiff threshold, else decayed exactly
        rho = m1 + m2
        w = (np.zeros_like(w) if config.theta2 < RELAX_PROJECTION_FACTOR * dt
             else w * np.exp(-(m1 / rho) * (m2 / rho) * dt / config.theta2))
    if config.theta1 is not None:
        alpha1 = _equilibrium_alpha(alpha1, m1, m2, dt, config.theta1, eos_pair, counts=counts)
    return alpha1, w


def _relax_cons(c, dt, config, eos_pair, counts):
    # in a copy of c, w1 = alpha1 rho changes under theta1 and w5 = w under theta2
    out = c.copy()
    alpha1, out[4] = _relaxed(c[0] / c[2], c[1], c[2] - c[1], c[4], dt, config, eos_pair, counts)
    if config.theta1 is not None:
        out[0] = alpha1 * c[2]
    return out


def _relax_bn(b, dt, config, eos_pair, counts):
    # in a copy of b, alpha1 changes under theta1, and under theta2 q1, q2 move
    # to m1 (u + c2 w), m2 (u - c1 w) around the fixed mixture velocity u = (q1 + q2)/rho
    (alpha1, m1, m2, q1, q2), out = b, b.copy()
    out[0], w = _relaxed(alpha1, m1, m2, q1 / m1 - q2 / m2, dt, config, eos_pair, counts)
    if config.theta2 is not None:
        u = (q1 + q2) / (m1 + m2)
        slip = m1 * m2 * w / (m1 + m2)  # m1 c2 w = m2 c1 w
        out[3], out[4] = m1 * u + slip, m2 * u - slip
    return out


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
    return np.where((grid.centers() < x0)[:, None], left.as_array(), right.as_array())


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
    prepare = _decode_prepare if config.relaxing else prepare  # a half step stales reuse, speeds
    # cells stay contiguous rows (5, n) until the final decode; they are
    # checked here once, and after that each stage checks what it makes
    cells = _checked_rows(system.invalid, system.encode(_riemann_cells(left, right, grid, x0).T))

    t, steps = 0.0, 0
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
    smax_prev = speeds = None
    t_wall = _time.perf_counter()
    # a positive t_end takes at least one step, however small
    while t < config.t_end - min(1e-15 * max(1.0, config.t_end), 0.5 * config.t_end):
        reuse, speeds = prepare(system, cells, eos_pair, None if config.relaxing else speeds)
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
        cells, fluxes, speeds = _advance(kernel, system, cells, dt, dx, config, eos_pair, t,
                                         reuse, smax)
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

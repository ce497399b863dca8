"""Elementary wave connectors and admissibility machinery.

Rarefactions of family (mu, -+) keep alpha1 and the other phase frozen
and follow the invariants

    u_mu + int a_mu/rho_mu drho = const   (minus family)
    u_mu - int a_mu/rho_mu drho = const   (plus family)

Shocks keep alpha1 continuous; the phase mass fluxes

    Q_i = -rho_i (u_i - S)

are continuous across the jump as is Q = alpha1*Q1 + alpha2*Q2.  Given
one side and the speed S, the two post densities solve the reduced
momentum / relative-velocity pair

    alpha1*(Q1^2 [[1/rho1]] + [[p1]]) + alpha2*(Q2^2 [[1/rho2]] + [[p2]]) = 0
    Q1^2/2 [[1/rho1^2]] - Q2^2/2 [[1/rho2^2]] + [[Psi1 - Psi2]] = 0

and the velocities follow from [[u_i]] = -Q_i [[1/rho_i]].  Contacts
move with the mixture velocity u, may jump alpha1, and conserve
rho*c1*c2*w, the generalized pressure p_bar = rho*c1*c2*w^2 + p, and
(c2 - c1)*w^2/2 + Psi1 - Psi2.

Jump brackets are oriented right minus left throughout; admissible
shocks produce  -Q [[Psi_1 + (u_1 - S)^2/2]] <= 0.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateShockError,
    InadmissibleWaveError,
    NumericsError,
    OutOfFanError,
)
from .state import (
    ACOUSTIC_KEYS,
    PrimitiveState,
    eigenvalues,
    flux_primitive_array,
    mixture_props,
    prim_to_cons_array,
)

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 100
ZERO_STRENGTH_TOL = 1e-10
COINCIDE_TOL = 1e-9
CONNECTED_TOL = 1e-6  # scaled jump residual entropy_production accepts


@dataclass(frozen=True)
class WaveFamily:
    """Acoustic family (phase, -+1) or the contact sentinel (0, 0)."""

    phase: int
    sign: int

    @property
    def acoustic(self):
        return self.phase in (1, 2)

    @property
    def key(self):
        if not self.acoustic:
            return "C"
        return f"{self.phase}{'+' if self.sign > 0 else '-'}"

    @property
    def other_phase(self):
        return 3 - self.phase

    def eos_of(self, eos_pair):
        return eos_pair[self.phase - 1]

    def rho_of(self, state):
        return state.rho1 if self.phase == 1 else state.rho2

    def u_of(self, state):
        return state.u1 if self.phase == 1 else state.u2

    def speed_of(self, state, eos_pair):
        a = self.eos_of(eos_pair).sound_speed(self.rho_of(state))
        return self.u_of(state) + self.sign * a

    def __str__(self):
        return self.key


F1M = WaveFamily(1, -1)
F1P = WaveFamily(1, +1)
F2M = WaveFamily(2, -1)
F2P = WaveFamily(2, +1)
CONTACT = WaveFamily(0, 0)

_BY_KEY = {f.key: f for f in (F1M, F1P, F2M, F2P, CONTACT)}


def family_from_key(key):
    try:
        return _BY_KEY[key]
    except KeyError:
        raise InadmissibleWaveError(f"unknown wave family {key!r}") from None


def _with_phase(state, phase, rho, u):
    if phase == 1:
        return replace(state, rho1=float(rho), u1=float(u))
    return replace(state, rho2=float(rho), u2=float(u))


# ---------------------------------------------------------------------------
# rarefactions
# ---------------------------------------------------------------------------

def _fan_state(family, eos, rho_edge, u_edge, xi):
    """(rho, u) where the fan through the edge state has characteristic
    speed xi; array-valued in xi.

    For the power law the invariant u -+ int a/rho drho is explicit
    (Toro ch. 4).  With lambda_e = u_e +- a_e the edge characteristic,
    gamma != 1 makes the sound speed linear in xi,

        a = a_e +- (gamma-1)/(gamma+1) (xi - lambda_e),
        rho = rho_e (a/a_e)**(2/(gamma-1)),

    and gamma == 1 (constant a) makes the density exponential,
    rho = rho_e exp(+-(xi - lambda_e)/a_e).  Either way u = xi -+ a.
    """
    sign = family.sign
    a_e = eos.sound_speed(rho_edge)
    lam_e = u_edge + sign * a_e
    gamma = eos.gamma
    with np.errstate(over="ignore"):
        if gamma == 1.0:
            a = a_e
            rho = rho_edge * np.exp(sign * (xi - lam_e) / a_e)
        else:
            a = a_e + sign * (gamma - 1.0) / (gamma + 1.0) * (xi - lam_e)
            if np.any(a <= 0.0):
                raise OutOfFanError(f"speed {xi} beyond the vacuum front of the {family} fan")
            rho = rho_edge * (a / a_e) ** (2.0 / (gamma - 1.0))
    if not np.all(np.isfinite(rho)):
        raise NumericsError(f"{family} fan density not finite at speed {xi}")
    if not np.all(rho > 0.0):
        # the density underflowed: the speed lies at the vacuum front
        raise OutOfFanError(f"speed {xi} beyond the vacuum front of the {family} fan")
    return rho, xi - sign * a


def rarefaction_connect(state, family, target, eos_pair):
    """State on the far side of a fan whose near edge is `state`.

    `target` is the characteristic speed of the far edge.  Walking away
    from the contact the fan must expand: the minus family requires
    target <= lambda(state), the plus family target >= lambda(state);
    density increases toward the target edge.  alpha1 and the other
    phase are not affected.
    """
    if not family.acoustic:
        raise InadmissibleWaveError("rarefactions exist only for acoustic families")
    head = family.speed_of(state, eos_pair)
    scale = max(1.0, abs(head), abs(target))
    if abs(target - head) < ZERO_STRENGTH_TOL * scale:
        return state
    if family.sign < 0 and target > head:
        raise InadmissibleWaveError(
            f"{family} fan would compress: target {target} > head {head}"
        )
    if family.sign > 0 and target < head:
        raise InadmissibleWaveError(
            f"{family} fan would compress: target {target} < head {head}"
        )
    rho, u = _fan_state(
        family, family.eos_of(eos_pair), family.rho_of(state), family.u_of(state), target
    )
    return _with_phase(state, family.phase, rho, u)


def rarefaction_sample(state, family, xi, eos_pair):
    """In-fan state at similarity coordinate xi.

    `state` is either edge of the fan.  The sampled state satisfies
    lambda_family = xi, i.e. u_mu = xi + a_mu (minus) or xi - a_mu
    (plus).
    """
    if not family.acoustic:
        raise InadmissibleWaveError("only acoustic families carry fans")
    rho, u = _fan_state(
        family, family.eos_of(eos_pair), family.rho_of(state), family.u_of(state), xi
    )
    return _with_phase(state, family.phase, rho, u)


# ---------------------------------------------------------------------------
# shocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShockData:
    """Mass fluxes and entropy production of a connected shock.

    Q, Q1, Q2 are continuous across the jump; Q never vanishes for a
    shock (u = S would make it a contact).  `entropy_production` is
    -Q [[Psi1 + (u1-S)^2/2]] with the bracket oriented right minus
    left; admissible shocks give values <= 0.
    """

    speed: float
    Q: float
    Q1: float
    Q2: float
    entropy_production: float


def _shock_residuals(x, pre, alpha1, Q1, Q2, eos_pair):
    r1, r2 = x
    e1, e2 = eos_pair.phase1, eos_pair.phase2
    alpha2 = 1.0 - alpha1
    f1 = alpha1 * (Q1**2 * (1.0 / r1 - 1.0 / pre.rho1) + e1.pressure(r1) - e1.pressure(pre.rho1)) \
        + alpha2 * (Q2**2 * (1.0 / r2 - 1.0 / pre.rho2) + e2.pressure(r2) - e2.pressure(pre.rho2))
    f2 = 0.5 * Q1**2 * (1.0 / r1**2 - 1.0 / pre.rho1**2) \
        - 0.5 * Q2**2 * (1.0 / r2**2 - 1.0 / pre.rho2**2) \
        + (e1.psi(r1) - e1.psi(pre.rho1)) - (e2.psi(r2) - e2.psi(pre.rho2))
    return np.array([f1, f2])


def _shock_jacobian(x, alpha1, Q1, Q2, eos_pair):
    r1, r2 = x
    alpha2 = 1.0 - alpha1
    a1sq = eos_pair.phase1.sound_speed_sq(r1)
    a2sq = eos_pair.phase2.sound_speed_sq(r2)
    return np.array(
        [
            [alpha1 * (a1sq - Q1**2 / r1**2), alpha2 * (a2sq - Q2**2 / r2**2)],
            [(a1sq - Q1**2 / r1**2) / r1, -(a2sq - Q2**2 / r2**2) / r2],
        ]
    )


def _shock_scales(pre, alpha1, Q1, Q2, eos_pair):
    e1, e2 = eos_pair.phase1, eos_pair.phase2
    alpha2 = 1.0 - alpha1
    s1 = alpha1 * (Q1**2 / pre.rho1 + abs(e1.pressure(pre.rho1))) \
        + alpha2 * (Q2**2 / pre.rho2 + abs(e2.pressure(pre.rho2))) \
        + alpha1 * pre.rho1 * e1.sound_speed_sq(pre.rho1) \
        + alpha2 * pre.rho2 * e2.sound_speed_sq(pre.rho2)
    s2 = 0.5 * Q1**2 / pre.rho1**2 + 0.5 * Q2**2 / pre.rho2**2 \
        + abs(e1.psi(pre.rho1)) + abs(e2.psi(pre.rho2)) \
        + e1.sound_speed_sq(pre.rho1) + e2.sound_speed_sq(pre.rho2)
    return np.array([max(s1, 1e-300), max(s2, 1e-300)])


def _damped_newton(residual, jacobian, x0, scales, what):
    """Newton on residual(x) = 0, halving each step until the max-norm
    of residual/scales falls and both phase densities x[0], x[1] stay
    positive.  Raises NumericsError unless that error ends below 1e-9."""
    x = np.array(x0, dtype=float)
    f = residual(x)
    err = np.max(np.abs(f) / scales)
    for _ in range(NEWTON_MAXITER):
        if err < NEWTON_TOL:
            return x
        try:
            step = np.linalg.solve(jacobian(x), -f)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        for _ in range(25):
            xn = x + lam * step
            if xn[0] > 0.0 and xn[1] > 0.0:
                fn = residual(xn)
                errn = np.max(np.abs(fn) / scales)
                if errn < err or errn < NEWTON_TOL:
                    x, f, err = xn, fn, errn
                    break
            lam *= 0.5
        else:
            break
    if err < 1e-9:
        return x
    raise NumericsError(f"{what} Newton did not converge", residual=float(err))


def _weak_shock_guess(pre, family, S, eos_pair):
    eos = family.eos_of(eos_pair)
    rho = family.rho_of(pre)
    a = eos.sound_speed(rho)
    G = eos.fundamental_derivative(rho)
    dlam = 2.0 * (S - family.speed_of(pre, eos_pair))
    drho = family.sign * dlam * rho / (a * G)
    rho_g = rho + drho
    if rho_g <= 0.05 * rho:
        rho_g = 0.05 * rho
    guess = [pre.rho1, pre.rho2]
    guess[family.phase - 1] = rho_g
    return np.array(guess)


def _post_state(state, x, S):
    Q1 = -state.rho1 * (state.u1 - S)
    Q2 = -state.rho2 * (state.u2 - S)
    r1, r2 = float(x[0]), float(x[1])
    return PrimitiveState(state.alpha1, r1, r2, S - Q1 / r1, S - Q2 / r2)


def _orient(state, post, post_side, lam_pre, S):
    if post_side is None:
        # Lax orientation: the side whose family characteristic runs
        # faster than the shock sits on the left
        post_side = "right" if lam_pre > S else "left"
    return (post, state) if post_side == "left" else (state, post)


def shock_connect(state, family, S, eos_pair, post_side=None, initial_guess=None):
    """Connect across a shock of `family` with speed S given one side.

    Returns (post_state, ShockData).  alpha1 is continuous; both phase
    densities jump.  When the known side sits on a sonic point of the
    other phase (|Q_nu| = rho_nu a_nu, as happens for a shock placed
    inside that phase's fan) the jump system bifurcates; candidate
    roots are collected from displaced starts and an evolutionary pair
    is preferred (the branch a continuation from a weak shock tracks).
    `post_side` ("left"/"right") orients the jump bracket of the
    entropy production; by default the known side goes left when its
    family characteristic outruns the shock (the Lax orientation).
    `initial_guess` pins the first Newton start (branch control), and
    the first root found is kept.
    """
    if not family.acoustic:
        raise InadmissibleWaveError("shock family must be acoustic")
    u_mix = state.u
    if abs(S - u_mix) < 1e-12 * max(1.0, abs(S), abs(u_mix)):
        raise InadmissibleWaveError(
            "u = S discontinuities are contacts; shocks must have u != S"
        )
    Q1 = -state.rho1 * (state.u1 - S)
    Q2 = -state.rho2 * (state.u2 - S)
    lam_pre = family.speed_of(state, eos_pair)
    strength = abs(S - lam_pre) / max(1.0, abs(S), abs(lam_pre))
    if strength < ZERO_STRENGTH_TOL:
        raise DegenerateShockError(
            f"requested {family} shock has zero strength (S on the characteristic)"
        )
    alpha1 = state.alpha1
    scales = _shock_scales(state, alpha1, Q1, Q2, eos_pair)
    rho_pre = family.rho_of(state)
    roots = []

    def add_root(x):
        if abs(x[family.phase - 1] - rho_pre) < ZERO_STRENGTH_TOL * rho_pre:
            return False  # collapsed onto the unjumped state
        for r in roots:
            if np.all(np.abs(x - r) <= 1e-8 * np.abs(r)):
                return False
        roots.append(x)
        return True

    def is_evolutionary(x):
        post = _post_state(state, x, S)
        w_l, w_r = _orient(state, post, post_side, lam_pre, S)
        return classify_discontinuity(w_l, w_r, S, eos_pair).evolutionary

    base = _weak_shock_guess(state, family, S, eos_pair)
    starts = [np.asarray(initial_guess, dtype=float)] if initial_guess is not None else []
    starts.append(base)
    # displaced starts along the other phase pick up bifurcated branches
    nu = family.other_phase
    rho_nu = state.rho1 if nu == 1 else state.rho2
    for d in (0.08, -0.08, 0.2, -0.2):
        trial = base.copy()
        trial[nu - 1] = rho_nu * (1.0 + d)
        starts.append(trial)

    x = None
    for x0 in starts:
        try:
            fresh = add_root(_damped_newton(
                lambda y: _shock_residuals(y, state, alpha1, Q1, Q2, eos_pair),
                lambda y: _shock_jacobian(y, alpha1, Q1, Q2, eos_pair),
                x0, scales, "shock",
            ))
        except NumericsError:
            continue
        if not roots:
            continue
        if initial_guess is not None:
            x = roots[0]
            break
        if fresh and is_evolutionary(roots[-1]):
            x = roots[-1]
            break
    if not roots:
        raise DegenerateShockError("shock solve collapses onto the unjumped state")
    if x is None:
        x = roots[0]

    post = _post_state(state, x, S)
    w_l, w_r = _orient(state, post, post_side, lam_pre, S)
    Q = state.alpha1 * Q1 + state.alpha2 * Q2
    production = _entropy_bracket(w_l, w_r, S, eos_pair, Q)
    return post, ShockData(S, Q, Q1, Q2, production)


def shock_mass_flux_system(w_minus, w_plus, alpha1, eos_pair):
    """Squared phase mass fluxes from the 2x2 linear jump system.

    Assembles M from [[1/rho_i]], [[1/rho_i^2]] (brackets right minus
    left); both densities must jump, otherwise det(M) vanishes and the
    jump system is singular.  Returns (Q1^2, Q2^2, det M).
    """
    alpha2 = 1.0 - alpha1
    j_inv1 = 1.0 / w_plus.rho1 - 1.0 / w_minus.rho1
    j_inv2 = 1.0 / w_plus.rho2 - 1.0 / w_minus.rho2
    j_inv1sq = 1.0 / w_plus.rho1**2 - 1.0 / w_minus.rho1**2
    j_inv2sq = 1.0 / w_plus.rho2**2 - 1.0 / w_minus.rho2**2
    det = -0.5 * (alpha1 * j_inv1 * j_inv2sq + alpha2 * j_inv1sq * j_inv2)
    scale = 0.5 * (alpha1 * abs(j_inv1) * abs(j_inv2sq) + alpha2 * abs(j_inv1sq) * abs(j_inv2))
    scale = max(scale, (1.0 / w_minus.rho1**3 + 1.0 / w_minus.rho2**3) * 1e-300)
    if abs(det) <= 1e-14 * max(scale, 1e-300) or scale == 0.0:
        raise DegenerateShockError(
            "mass-flux matrix is singular: a phase density does not jump"
        )
    e1, e2 = eos_pair.phase1, eos_pair.phase2
    jp = alpha1 * (e1.pressure(w_plus.rho1) - e1.pressure(w_minus.rho1)) \
        + alpha2 * (e2.pressure(w_plus.rho2) - e2.pressure(w_minus.rho2))
    jpsi = (e1.psi(w_plus.rho1) - e1.psi(w_minus.rho1)) \
        - (e2.psi(w_plus.rho2) - e2.psi(w_minus.rho2))
    q1sq = (0.5 * j_inv2sq * jp + alpha2 * j_inv2 * jpsi) / det
    q2sq = (0.5 * j_inv1sq * jp - alpha1 * j_inv1 * jpsi) / det
    return float(q1sq), float(q2sq), float(det)


# ---------------------------------------------------------------------------
# contact
# ---------------------------------------------------------------------------

def _contact_targets(state, eos_pair):
    mp = mixture_props(state, eos_pair)
    k = mp.rho * mp.c1 * mp.c2
    e1, e2 = eos_pair.phase1, eos_pair.phase2
    return np.array(
        [
            k * mp.w,
            k * mp.w**2 + mp.p,
            0.5 * (mp.c2 - mp.c1) * mp.w**2 + e1.psi(state.rho1) - e2.psi(state.rho2),
        ]
    )


def _contact_state(alpha1, x, u_mix):
    r1, r2, w = x
    rho = alpha1 * r1 + (1.0 - alpha1) * r2
    c1 = alpha1 * r1 / rho
    c2 = 1.0 - c1
    return PrimitiveState(alpha1, r1, r2, u_mix + c2 * w, u_mix - c1 * w)


def _contact_residuals(x, alpha1, targets, u_mix, eos_pair):
    st = _contact_state(alpha1, x, u_mix)
    return _contact_targets(st, eos_pair) - targets


def _contact_jacobian(x, alpha1, eos_pair):
    r1, r2, w = x
    alpha2 = 1.0 - alpha1
    m1, m2 = alpha1 * r1, alpha2 * r2
    rho = m1 + m2
    c1, c2 = m1 / rho, m2 / rho
    k = rho * c1 * c2
    a1sq = eos_pair.phase1.sound_speed_sq(r1)
    a2sq = eos_pair.phase2.sound_speed_sq(r2)
    dk_dr1 = alpha1 * c2**2
    dk_dr2 = alpha2 * c1**2
    # d(c2 - c1)/drho_i
    dd_dr1 = -2.0 * alpha1 * c2 / rho
    dd_dr2 = +2.0 * alpha2 * c1 / rho
    return np.array(
        [
            [dk_dr1 * w, dk_dr2 * w, k],
            [dk_dr1 * w**2 + alpha1 * a1sq, dk_dr2 * w**2 + alpha2 * a2sq, 2.0 * k * w],
            [0.5 * dd_dr1 * w**2 + a1sq / r1, 0.5 * dd_dr2 * w**2 - a2sq / r2, (c2 - c1) * w],
        ]
    )


def _contact_scales(state, eos_pair):
    mp = mixture_props(state, eos_pair)
    e1, e2 = eos_pair.phase1, eos_pair.phase2
    a1 = e1.sound_speed(state.rho1)
    a2 = e2.sound_speed(state.rho2)
    vs = max(abs(mp.w), a1, a2)
    k = mp.rho * mp.c1 * mp.c2
    return np.array(
        [
            max(abs(k * mp.w), k * vs),
            max(abs(mp.p_bar), abs(mp.p), k * vs**2),
            max(abs(e1.psi(state.rho1)) + abs(e2.psi(state.rho2)), vs**2, a1**2, a2**2),
        ]
    )


def contact_connect(state, alpha1_right, eos_pair):
    """State right of the contact given the left state and alpha1 there.

    The mixture velocity is the contact invariant; the three unknowns
    (rho1, rho2, w) solve the contact jump system.  Large volume
    fraction jumps are reached by continuation in alpha1.
    """
    if not 0.0 < alpha1_right < 1.0:
        raise InadmissibleWaveError(f"alpha1_right outside (0,1): {alpha1_right}")
    u_mix = state.u
    targets = _contact_targets(state, eos_pair)
    scales = _contact_scales(state, eos_pair)

    def walk(steps):
        x = np.array([state.rho1, state.rho2, state.w])
        for a in np.linspace(state.alpha1, alpha1_right, steps + 1)[1:]:
            x = _damped_newton(
                lambda y: _contact_residuals(y, a, targets, u_mix, eos_pair),
                lambda y: _contact_jacobian(y, a, eos_pair),
                x, scales, "contact",
            )
        return x

    try:
        x = walk(1 if abs(alpha1_right - state.alpha1) < 0.25 else 10)
    except NumericsError:
        # a finer continuation path reaches jumps the coarse one misses
        x = walk(40)
    return _contact_state(alpha1_right, x, u_mix)


# ---------------------------------------------------------------------------
# jump residuals, entropy, admissibility
# ---------------------------------------------------------------------------

def rhc_residuals(w_left, w_right, S, eos_pair):
    """Scaled residuals of the five jump conditions [[F]] = S [[U]]."""
    ul = prim_to_cons_array(w_left.as_array())
    ur = prim_to_cons_array(w_right.as_array())
    fl = flux_primitive_array(w_left.as_array(), eos_pair)
    fr = flux_primitive_array(w_right.as_array(), eos_pair)
    resid = np.abs(fr - fl - S * (ur - ul))
    scale = np.max(
        np.stack([np.abs(fl), np.abs(fr), np.abs(S * ul), np.abs(S * ur)]), axis=0
    )
    scale = np.maximum(scale, 1e-9 * max(np.max(scale), 1e-300))
    return resid / scale


def contact_residuals(w_left, w_right, eos_pair):
    """Scaled residuals of the four contact conditions ([[u]] first)."""
    tl = _contact_targets(w_left, eos_pair)
    tr = _contact_targets(w_right, eos_pair)
    sl = _contact_scales(w_left, eos_pair)
    sr = _contact_scales(w_right, eos_pair)
    scales = np.maximum(sl, sr)
    a_scale = max(
        eos_pair.phase1.sound_speed(w_left.rho1),
        eos_pair.phase2.sound_speed(w_left.rho2),
        abs(w_left.u),
        abs(w_right.u),
    )
    ru = abs(w_right.u - w_left.u) / a_scale
    return np.concatenate([[ru], np.abs(tr - tl) / scales])


def _entropy_bracket(w_left, w_right, S, eos_pair, Q):
    e1 = eos_pair.phase1
    bracket = (e1.psi(w_right.rho1) + 0.5 * (w_right.u1 - S) ** 2) - (
        e1.psi(w_left.rho1) + 0.5 * (w_left.u1 - S) ** 2
    )
    return -Q * bracket


def entropy_production(w_left, w_right, S, eos_pair, check=True):
    """-Q [[Psi1 + (u1-S)^2/2]], the dissipation of a discontinuity.

    Admissible shocks give values <= 0; contacts give exactly zero
    (Q = 0).  The pair must satisfy the jump conditions; with `check`
    the scaled residuals are verified against CONNECTED_TOL first.
    """
    if check:
        resid = rhc_residuals(w_left, w_right, S, eos_pair)
        if np.max(resid) > CONNECTED_TOL:
            raise InadmissibleWaveError(
                f"states are not connected by jump conditions "
                f"(max scaled residual {np.max(resid):.3e})"
            )
    Q = -w_left.rho * (w_left.u - S)
    return _entropy_bracket(w_left, w_right, S, eos_pair, Q)


def lax_check(w_left, w_right, S, family, eos_pair):
    """Classify the discontinuity against the Lax inequality chains.

    Sorted eigenvalues on each side are compared with S (agreement
    lambda^(0) = -inf, lambda^(n+1) = +inf).  With i the first left
    index above S and j the count of right eigenvalues below S, the
    shock is compressive for i == j, overcompressive for i < j and
    undercompressive for i > j.  Tangencies (S equal to an eigenvalue)
    or a compressive count whose crossing family is not the requested
    one return "fails".
    """
    dl = w_left.as_array()
    dr = w_right.as_array()
    if np.all(np.abs(dr - dl) <= 1e-12 * np.maximum(np.abs(dl), 1.0)):
        return "fails"  # zero-strength: no discontinuity to classify
    lam_l = eigenvalues(w_left, eos_pair)
    lam_r = eigenvalues(w_right, eos_pair)
    all_l = sorted(lam_l.values())
    all_r = sorted(lam_r.values())
    for lam in list(all_l) + list(all_r):
        if abs(lam - S) < COINCIDE_TOL * max(1.0, abs(lam), abs(S)):
            return "fails"
    i = sum(1 for lam in all_l if lam < S) + 1
    j = sum(1 for lam in all_r if lam < S)
    if i < j:
        return "overcompressive"
    if i > j:
        return "undercompressive"
    if family.acoustic and not (lam_l[family.key] > S > lam_r[family.key]):
        return "fails"
    return "compressive"


@dataclass(frozen=True)
class CharacteristicCensus:
    """Per-side characteristic bookkeeping of a discontinuity.

    Ten (family, side) characteristics split into incoming, outgoing
    and coinciding; with m = 5 jump relations and N = 2*5 + 1 unknowns
    the counting condition N = i + c + m (equivalently o = m - 1) must
    hold.  A genuinely nonlinear family whose characteristics leave on
    both sides with none arriving is undetermined even when the count
    balances, which rules out shocks with a tangential contact.
    """

    incoming: tuple
    outgoing: tuple
    coinciding: tuple
    i: int
    o: int
    c: int
    n_unknowns: int
    m: int
    undetermined: tuple
    evolutionary: bool

    @property
    def count_ok(self):
        return self.n_unknowns == self.i + self.c + self.m


def classify_discontinuity(w_left, w_right, S, eos_pair):
    lam = {"left": eigenvalues(w_left, eos_pair), "right": eigenvalues(w_right, eos_pair)}
    incoming, outgoing, coinciding = [], [], []
    for side in ("left", "right"):
        for key, val in lam[side].items():
            if abs(val - S) < COINCIDE_TOL * max(1.0, abs(val), abs(S)):
                coinciding.append((key, side))
            elif (val > S) == (side == "left"):
                incoming.append((key, side))
            else:
                outgoing.append((key, side))
    i, o, c = len(incoming), len(outgoing), len(coinciding)
    undetermined = []
    for key in ACOUSTIC_KEYS:
        outs = sum(1 for k, _ in outgoing if k == key)
        if outs == 2:
            undetermined.append(key)
    census = CharacteristicCensus(
        tuple(incoming),
        tuple(outgoing),
        tuple(coinciding),
        i,
        o,
        c,
        11,
        5,
        tuple(undetermined),
        evolutionary=(11 == i + c + 5) and not undetermined,
    )
    return census

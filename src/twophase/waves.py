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

import math
from dataclasses import dataclass, replace

import numpy as np

from .eos import BarotropicEos
from .errors import (
    DegenerateShockError,
    InadmissibleWaveError,
    NumericsError,
    OutOfFanError,
)
from .state import (
    ACOUSTIC_KEYS,
    PrimitiveState,
    _cons_rows,
    eigenvalues,
    mixture_pressures,
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
        return eos_pair.phase1 if self.phase == 1 else eos_pair.phase2

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
    a_e = np.sqrt(eos.sound_speed_sq(rho_edge))  # np.float64: a far scalar edge overflows to inf
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


# ---------------------------------------------------------------------------
# shocks
# ---------------------------------------------------------------------------

def _shock_system(pre, alpha1, Q1, Q2, eos_pair):
    """Residual, Jacobian and scales of the reduced jump pair in the post densities
    x = (rho1, rho2), as floats; the known side's terms are evaluated once."""
    e1, e2 = eos_pair.phase1, eos_pair.phase2
    alpha2 = 1.0 - alpha1
    q1sq, q2sq = Q1**2, Q2**2
    inv1, inv2, inv1sq, inv2sq = 1.0 / pre.rho1, 1.0 / pre.rho2, 1.0 / pre.rho1**2, 1.0 / pre.rho2**2
    p1, p2 = e1.pressure(pre.rho1), e2.pressure(pre.rho2)
    psi1, psi2 = e1.psi(pre.rho1), e2.psi(pre.rho2)
    a1sq, a2sq = e1.sound_speed_sq(pre.rho1), e2.sound_speed_sq(pre.rho2)

    def residual(x):
        r1, r2 = x
        f1 = alpha1 * (q1sq * (1.0 / r1 - inv1) + e1._pressure(r1) - p1) \
            + alpha2 * (q2sq * (1.0 / r2 - inv2) + e2._pressure(r2) - p2)
        f2 = 0.5 * q1sq * (1.0 / r1**2 - inv1sq) - 0.5 * q2sq * (1.0 / r2**2 - inv2sq) \
            + (e1._psi(r1) - psi1) - (e2._psi(r2) - psi2)
        return f1, f2

    def jacobian(x):
        r1, r2 = x
        d1 = e1._sound_speed_sq(r1) - q1sq / r1**2
        d2 = e2._sound_speed_sq(r2) - q2sq / r2**2
        return (alpha1 * d1, alpha2 * d2), (d1 / r1, -d2 / r2)

    s1 = alpha1 * (q1sq / pre.rho1 + abs(p1)) + alpha2 * (q2sq / pre.rho2 + abs(p2)) \
        + alpha1 * pre.rho1 * a1sq + alpha2 * pre.rho2 * a2sq
    s2 = 0.5 * q1sq / pre.rho1**2 + 0.5 * q2sq / pre.rho2**2 + abs(psi1) + abs(psi2) + a1sq + a2sq
    return residual, jacobian, (max(s1, 1e-300), max(s2, 1e-300))


def _newton_step(J, f):
    """The step s with J s = -f, or None where J is singular: a 2x2 J by
    its closed-form inverse, a 3x3 J by elimination with partial pivoting."""
    if len(f) == 2:
        (a, b), (c, d) = J
        det = a * d - b * c
        return None if det == 0.0 else ((b * f[1] - d * f[0]) / det, (c * f[0] - a * f[1]) / det)
    m = [[*row, -fi] for row, fi in zip(J, f)]
    for k in range(3):
        p = max(range(k, 3), key=lambda i: abs(m[i][k]))
        if m[p][k] == 0.0:
            return None
        m[k], m[p] = m[p], m[k]
        for row in m[k + 1:]:
            r = row[k] / m[k][k]
            row[k:] = [a - r * b for a, b in zip(row[k:], m[k][k:])]
    s = [0.0, 0.0, 0.0]
    for i in (2, 1, 0):
        s[i] = (m[i][3] - sum(m[i][j] * s[j] for j in range(i + 1, 3))) / m[i][i]
    return s


def _scaled_error(residual, x, scales):
    """(max |residual/scales|, residual) at x, or (inf, None) where it overflows."""
    try:
        f = residual(x)
    except ArithmeticError:
        return math.inf, None
    return max(abs(fi) / si for fi, si in zip(f, scales)), f


def _damped_newton(residual, jacobian, x0, scales, what):
    """Newton on residual(x) = 0 over tuples of floats, halving each step until
    the max-norm of residual/scales falls and both phase densities x[0], x[1]
    stay positive; an iteration does no array work.  The start's densities are
    checked once (EosDomainError).  A trial point whose residual overflows halves
    the step; an overflowing start or a singular Jacobian (see _newton_step) ends
    the solve.  Raises NumericsError unless the error ends below 1e-9."""
    x = tuple(map(float, x0))
    BarotropicEos._check_density(x[0])
    BarotropicEos._check_density(x[1])
    err, f = _scaled_error(residual, x, scales)
    for _ in range(NEWTON_MAXITER):
        if err < NEWTON_TOL or f is None:
            break
        step = _newton_step(jacobian(x), f)
        if step is None:
            break
        lam = 1.0
        for _ in range(25):
            xn = tuple(xi + lam * si for xi, si in zip(x, step))
            if xn[0] > 0.0 and xn[1] > 0.0:
                errn, fn = _scaled_error(residual, xn, scales)
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
    return guess


def _post_state(state, x, S):
    Q1 = -state.rho1 * (state.u1 - S)
    Q2 = -state.rho2 * (state.u2 - S)
    r1, r2 = x
    return PrimitiveState(state.alpha1, r1, r2, S - Q1 / r1, S - Q2 / r2)


def shock_connect(state, family, S, eos_pair, initial_guess=None):
    """Connect across a shock of `family` with speed S given one side.

    Returns the state across the shock.  alpha1 is continuous; both
    phase densities jump.  Newton starts from the weak-shock guess, then
    from that guess with the other phase's density displaced by +-8% and
    +-20%, and keeps the first new root whose pair is evolutionary (the
    first root found when none is).  When the known side sits on a
    sonic point of the other phase (its same-sign characteristic
    equals S within COINCIDE_TOL, as for a shock placed inside that
    phase's fan) the jump system bifurcates there and the undisplaced
    start has a vanishing Jacobian column, so only the displaced starts
    are tried.  The known side goes left when its family characteristic
    outruns the shock (the Lax orientation), which orients the census.
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
    residual, jacobian, scales = _shock_system(state, state.alpha1, Q1, Q2, eos_pair)
    rho_pre = family.rho_of(state)
    base = _weak_shock_guess(state, family, S, eos_pair)
    starts = [initial_guess] if initial_guess is not None else []
    nu = WaveFamily(family.other_phase, family.sign)
    lam_nu = nu.speed_of(state, eos_pair)
    if abs(lam_nu - S) >= COINCIDE_TOL * max(1.0, abs(lam_nu), abs(S)):
        starts.append(base)
    # displaced starts along the other phase pick up bifurcated branches
    rho_nu = nu.rho_of(state)
    for d in (0.08, -0.08, 0.2, -0.2):
        trial = base.copy()
        trial[nu.phase - 1] = rho_nu * (1.0 + d)
        starts.append(trial)

    roots = []  # the new roots, in the order of their starts
    for start in starts:
        try:
            x = _damped_newton(residual, jacobian, start, scales, "shock")
        except NumericsError:
            continue
        if abs(x[family.phase - 1] - rho_pre) < ZERO_STRENGTH_TOL * rho_pre:
            continue  # collapsed onto the unjumped state
        if any(all(abs(a - b) <= 1e-8 * abs(b) for a, b in zip(x, r)) for r in roots):
            continue  # found from an earlier start
        roots.append(x)
        post = _post_state(state, x, S)
        pair = (state, post) if lam_pre > S else (post, state)
        if initial_guess is not None or classify_discontinuity(*pair, S, eos_pair).evolutionary:
            return post
    if not roots:
        raise DegenerateShockError("shock solve collapses onto the unjumped state")
    return _post_state(state, roots[0], S)


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

def _contact_targets(alpha1, rho1, rho2, u1, u2, eos_pair):
    """The contact invariants (rho*c1*c2*w, p_bar, (c2 - c1)*w^2/2 + Psi1 - Psi2)
    of primitives, as floats by PrimitiveState's mixture algebra, unchecked."""
    e1, e2 = eos_pair.phase1, eos_pair.phase2
    alpha2 = 1.0 - alpha1
    rho = alpha1 * rho1 + alpha2 * rho2
    c1, c2, w = alpha1 * rho1 / rho, alpha2 * rho2 / rho, u1 - u2
    k = rho * c1 * c2
    p = alpha1 * e1._pressure(rho1) + alpha2 * e2._pressure(rho2)
    return k * w, k * w**2 + p, 0.5 * (c2 - c1) * w**2 + e1._psi(rho1) - e2._psi(rho2)


def _contact_state(alpha1, x, u_mix):
    """Primitives (alpha1, rho1, rho2, u1, u2) of the unknowns x = (rho1, rho2, w)."""
    r1, r2, w = x
    rho = alpha1 * r1 + (1.0 - alpha1) * r2
    c1 = alpha1 * r1 / rho
    c2 = 1.0 - c1
    return alpha1, r1, r2, u_mix + c2 * w, u_mix - c1 * w


def _contact_system(alpha1, targets, u_mix, eos_pair):
    """Residual and Jacobian of the contact jump system in x = (rho1, rho2, w)
    at volume fraction alpha1, for the invariants `targets`, as floats."""
    e1, e2 = eos_pair.phase1, eos_pair.phase2
    alpha2 = 1.0 - alpha1

    def residual(x):
        t1, t2, t3 = _contact_targets(*_contact_state(alpha1, x, u_mix), eos_pair)
        return t1 - targets[0], t2 - targets[1], t3 - targets[2]

    def jacobian(x):
        r1, r2, w = x
        m1, m2 = alpha1 * r1, alpha2 * r2
        rho = m1 + m2
        c1, c2 = m1 / rho, m2 / rho
        k = rho * c1 * c2
        a1sq, a2sq = e1._sound_speed_sq(r1), e2._sound_speed_sq(r2)
        dk_dr1, dk_dr2 = alpha1 * c2**2, alpha2 * c1**2
        # d(c2 - c1)/drho_i
        dd_dr1, dd_dr2 = -2.0 * alpha1 * c2 / rho, +2.0 * alpha2 * c1 / rho
        return (
            (dk_dr1 * w, dk_dr2 * w, k),
            (dk_dr1 * w**2 + alpha1 * a1sq, dk_dr2 * w**2 + alpha2 * a2sq, 2.0 * k * w),
            (0.5 * dd_dr1 * w**2 + a1sq / r1, 0.5 * dd_dr2 * w**2 - a2sq / r2, (c2 - c1) * w),
        )

    return residual, jacobian


def _contact_scales(state, eos_pair):
    p, p_bar = mixture_pressures(state, eos_pair)
    w = state.w
    e1, e2 = eos_pair.phase1, eos_pair.phase2
    a1 = e1.sound_speed(state.rho1)
    a2 = e2.sound_speed(state.rho2)
    vs = max(abs(w), a1, a2)
    k = state.rho * state.c1 * state.c2
    return (
        max(abs(k * w), k * vs),
        max(abs(p_bar), abs(p), k * vs**2),
        max(abs(e1.psi(state.rho1)) + abs(e2.psi(state.rho2)), vs**2, a1**2, a2**2),
    )


def contact_connect(state, alpha1_right, eos_pair):
    """State right of the contact given the left state and alpha1 there.

    The mixture velocity is the contact invariant; the three unknowns
    (rho1, rho2, w) solve the contact jump system at alpha1_right in one
    Newton solve started from the left state.  Only when that solve
    fails is the root reached by 40 steps of continuation in alpha1.
    """
    if not 0.0 < alpha1_right < 1.0:
        raise InadmissibleWaveError(f"alpha1_right outside (0,1): {alpha1_right}")
    u_mix = state.u
    targets = _contact_targets(*state.as_tuple(), eos_pair)
    scales = _contact_scales(state, eos_pair)

    def walk(steps):
        x = (state.rho1, state.rho2, state.w)
        for a in np.linspace(state.alpha1, alpha1_right, steps + 1)[1:].tolist():
            x = _damped_newton(*_contact_system(a, targets, u_mix, eos_pair), x, scales, "contact")
        return x

    try:
        x = walk(1)
    except NumericsError:
        # continuation in alpha1 reaches jumps the direct solve misses
        x = walk(40)
    return PrimitiveState(*_contact_state(alpha1_right, x, u_mix))


# ---------------------------------------------------------------------------
# jump residuals, entropy, admissibility
# ---------------------------------------------------------------------------

def _jump_rows(v, eos_pair):
    """Conserved and flux rows of one state's primitives v, as floats in
    _cons_rows' and _flux_rows' order of operations, densities unchecked."""
    alpha1, rho1, rho2, u1, u2 = v
    e1, e2, alpha2 = eos_pair.phase1, eos_pair.phase2, 1.0 - alpha1
    m1, m2, u1sq, u2sq = alpha1 * rho1, alpha2 * rho2, u1**2, u2**2
    rho, q1 = m1 + m2, m1 * u1
    rho_u = q1 + m2 * u2
    return _cons_rows(v), (
        alpha1 * rho * (rho_u / rho), q1, rho_u,
        m1 * u1sq + m2 * u2sq + alpha1 * e1._pressure(rho1) + alpha2 * e2._pressure(rho2),
        0.5 * u1sq - 0.5 * u2sq + e1._psi(rho1) - e2._psi(rho2),
    )


def rhc_residuals(w_left, w_right, S, eos_pair):
    """Scaled residuals of the five jump conditions [[F]] = S [[U]]."""
    (ul, fl), (ur, fr) = (_jump_rows(w.as_tuple(), eos_pair) for w in (w_left, w_right))
    rows = [(b - a - S * (d - c), max(abs(a), abs(b), abs(S * c), abs(S * d)))
            for a, b, c, d in zip(fl, fr, ul, ur)]
    floor = 1e-9 * max(max(s for _, s in rows), 1e-300)
    return np.array([abs(r) / max(s, floor) for r, s in rows])


def contact_residuals(w_left, w_right, eos_pair):
    """Scaled residuals of the four contact conditions ([[u]] first)."""
    tl, tr = (_contact_targets(*w.as_tuple(), eos_pair) for w in (w_left, w_right))
    sl, sr = _contact_scales(w_left, eos_pair), _contact_scales(w_right, eos_pair)
    a_scale = max(
        eos_pair.phase1.sound_speed(w_left.rho1),
        eos_pair.phase2.sound_speed(w_left.rho2),
        abs(w_left.u),
        abs(w_right.u),
    )
    ru = abs(w_right.u - w_left.u) / a_scale
    return np.array([ru, *(abs(b - a) / max(s, t) for a, b, s, t in zip(tl, tr, sl, sr))])


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
    e1 = eos_pair.phase1
    bracket = (e1.psi(w_right.rho1) + 0.5 * (w_right.u1 - S) ** 2) - (
        e1.psi(w_left.rho1) + 0.5 * (w_left.u1 - S) ** 2
    )
    return -Q * bracket


def lax_check(w_left, w_right, S, family, eos_pair, speeds=None):
    """Classify the discontinuity against the Lax inequality chains;
    `speeds` are the `eigenvalues` of both sides when the caller has them.

    Sorted eigenvalues on each side are compared with S (agreement
    lambda^(0) = -inf, lambda^(n+1) = +inf).  With i the first left
    index above S and j the count of right eigenvalues below S, the
    shock is compressive for i == j, overcompressive for i < j and
    undercompressive for i > j.  Tangencies (S equal to an eigenvalue)
    or a compressive count whose crossing family is not the requested
    one return "fails".
    """
    dl, dr = w_left.as_tuple(), w_right.as_tuple()
    if all(abs(b - a) <= 1e-12 * max(abs(a), 1.0) for a, b in zip(dl, dr)):
        return "fails"  # zero-strength: no discontinuity to classify
    lam_l, lam_r = speeds or (eigenvalues(w_left, eos_pair), eigenvalues(w_right, eos_pair))
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


def classify_discontinuity(w_left, w_right, S, eos_pair, speeds=None):
    """Census of a discontinuity; `speeds` as in `lax_check`."""
    lam = speeds or (eigenvalues(w_left, eos_pair), eigenvalues(w_right, eos_pair))
    incoming, outgoing, coinciding = [], [], []
    for side, lam_side in zip(("left", "right"), lam):
        for key, val in lam_side.items():
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

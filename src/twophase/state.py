r"""State vectors, conversions, flux and eigenstructure of the two-phase system.

Primitive variables   V = (alpha1, rho1, rho2, u1, u2)
Conserved variables   U = (alpha1*rho, alpha1*rho1, rho, rho*u, u1 - u2)

with the mixture relations

    rho = alpha1*rho1 + alpha2*rho2,   c_i = alpha_i*rho_i/rho,
    u   = c1*u1 + c2*u2,               w   = u1 - u2.

The quasi-linear primitive form has the Jacobian

        / u            0        0        0     0  \
        | r1(u1-u)/a1  u1       0        r1    0  |
    A = | r2(u-u2)/a2  0        u2       0     r2 |
        | (p1-p2)/rho  a1^2/r1  0        u1    0  |
        \ (p1-p2)/rho  0        a2^2/r2  0     u2 /

with eigenvalues u1 -+ a1, u (contact), u2 -+ a2.  The four acoustic
fields are genuinely nonlinear for G > 0; the contact field is linearly
degenerate.  Array-valued functions accept shape (..., 5) and vectorize
over leading axes; the frozen dataclasses are the scalar view used by
the exact-solution machinery.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StateDecodeError

# family keys in construction order; "C" is the contact
FAMILY_KEYS = ("1-", "2-", "C", "1+", "2+")
ACOUSTIC_KEYS = ("1-", "1+", "2-", "2+")

# speeds coincide when |li - lj| < tol * max(1, |li|, |lj|) (_coincide, the
# package's one coincidence test);
# eigenvector collapse when the smallest singular value of the stacked
# set falls below tol * largest
COINCIDENCE_TOL = 1e-9
COLLAPSE_TOL = 1e-9
_TINY = np.finfo(float).tiny  # least normal float (see _invalid_cons)


@dataclass(frozen=True)
class PrimitiveState:
    alpha1: float
    rho1: float
    rho2: float
    u1: float
    u2: float

    def __post_init__(self):
        alpha1, rho1, rho2, u1, u2 = self.alpha1, self.rho1, self.rho2, self.u1, self.u2
        if not 0.0 < alpha1 < 1.0:
            raise StateDecodeError(f"volume fraction outside (0,1): {alpha1}")
        if not (rho1 > 0.0 and rho2 > 0.0):  # NaN too
            raise StateDecodeError(f"non-positive phase density: {rho1}, {rho2}")
        # mixture quantities, once per state (not fields: eq, repr and replace ignore them)
        alpha2 = 1.0 - alpha1
        rho = alpha1 * rho1 + alpha2 * rho2
        c1, c2 = alpha1 * rho1 / rho, alpha2 * rho2 / rho
        vars(self).update(alpha2=alpha2, rho=rho, c1=c1, c2=c2, u=c1 * u1 + c2 * u2, w=u1 - u2)

    def as_tuple(self):
        return self.alpha1, self.rho1, self.rho2, self.u1, self.u2

    def as_array(self):
        return np.array(self.as_tuple())

    @staticmethod
    def from_array(v):
        return PrimitiveState(*(float(x) for x in v))


def mixture_pressures(state, eos_pair):
    """Mixture pressure p = alpha1*p1 + alpha2*p2 of a primitive state and
    the generalized total pressure p_bar = rho*c1*c2*w**2 + p that is
    continuous across the contact."""
    p1 = eos_pair.phase1.pressure(state.rho1)
    p2 = eos_pair.phase2.pressure(state.rho2)
    p = state.alpha1 * p1 + state.alpha2 * p2
    return p, state.rho * state.c1 * state.c2 * state.w**2 + p


def mixture_table(xs, prim, eos_pair):
    """Rows x, the five primitives, mixture rho, u, w and p, one per
    point of xs with its (n, 5) primitive state."""
    alpha1, rho1, rho2, u1, u2 = np.asarray(prim, dtype=float).T
    p1 = eos_pair.phase1.pressure(rho1)
    p2 = eos_pair.phase2.pressure(rho2)
    rho = alpha1 * rho1 + (1 - alpha1) * rho2
    u = (alpha1 * rho1 * u1 + (1 - alpha1) * rho2 * u2) / rho
    return np.column_stack(
        [xs, alpha1, rho1, rho2, u1, u2, rho, u, u1 - u2, alpha1 * p1 + (1 - alpha1) * p2]
    )


# ---------------------------------------------------------------------------
# conversions (pure algebra, vectorized over leading axes)
# ---------------------------------------------------------------------------

def prim_to_cons_array(v):
    return np.stack(_cons_rows(np.moveaxis(np.asarray(v, dtype=float), -1, 0)), axis=-1)


def _cons_rows(v):
    """Conserved rows of primitive rows v (5, ...)."""
    alpha1, rho1, rho2, u1, u2 = v
    rho = alpha1 * rho1 + (1.0 - alpha1) * rho2
    rho_u = alpha1 * rho1 * u1 + (1.0 - alpha1) * rho2 * u2
    return alpha1 * rho, alpha1 * rho1, rho, rho_u, u1 - u2


def _invalid_cons(w):
    """Mask of conserved rows w (5, ...) that break 0 < w2 < w3 or
    0 < w1 < w3, with w1/w3 no smaller than the least normal float so that
    alpha1 does not round to zero, or that are not finite."""
    w1, w2, w3 = w[0], w[1], w[2]
    return _or_nonfinite((w1 <= w3 * _TINY) | (w1 >= w3) | (w2 <= 0.0) | (w2 >= w3), w)


def _or_nonfinite(bad, c):
    finite = np.isfinite(c)
    # the reduction over components costs more than the rest; skip it when all is finite
    return bad if np.count_nonzero(finite) == finite.size else bad | ~finite.all(axis=0)


def _prim_rows(w):
    """Primitive rows of conserved rows w, unchecked: alpha1 = w1/w3,
    rho1 = w2/alpha1, rho2 = (w3-w2)/(1-alpha1), u1 = u + c2*w, u2 = u - c1*w."""
    w1, w2, w3, w4, w5 = w
    alpha1 = w1 / w3
    c1 = w2 / w3
    um = w4 / w3
    return alpha1, w2 / alpha1, (w3 - w2) / (1.0 - alpha1), um + (1.0 - c1) * w5, um - c1 * w5


# ---------------------------------------------------------------------------
# flux
# ---------------------------------------------------------------------------

def flux_conserved_array(u, eos_pair):
    """Conservative flux of conserved cells u (..., 5) (see _cons_flux_rows)."""
    return np.moveaxis(_cons_flux_rows(np.moveaxis(np.asarray(u, float), -1, 0), eos_pair), 0, -1)


def _cons_flux_rows(w, eos_pair, speeds=False):
    """Flux rows of conserved rows w, densities unchecked, each term taken
    from the component that holds it: with alpha1 = w1/w3, rho1 =
    w2/alpha1, rho2 = (w3-w2)/(1-alpha1), u2 = w4/w3 - (w2/w3)*w5 and
    u1 = u2 + w5, (w1*(w4/w3), w2*u1, w4, w2*u1^2 + (w3-w2)*u2^2 +
    alpha1*p1 + (1-alpha1)*p2, 0.5*w5*(u1 + u2) + Psi1 - Psi2).  With
    speeds=True it also returns max |lambda| per cell."""
    w1, w2, w3, w4, w5 = w
    alpha1, m2, um = w1 / w3, w3 - w2, w4 / w3
    alpha2, u2 = 1.0 - alpha1, um - (w2 / w3) * w5
    u1 = u2 + w5
    ap1, a1sq, psi1 = _phase_terms(eos_pair.phase1, w2, alpha1)
    ap2, a2sq, psi2 = _phase_terms(eos_pair.phase2, m2, alpha2)
    f = np.empty(np.shape(w))  # rows written in place: f[i, ...]
    np.multiply(w1, um, out=f[0, ...])
    q1 = np.multiply(w2, u1, out=f[1, ...])
    f[2] = w4
    np.add(q1 * u1 + m2 * (u2 * u2) + ap1, ap2, out=f[3, ...])
    np.subtract((0.5 * w5) * (u1 + u2) + psi1, psi2, out=f[4, ...])
    return (f, np.maximum(np.abs(u1) + np.sqrt(a1sq), np.abs(u2) + np.sqrt(a2sq))) if speeds else f


def _phase_terms(eos, m, alpha):
    """alpha*p, a**2 and Psi of a phase of partial mass m and volume fraction
    alpha from one power r = rho**(gamma-1) (Psi by the log for gamma == 1)."""
    rho = m / alpha
    r = rho ** (eos.gamma - 1.0)
    a_sq, ap = eos._k * r, eos._p_scale * m * r
    psi = eos._psi(rho) if eos.gamma == 1.0 else a_sq / (eos.gamma - 1.0)
    return (ap + alpha * eos.B if eos.B else ap), a_sq, psi


def flux_primitive_array(v, eos_pair):
    """Conservative flux of primitive cells v (..., 5) (see _flux_rows)."""
    v = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    eos_pair.phase1._check_density(v[1])
    eos_pair.phase2._check_density(v[2])
    return np.moveaxis(_flux_rows(v, eos_pair), 0, -1)


def _flux_rows(v, eos_pair):
    """Flux rows of primitive rows v by an algebra independent of
    _cons_flux_rows, densities unchecked:

        ( alpha1*rho*u,
          alpha1*rho1*u1,
          rho*u,
          alpha1*rho1*u1^2 + alpha2*rho2*u2^2 + alpha1*p1 + alpha2*p2,
          0.5*u1^2 - 0.5*u2^2 + Psi1 - Psi2 )
    """
    alpha1, rho1, rho2, u1, u2 = v
    e1, e2 = eos_pair.phase1, eos_pair.phase2
    alpha2 = 1.0 - alpha1
    m1 = alpha1 * rho1
    m2 = alpha2 * rho2
    rho = m1 + m2
    f = np.empty((5,) + np.shape(alpha1))  # rows written in place: f[i, ...]
    q1 = np.multiply(m1, u1, out=f[1, ...])
    rho_u = np.add(q1, m2 * u2, out=f[2, ...])
    np.multiply(alpha1 * rho, rho_u / rho, out=f[0, ...])
    u1sq, u2sq = u1**2, u2**2
    p1, p2 = e1._pressure(rho1), e2._pressure(rho2)
    np.add(m1 * u1sq + m2 * u2sq + alpha1 * p1, alpha2 * p2, out=f[3, ...])
    np.subtract(0.5 * u1sq - 0.5 * u2sq + e1._psi(rho1), e2._psi(rho2), out=f[4, ...])
    return f


# ---------------------------------------------------------------------------
# eigenstructure
# ---------------------------------------------------------------------------

def jacobian_primitive(state, eos_pair):
    a1sq = eos_pair.phase1.sound_speed_sq(state.rho1)
    a2sq = eos_pair.phase2.sound_speed_sq(state.rho2)
    p1 = eos_pair.phase1.pressure(state.rho1)
    p2 = eos_pair.phase2.pressure(state.rho2)
    rho, u = state.rho, state.u
    dp = (p1 - p2) / rho
    return np.array(
        [
            [u, 0.0, 0.0, 0.0, 0.0],
            [state.rho1 * (state.u1 - u) / state.alpha1, state.u1, 0.0, state.rho1, 0.0],
            [state.rho2 * (u - state.u2) / state.alpha2, 0.0, state.u2, 0.0, state.rho2],
            [dp, a1sq / state.rho1, 0.0, state.u1, 0.0],
            [dp, 0.0, a2sq / state.rho2, 0.0, state.u2],
        ]
    )


def eigenvalues(state, eos_pair):
    """Wave speeds keyed by family: u1 -+ a1, u, u2 -+ a2."""
    a1 = eos_pair.phase1.sound_speed(state.rho1)
    a2 = eos_pair.phase2.sound_speed(state.rho2)
    return {
        "1-": state.u1 - a1,
        "2-": state.u2 - a2,
        "C": state.u,
        "1+": state.u1 + a1,
        "2+": state.u2 + a2,
    }


def _max_wavespeed_rows(v, eos_pair):
    """max |lambda| over all five fields of primitive rows v, densities
    unchecked; the contact speed is a convex combination of u1, u2 and
    never dominates."""
    a1 = np.sqrt(eos_pair.phase1._sound_speed_sq(v[1]))
    a2 = np.sqrt(eos_pair.phase2._sound_speed_sq(v[2]))
    return np.maximum(np.abs(v[3]) + a1, np.abs(v[4]) + a2)


def _contact_eigenvector_raw(state, eos_pair):
    a1sq = eos_pair.phase1.sound_speed_sq(state.rho1)
    a2sq = eos_pair.phase2.sound_speed_sq(state.rho2)
    p1 = eos_pair.phase1.pressure(state.rho1)
    p2 = eos_pair.phase2.pressure(state.rho2)
    rho, u = state.rho, state.u
    alpha1, alpha2 = state.alpha1, state.alpha2
    dp = p1 - p2
    du1 = u - state.u1
    du2 = u - state.u2
    eps1 = (du1**2 - a1sq) / state.rho1
    eps2 = (du2**2 - a2sq) / state.rho2
    del1 = dp / rho - du1**2 / alpha1
    del2 = dp / rho + du2**2 / alpha2
    gam1 = (alpha1 * dp - rho * a1sq) / (alpha1 * state.rho1 * rho)
    gam2 = -(alpha2 * dp + rho * a2sq) / (alpha2 * state.rho2 * rho)
    return np.array(
        [eps1 * eps2, del1 * eps2, del2 * eps1, du1 * eps2 * gam1, -du2 * eps1 * gam2]
    )


def _coincide(la, lb):
    """Whether two speeds coincide (COINCIDENCE_TOL)."""
    return abs(la - lb) < COINCIDENCE_TOL * max(1.0, abs(la), abs(lb))


def _eigenvectors(state, eos_pair, rc):
    """Right eigenvectors with the raw contact vector rc normalized."""
    a1 = eos_pair.phase1.sound_speed(state.rho1)
    a2 = eos_pair.phase2.sound_speed(state.rho2)
    nrm = float(np.linalg.norm(rc))
    return {
        "1-": np.array([0.0, 1.0, 0.0, -a1 / state.rho1, 0.0]),
        "1+": np.array([0.0, 1.0, 0.0, +a1 / state.rho1, 0.0]),
        "2-": np.array([0.0, 0.0, 1.0, 0.0, -a2 / state.rho2]),
        "2+": np.array([0.0, 0.0, 1.0, 0.0, +a2 / state.rho2]),
        "C": rc / nrm if nrm > 0.0 else rc,  # triple coincidence: the null vector
    }


def eigenstructure(state, eos_pair):
    """(speeds, right eigenvectors), two dicts keyed by family.

    No speed ordering is assumed: the system is not strictly hyperbolic
    and the family order changes across waves.  Where the contact speed
    coincides with an acoustic speed the contact eigenvector collapses
    into that family's span; at the triple coincidence it is the null
    vector.
    """
    rc = _contact_eigenvector_raw(state, eos_pair)
    return eigenvalues(state, eos_pair), _eigenvectors(state, eos_pair, rc)


def field_characterization(state, eos_pair):
    """grad(lambda) . R per field: -+ a_i*G_i/rho_i for the acoustic
    fields (unit density-entry scaling), exactly zero for the contact."""
    a1 = eos_pair.phase1.sound_speed(state.rho1)
    a2 = eos_pair.phase2.sound_speed(state.rho2)
    g1 = eos_pair.phase1.fundamental_derivative(state.rho1)
    g2 = eos_pair.phase2.fundamental_derivative(state.rho2)
    return {
        "1-": -a1 * g1 / state.rho1,
        "1+": +a1 * g1 / state.rho1,
        "2-": -a2 * g2 / state.rho2,
        "2+": +a2 * g2 / state.rho2,
        "C": 0.0,
    }


@dataclass(frozen=True)
class ResonanceReport:
    """Coincidences of acoustic speeds with the contact speed.

    `coinciding` lists the acoustic families whose eigenvalue equals the
    contact speed within tolerance; `collapsed` those whose span has
    absorbed the contact eigenvector (rank test); `rc_null` marks the
    triple coincidence (u - u1)^2 = a1^2 and (u - u2)^2 = a2^2 where the
    contact eigenvector vanishes identically.
    """

    coinciding: tuple
    collapsed: tuple
    rc_null: bool


def check_resonance(state, eos_pair, speeds=None):
    """Resonance report of a state; `speeds` are its `eigenvalues` when
    the caller already has them.  Without a coincidence there is no
    collapse to test, so no eigenvector is formed."""
    lam = eigenvalues(state, eos_pair) if speeds is None else speeds
    coinciding = tuple(k for k in ACOUSTIC_KEYS if _coincide(lam[k], lam["C"]))
    if not coinciding:
        return ResonanceReport((), (), False)
    rc = _contact_eigenvector_raw(state, eos_pair)
    vectors = _eigenvectors(state, eos_pair, rc)
    # scale of the raw contact vector if no factor vanished
    a1sq = eos_pair.phase1.sound_speed_sq(state.rho1)
    a2sq = eos_pair.phase2.sound_speed_sq(state.rho2)
    scale = (a1sq / state.rho1) * (a2sq / state.rho2)
    rc_null = float(np.linalg.norm(rc)) < COLLAPSE_TOL * scale
    collapsed = []
    for k in coinciding:
        phase = k[0]
        basis = np.stack([vectors[phase + "-"], vectors[phase + "+"], vectors["C"]], axis=-1)
        sv = np.linalg.svd(basis, compute_uv=False)
        if rc_null or sv[-1] < COLLAPSE_TOL * sv[0]:
            collapsed.append(k)
    return ResonanceReport(coinciding, tuple(collapsed), rc_null)

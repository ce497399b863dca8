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

# eigenvalues coincide when |li - lj| < tol * max(1, |li|, |lj|);
# eigenvector collapse when the smallest singular value of the stacked
# set falls below tol * largest
COINCIDENCE_TOL = 1e-9
COLLAPSE_TOL = 1e-9


@dataclass(frozen=True)
class PrimitiveState:
    alpha1: float
    rho1: float
    rho2: float
    u1: float
    u2: float

    def __post_init__(self):
        if not 0.0 < self.alpha1 < 1.0:
            raise StateDecodeError(f"volume fraction outside (0,1): {self.alpha1}")
        if self.rho1 <= 0.0 or self.rho2 <= 0.0:
            raise StateDecodeError(f"non-positive phase density: {self.rho1}, {self.rho2}")

    @property
    def alpha2(self):
        return 1.0 - self.alpha1

    @property
    def rho(self):
        return self.alpha1 * self.rho1 + self.alpha2 * self.rho2

    @property
    def c1(self):
        return self.alpha1 * self.rho1 / self.rho

    @property
    def c2(self):
        return self.alpha2 * self.rho2 / self.rho

    @property
    def u(self):
        return self.c1 * self.u1 + self.c2 * self.u2

    @property
    def w(self):
        return self.u1 - self.u2

    def as_array(self):
        return np.array([self.alpha1, self.rho1, self.rho2, self.u1, self.u2])

    @staticmethod
    def from_array(v):
        return PrimitiveState(*(float(x) for x in v))


@dataclass(frozen=True)
class MixtureProps:
    """Mixture quantities of a primitive state, including the generalized
    total pressure p_bar = rho*c1*c2*w**2 + p that is continuous across
    the contact."""

    rho: float
    c1: float
    c2: float
    u: float
    w: float
    p: float
    p_bar: float


def mixture_props(state, eos_pair):
    p1 = eos_pair.phase1.pressure(state.rho1)
    p2 = eos_pair.phase2.pressure(state.rho2)
    p = state.alpha1 * p1 + state.alpha2 * p2
    rho, c1, c2, w = state.rho, state.c1, state.c2, state.w
    return MixtureProps(rho, c1, c2, state.u, w, p, rho * c1 * c2 * w**2 + p)


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
    v = np.asarray(v, dtype=float)
    alpha1, rho1, rho2, u1, u2 = (v[..., i] for i in range(5))
    rho = alpha1 * rho1 + (1.0 - alpha1) * rho2
    rho_u = alpha1 * rho1 * u1 + (1.0 - alpha1) * rho2 * u2
    return np.stack([alpha1 * rho, alpha1 * rho1, rho, rho_u, u1 - u2], axis=-1)


def cons_to_prim_array(u, strict=True):
    """Invert the conserved map.

    alpha1 = w1/w3, rho1 = w2/alpha1, rho2 = (w3-w2)/(1-alpha1),
    u1 = u + c2*w, u2 = u - c1*w with c1 = w2/w3.
    """
    u = np.asarray(u, dtype=float)
    w1, w2, w3, w4, w5 = (u[..., i] for i in range(5))
    if strict:
        bad = (w3 <= 0.0) | (w1 <= 0.0) | (w1 >= w3) | (w2 <= 0.0) | (w2 >= w3)
        if np.any(bad):
            idx = np.argwhere(bad)
            raise StateDecodeError(
                f"conserved state violates invariants at index {idx[0] if idx.size else '()'}: "
                f"w={u[tuple(idx[0])] if idx.size else u}"
            )
    alpha1 = w1 / w3
    c1 = w2 / w3
    um = w4 / w3
    u1 = um + (1.0 - c1) * w5
    u2 = um - c1 * w5
    rho1 = w2 / alpha1
    rho2 = (w3 - w2) / (1.0 - alpha1)
    return np.stack([alpha1, rho1, rho2, u1, u2], axis=-1)


# ---------------------------------------------------------------------------
# flux
# ---------------------------------------------------------------------------

def flux_conserved_array(u, eos_pair):
    """Conservative flux evaluated directly from the conserved vector.

    Row by row, with u1 = ((w3-w2)*w5 + w4)/w3 and u2 = (w4 - w2*w5)/w3:

        F1 = w1*w4/w3
        F2 = w2*u1
        F3 = w4
        F4 = w2*u1^2 + (w3-w2)*u2^2 + (w1/w3)*p1 + ((w3-w1)/w3)*p2
        F5 = 0.5*w5*(2*u1 - w5) + Psi1 - Psi2
    """
    u = np.asarray(u, dtype=float)
    w1, w2, w3, w4, w5 = (u[..., i] for i in range(5))
    alpha1 = w1 / w3
    rho1 = w2 / alpha1
    rho2 = (w3 - w2) / (1.0 - alpha1)
    u1 = ((w3 - w2) * w5 + w4) / w3
    u2 = (w4 - w2 * w5) / w3
    p1 = eos_pair.phase1.pressure(rho1)
    p2 = eos_pair.phase2.pressure(rho2)
    psi1 = eos_pair.phase1.psi(rho1)
    psi2 = eos_pair.phase2.psi(rho2)
    f1 = w1 * w4 / w3
    f2 = w2 * u1
    f3 = w4
    f4 = w2 * u1**2 + (w3 - w2) * u2**2 + alpha1 * p1 + (w3 - w1) / w3 * p2
    f5 = 0.5 * w5 * (2.0 * u1 - w5) + psi1 - psi2
    return np.stack([f1, f2, f3, f4, f5], axis=-1)


def flux_primitive_array(v, eos_pair):
    """Same flux assembled from primitive variables (independent algebra):

        ( alpha1*rho*u,
          alpha1*rho1*u1,
          rho*u,
          alpha1*rho1*u1^2 + alpha2*rho2*u2^2 + alpha1*p1 + alpha2*p2,
          0.5*u1^2 - 0.5*u2^2 + Psi1 - Psi2 )
    """
    v = np.asarray(v, dtype=float)
    alpha1, rho1, rho2, u1, u2 = (v[..., i] for i in range(5))
    alpha2 = 1.0 - alpha1
    rho = alpha1 * rho1 + alpha2 * rho2
    rho_u = alpha1 * rho1 * u1 + alpha2 * rho2 * u2
    p1 = eos_pair.phase1.pressure(rho1)
    p2 = eos_pair.phase2.pressure(rho2)
    psi1 = eos_pair.phase1.psi(rho1)
    psi2 = eos_pair.phase2.psi(rho2)
    f1 = alpha1 * rho * (rho_u / rho)
    f2 = alpha1 * rho1 * u1
    f3 = rho_u
    f4 = alpha1 * rho1 * u1**2 + alpha2 * rho2 * u2**2 + alpha1 * p1 + alpha2 * p2
    f5 = 0.5 * u1**2 - 0.5 * u2**2 + psi1 - psi2
    return np.stack([f1, f2, f3, f4, f5], axis=-1)


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


def max_wavespeed_array(v, eos_pair):
    """max |lambda| over all five fields; the contact speed is a convex
    combination of u1, u2 and never dominates."""
    v = np.asarray(v, dtype=float)
    a1 = eos_pair.phase1.sound_speed(v[..., 1])
    a2 = eos_pair.phase2.sound_speed(v[..., 2])
    return np.maximum(np.abs(v[..., 3]) + a1, np.abs(v[..., 4]) + a2)


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
    return abs(la - lb) < COINCIDENCE_TOL * max(1.0, abs(la), abs(lb))


@dataclass(frozen=True)
class Eigenstructure:
    """Five (speed, right eigenvector) pairs keyed by family.

    No speed ordering is assumed: the system is not strictly hyperbolic
    and the family order changes across waves.  Where the contact speed
    coincides with an acoustic speed the contact eigenvector collapses
    into that family's span; at the triple coincidence it is the null
    vector.
    """

    speeds: dict
    vectors: dict


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
    rc = _contact_eigenvector_raw(state, eos_pair)
    return Eigenstructure(eigenvalues(state, eos_pair), _eigenvectors(state, eos_pair, rc))


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

    @property
    def resonant(self):
        return bool(self.coinciding)


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

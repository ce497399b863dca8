"""Source conversions between the conservative and Baer-Nunziato forms,
the interface closure, and pressure-equilibrium (Kapila) diagnostics.

For smooth solutions the two five-equation systems are equivalent for
exactly one closure pair,

    u_I = u,    p_I = (alpha2*rho2*p1 + alpha1*rho1*p2) / rho,

which `interface_closure` evaluates on Baer-Nunziato blocks and the
path-conservative kernel in `fv` runs; the source vectors transform
linearly, Xi = B zeta and zeta = C Xi with B C = I.  The matrices are
assembled from their printed entries; the inverse identity is the guard
against transcription slips.
"""

import numpy as np


def conversion_matrix_bn_to_shtc(state):
    """B with Xi = B zeta."""
    a1, a2 = state.alpha1, state.alpha2
    r1, r2 = state.rho1, state.rho2
    u1, u2 = state.u1, state.u2
    return np.array(
        [
            [state.rho, a1, a1, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 1.0],
            [0.0, -u1 / (a1 * r1), u2 / (a2 * r2), 1.0 / (a1 * r1), -1.0 / (a2 * r2)],
        ]
    )


def conversion_matrix_shtc_to_bn(state):
    """C with zeta = C Xi."""
    rho = state.rho
    c1, c2 = state.c1, state.c2
    u1, u2 = state.u1, state.u2
    return np.array(
        [
            [1.0 / rho, 0.0, -state.alpha1 / rho, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0, 0.0],
            [0.0, c2 * u1 + c1 * u2, -c1 * u2, c1, c1 * c2 * rho],
            [0.0, -(c2 * u1 + c1 * u2), c1 * u2, c2, -c1 * c2 * rho],
        ]
    )


def interface_closure(alpha1, m1, m2, q1, q2, eos_pair):
    """(u_I, p_I) of Baer-Nunziato blocks (alpha1, a1*r1, a2*r2, q1, q2),
    elementwise, densities unchecked: u_I = (q1 + q2)/rho is the mixture
    velocity and p_I = (m2 p1 + m1 p2)/rho."""
    rho = m1 + m2
    p1 = eos_pair.phase1._pressure(m1 / alpha1)
    p2 = eos_pair.phase2._pressure(m2 / (1.0 - alpha1))
    return (q1 + q2) / rho, (m2 * p1 + m1 * p2) / rho


def kapila_coefficients(state, eos_pair):
    """Phase bulk moduli K_i = rho_i a_i^2 and the compaction
    coefficient alpha1*alpha2*(K1 - K2)/(alpha1*K2 + alpha2*K1) that
    multiplies du/dx in the pressure-equilibrium volume fraction
    equation."""
    K1 = state.rho1 * eos_pair.phase1.sound_speed_sq(state.rho1)
    K2 = state.rho2 * eos_pair.phase2.sound_speed_sq(state.rho2)
    denom = state.alpha1 * K2 + state.alpha2 * K1
    assert denom > 0.0, "bulk moduli must be positive"
    coeff = state.alpha1 * state.alpha2 * (K1 - K2) / denom
    return K1, K2, coeff


def kapila_limit_diagnostics(prim, eos_pair):
    """Norms certifying a snapshot sits in the single-pressure,
    single-velocity regime.

    `prim` is an (n, 5) array of primitive cells.  Returns max and
    mean (L1) norms of |p1 - p2|/max(p1, p2) and |w|/max(1, |u|).
    """
    prim = np.asarray(prim, dtype=float)
    alpha1, rho1, rho2, u1, u2 = (prim[..., i] for i in range(5))
    p1 = eos_pair.phase1.pressure(rho1)
    p2 = eos_pair.phase2.pressure(rho2)
    rho = alpha1 * rho1 + (1.0 - alpha1) * rho2
    u = (alpha1 * rho1 * u1 + (1.0 - alpha1) * rho2 * u2) / rho
    dp = np.abs(p1 - p2) / np.maximum(np.maximum(np.abs(p1), np.abs(p2)), 1e-300)
    dw = np.abs(u1 - u2) / np.maximum(1.0, np.abs(u))
    # finite theta1 leaves an O(theta1) pressure lag along trajectories,
    # so the regime flag tolerates a small residual disequilibrium while
    # the relative slip must be negligible
    return {
        "pressure_disequilibrium_max": float(np.max(dp)),
        "pressure_disequilibrium_l1": float(np.mean(dp)),
        "velocity_disequilibrium_max": float(np.max(dw)),
        "velocity_disequilibrium_l1": float(np.mean(dw)),
        "in_kapila_regime": bool(np.max(dp) < 1e-2 and np.max(dw) < 1e-6),
    }

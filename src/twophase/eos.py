"""Barotropic phase equations of state.

Each phase closes with a power-law pressure

    p(rho) = A * (rho / rho_ref)**gamma + B

covering the ideal gas (A=1, rho_ref=1, B=0), the stiffened liquid
(B < 0 shifts the curve) and the isothermal gas (gamma = 1).  All
thermodynamic quantities used by the wave and flux machinery derive
from this law:

    a(rho)**2   = dp/drho                     sound speed
    Psi(rho)    with dPsi/drho = a**2 / rho   specific enthalpy (isentropic)
                                              or Gibbs energy (isothermal)
    G(rho)      = 1 + (rho/a) da/drho         fundamental derivative

For the power law these have closed forms; quadrature only appears in
the test oracles.  So do the rarefaction fans built on them: the
invariant u -+ int a/rho drho is explicit, and waves._fan_state needs
only gamma and the edge sound speed to place any in-fan state, for a
whole array of similarity coordinates at once.  Only differences of Psi
are ever observable, so the integration constant is fixed to zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EosDomainError


@dataclass(frozen=True)
class BarotropicEos:
    """Power-law pressure closure of a single phase.

    Immutable after construction; safe to share between threads.
    gamma == 1 is the isothermal regime, any other gamma the isentropic
    one; both share a**2 = dp/drho and dPsi/drho = a**2/rho.  Its
    underscored formulas skip the density check.
    """

    A: float
    gamma: float
    rho_ref: float = 1.0
    B: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.A < math.inf:
            raise ConfigError(f"pressure scale A must be positive and finite, got {self.A}")
        if not 1.0 <= self.gamma < math.inf:
            raise ConfigError(f"exponent gamma must be finite and >= 1, got {self.gamma}")
        if not 0.0 < self.rho_ref < math.inf:
            raise ConfigError(f"rho_ref must be positive and finite, got {self.rho_ref}")
        if not math.isfinite(self.B):
            raise ConfigError(f"pressure shift B must be finite, got {self.B}")
        # scale factor A*gamma/rho_ref**gamma reused by every derived
        # quantity; positive by the checks above, so dp/drho > 0 holds
        # for every positive density
        object.__setattr__(self, "_k", self.A * self.gamma / self.rho_ref**self.gamma)
        object.__setattr__(self, "_p_scale", self.A / self.rho_ref**self.gamma)

    @staticmethod
    def _check_density(rho):
        # floats (np.float64 too) first: these run inside Newton loops;
        # `not rho > 0.0` also rejects NaN
        if isinstance(rho, float) or not np.ndim(rho):
            if not rho > 0.0:
                raise EosDomainError(f"density must be positive, got {rho}")
        elif np.count_nonzero(np.asarray(rho) > 0.0) != np.size(rho):
            raise EosDomainError(f"density must be positive, got {rho}")

    def _pressure(self, rho):
        p = self._p_scale * rho**self.gamma  # adding B = 0 changes no p >= +0
        return p + self.B if self.B else p

    def pressure(self, rho):
        self._check_density(rho)
        return self._pressure(rho)

    def _sound_speed_sq(self, rho):
        return self._k * rho ** (self.gamma - 1.0)

    def sound_speed_sq(self, rho):
        """dp/drho = A*gamma*rho**(gamma-1)/rho_ref**gamma, positive for rho > 0."""
        self._check_density(rho)
        return self._sound_speed_sq(rho)

    def sound_speed(self, rho):
        a_sq = self.sound_speed_sq(rho)  # both square roots are correctly rounded
        return math.sqrt(a_sq) if isinstance(a_sq, float) else np.sqrt(a_sq)

    def psi(self, rho):
        """Potential with dPsi/drho = a**2/rho (additive constant zero).

        gamma == 1 takes the logarithmic branch (A/rho_ref)*log(rho).
        """
        self._check_density(rho)
        return self._psi(rho)

    def _psi(self, rho):
        if self.gamma == 1.0:
            return (self.A / self.rho_ref) * np.log(rho)
        return self._k / (self.gamma - 1.0) * rho ** (self.gamma - 1.0)

    def fundamental_derivative(self, rho):
        """G = 1 + (rho/a) da/drho = (gamma+1)/2 for the power law."""
        self._check_density(rho)
        g = 0.5 * (self.gamma + 1.0)
        return g if isinstance(rho, float) else np.full_like(np.asarray(rho, dtype=float), g)[()]

    def riemann_integral(self, rho_from, rho_to):
        """Integral of a(rho)/rho over [rho_from, rho_to].

        Closed form 2*(a_to - a_from)/(gamma-1); antisymmetric under
        swapping the endpoints.  gamma == 1 degenerates to a*log ratio.
        """
        self._check_density(rho_from)
        self._check_density(rho_to)
        if self.gamma == 1.0:
            a = np.sqrt(self._k)  # constant sound speed
            return a * np.log(np.asarray(rho_to, dtype=float) / rho_from)
        return 2.0 * (self.sound_speed(rho_to) - self.sound_speed(rho_from)) / (self.gamma - 1.0)


@dataclass(frozen=True)
class EosPair:
    """The two phase closures of a mixture."""

    phase1: BarotropicEos
    phase2: BarotropicEos

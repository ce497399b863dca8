"""Exception types shared across the solver suite.

Every type survives pickling with its message and attributes, so an error
raised in a worker process reaches its parent intact."""


class TwoPhaseError(Exception):
    """Base class for all errors raised by this package."""


class EosDomainError(TwoPhaseError):
    """Density outside the validity domain of a barotropic pressure law."""


class StateDecodeError(TwoPhaseError):
    """Conserved vector violates the state invariants and cannot be decoded."""


class InadmissibleWaveError(TwoPhaseError):
    """A requested elementary wave violates an admissibility condition."""


class OutOfFanError(TwoPhaseError):
    """Similarity coordinate lies outside the rarefaction fan."""


class DegenerateShockError(TwoPhaseError):
    """Shock jump system degenerated (zero-strength or singular mass-flux matrix)."""


class NumericsError(TwoPhaseError):
    """A nonlinear solve failed to converge; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConstructionError(TwoPhaseError):
    """Exact-solution construction failed; names the offending wave."""

    def __init__(self, wave, reason):
        super().__init__(f"wave {wave}: {reason}")
        self.wave = wave
        self.reason = reason

    def __reduce__(self):
        # args hold the formatted message, not the constructor's arguments
        return type(self), (self.wave, self.reason), self.__dict__


class PositivityError(TwoPhaseError):
    """A finite-volume update produced a non-physical state."""

    def __init__(self, message, cell=None, time=None):
        super().__init__(message)
        self.cell = cell
        self.time = time


class RelaxationError(TwoPhaseError):
    """Relaxation sub-step could not bracket the equilibrium volume fraction."""


class ConfigError(TwoPhaseError):
    """Invalid run configuration or problem file."""

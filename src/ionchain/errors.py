"""Domain errors raised by the physics layers.

Everything here derives from IonChainError so callers (notably the CLI)
can separate "the physics refused" from a genuine bug.
"""

__all__ = [
    "IonChainError",
    "ConvergenceError",
    "ZigZagError",
    "DegenerateModesError",
    "NoResonantCouplingError",
    "UnstableTrajectoryError",
]


class IonChainError(Exception):
    """Base class for physics-domain failures."""


class ConvergenceError(IonChainError):
    """Newton iteration for the equilibrium positions did not converge."""

    def __init__(self, message, residual_norm):
        super().__init__(message)
        self.residual_norm = residual_norm


class ZigZagError(IonChainError):
    """Requested anisotropy is at or beyond the linear-chain stability edge."""

    def __init__(self, alpha, alpha_crit):
        super().__init__(
            f"alpha = {alpha:.6g} is in the zig-zag regime "
            f"(linear chain requires alpha < {alpha_crit:.6g})"
        )
        self.alpha = alpha
        self.alpha_crit = alpha_crit


class DegenerateModesError(IonChainError):
    """Axial eigenvalues too close to assign eigenvectors reliably."""


class NoResonantCouplingError(IonChainError):
    """Rotating-wave reduction kept no terms for the requested resonance."""


class UnstableTrajectoryError(IonChainError):
    """Classical integration left the physically sensible region."""

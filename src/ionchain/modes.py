"""Normal modes of the linear chain about its equilibrium.

The axial quadratic form A (second derivative of the dimensionless
potential along the trap axis) and the transverse form
B = (1/alpha + 1/2) I - A/2 share eigenvectors; eigenvalues are mu_p
(axial, ascending, mu_1 = 1 centre of mass, mu_2 = 3 stretch) and
gamma_p = 1/alpha + 1/2 - mu_p/2 (transverse, descending in p). The
chain stays linear only while gamma_N > 0, i.e. alpha below
alpha_crit = 2/(mu_N - 1).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModesError, IonChainError, ZigZagError

__all__ = [
    "ModeBasis",
    "axial_matrix",
    "critical_anisotropy",
    "diagonalize",
    "mode_basis",
]

# Eigenvalues closer than this are treated as degenerate: eigenvector
# directions inside the subspace would be solver arbitrariness, not physics.
DEGENERACY_GAP = 1e-9


def _differences(u: np.ndarray) -> np.ndarray:
    """u_m - u_n with +inf on the diagonal, where a pair term such as
    sgn(d)/d^2 or |d|^-3 is an exact zero: q != m sums need no mask."""
    diff = u[:, None] - u
    diff.reshape(-1)[::u.size + 1] = np.inf
    return diff


def axial_matrix(u: np.ndarray) -> np.ndarray:
    """Axial coupling matrix at dimensionless positions u.

    A_nn = 1 + 2 sum_{q != n} |u_n - u_q|^-3, A_nm = -2 |u_n - u_m|^-3.
    Symmetric positive definite on a proper equilibrium.
    """
    u = np.asarray(u, dtype=float)
    inv3 = np.abs(_differences(u)) ** -3
    a = -2.0 * inv3
    a.reshape(-1)[::u.size + 1] = 1.0 + 2.0 * np.add.reduce(inv3, 1)
    return a


def critical_anisotropy(mu: np.ndarray) -> float:
    """Zig-zag threshold alpha_crit = 2/(mu_N - 1) from axial eigenvalues."""
    mu = np.asarray(mu, dtype=float)
    if mu.size < 2:
        raise ValueError("critical anisotropy needs at least two ions")
    return 2.0 / (mu[-1] - 1.0)


@dataclass(frozen=True)
class ModeBasis:
    """Shared eigenbasis of the axial and transverse quadratic forms.

    vectors[:, p] is the ion-amplitude pattern of mode p (0-based column
    index; mode numbering in formulas is 1-based). Sign convention: the
    last ion's amplitude is positive in every mode. Frequencies are
    sqrt(mu) and sqrt(gamma) in units of omega3.
    """

    mu: np.ndarray
    gamma: np.ndarray
    vectors: np.ndarray
    alpha: float

    def __post_init__(self):
        for name in ("mu", "gamma", "vectors"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_ions(self) -> int:
        return self.mu.size


def _transverse_eigenvalues(mu, alpha):
    """gamma = 1/alpha + 1/2 - mu/2, elementwise over mu (and alpha)."""
    return (1.0 / alpha + 0.5) - 0.5 * mu


def _spectrum(axial: np.ndarray) -> tuple:
    """The alpha-free part of `diagonalize`: checks, eigh, degeneracy gap.

    Returns ascending mu and the eigenvectors, signs not yet fixed; a
    solved chain runs it once and passes the result to `_at_alpha`.
    """
    axial = np.asarray(axial, dtype=float)
    if axial.ndim != 2 or axial.shape[0] != axial.shape[1]:
        raise ValueError("axial matrix must be square")
    if np.maximum.reduce(np.abs(axial - axial.T), None) > 1e-12:
        raise ValueError("axial matrix must be symmetric")

    mu, vectors = np.linalg.eigh(axial)  # ascending eigenvalues
    if mu.size >= 2:
        gaps = mu[1:] - mu[:-1]
        if np.minimum.reduce(gaps) < DEGENERACY_GAP:
            p = int(np.argmin(gaps))
            raise DegenerateModesError(
                f"axial eigenvalues {p + 1} and {p + 2} are degenerate to "
                f"{gaps[p]:.3e}; eigenvectors are not well defined"
            )
    return mu, vectors


def _at_alpha(mu: np.ndarray, vectors: np.ndarray, alpha: float) -> ModeBasis:
    """ModeBasis at alpha: zig-zag check, last-ion signs (in place), gamma."""
    if mu.size >= 2:
        alpha_crit = critical_anisotropy(mu)
        if alpha >= alpha_crit:
            raise ZigZagError(alpha, alpha_crit)

    last = vectors[-1]
    vanishing = (np.abs(last) < 1e-12).nonzero()[0]
    if vanishing.size:
        raise IonChainError(
            f"mode {vanishing[0] + 1} has vanishing amplitude on the last "
            "ion; sign convention cannot be applied"
        )
    np.negative(vectors, out=vectors, where=last < 0.0)

    return ModeBasis(mu=mu, gamma=_transverse_eigenvalues(mu, alpha),
                     vectors=vectors, alpha=alpha)


def diagonalize(axial: np.ndarray, alpha: float) -> ModeBasis:
    """Diagonalize the chain's quadratic forms into a ModeBasis.

    Parameters
    ----------
    axial : (N, N) array
        Axial coupling matrix from `axial_matrix`.
    alpha : float
        Trap anisotropy (omega3/omega_transverse)^2; must lie strictly
        below the zig-zag threshold for N >= 2.

    Raises
    ------
    ZigZagError
        If alpha >= 2/(mu_N - 1): the lowest transverse mode is soft and
        the linear chain is not the ground configuration.
    DegenerateModesError
        If two axial eigenvalues are closer than 1e-9.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return _at_alpha(*_spectrum(axial), alpha)


def mode_basis(u: np.ndarray, alpha: float) -> ModeBasis:
    """Convenience wrapper: build the axial matrix at u and diagonalize."""
    return diagonalize(axial_matrix(u), alpha)

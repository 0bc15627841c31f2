"""Equilibrium structure of a linear ion chain in a harmonic trap.

Positions are handled in units of the Coulomb length scale
ell = (Q^2 / (4 pi eps0 M omega3^2))^(1/3), in which the static problem
is parameter free: ion n sits where the axial trap pull -u_n balances
the summed Coulomb repulsion of the others.
"""

from dataclasses import dataclass

import numpy as np
# the LAPACK gufunc np.linalg.solve calls for a 1-d right-hand side
from numpy.linalg._umath_linalg import solve1 as _solve1

from . import constants
from .errors import ConvergenceError
from .modes import _differences, axial_matrix

__all__ = [
    "IonSpecies",
    "species",
    "length_scale",
    "solve_equilibrium",
]

RESIDUAL_TOL = 1e-12  # Newton stops once the residual sup-norm is below
MAX_ITER = 200  # and gives up after this many steps
FLOOR_FACTOR = 2.0  # but accepts a stall within this many rounding floors


@dataclass(frozen=True)
class IonSpecies:
    """A single ion species: name, mass in kg, charge in C."""

    name: str
    mass: float
    charge: float = constants.ELEMENTARY_CHARGE

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError(f"ion mass must be positive, got {self.mass}")
        if self.charge == 0.0:
            raise ValueError("ion charge must be nonzero")


def species(name: str) -> IonSpecies:
    """Look up a built-in singly charged species by name (e.g. 'Ca40')."""
    try:
        mass_u = constants.ION_MASS_U[name]
    except KeyError:
        known = ", ".join(sorted(constants.ION_MASS_U))
        raise ValueError(f"unknown species {name!r}; known: {known}") from None
    return IonSpecies(name=name, mass=mass_u * constants.ATOMIC_MASS)


def length_scale(ion: IonSpecies, omega3: float) -> float:
    """Coulomb length ell = (Q^2/(4 pi eps0 M omega3^2))^(1/3) in metres."""
    if not omega3 > 0.0:
        raise ValueError(f"omega3 must be positive, got {omega3}")
    return (
        ion.charge**2 * constants.COULOMB_CONSTANT / (ion.mass * omega3**2)
    ) ** (1.0 / 3.0)


def equilibrium_residual(u: np.ndarray) -> np.ndarray:
    """Force-balance residual at dimensionless positions u.

    Component m is u_m minus the net Coulomb push
    sum_{n != m} sgn(u_m - u_n) / (u_m - u_n)^2; it vanishes at
    equilibrium. Positions must be pairwise distinct.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a 1-d array with at least one entry")
    diff = _differences(u)
    if not np.logical_and.reduce(diff, None):
        raise ValueError("degenerate configuration: two ions share a position")
    return u - np.add.reduce(np.sign(diff) / diff**2, 1)


def _initial_guess(n: int) -> np.ndarray:
    # Uniformly spaced ansatz u_m = s (m - (N+1)/2); the scale s makes the
    # residual vanish at the outermost ion.
    idx = np.arange(1, n + 1, dtype=float)
    centred = idx - (n + 1) / 2.0
    harmonic2 = np.sum(1.0 / np.arange(1, n, dtype=float) ** 2)
    scale = (2.0 * harmonic2 / (n - 1)) ** (1.0 / 3.0)
    return scale * centred


def _at_rounding_floor(u: np.ndarray, norm: float,
                       jacobian: np.ndarray) -> bool:
    """Whether a residual Newton cannot lower is rounding noise: within
    FLOOR_FACTOR floors eps * max_m |u_m| A_mm, the residual change one
    rounding unit of a position makes (A, the axial matrix, is the
    Jacobian). Stalls measured 0.16-0.67 floors for N = 2..300. A zero
    RESIDUAL_TOL asks for an exact root, which no floor grants.
    """
    floor = np.finfo(float).eps * np.max(np.abs(u) * np.diag(jacobian))
    return RESIDUAL_TOL > 0.0 and norm <= FLOOR_FACTOR * floor


def solve_equilibrium(n_ions: int) -> np.ndarray:
    """Dimensionless equilibrium positions of n_ions ions, sorted ascending.

    Damped Newton iteration on the force-balance residual, whose Jacobian
    is the axial mode matrix, starting from a uniformly spaced ansatz.
    Steps are halved until they reduce the residual and preserve the ion
    ordering. The converged solution is symmetrized about the origin,
    which the exact solution respects.

    Where 60 halvings of a step do not reduce the residual, or MAX_ITER
    iterations do not bring it below RESIDUAL_TOL, the iterate is
    returned if its residual is within FLOOR_FACTOR rounding floors
    (`_at_rounding_floor`); otherwise ConvergenceError is raised.

    Tested limit: up to N = 139 the residual falls below RESIDUAL_TOL =
    1e-12 (in 8 residual evaluations from N = 50 on), so those u do not
    depend on the floor rule. The floor grows with N (1.9e-12 at N = 140,
    1e-11 at 300); from N = 140 some N stall above RESIDUAL_TOL, which
    ones depending on the BLAS thread count, and every N up to 300
    solves with one BLAS thread or two (numpy 2.4, OpenBLAS, x86-64).
    """
    if not isinstance(n_ions, (int, np.integer)):
        raise ValueError(f"n_ions must be an integer, got {n_ions!r}")
    if n_ions < 1:
        raise ValueError(f"n_ions must be >= 1, got {n_ions}")
    if n_ions == 1:
        return np.zeros(1)

    largest, every = np.maximum.reduce, np.logical_and.reduce  # no wrappers
    u = _initial_guess(n_ions)
    res = equilibrium_residual(u)
    for _ in range(MAX_ITER):
        norm = largest(np.abs(res))
        if norm < RESIDUAL_TOL:
            break
        jacobian = axial_matrix(u)
        # np.linalg.solve's gufunc without its singular-matrix errstate: the
        # Jacobian is strictly diagonally dominant at every ordered iterate,
        # and a NaN step fails the ordering test below like a stalled one
        step = _solve1(jacobian, res, signature="dd->d")
        damping = 1.0
        for _ in range(60):
            trial = u - damping * step
            if every(trial[1:] > trial[:-1]):
                trial_res = equilibrium_residual(trial)
                if largest(np.abs(trial_res)) < norm:
                    break
            damping *= 0.5
        else:
            if _at_rounding_floor(u, norm, jacobian):
                break
            raise ConvergenceError(
                f"Newton damping stalled at residual {norm:.3e}", norm
            )
        u, res = trial, trial_res
    else:
        norm = np.max(np.abs(res))
        if not _at_rounding_floor(u, norm, axial_matrix(u)):
            raise ConvergenceError(
                f"equilibrium not converged after {MAX_ITER} iterations "
                f"(residual {norm:.3e})",
                norm,
            )

    u = 0.5 * (u - u[::-1])
    return u

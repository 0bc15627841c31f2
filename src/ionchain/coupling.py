"""Cubic (third-order) coupling tensors of the chain potential.

Expanding the dimensionless Coulomb-plus-trap potential to third order in
the ion displacements gives a symmetric tensor C over ion indices; its
contraction with three mode eigenvectors gives the mode-space tensor D
that controls phonon-phonon processes. Exact structure used as checks
elsewhere: C sums to zero over any one index, D vanishes whenever the
centre-of-mass mode is involved, and D with one stretch-mode index is
diagonal, D_mn2 = (1 - mu_m) delta_mn / (2 norm), norm = sqrt(sum u^2).
"""

from dataclasses import dataclass

import numpy as np

from . import modes as modes_mod
from .errors import IonChainError

__all__ = [
    "CouplingTensors",
    "IdentityReport",
    "ion_tensor",
    "mode_tensor",
    "coupling_tensors",
    "check_identities",
]


def ion_tensor(u: np.ndarray) -> np.ndarray:
    """Third-order potential derivatives in ion coordinates, (N,N,N).

    Only entries with at least two equal indices are nonzero: with
    w_mq = sgn(u_q - u_m)/(u_m - u_q)^4 (q != m),

        C_mmm = sum_{q != m} w_mq,
        C_mmp = C_mpm = C_pmm = -w_mp   for p != m.

    Each entry is assigned directly, so the tensor is symmetric by
    construction; the check that it equals all five index transposes is
    exact and trips on the NaNs of coincident ions.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    diff = u[:, None] - u[None, :]
    off = ~np.eye(n, dtype=bool)
    w = np.zeros((n, n))
    w[off] = np.sign(-diff[off]) / diff[off] ** 4

    c = np.zeros((n, n, n))
    m, p = np.nonzero(off)
    c[m, m, p] = c[m, p, m] = c[p, m, m] = -w[m, p]
    i = np.arange(n)
    c[i, i, i] = w.sum(axis=1)

    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        if not np.array_equal(c, c.transpose(perm)):
            asymmetry = float(np.max(np.abs(c - c.transpose(perm))))
            raise IonChainError(
                f"cubic tensor construction asymmetric by {asymmetry:.1e} "
                f"under index permutation {perm}"
            )
    return c


def mode_tensor(ion: np.ndarray, basis: modes_mod.ModeBasis) -> np.ndarray:
    """Contract the ion tensor with three eigenvectors: mode-space D.

    optimize=True contracts one eigenvector at a time, O(N^4) instead of
    the O(N^6) of the single nested sum; the result agrees to rounding.
    """
    v = basis.vectors
    return np.einsum("lmn,lp,mq,nr->pqr", ion, v, v, v, optimize=True)


@dataclass(frozen=True)
class CouplingTensors:
    """Cubic coupling in ion coordinates (ion) and mode coordinates (mode).

    stretch_norm is the normalization sqrt(sum_n u_n^2) of the stretch
    eigenvector u/norm; it sets the scale of the diagonal stretch rule.
    """

    ion: np.ndarray
    mode: np.ndarray
    stretch_norm: float

    def __post_init__(self):
        for name in ("ion", "mode"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_ions(self) -> int:
        return self.ion.shape[0]


def coupling_tensors(u: np.ndarray, basis: modes_mod.ModeBasis) -> CouplingTensors:
    """Build both tensors for a solved chain and its mode basis."""
    u = np.asarray(u, dtype=float)
    ion = ion_tensor(u)
    return CouplingTensors(
        ion=ion,
        mode=mode_tensor(ion, basis),
        stretch_norm=float(np.sqrt(np.sum(u**2))),
    )


@dataclass(frozen=True)
class IdentityReport:
    """Maximum violations of the exact structural identities.

    index_sum          max_mn |sum_p C_mnp|
    com_decoupling     max_mn |D_mn1|
    position_weighted  max_mn |sum_p u_p C_mnp - (delta_mn - A_mn)/2|
    stretch_diagonal   max_mn |D_mn2 - (1 - mu_m) delta_mn / (2 norm)|
    """

    index_sum: float
    com_decoupling: float
    position_weighted: float
    stretch_diagonal: float

    def max_violation(self) -> float:
        return max(
            self.index_sum,
            self.com_decoupling,
            self.position_weighted,
            self.stretch_diagonal,
        )


def check_identities(
    tensors: CouplingTensors, basis: modes_mod.ModeBasis, u: np.ndarray
) -> IdentityReport:
    """Evaluate the exact identities; all entries should be ~1e-12 or below.

    The position-weighted rule is checked against an independently built
    axial matrix, tying the cubic tensor back to the quadratic form.
    """
    u = np.asarray(u, dtype=float)
    c, d = tensors.ion, tensors.mode
    n = u.size

    index_sum = float(np.max(np.abs(c.sum(axis=2))))
    com_decoupling = float(np.max(np.abs(d[:, :, 0])))

    axial = modes_mod.axial_matrix(u)
    weighted = np.einsum("p,mnp->mn", u, c)
    target = 0.5 * (np.eye(n) - axial)
    position_weighted = float(np.max(np.abs(weighted - target)))

    if n >= 2:
        stretch_target = np.diag((1.0 - basis.mu) / (2.0 * tensors.stretch_norm))
        stretch_diagonal = float(np.max(np.abs(d[:, :, 1] - stretch_target)))
    else:
        stretch_diagonal = 0.0

    return IdentityReport(
        index_sum=index_sum,
        com_decoupling=com_decoupling,
        position_weighted=position_weighted,
        stretch_diagonal=stretch_diagonal,
    )

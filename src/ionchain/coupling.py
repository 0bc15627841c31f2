"""Cubic (third-order) coupling tensors of the chain potential.

Expanding the dimensionless Coulomb-plus-trap potential to third order in
the ion displacements gives a symmetric tensor C over ion indices; its
contraction with three mode eigenvectors gives the mode-space tensor D
that controls phonon-phonon processes. Exact structure used as checks
elsewhere: C sums to zero over any one index, D vanishes whenever the
centre-of-mass mode is involved, and D with one stretch-mode index is
diagonal, D_mn2 = (1 - mu_m) delta_mn / (2 norm), norm = sqrt(sum u^2).

Mirror rule: reflecting the chain about its centre sends ion l to ion
N + 1 - l and flips every displacement. The cubic ion tensor is odd
under it, and every mode vector is even or odd, v[::-1] = s v with
parity s = +1 or -1. So D_mnp = -s_m s_n s_p D_mnp: it vanishes exactly
unless an odd number of m, n, p are antisymmetric modes. The contraction
leaves those zeros as rounding noise; `coupling_tensors` sets them to
exactly 0.0, so the quantum generator splits along mirror parity and the
catalog's coupling floor never sees them.
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

# A mode vector further than this from v[::-1] = +-v (largest entry of
# the difference) has no mirror parity; N = 2..32 stay below 1.1e-14.
MIRROR_TOL = 1e-8


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
    diff = modes_mod._differences(u)
    w = np.sign(-diff) / diff**4
    w.reshape(-1)[::n + 1] = 0.0  # sign(-inf)/inf^4 is -0.0, kept out of C

    c = np.zeros((n, n, n))
    i = np.arange(n)
    neg = -w
    # C_mmp, C_mpm and C_pmm for every (m, p); the diagonal follows
    c[i, i] = c[i, :, i] = neg
    c[:, i, i] = neg.T
    c[i, i, i] = np.add.reduce(w, 1)

    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        # np.array_equal's test, without its wrapper
        if not np.logical_and.reduce(c == c.transpose(perm), None):
            asymmetry = float(np.max(np.abs(c - c.transpose(perm))))
            raise IonChainError(
                f"cubic tensor construction asymmetric by {asymmetry:.1e} "
                f"under index permutation {perm}"
            )
    return c


def mode_tensor(ion: np.ndarray, basis: modes_mod.ModeBasis) -> np.ndarray:
    """Contract the ion tensor with three eigenvectors: mode-space D.

    One eigenvector at a time, O(N^4) instead of the O(N^6) of the single
    nested sum; the result agrees to rounding. Symmetry-forbidden entries
    come out as rounding noise here; `coupling_tensors` zeroes them.
    These are the matmuls, on the same operand layouts, that np.einsum
    runs on the path optimize=True picks for N = 2..32: the same floats.
    """
    v = basis.vectors
    n = v.shape[0]
    t = (v.T @ ion.reshape(n, n * n)).reshape(n, n, n)  # (p, m, n)
    t = t.transpose(2, 0, 1).reshape(n * n, n) @ v  # (n, p, q)
    t = t.reshape(n, n, n).transpose(1, 2, 0).reshape(n * n, n) @ v
    return t.reshape(n, n, n)


def _mirror_parity(vectors: np.ndarray) -> np.ndarray:
    """Parity s_p = sign(v_p[::-1] . v_p) of each mode vector, as +-1.

    Raises IonChainError if v_p[::-1] differs from s_p v_p by more than
    MIRROR_TOL in any entry.
    """
    parity = np.sign(np.einsum("ip,ip->p", vectors[::-1], vectors))
    residual = np.max(np.abs(vectors[::-1] - parity * vectors), axis=0)
    bad = np.flatnonzero(~(residual <= MIRROR_TOL))
    if bad.size:
        p = int(bad[0])
        raise IonChainError(
            f"mode {p + 1} is not mirror-symmetric: |v[::-1] - s v| = "
            f"{residual[p]:.1e} > {MIRROR_TOL:.0e}"
        )
    return parity.astype(np.int8)


def _forbidden(parity: np.ndarray) -> np.ndarray:
    """Mask of the (m, n, p) with s_m s_n s_p = +1, where D vanishes."""
    return np.multiply.outer(np.multiply.outer(parity, parity), parity) > 0


@dataclass(frozen=True)
class CouplingTensors:
    """Cubic coupling in ion coordinates (ion) and mode coordinates (mode).

    stretch_norm is the normalization sqrt(sum_n u_n^2) of the stretch
    eigenvector u/norm; it sets the scale of the diagonal stretch rule.
    parity[p] is the mirror parity (+1 or -1) of mode p; mode[m, n, p] is
    exactly 0.0 wherever parity[m] * parity[n] * parity[p] = +1, and
    bit-equal to `mode_tensor` elsewhere.
    """

    ion: np.ndarray
    mode: np.ndarray
    stretch_norm: float
    parity: np.ndarray

    def __post_init__(self):
        for name, dtype in (("ion", float), ("mode", float), ("parity", np.int8)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_ions(self) -> int:
        return self.ion.shape[0]


def coupling_tensors(u: np.ndarray, basis: modes_mod.ModeBasis) -> CouplingTensors:
    """Build both tensors for a solved chain and its mode basis.

    The mirror-forbidden entries of the mode tensor are set to exactly
    0.0. Raises IonChainError if a mode vector has no mirror parity.
    """
    u = np.asarray(u, dtype=float)
    parity = _mirror_parity(basis.vectors)
    ion = ion_tensor(u)
    mode = mode_tensor(ion, basis)
    mode[_forbidden(parity)] = 0.0
    return CouplingTensors(
        ion=ion,
        mode=mode,
        stretch_norm=float(np.sqrt(np.sum(u**2))),
        parity=parity,
    )


@dataclass(frozen=True)
class IdentityReport:
    """Maximum violations of the exact structural identities.

    index_sum          max_mn |sum_p C_mnp|
    com_decoupling     max_mn |D_mn1|
    position_weighted  max_mn |sum_p u_p C_mnp - (delta_mn - A_mn)/2|
    stretch_diagonal   max_mn |D_mn2 - (1 - mu_m) delta_mn / (2 norm)|
    mirror_parity      max |D_mnp| of the unmasked contraction over the
                       entries with s_m s_n s_p = +1
    """

    index_sum: float
    com_decoupling: float
    position_weighted: float
    stretch_diagonal: float
    mirror_parity: float

    def max_violation(self) -> float:
        return max(
            self.index_sum,
            self.com_decoupling,
            self.position_weighted,
            self.stretch_diagonal,
            self.mirror_parity,
        )


def check_identities(
    tensors: CouplingTensors, basis: modes_mod.ModeBasis, u: np.ndarray
) -> IdentityReport:
    """Evaluate the exact identities; all entries should be ~1e-12 or below.

    The position-weighted rule is checked against an independently built
    axial matrix, tying the cubic tensor back to the quadratic form. The
    mirror rule is checked on a fresh, unmasked contraction, so it tests
    the symmetry rather than the mask.
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

    unmasked = mode_tensor(c, basis)
    mirror_parity = float(np.max(np.abs(unmasked[_forbidden(tensors.parity)])))

    return IdentityReport(
        index_sum=index_sum,
        com_decoupling=com_decoupling,
        position_weighted=position_weighted,
        stretch_diagonal=stretch_diagonal,
        mirror_parity=mirror_parity,
    )

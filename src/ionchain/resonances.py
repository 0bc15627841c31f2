"""Catalog of three-mode phonon resonances of the linear chain.

A cubic term couples two transverse modes (m, n) to one axial mode (p).
The process conserves energy when one of

    delta(-) = sqrt(gamma_m) - sqrt(gamma_n) - sqrt(mu_p)   (first kind:
               transverse phonon m converts to axial p + transverse n)
    delta(+) = sqrt(gamma_m) + sqrt(gamma_n) - sqrt(mu_p)   (second kind:
               axial phonon p down-converts to transverse m + n)

vanishes. Since gamma depends on the anisotropy alpha, each triple picks
out at most one resonant alpha in the stable window; squaring either
condition twice gives the closed form implemented in candidate_alpha.
Entries are keyed the way the resonance acts: (m, n) = (larger, smaller)
index for the second kind, (destroyed, created) for the first kind.

The formulas are written once and evaluated as numpy expressions over
arrays of triples: every (p, i <= j) of a chain goes through that kernel
at once, when the chain is solved, and `build_catalog` and the CLI read
the catalog the chain keeps. The scalar `delta`, `candidate_alpha` and
`classify` are the one-triple case of the same code. gamma is `modes`'
formula, and mu is the chain's one axial spectrum (see `_Chain`).
"""

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import coupling as coupling_mod
from . import equilibrium as equilibrium_mod
from . import modes as modes_mod

__all__ = [
    "FIRST_KIND",
    "SECOND_KIND",
    "ResonanceEntry",
    "delta",
    "candidate_alpha",
    "classify",
    "alpha_min",
    "build_catalog",
]

FIRST_KIND = "first"
SECOND_KIND = "second"

# |delta| below this at the candidate alpha counts as an exact resonance.
MATCH_TOL = 1e-9
# Couplings at or below this are treated as zero. Mirror-forbidden ones
# are exactly 0.0 already (coupling.coupling_tensors).
COUPLING_FLOOR = 1e-12
# Solved chains one process keeps, least recently used first out.
_CHAIN_MEMO_SIZE = 16


def _first_failing(values, ok):
    """The first element of values (broadcast to ok) where ok is false."""
    return np.broadcast_to(values, np.shape(ok))[np.logical_not(ok)].flat[0]


def delta(mu_m, mu_n, mu_p, alpha, sign: int):
    """Resonance mismatch sqrt(gamma_m) +/- sqrt(gamma_n) - sqrt(mu_p).

    sign +1 selects the second-kind combination, -1 the first-kind one.
    The eigenvalues and alpha may be arrays, one triple per element.
    Raises if either transverse eigenvalue is non-positive at this alpha
    (the chain would be outside the linear regime).
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    positive = alpha > 0.0
    if not np.all(positive):
        raise ValueError(
            f"alpha must be positive, got {_first_failing(alpha, positive)}")
    gm = modes_mod._transverse_eigenvalues(mu_m, alpha)
    gn = modes_mod._transverse_eigenvalues(mu_n, alpha)
    linear = (gm > 0.0) & (gn > 0.0)
    if not np.all(linear):
        raise ValueError(
            f"transverse eigenvalue not positive at "
            f"alpha={_first_failing(alpha, linear):.6g}; "
            "outside the linear regime"
        )
    return gm**0.5 + sign * gn**0.5 - mu_p**0.5


def candidate_alpha(mu_m, mu_n, mu_p):
    """The unique alpha at which the triple can satisfy either condition.

    Obtained by eliminating the square roots from delta = 0:

        alpha = 16 mu_p / (4 mu_p^2 + mu_m^2 + mu_n^2 - 8 mu_p
                           + 4 mu_p mu_m + 4 mu_p mu_n - 2 mu_m mu_n).

    The denominator is positive for every physical eigenvalue triple, so
    the candidate always exists; whether it is an actual resonance (and
    of which kind) is decided by `classify`. The eigenvalues may be
    arrays, one triple per element.
    """
    den = (
        4.0 * mu_p**2
        + mu_m**2
        + mu_n**2
        - 8.0 * mu_p
        + 4.0 * mu_p * mu_m
        + 4.0 * mu_p * mu_n
        - 2.0 * mu_m * mu_n
    )
    positive = den > 0.0
    if not np.all(positive):
        raise ValueError(
            f"non-positive denominator for eigenvalues "
            f"({_first_failing(mu_m, positive):.6g}, "
            f"{_first_failing(mu_n, positive):.6g}, "
            f"{_first_failing(mu_p, positive):.6g}); inputs are unphysical"
        )
    return 16.0 * mu_p / den


def _match(mu_m, mu_n, mu_p, alpha, tol):
    """Which condition each candidate satisfies within tol.

    Returns the second-kind mask, the first-kind mask and the matched
    delta (the first-kind one where neither matches). Raises if both
    conditions match for any candidate.
    """
    d_plus = delta(mu_m, mu_n, mu_p, alpha, +1)
    d_minus = delta(mu_m, mu_n, mu_p, alpha, -1)
    plus_ok = abs(d_plus) < tol
    minus_ok = abs(d_minus) < tol
    unambiguous = np.logical_not(plus_ok & minus_ok)
    if not np.all(unambiguous):
        raise ValueError(
            f"ambiguous resonance: both conditions vanish at "
            f"alpha={_first_failing(alpha, unambiguous):.9g}"
        )
    return plus_ok, minus_ok, np.where(plus_ok, d_plus, d_minus)


def classify(
    mu_m: float,
    mu_n: float,
    mu_p: float,
    alpha_candidate: float,
    tol: float = MATCH_TOL,
):
    """Which condition the candidate alpha actually satisfies, if any.

    Returns FIRST_KIND, SECOND_KIND, or None. Both matching within tol
    would mean a degenerate transverse mode at the stability edge and is
    reported as an error rather than silently resolved. The one-triple
    case of the test the catalog runs over all triples at once.
    """
    plus_ok, minus_ok, _ = _match(mu_m, mu_n, mu_p, alpha_candidate, tol)
    if plus_ok:
        return SECOND_KIND
    if minus_ok:
        return FIRST_KIND
    return None


def alpha_min(mu) -> float:
    """Lower edge of the resonance window from the axial spectrum.

    No triple resonates below this alpha: the softest candidate pairs the
    weakest transverse modes with the stiffest axial one, giving
    4/(3 mu_N - 2) for even N and, for odd N (where that diagonal triple
    has symmetry-forbidden coupling), the (N, N-1, N) candidate
    16 mu_N / (mu_N (9 mu_N + 2 mu_{N-1} - 8) + mu_{N-1}^2).
    """
    mu = list(mu)
    n = len(mu)
    if n < 2:
        raise ValueError("alpha_min needs at least two modes")
    mu_top = mu[-1]
    if n % 2 == 0:
        return 4.0 / (3.0 * mu_top - 2.0)
    mu_sub = mu[-2]
    return 16.0 * mu_top / (mu_top * (9.0 * mu_top + 2.0 * mu_sub - 8.0) + mu_sub**2)


@dataclass(frozen=True)
class ResonanceEntry:
    """One resonant triple: transverse modes m, n and axial mode p (1-based).

    alpha_res is where the matched condition vanishes, coupling is the
    mode-space cubic coefficient D_mnp, delta_residual the matched delta
    re-evaluated at alpha_res (machine-zero by construction).
    """

    n_ions: int
    m: int
    n: int
    p: int
    kind: str
    alpha_res: float
    coupling: float
    delta_residual: float

    def __post_init__(self):
        if self.kind not in (FIRST_KIND, SECOND_KIND):
            raise ValueError(f"unknown resonance kind {self.kind!r}")
        for idx in (self.m, self.n, self.p):
            if not 2 <= idx <= self.n_ions:
                raise ValueError(
                    f"mode index {idx} outside 2..{self.n_ions}; "
                    "mode 1 never couples"
                )
        if self.kind == FIRST_KIND and self.m == self.n:
            raise ValueError("first-kind resonance needs two distinct modes")
        if not self.alpha_res > 0.0:
            raise ValueError(f"alpha_res must be positive, got {self.alpha_res}")
        if abs(self.coupling) <= COUPLING_FLOOR:
            raise ValueError("entries with zero coupling are excluded")
        if abs(self.delta_residual) >= MATCH_TOL:
            raise ValueError(
                f"delta residual {self.delta_residual:.3e} too large "
                "for a resonance entry"
            )


@dataclass(frozen=True)
class _Chain:
    """One solved chain: what the catalog and the CLI read from it.

    One eigh of the axial matrix gives probe, the mode basis at half the
    zig-zag threshold alpha_crit; probe.mu is the one spectrum that
    alpha_crit, the catalog, alpha_min and the rates read (James, Appl.
    Phys. B 66, 181 (1998)), bit-equal to the mu of any `mode_basis(u,
    alpha)`. tensors are the probe's cubic couplings; they hold at every
    stable alpha, as the eigenvectors do. resonances maps (p, min(m, n),
    max(m, n)) to the catalog entry, in (p, m, n) order. All of it is
    read-only (u from `_positions`): one memoised chain is shared by
    every caller in the process.
    """

    u: np.ndarray
    probe: modes_mod.ModeBasis
    tensors: coupling_mod.CouplingTensors
    resonances: MappingProxyType = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "resonances",
                           MappingProxyType(_catalog(self)))

    @property
    def n_ions(self) -> int:
        return self.u.size

    @property
    def alpha_crit(self) -> float:
        return modes_mod.critical_anisotropy(self.probe.mu)

    def basis_at(self, alpha: float) -> modes_mod.ModeBasis:
        """`mode_basis(u, alpha)`, bit-equal, from the probe's spectrum.

        No eigh: the probe's sign-fixed vectors are copied and taken to
        alpha, with the checks and messages of `diagonalize`.
        """
        if not alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return modes_mod._at_alpha(self.probe.mu, self.probe.vectors.copy(),
                                   alpha)


def _check_length(n_ions: int, n_cap: int = 10) -> None:
    """Raise unless 2 <= n_ions <= n_cap, the guard of `build_catalog`."""
    if not 2 <= n_ions <= n_cap:
        raise ValueError(f"n_ions must be in 2..{n_cap}, got {n_ions}")


def _solve_chain(n_ions: int, n_cap: int = 10) -> _Chain:
    """The solved n_ions chain; n_cap bounds it as in `build_catalog`.

    Each chain length is solved once per process: the result is kept in
    an LRU memo of _CHAIN_MEMO_SIZE chains keyed by n_ions alone, so
    repeated CLI calls and catalogs in one process share it. The guard
    runs before the lookup, so an out-of-range n_ions raises on every
    call and nothing is cached for it. The ion and mode tensors, 2 N^3
    8-byte floats, and the catalog make up an entry: 32 KB at N = 10,
    0.9 MB at N = 32, so 16 chains up to N = 32 hold at most 15 MB.
    """
    _check_length(n_ions, n_cap)
    return _memo_chain(n_ions)


@functools.lru_cache(maxsize=_CHAIN_MEMO_SIZE)
def _positions(n_ions: int) -> np.ndarray:
    """Read-only positions, solved once per process; N floats each, no n_cap."""
    u = equilibrium_mod.solve_equilibrium(n_ions)
    u.flags.writeable = False
    return u


@functools.lru_cache(maxsize=_CHAIN_MEMO_SIZE)
def _memo_chain(n_ions: int) -> _Chain:
    """The solve behind `_solve_chain`; `__wrapped__` builds a fresh chain."""
    u = _positions(n_ions)
    mu, vectors = modes_mod._spectrum(modes_mod.axial_matrix(u))
    probe = modes_mod._at_alpha(mu, vectors,
                                0.5 * modes_mod.critical_anisotropy(mu))
    tensors = coupling_mod.coupling_tensors(u, probe)
    return _Chain(u=u, probe=probe, tensors=tensors)


def _catalog(chain: _Chain, tol: float = MATCH_TOL):
    """Every resonance of a solved chain, keyed by its (p, i, j) =
    (p, min(m, n), max(m, n)), in (p, m, n) order.

    Every step is one numpy expression over all (p, i <= j) in 2..N: the
    candidate alpha, the zig-zag window, the two delta signs with the
    ambiguity error, the role keys, the first-kind i == j skip and the
    coupling floor. Only the surviving entries are built one by one.
    """
    span = chain.n_ions - 1
    rows, cols = np.triu_indices(span)
    p = np.repeat(np.arange(2, chain.n_ions + 1), rows.size)
    i = np.tile(rows + 2, span)
    j = np.tile(cols + 2, span)
    mu = chain.probe.mu
    alpha = candidate_alpha(mu[i - 1], mu[j - 1], mu[p - 1])
    inside = alpha < chain.alpha_crit
    p, i, j, alpha = p[inside], i[inside], j[inside], alpha[inside]
    second, first, residual = _match(mu[i - 1], mu[j - 1], mu[p - 1],
                                     alpha, tol)
    m = np.where(second, j, i)
    n = np.where(second, i, j)
    coupling = chain.tensors.mode[m - 1, n - 1, p - 1]
    keep = (second | (first & (i != j))) & (np.abs(coupling) > COUPLING_FLOOR)
    kept = np.flatnonzero(keep)
    kept = kept[np.lexsort((n[kept], m[kept], p[kept]))]
    # each kept column read once, as Python scalars, and passed in the
    # field order of ResonanceEntry
    p = p[kept].tolist()
    kinds = [SECOND_KIND if s else FIRST_KIND for s in second[kept].tolist()]
    entries = map(ResonanceEntry, [chain.n_ions] * kept.size,
                  m[kept].tolist(), n[kept].tolist(), p, kinds,
                  alpha[kept].tolist(), coupling[kept].tolist(),
                  residual[kept].tolist())
    return dict(zip(zip(p, i[kept].tolist(), j[kept].tolist()), entries))


def build_catalog(n_ions: int, n_cap: int = 10):
    """All resonant triples of an n_ions chain, with couplings.

    Every axial mode p and unordered transverse pair {i <= j} (all in
    2..N) go through one vectorised kernel, which computes the candidate
    alphas, keeps those below the zig-zag threshold, classifies them, and
    drops the symmetry-forbidden couplings. Keys follow the role
    convention described in the module docstring, so each (pair, p)
    combination appears exactly once. Entries are sorted by (p, m, n).
    The kernel runs once per chain, when `_solve_chain` solves it; each
    call returns a new list of the chain's frozen entries.

    n_cap guards against accidentally huge enumerations; raise it
    explicitly for chains longer than 10 ions.
    """
    return list(_solve_chain(n_ions, n_cap).resonances.values())

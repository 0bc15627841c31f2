"""Quantized phonon dynamics in a truncated number-state basis.

The mode oscillators are quantized with one ladder-operator family per
direction (z axial, x and y transverse). The cubic potential becomes,
in units of hbar*omega3 with dimensionless time tau = omega3*t,

    H_I = eps * sum_{mnp} D_mnp / mu_p^(1/4) * (a_p + a_p+)
          * [ 2/(mu_m mu_n)^(1/4) (a_m + a_m+)(a_n + a_n+)
            - 3/(gamma_m gamma_n)^(1/4) ((b_m + b_m+)(b_n + b_n+)
                                        + (c_m + c_m+)(c_n + c_n+)) ],

    eps = (1/(4 sqrt 2)) [hbar omega3 / (alpha_fsc^2 M c^2)]^(1/6),

where eps is the ion wavepacket width over four Coulomb lengths. Builders
sum the ordered triple sum literally (no hand-inserted symmetry factors);
the rotating-wave builder keeps only monomials whose interaction-picture
phase nearly vanishes, which at a catalog resonance reproduces the
down-conversion coupling with the expected collapsed coefficient
6 D_mnp / (mu_p gamma_m gamma_n)^(1/4).

Operators are never formed as dense ladder-matrix products. A ladder
operator is index arithmetic on the mixed-radix basis: it moves state i
by the mode's place value with amplitude sqrt(n) or sqrt(n + 1). Both
interaction builders apply each cubic monomial to every basis column at
once and emit its nonzero entries as (row, column, value) triplets; no
ladder matrices are cached. A HamiltonianMatrix is built from such
triplets only: it stores them coalesced, real whenever no entry has an
imaginary part (every physical matrix here), and checks once that each
entry has its adjoint. Nothing of size dim^2 is formed on the
propagation path.

`propagate(h, start, taus)` is the one quantum run. It splits the
triplets into the connected blocks of their pattern. A block is
assembled densely and diagonalized only when a start with amplitude in
it asks for it, and the result is kept on the operator for later runs;
blocks where the start has no amplitude are skipped exactly. All
samples of a run come from one product V @ (exp(-i w tau_k) * c) per
live part. The blocks are the conserved sectors: the full cubic
generator keeps the parities of total x and of total y occupation and
the mirror parity (8 blocks, since the mirror-forbidden couplings are
exact zeros, see `coupling`), and at a second-kind resonance the
rotating-wave matrix couples |z_p = 1> only to the x-pair and y-pair
states (a 3-state block at any cutoff). Each builder takes the basis
states to build on (`states`), and `simulate` passes `sector_states` of
its initial state: 128 of 1024 states at cutoff 3, 410 of 3125 at
cutoff 4, 2163 of 16807 at cutoff 6. A block of at least 64 states that
the x<->y exchange maps onto itself, entries equal to 1e-14, splits into
its exchange-symmetric and antisymmetric parts (Sandvik, AIP Conf. Proc.
1297, 135 (2010)), and only the parts the start has a component on are
diagonalized: |z_p = 1> is exchange-symmetric, so its full run
diagonalizes a 72-state part at cutoff 3, 218 at cutoff 4 and 1119 at
cutoff 6. The returned `Propagation` holds the samples on the live
support only, the sorted basis states of the live parts (every
amplitude outside it is exactly zero), and reads the norms,
populations, Schmidt entropies and top-Fock leakage from there. On one
x86-64 core a `simulate` run with mode = both and 201 samples takes
about 0.02 s at cutoff 3, 0.08 s at cutoff 4 and 0.6 s at cutoff 6 (89
MB peak memory; 2.7 s and 236 MB when every generator was built on all
basis states and the sector diagonalized whole).
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product

import numpy as np

from . import constants
from .equilibrium import IonSpecies, length_scale
from .errors import NoResonantCouplingError
from .modes import ModeBasis, _transverse_eigenvalues
from .coupling import CouplingTensors
from .resonances import MATCH_TOL, ResonanceEntry, SECOND_KIND

__all__ = [
    "FockBasis",
    "HamiltonianMatrix",
    "Propagation",
    "nonlinearity_epsilon",
    "wavepacket_epsilon",
    "rwa_coefficient",
    "resonance_mode_set",
    "down_conversion_states",
    "build_free_hamiltonian",
    "build_full_interaction",
    "build_rwa_interaction",
    "sector_states",
    "propagate",
    "three_state_solution",
]

DIRECTIONS = ("x", "y", "z")

# Blocks below this many states are diagonalized whole: there the x<->y
# split's bookkeeping costs about as much as the eigh it saves (the
# 33-state sector at cutoff 2 propagates in 0.77 ms whole, 0.79 ms split).
_SPLIT_MIN_STATES = 64

# Samples per block of the Schmidt Gram products in `_schmidt_entropies`.
_SCHMIDT_BLOCK = 64

# a pair's weight in its orbit vector, and the weight of an entry between
# two orbit vectors by how many of the two orbits are pairs: 1, 1/sqrt(2)
# or 1/2, each the correctly rounded value
_PAIR_WEIGHT = np.sqrt(0.5)
_ORBIT_SCALE = np.array([1.0, _PAIR_WEIGHT, 0.5])


# --- nonlinearity scale -------------------------------------------------

def nonlinearity_epsilon(ion: IonSpecies, omega3: float) -> float:
    """Dimensionless cubic-coupling strength for a species and trap.

    Uses the generalized fine-structure factor Q^2/(4 pi eps0 hbar c) so
    that this closed form and `wavepacket_epsilon` agree identically for
    any charge state.
    """
    if not omega3 > 0.0:
        raise ValueError(f"omega3 must be positive, got {omega3}")
    alpha_q = (
        ion.charge**2
        * constants.COULOMB_CONSTANT
        / (constants.HBAR * constants.SPEED_OF_LIGHT)
    )
    ratio = constants.HBAR * omega3 / (
        alpha_q**2 * ion.mass * constants.SPEED_OF_LIGHT**2
    )
    return ratio ** (1.0 / 6.0) / (4.0 * np.sqrt(2.0))


def wavepacket_epsilon(ion: IonSpecies, omega3: float) -> float:
    """Same quantity as the ground-state width over 4 Coulomb lengths."""
    sigma = np.sqrt(constants.HBAR / (2.0 * ion.mass * omega3))
    return sigma / (4.0 * length_scale(ion, omega3))


def rwa_coefficient(entry: ResonanceEntry, mu) -> float:
    """Collapsed coupling coefficient 6 D_mnp/(mu_p gamma_m gamma_n)^(1/4).

    Evaluated from the axial eigenvalues at the entry's own resonant
    anisotropy; signed like the coupling. Defined for nondegenerate
    second-kind entries, the setting of the three-state model.
    """
    if entry.kind != SECOND_KIND or entry.m == entry.n:
        raise ValueError(
            "collapsed coefficient applies to second-kind resonances with "
            "two distinct transverse modes"
        )
    mu = np.asarray(mu, dtype=float)
    gm, gn = _transverse_eigenvalues(mu[[entry.m - 1, entry.n - 1]],
                                     entry.alpha_res)
    return 6.0 * entry.coupling / (mu[entry.p - 1] * gm * gn) ** 0.25


# --- basis and states ---------------------------------------------------

def _as_mode(mode) -> tuple:
    direction, index = mode
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    index = int(index)
    if index < 1:
        raise ValueError(f"mode index must be >= 1, got {index}")
    return (direction, index)


@dataclass(frozen=True)
class FockBasis:
    """Truncated occupation-number basis over a chosen set of modes.

    modes are (direction, 1-based index) pairs; cutoffs are per-mode
    maximum occupations. Basis states enumerate occupations in mixed
    radix with the first listed mode as the slowest-varying digit.
    """

    modes: tuple
    cutoffs: tuple

    def __post_init__(self):
        modes = tuple(_as_mode(m) for m in self.modes)
        cutoffs = tuple(int(c) for c in self.cutoffs)
        if len(modes) != len(set(modes)):
            raise ValueError("every active mode may appear only once")
        if len(cutoffs) != len(modes):
            raise ValueError("need one cutoff per active mode")
        if any(c < 1 for c in cutoffs):
            raise ValueError("cutoffs must be >= 1")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "cutoffs", cutoffs)

    @classmethod
    def uniform(cls, modes, cutoff: int = 2) -> "FockBasis":
        modes = tuple(modes)
        return cls(modes=modes, cutoffs=(cutoff,) * len(modes))

    @property
    def dimension(self) -> int:
        dim = 1
        for c in self.cutoffs:
            dim *= c + 1
        return dim

    @property
    def shape(self) -> tuple:
        return tuple(c + 1 for c in self.cutoffs)

    def axis_of(self, mode) -> int:
        try:
            return self.modes.index(_as_mode(mode))
        except ValueError:
            raise ValueError(f"mode {mode} is not active in this basis") from None

    def index_of(self, occupations: dict) -> int:
        """Flat basis index of an occupation dictionary {mode: count}."""
        occ = [0] * len(self.modes)
        for mode, count in occupations.items():
            k = self.axis_of(mode)
            count = int(count)
            if not 0 <= count <= self.cutoffs[k]:
                raise ValueError(
                    f"occupation {count} of mode {mode} outside 0..{self.cutoffs[k]}"
                )
            occ[k] = count
        return int(np.ravel_multi_index(occ, self.shape))

    def occupations(self, index: int) -> dict:
        occ = np.unravel_index(int(index), self.shape)
        return {mode: int(n) for mode, n in zip(self.modes, occ)}

    def number_state(self, occupations: dict) -> np.ndarray:
        amps = np.zeros(self.dimension, dtype=complex)
        amps[self.index_of(occupations)] = 1.0
        return amps

    # the dense dim^2 ladders: no builder uses them; they stay only because
    # the frozen benchmark harness (perfbench/spans.py, test_spans.py)
    # reads them, until its instrumentation moves into the library
    def lowering(self, mode) -> np.ndarray:
        return _dense(self, *_ladder(self, mode, raising=False))

    def raising(self, mode) -> np.ndarray:
        return _dense(self, *_ladder(self, mode, raising=True))


def _ladder(basis: FockBasis, mode, raising: bool) -> tuple:
    """One ladder operator as (target, amp) over every basis state.

    State i goes to target[i] with amplitude amp[i]: i - stride with
    sqrt(n) when lowering, i + stride with sqrt(n + 1) when raising, where
    n is the mode's occupation and stride its mixed-radix place value.
    target is -1 (and amp 0) where the operator leaves the basis.
    """
    k = basis.axis_of(mode)
    stride = int(np.prod(basis.shape[k + 1:], dtype=np.int64))
    index = np.arange(basis.dimension)
    n = (index // stride) % basis.shape[k]
    if raising:
        inside = n < basis.cutoffs[k]
        target, amp = index + stride, np.sqrt(n + 1.0)
    else:
        inside = n > 0
        target, amp = index - stride, np.sqrt(n.astype(float))
    return np.where(inside, target, -1), np.where(inside, amp, 0.0)


def _dense(basis: FockBasis, target: np.ndarray, amp: np.ndarray) -> np.ndarray:
    op = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    columns = np.flatnonzero(target >= 0)
    op[target[columns], columns] = amp[columns]
    return op


def _checked_norms(amps: np.ndarray) -> np.ndarray:
    """Norm of each amplitude vector along the last axis.

    Raises if any deviates from 1 beyond 1e-9 (or is not finite).
    """
    norms = np.linalg.norm(amps, axis=-1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))
    if bad.size:
        raise ValueError(
            f"state norm {np.ravel(norms)[bad[0]]:.12f} deviates from 1 "
            "beyond 1e-9"
        )
    return norms


class HamiltonianMatrix:
    """Hermitian operator in units of hbar*omega3 over a FockBasis.

    Built from (row, column, value) triplets over the basis indices and
    held as coalesced COO triplets: one per nonzero entry, sorted by row
    then column. The values are real float64 when no entry has an
    imaginary part, complex otherwise. `.matrix` gives a read-only dense
    copy, built on every request. `h_free + h_int` sums two operators on
    one basis by concatenating their triplets. states, a collection of
    basis indices (None: all), are the basis states the operator acts
    on; every entry must lie inside them, and `propagate` refuses a
    start with amplitude anywhere else.
    """

    def __init__(self, basis: FockBasis, rows, cols, values, states=None):
        """Coalesce the triplets, check Hermiticity once, keep them.

        Repeated positions are summed in input order (so a sum of
        builders adds the same way a dense accumulation would); entries
        that sum to exactly zero are dropped. An entry outside states
        raises ValueError: states must be a union of the operator's
        blocks, as the symmetry sectors of the cubic couplings are.
        """
        states = _basis_states(basis, states)
        dim = basis.dimension
        keys = np.asarray(rows, dtype=np.int64) * dim + np.asarray(cols, dtype=np.int64)
        keys, inverse = np.unique(keys, return_inverse=True)
        values = np.asarray(values)
        if np.iscomplexobj(values) and not np.any(values.imag):
            values = values.real
        summed = np.empty(keys.size, dtype=np.result_type(values, np.float64))
        summed.real = np.bincount(inverse, weights=values.real, minlength=keys.size)
        if np.iscomplexobj(summed):
            summed.imag = np.bincount(inverse, weights=values.imag, minlength=keys.size)
        nonzero = summed != 0
        keys, summed = keys[nonzero], summed[nonzero]

        rows, cols = keys // dim, keys % dim
        member = np.zeros(dim, dtype=bool)
        member[states] = True
        if not (np.all(member[rows]) and np.all(member[cols])):
            raise ValueError(
                "an entry leaves the given basis states: they are not a "
                "union of the operator's symmetry sectors")

        # every entry needs its adjoint: |h_ij - conj(h_ji)| <= 1e-12 scale,
        # with h_ji = 0 where no entry sits at (j, i)
        adjoint_keys = cols * dim + rows
        at = np.minimum(np.searchsorted(keys, adjoint_keys), max(keys.size - 1, 0))
        adjoint = np.where(keys[at] == adjoint_keys, summed[at], 0.0)
        scale = max(1.0, float(np.max(np.abs(summed), initial=0.0)))
        if not np.max(np.abs(summed - adjoint.conj()), initial=0.0) <= 1e-12 * scale:
            raise ValueError("matrix is not Hermitian to 1e-12 relative")

        for array in (rows, cols, summed):
            array.flags.writeable = False
        self.basis = basis
        self._keys, self._rows, self._cols, self._values = keys, rows, cols, summed
        self._states = states
        self._diagonalized = {}
        self._orbits = {}

    def __add__(self, other):
        if not isinstance(other, HamiltonianMatrix):
            return NotImplemented
        if other.basis != self.basis:
            raise ValueError("cannot add Hamiltonians on different bases")
        states = _union(self.basis.dimension, [self._states, other._states])
        return HamiltonianMatrix(
            self.basis, np.concatenate([self._rows, other._rows]),
            np.concatenate([self._cols, other._cols]),
            np.concatenate([self._values, other._values]), states)

    def _check_amplitudes(self, amps: np.ndarray):
        """Raise if amps has amplitude on a state the operator leaves out."""
        if np.count_nonzero(amps) > np.count_nonzero(amps[self._states]):
            raise ValueError(
                "state has amplitude outside the basis states the "
                "Hamiltonian was built on")

    @property
    def matrix(self) -> np.ndarray:
        """Read-only dense copy (dim^2 memory; propagation never asks)."""
        dim = self.basis.dimension
        mat = np.zeros((dim, dim), dtype=self._values.dtype)
        mat[self._rows, self._cols] = self._values
        mat.flags.writeable = False
        return mat

    @cached_property
    def _blocks(self) -> tuple:
        """Connected blocks of the stored pattern as (order, starts)."""
        return _connected_blocks(self._rows, self._cols, self.basis.dimension)

    @cached_property
    def _block_entries(self) -> tuple:
        """Block layout as (ends, entry_order, bounds).

        Block b holds the states order[starts[b]:ends[b]] and the stored
        entries entry_order[bounds[b]:bounds[b + 1]].
        """
        order, starts = self._blocks
        ends = np.append(starts[1:], order.size)
        block_of = np.empty(order.size, dtype=np.intp)
        block_of[order] = np.repeat(np.arange(starts.size), ends - starts)
        entry_block = block_of[self._rows]
        entry_order = np.argsort(entry_block, kind="stable")
        bounds = np.searchsorted(entry_block[entry_order], np.arange(starts.size + 1))
        return ends, entry_order, bounds

    def _exchange_orbits(self, b: int):
        """Orbits of the x<->y swap on block b as (reps, partners), or None.

        The swap exchanges the occupations of (x, i) and (y, i) for every
        i. It splits block b when the block has at least
        _SPLIT_MIN_STATES states, the swap maps it onto itself and every
        entry equals its swapped entry to 1e-14 of the block's largest
        one. Each orbit is a fixed state (partner == rep) or a pair,
        represented by its smaller index; reps is sorted. Kept per block.
        """
        if b not in self._orbits:
            self._orbits[b] = self._find_orbits(b)
        return self._orbits[b]

    def _find_orbits(self, b: int):
        basis = self.basis
        idx, entries, r, c = self._block(b)
        if idx.size < _SPLIT_MIN_STATES:
            return None
        try:
            swap = [basis.axis_of(({"x": "y", "y": "x"}.get(d, d), i))
                    for d, i in basis.modes]
        except ValueError:
            return None
        if [basis.cutoffs[k] for k in swap] != list(basis.cutoffs):
            return None
        occ = np.unravel_index(idx, basis.shape)
        swapped = np.ravel_multi_index([occ[k] for k in swap], basis.shape)
        # the block's states are sorted, so it maps onto itself exactly
        # when its swapped states sorted are the same indices
        if not np.array_equal(np.sort(swapped), idx):
            return None
        values = self._values[entries]
        swapped_keys = swapped[r] * basis.dimension + swapped[c]
        at = np.minimum(np.searchsorted(self._keys, swapped_keys),
                        self._keys.size - 1)
        mirrored = np.where(self._keys[at] == swapped_keys, self._values[at], 0.0)
        scale = float(np.max(np.abs(values), initial=0.0))
        if not np.max(np.abs(values - mirrored), initial=0.0) <= 1e-14 * scale:
            return None
        first = swapped >= idx
        return idx[first], swapped[first]

    def _block(self, b: int) -> tuple:
        """(states, entries, rows, cols) of block b: its sorted basis
        indices, the positions of its stored entries and their rows and
        columns as positions in states."""
        order, starts = self._blocks
        ends, entry_order, bounds = self._block_entries
        idx = order[starts[b]:ends[b]]
        entries = entry_order[bounds[b]:bounds[b + 1]]
        return (idx, entries, np.searchsorted(idx, self._rows[entries]),
                np.searchsorted(idx, self._cols[entries]))

    def _eigensystem(self, b: int, part=None) -> tuple:
        """(states, eigenvalues, eigenvectors) of block b or of one part.

        part None is the whole block, assembled densely from its entries;
        states are its basis indices. part +1 or -1 is the x<->y
        symmetric or antisymmetric part of a block `_exchange_orbits`
        splits, on the orbit vectors: a fixed state, or (|rep> +- |partner>)
        / sqrt(2) for a pair (the antisymmetric part has pairs only).
        states are the orbit representatives. Each part is summed from the
        block's entries weighted by the two orbit vectors' components.
        Diagonalized the first time it is asked for; the result is kept
        under (b, part).
        """
        key = (b, part)
        if key not in self._diagonalized:
            idx, entries, r, c = self._block(b)
            values = self._values[entries]
            if part is None:
                states, size, flat = idx, idx.size, r * idx.size + c
            else:
                reps, partners = self._exchange_orbits(b)
                paired = partners != reps
                keep = paired if part < 0 else np.ones(reps.size, dtype=bool)
                states = reps[keep]
                size = states.size
                # per block state: its orbit's place in the part, its sign
                # in the orbit vector (0 outside the part) and whether the
                # orbit is a pair (weight 1/sqrt(2))
                at_rep = np.searchsorted(idx, reps)
                at_partner = np.searchsorted(idx, partners)
                orbit = np.empty(idx.size, dtype=np.intp)
                orbit[at_partner] = orbit[at_rep] = np.cumsum(keep) - 1
                sign = np.zeros(idx.size)
                sign[at_rep] = keep
                sign[at_partner[paired]] = part
                pairs = np.zeros(idx.size, dtype=np.intp)
                pairs[at_partner] = pairs[at_rep] = paired
                factor = sign[r] * sign[c] * _ORBIT_SCALE[pairs[r] + pairs[c]]
                inside = factor != 0.0
                flat = (orbit[r] * size + orbit[c])[inside]
                values = (factor * values)[inside]
            block = np.empty(size * size, dtype=values.dtype)
            block.real = np.bincount(flat, weights=values.real,
                                     minlength=block.size)
            if np.iscomplexobj(block):
                block.imag = np.bincount(flat, weights=values.imag,
                                         minlength=block.size)
            w, v = np.linalg.eigh(block.reshape(size, size))
            self._diagonalized[key] = (states, w, v)
        return self._diagonalized[key]


def _connected_blocks(rows: np.ndarray, cols: np.ndarray, dim: int) -> tuple:
    """Connected components of an edge list over dim states, as (order, starts).

    order lists the indices component by component; starts marks where
    each component begins in order. Label propagation: each state takes
    the smallest label among its neighbours, then labels jump to the label
    of their label until they settle; this repeats until no label changes,
    when every component carries one label, the smallest index in it.
    """
    label = np.arange(dim)
    while True:
        before = label.copy()
        # both directions: the pattern need only be symmetric to 1e-12
        np.minimum.at(label, rows, label[cols])
        np.minimum.at(label, cols, label[rows])
        while not np.array_equal(label[label], label):
            label = label[label]
        if np.array_equal(label, before):
            break
    order = np.argsort(label, kind="stable")
    return order, np.flatnonzero(np.diff(label[order], prepend=-1))


# --- Hamiltonian builders -----------------------------------------------

def _mode_frequency(mode: tuple, mode_basis: ModeBasis) -> float:
    direction, index = mode
    if index > mode_basis.n_ions:
        raise ValueError(
            f"mode index {index} exceeds chain length {mode_basis.n_ions}"
        )
    if direction == "z":
        return float(np.sqrt(mode_basis.mu[index - 1]))
    return float(np.sqrt(mode_basis.gamma[index - 1]))


def _check_transverse_mirror(basis: FockBasis):
    x_set = {i for d, i in basis.modes if d == "x"}
    y_set = {i for d, i in basis.modes if d == "y"}
    if x_set != y_set:
        missing = sorted(
            [("y", i) for i in x_set - y_set] + [("x", i) for i in y_set - x_set]
        )
        raise ValueError(
            "incomplete active-mode set: the two transverse directions are "
            f"equivalent and must be activated in pairs; missing {missing}"
        )


def _basis_states(basis: FockBasis, states) -> np.ndarray:
    """states as a sorted array of distinct basis indices (None: all)."""
    if states is None:
        return np.arange(basis.dimension)
    states = np.asarray(states, dtype=np.intp)
    if states.size and not 0 <= states.min() <= states.max() < basis.dimension:
        raise ValueError(f"basis states must lie in 0..{basis.dimension - 1}")
    # a mask, not np.unique: a plain unique imports numpy.ma on first use
    return _union(basis.dimension, [states])


def _union(dim: int, parts) -> np.ndarray:
    """Sorted distinct indices of the index arrays in parts, all < dim."""
    member = np.zeros(dim, dtype=bool)
    for part in parts:
        member[part] = True
    return np.flatnonzero(member)


def sector_states(basis: FockBasis, tensors: CouplingTensors,
                  amplitudes) -> np.ndarray:
    """Basis states of the symmetry sectors where amplitudes are nonzero.

    The builders' `states` for a run from amplitudes, a vector over the
    basis. A sector fixes the parity of the total x occupation, the
    parity of the total y occupation and the mirror label
    prod_q (-s_q)^(n_q), with s = `tensors.parity` of each active mode's
    index. Every cubic monomial moves the occupations of p, m and n by one
    each, and D_mnp vanishes unless s_m s_n s_p = -1, so no generator
    built here joins two sectors, and a run on these states equals the
    run on the whole basis. Returns the sorted union of the sectors that
    hold amplitude.
    """
    amplitudes = _amplitude_vector(basis, amplitudes)
    occ = np.unravel_index(np.arange(basis.dimension), basis.shape)
    # bit 0: total x odd, bit 1: total y odd, bit 2: mirror label -1
    label = np.zeros(basis.dimension, dtype=np.intp)
    for k, (direction, index) in enumerate(basis.modes):
        bits = {"x": 1, "y": 2, "z": 0}[direction]
        if tensors.parity[index - 1] > 0:   # -s_q = -1
            bits |= 4
        label ^= (occ[k] % 2) * bits
    lit = np.bincount(label[np.flatnonzero(amplitudes)], minlength=8) > 0
    return np.flatnonzero(lit[label])


def build_free_hamiltonian(basis: FockBasis, mode_basis: ModeBasis,
                           states=None) -> HamiltonianMatrix:
    """Diagonal oscillator energies (zero-point offsets dropped).

    states, a collection of basis indices, restricts the operator to those
    states (default: every basis state).
    """
    freqs = np.array([_mode_frequency(m, mode_basis) for m in basis.modes])
    states = _basis_states(basis, states)
    occ = np.stack(np.unravel_index(states, basis.shape), axis=1)
    return HamiltonianMatrix(basis, states, states, occ @ freqs, states)


def _cubic_triples(basis: FockBasis, mode_basis: ModeBasis, tensors: CouplingTensors, eps: float):
    """Ordered cubic terms restricted to the active modes.

    Yields (coefficient, factors) where factors are three (mode, freq)
    position operators in the literal order axial-p, then m, then n.
    Terms touching inactive modes are dropped (documented truncation).
    """
    d = tensors.mode
    mu = mode_basis.mu
    gamma = mode_basis.gamma
    z_active = sorted(i for dd, i in basis.modes if dd == "z")
    per_direction = {
        "z": z_active,
        "x": sorted(i for dd, i in basis.modes if dd == "x"),
        "y": sorted(i for dd, i in basis.modes if dd == "y"),
    }
    for p in z_active:
        root_p = mu[p - 1] ** 0.25
        for direction, sign_weight in (("z", 2.0), ("x", -3.0), ("y", -3.0)):
            active = per_direction[direction]
            for m in active:
                for n in active:
                    if direction == "z":
                        weight = sign_weight / (mu[m - 1] * mu[n - 1]) ** 0.25
                    else:
                        weight = sign_weight / (gamma[m - 1] * gamma[n - 1]) ** 0.25
                    coef = eps * d[m - 1, n - 1, p - 1] / root_p * weight
                    factors = (
                        (("z", p), _mode_frequency(("z", p), mode_basis)),
                        ((direction, m), _mode_frequency((direction, m), mode_basis)),
                        ((direction, n), _mode_frequency((direction, n), mode_basis)),
                    )
                    yield coef, factors


def _cubic_interaction(
    basis: FockBasis,
    mode_basis: ModeBasis,
    tensors: CouplingTensors,
    eps: float,
    phase_cutoff: float | None,
    states: np.ndarray,
) -> tuple:
    """Cubic monomials summed on the basis by occupation arithmetic.

    Each position factor of a triple splits into a lowering and a raising
    part, giving 8 monomials. phase_cutoff None keeps them all; otherwise
    a monomial is kept if its summed interaction-picture phase (-freq per
    lowering, +freq per raising factor) has magnitude <= phase_cutoff.
    A monomial maps every basis column to at most one row, so it is
    applied to all columns at once. Returns the entries as triplets
    (rows, cols, values), monomial by monomial and uncoalesced, and the
    number of monomials kept. Only the columns in states (sorted basis
    indices) are applied.
    """
    dim = basis.dimension
    # extra state dim is a sink for amplitude that left the basis
    ladders = {}
    for mode in basis.modes:
        for raising in (False, True):
            target, amp = _ladder(basis, mode, raising)
            ladders[mode, raising] = (
                np.append(np.where(target < 0, dim, target), dim),
                np.append(amp, 0.0),
            )

    no_index = np.zeros(0, dtype=np.intp)
    rows_out, cols_out, values_out = [no_index], [no_index], [np.zeros(0)]
    kept = 0
    for coef, factors in _cubic_triples(basis, mode_basis, tensors, eps):
        if coef == 0.0:
            continue
        for signs in iter_product((False, True), repeat=3):
            if phase_cutoff is not None:
                phase = sum(
                    (freq if s else -freq) for s, (_m, freq) in zip(signs, factors)
                )
                if abs(phase) > phase_cutoff:
                    continue
            # the rightmost factor acts first
            (t1, a1), (t2, a2), (t3, a3) = (
                ladders[mode, s] for s, (mode, _freq) in zip(signs, factors)
            )
            r3 = t3[states]
            r2 = t2[r3]
            rows = t1[r2]
            inside = rows < dim
            rows_out.append(rows[inside])
            cols_out.append(states[inside])
            values_out.append(coef * (a1[r2] * a2[r3] * a3[states])[inside])
            kept += 1
    triplets = tuple(np.concatenate(part)
                     for part in (rows_out, cols_out, values_out))
    return triplets, kept


def build_full_interaction(
    basis: FockBasis,
    mode_basis: ModeBasis,
    tensors: CouplingTensors,
    eps: float,
    states=None,
) -> HamiltonianMatrix:
    """Full cubic operator, counter-rotating terms and all, on the basis.

    The x and y transverse directions enter the potential identically,
    so the active set must contain them in mirrored pairs. states, a
    collection of basis indices, restricts the operator to those states
    (default: every basis state); it must be closed under the couplings,
    as a union of the symmetry sectors is, or ValueError is raised.
    """
    _check_transverse_mirror(basis)
    states = _basis_states(basis, states)
    triplets, _kept = _cubic_interaction(basis, mode_basis, tensors, eps,
                                         None, states)
    return HamiltonianMatrix(basis, *triplets, states)


def build_rwa_interaction(
    basis: FockBasis,
    mode_basis: ModeBasis,
    tensors: CouplingTensors,
    eps: float,
    resonance: ResonanceEntry | None = None,
    states=None,
) -> HamiltonianMatrix:
    """Rotating-wave reduction: keep only phase-matched cubic monomials.

    Each position factor splits into lowering (interaction-picture phase
    -freq) and raising (+freq) parts; a monomial survives if its summed
    phase, which is a catalog delta+-, has magnitude <= MATCH_TOL, the
    tolerance the catalog uses. At a catalog resonance this keeps exactly
    the down-conversion terms (plus adjoints); everywhere else nothing
    survives and NoResonantCouplingError is raised.

    If a target resonance entry is passed, its axial and both transverse
    mode pairs must be active, and the mode basis must actually be at the
    resonant anisotropy for the phases to close. states restricts the
    operator as in `build_full_interaction`.
    """
    _check_transverse_mirror(basis)
    if resonance is not None:
        required = resonance_mode_set(resonance)
        missing = [m for m in required if m not in basis.modes]
        if missing:
            raise ValueError(
                f"resonance ({resonance.m},{resonance.n},{resonance.p}) needs "
                f"active modes {missing}"
            )
    states = _basis_states(basis, states)
    triplets, kept = _cubic_interaction(basis, mode_basis, tensors, eps,
                                        MATCH_TOL, states)
    if kept == 0:
        raise NoResonantCouplingError(
            f"no resonant coupling: no cubic monomial is phase-matched to "
            f"{MATCH_TOL:.1e} at alpha = {mode_basis.alpha:.6g}"
        )
    return HamiltonianMatrix(basis, *triplets, states)


def resonance_mode_set(entry: ResonanceEntry) -> tuple:
    """Minimal active-mode set for simulating a second-kind resonance."""
    modes = [("z", entry.p)]
    for i in sorted({entry.m, entry.n}):
        modes.append(("x", i))
    for i in sorted({entry.m, entry.n}):
        modes.append(("y", i))
    return tuple(modes)


def down_conversion_states(basis: FockBasis, entry: ResonanceEntry) -> tuple:
    """Occupation patterns (axial one-phonon, y-pair, x-pair) for entry.

    These are the three states coupled by a nondegenerate second-kind
    resonance: one axial phonon in p; one phonon in each of the y modes
    m, n; one phonon in each of the x modes m, n.
    """
    if entry.m == entry.n:
        raise ValueError("three-state structure needs two distinct modes")
    psi = {("z", entry.p): 1}
    phi = {("y", entry.m): 1, ("y", entry.n): 1}
    chi = {("x", entry.m): 1, ("x", entry.n): 1}
    for occ in (psi, phi, chi):
        basis.index_of(occ)  # validates the modes are active
    return psi, phi, chi


# --- propagation and analysis -------------------------------------------

def _amplitude_vector(basis: FockBasis, amplitudes) -> np.ndarray:
    """amplitudes as a complex vector, checked to have one per basis state."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (basis.dimension,):
        raise ValueError(f"amplitude vector has shape {amps.shape}, "
                         f"basis dimension is {basis.dimension}")
    return amps


@dataclass(frozen=True, eq=False)
class Propagation:
    """Samples of one run exp(-i H tau_k) start, held on the live support.

    states are the sorted basis indices of the live support and
    amplitudes[k, j] is the read-only amplitude of states[j] at tau_k,
    shape (K, states.size); every amplitude outside the support is
    exactly zero.
    """

    basis: FockBasis
    states: np.ndarray
    amplitudes: np.ndarray

    def norms(self) -> np.ndarray:
        """Norm of each sample; raises if one deviates from 1 beyond 1e-9."""
        return _checked_norms(self.amplitudes)

    def populations(self, occupations) -> np.ndarray:
        """Populations of the occupation patterns, shape (K, len(occupations)).

        Each pattern is a {mode: count} dictionary (unlisted modes 0); a
        pattern outside the support has population exactly 0.
        """
        watched = [self.basis.index_of(occ) for occ in occupations]
        idx = self.states
        at = np.minimum(np.searchsorted(idx, watched), idx.size - 1)
        return np.where(idx[at] == watched, np.abs(self.amplitudes[:, at]) ** 2,
                        0.0)

    def entropies(self, partition) -> np.ndarray:
        """Von Neumann entropy (nats) of each sample's reduced state.

        partition is a nonempty proper subset of the active modes, listed
        once each; computed from the Schmidt spectrum of the amplitude
        tensor split between the partition and its complement.
        """
        part = []
        for mode in partition:
            mode = _as_mode(mode)
            if mode in part:
                raise ValueError(f"mode {mode} listed twice in partition")
            part.append(mode)
        if not part:
            raise ValueError("partition must be nonempty")
        axes = [self.basis.axis_of(m) for m in part]
        if len(axes) == len(self.basis.modes):
            raise ValueError("partition must be a proper subset of the active modes")
        return _schmidt_entropies(self.basis, self.states, self.amplitudes, axes)

    def top_fock_population(self) -> float:
        """Largest population in the top Fock level of any mode, any sample."""
        return _top_fock_population(self.basis, self.states, self.amplitudes)


def propagate(h: HamiltonianMatrix, start, taus) -> Propagation:
    """The run exp(-i H tau_k) start for every dimensionless time tau_k.

    start is an amplitude vector over h.basis of norm 1 to 1e-9, with no
    amplitude outside the basis states h was built on; tau is omega3
    times the elapsed time. Each live block or x<->y part is diagonalized
    once and kept on h for later runs; a sample at tau = 0 is start.
    """
    start = _amplitude_vector(h.basis, start)
    _checked_norms(start)
    idx, out = _propagate(h, start, taus)
    for array in (idx, out):
        array.flags.writeable = False
    return Propagation(h.basis, idx, out)


def _propagate(h: HamiltonianMatrix, amps, taus) -> tuple:
    """(idx, out): exp(-i H tau_k) amps for every tau_k on the live support.

    idx is the sorted union of the basis states of the live parts and
    out[k, j] the amplitude of idx[j] at tau_k. A block `_exchange_orbits`
    splits is propagated part by part, each part only if amps has a
    component on it, and the parts' orbit amplitudes are mapped back to
    the basis states. No stored entry joins two blocks and the
    swap-symmetric generator joins no two parts, so every amplitude
    outside idx is exactly zero. Raises if amps has amplitude on a state
    the operator was not built on.
    """
    amps = np.asarray(amps, dtype=complex)
    taus = np.asarray(taus, dtype=float).reshape(-1)
    h._check_amplitudes(amps)
    order, starts = h._blocks
    live = np.logical_or.reduceat(amps[order] != 0, starts)
    # (basis states, their amplitudes over the K samples) per live part
    pieces = []
    for b in np.flatnonzero(live):
        orbits = h._exchange_orbits(b)
        if orbits is None:
            idx, w, v = h._eigensystem(b)
            pieces.append((idx, _part_samples(w, v, amps[idx], taus)))
            continue
        reps, partners = orbits
        paired = partners != reps
        on_rep, on_partner = amps[reps], amps[partners]
        symmetric = np.where(paired, (on_rep + on_partner) * _PAIR_WEIGHT,
                             on_rep)
        antisymmetric = ((on_rep - on_partner) * _PAIR_WEIGHT)[paired]
        if np.any(symmetric != 0):
            _, w, v = h._eigensystem(b, 1)
            samples = _part_samples(w, v, symmetric, taus)
            pieces.append((reps, np.where(paired, samples * _PAIR_WEIGHT,
                                          samples)))
            pieces.append((partners[paired],
                           samples[:, paired] * _PAIR_WEIGHT))
        if np.any(antisymmetric != 0):
            _, w, v = h._eigensystem(b, -1)
            samples = _part_samples(w, v, antisymmetric, taus) * _PAIR_WEIGHT
            pieces.append((reps[paired], samples))
            pieces.append((partners[paired], -samples))
    idx = _union(amps.size, [states for states, _ in pieces])
    out = np.zeros((taus.size, idx.size), dtype=complex)
    for states, samples in pieces:
        out[:, np.searchsorted(idx, states)] += samples
    # exp(-i H 0) is the identity: the initial sample stays exact
    out[taus == 0.0] = amps[idx]
    return idx, out


def _part_samples(w: np.ndarray, v: np.ndarray, amps: np.ndarray,
                  taus: np.ndarray) -> np.ndarray:
    """V @ (exp(-i w tau_k) * (V^H amps)) for every tau_k, shape (K, n)."""
    product = np.matmul if np.iscomplexobj(v) else _real_product
    coeffs = product(v.conj().T, amps)
    return product(v, coeffs[:, None] * np.exp(-1j * np.outer(w, taus))).T


def _real_product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real m and a complex x, without a complex copy of m.

    The real and imaginary parts of x sit side by side in memory, so one
    real product over them gives both parts of the result.
    """
    pairs = np.ascontiguousarray(x).reshape(x.shape[0], -1).view(np.float64)
    return (m @ pairs).view(np.complex128).reshape(m.shape[:1] + x.shape[1:])


def three_state_solution(psi0, phi0, chi0, rate: float, t):
    """Closed-form amplitudes of the resonant three-state problem.

    rate*t must be dimensionless; t may be an array. Initial amplitudes
    must be normalized. Returns (psi, phi, chi) evaluated at t for

        i psi' = -rate (phi + chi),  i phi' = i chi' = -rate psi.
    """
    total = abs(psi0) ** 2 + abs(phi0) ** 2 + abs(chi0) ** 2
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"initial amplitudes have norm {total:.12f}, expected 1")
    t = np.asarray(t, dtype=float)
    angle = np.sqrt(2.0) * rate * t
    s = np.sin(angle)
    c = np.cos(angle)
    half_s2 = np.sin(angle / 2.0) ** 2
    half_c2 = np.cos(angle / 2.0) ** 2
    psi = psi0 * c + 1j * (phi0 + chi0) / np.sqrt(2.0) * s
    phi = 1j * psi0 / np.sqrt(2.0) * s + phi0 * half_c2 - chi0 * half_s2
    chi = 1j * psi0 / np.sqrt(2.0) * s - phi0 * half_s2 + chi0 * half_c2
    return psi, phi, chi


def _schmidt_entropies(basis: FockBasis, idx: np.ndarray, amps: np.ndarray,
                       axes) -> np.ndarray:
    """Entanglement entropy (nats) of each amplitude vector in amps.

    amps holds the amplitudes of the basis states idx, shape
    (K, idx.size) or (idx.size,); every state outside idx has amplitude
    zero. axes are the basis axes on one side of the cut, a nonempty
    proper subset. Each support state splits into a partition index a and
    a rest index b; only the a and b values that occur become rows and
    columns, since the all-zero rows and columns the rest of the basis
    would add leave the nonzero singular values unchanged. The Schmidt
    weights, the squared singular values, are the eigenvalues of the
    smaller Gram product M M^H or M^H M, one batched `eigvalsh` per block
    of `_SCHMIDT_BLOCK` samples, so the matrices and their adjoint copy
    span one block, not the run; each product and eigensolve is per
    sample, so the blocks change no bit. The mask below drops the
    rounding-negative weights.
    """
    axes = list(axes)
    rest = [k for k in range(len(basis.modes)) if k not in axes]
    occ = np.unravel_index(idx, basis.shape)
    sides = []
    for side in (axes, rest):
        flat = np.ravel_multi_index([occ[k] for k in side],
                                    [basis.shape[k] for k in side])
        sides.append(np.unique(flat, return_inverse=True))
    (a_values, a), (b_values, b) = sides
    amps = np.reshape(amps, (-1, idx.size))
    weights = np.empty((len(amps), min(a_values.size, b_values.size)))
    for start in range(0, len(amps), _SCHMIDT_BLOCK):
        part = amps[start:start + _SCHMIDT_BLOCK]
        matrices = np.zeros((len(part), a_values.size, b_values.size),
                            dtype=amps.dtype)
        matrices[:, a, b] = part
        adjoint = matrices.conj().swapaxes(1, 2)
        rows = slice(start, start + len(part))
        if a_values.size <= b_values.size:
            weights[rows] = np.linalg.eigvalsh(matrices @ adjoint)
        else:
            weights[rows] = np.linalg.eigvalsh(adjoint @ matrices)
    kept = weights > 1e-300
    terms = np.where(kept, weights * np.log(np.where(kept, weights, 1.0)), 0.0)
    # + 0.0 turns the -0.0 of a pure product state into a plain zero
    return -np.sum(terms, axis=1) + 0.0


def _top_fock_population(basis: FockBasis, idx: np.ndarray, amps: np.ndarray) -> float:
    """Largest population in the top Fock level of any mode, over all samples.

    amps holds the amplitudes of the basis states idx, shape
    (K, idx.size) or (idx.size,); states outside idx have none. A value
    near 0 says the cutoff does not drive the dynamics; a large one flags
    truncation leakage.
    """
    probs = np.abs(np.reshape(amps, (-1, idx.size))) ** 2
    occ = np.unravel_index(idx, basis.shape)
    top = 0.0
    for k, cutoff in enumerate(basis.cutoffs):
        level = probs[:, occ[k] == cutoff]
        top = max(top, float(np.max(level.sum(axis=1))))
    return top

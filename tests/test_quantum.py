from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionchain import cli, coupling, equilibrium, modes, quantum, resonances
from ionchain.errors import NoResonantCouplingError

from golden import EPSILON_ROWS


@pytest.fixture(scope="module")
def six_ion_resonance(catalogs):
    """The nondegenerate 6-ion down-conversion setting used throughout."""
    entry = next(e for e in catalogs[6]
                 if (e.m, e.n, e.p) == (6, 5, 5))
    u = equilibrium.solve_equilibrium(6)
    basis = modes.mode_basis(u, entry.alpha_res)
    tensors = coupling.coupling_tensors(u, basis)
    fock = quantum.FockBasis.uniform(quantum.resonance_mode_set(entry), 2)
    return entry, u, basis, tensors, fock


def test_epsilon_against_published_operating_points():
    for name, freq_hz, expected in EPSILON_ROWS:
        ion = equilibrium.species(name)
        eps = quantum.nonlinearity_epsilon(ion, 2.0 * np.pi * freq_hz)
        assert abs(eps - expected) / expected < 1e-2


def test_epsilon_equals_wavepacket_ratio():
    ion = equilibrium.species("Ca40")
    omega3 = 2.0 * np.pi * 2.0e6
    a = quantum.nonlinearity_epsilon(ion, omega3)
    b = quantum.wavepacket_epsilon(ion, omega3)
    assert abs(a - b) / a < 1e-12


def test_rwa_coefficient_worked_value(six_ion_resonance):
    entry, _, basis, _, _ = six_ion_resonance
    coef = quantum.rwa_coefficient(entry, basis.mu)
    assert abs(coef - 7.3556) < 1e-3


def test_rwa_coefficient_needs_two_distinct_modes(catalogs):
    degenerate = next(e for e in catalogs[2])
    with pytest.raises(ValueError):
        quantum.rwa_coefficient(degenerate, np.array([1.0, 3.0]))


# --- Fock basis ---------------------------------------------------------

def test_basis_dimension_and_shape():
    fb = quantum.FockBasis(modes=(("z", 5), ("x", 5)), cutoffs=(2, 3))
    assert fb.dimension == 12
    assert fb.shape == (3, 4)
    assert fb.axis_of(("x", 5)) == 1


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_index_occupation_round_trip(data):
    fb = quantum.FockBasis.uniform((("z", 2), ("x", 3), ("y", 3)), 2)
    occ = {m: data.draw(st.integers(0, 2)) for m in fb.modes}
    idx = fb.index_of(occ)
    assert 0 <= idx < fb.dimension
    assert fb.occupations(idx) == occ


def test_basis_validation():
    with pytest.raises(ValueError, match="only once"):
        quantum.FockBasis(modes=(("z", 5), ("z", 5)), cutoffs=(2, 2))
    with pytest.raises(ValueError):
        quantum.FockBasis(modes=(("w", 1),), cutoffs=(2,))
    with pytest.raises(ValueError):
        quantum.FockBasis(modes=(("z", 1),), cutoffs=(0,))
    fb = quantum.FockBasis.uniform((("z", 1),), 2)
    with pytest.raises(ValueError, match="not active"):
        fb.axis_of(("x", 1))
    with pytest.raises(ValueError, match="outside"):
        fb.index_of({("z", 1): 3})


def test_ladder_matrix_elements():
    fb = quantum.FockBasis.uniform((("z", 1),), 3)
    low = fb.lowering(("z", 1))
    # <n-1| a |n> = sqrt(n)
    for n in range(1, 4):
        assert abs(low[n - 1, n] - np.sqrt(n)) < 1e-15
    num = fb.raising(("z", 1)) @ low
    assert np.allclose(np.diag(num), [0, 1, 2, 3], atol=1e-14)


def test_ladder_commutator_structure():
    # [a, a+] = 1 everywhere except the truncation edge
    fb = quantum.FockBasis.uniform((("z", 1), ("x", 1), ("y", 1)), 2)
    low = fb.lowering(("x", 1))
    comm = low @ fb.raising(("x", 1)) - fb.raising(("x", 1)) @ low
    diag = np.real(np.diag(comm)).reshape(fb.shape)
    assert np.allclose(diag[:, :2, :], 1.0, atol=1e-14)
    assert np.allclose(diag[:, 2, :], -2.0, atol=1e-14)


# --- Hamiltonians -------------------------------------------------------

def test_free_hamiltonian_is_diagonal_mode_sum(six_ion_resonance):
    entry, _, basis, _, fock = six_ion_resonance
    h0 = quantum.build_free_hamiltonian(fock, basis)
    assert np.max(np.abs(h0.matrix - np.diag(np.diag(h0.matrix)))) == 0.0
    occ = {("z", entry.p): 1, ("x", entry.m): 2}
    idx = fock.index_of(occ)
    expected = (np.sqrt(basis.mu[entry.p - 1])
                + 2.0 * np.sqrt(basis.gamma[entry.m - 1]))
    assert abs(h0.matrix[idx, idx].real - expected) < 1e-12


def test_rwa_couples_the_three_states_symmetrically(six_ion_resonance):
    entry, _, basis, tensors, fock = six_ion_resonance
    eps = 7.09e-4
    h = quantum.build_rwa_interaction(fock, basis, tensors, eps,
                                      resonance=entry)
    psi, phi, chi = quantum.down_conversion_states(fock, entry)
    i_psi, i_phi, i_chi = (fock.index_of(s) for s in (psi, phi, chi))
    coef = quantum.rwa_coefficient(entry, basis.mu)
    assert abs(h.matrix[i_phi, i_psi] - (-eps * coef)) < 1e-9
    assert abs(h.matrix[i_chi, i_psi] - (-eps * coef)) < 1e-9
    assert abs(h.matrix[i_phi, i_chi]) < 1e-15


def test_rwa_and_full_agree_on_the_resonant_block(six_ion_resonance):
    entry, _, basis, tensors, fock = six_ion_resonance
    eps = 7.09e-4
    h_rwa = quantum.build_rwa_interaction(fock, basis, tensors, eps,
                                          resonance=entry)
    h_full = quantum.build_full_interaction(fock, basis, tensors, eps)
    states = quantum.down_conversion_states(fock, entry)
    idx = [fock.index_of(s) for s in states]
    block_r = h_rwa.matrix[np.ix_(idx, idx)]
    block_f = h_full.matrix[np.ix_(idx, idx)]
    assert np.max(np.abs(block_r - block_f)) < 1e-15


# --- occupation-arithmetic builders against the dense construction ------

def _reference_lowering(fock, mode):
    """Dense lowering operator as a Kronecker product of single-mode ones."""
    k = fock.axis_of(mode)
    single = np.diag(np.sqrt(np.arange(1, fock.cutoffs[k] + 1)), k=1)
    op = np.eye(1)
    for j, c in enumerate(fock.cutoffs):
        op = np.kron(op, single if j == k else np.eye(c + 1))
    return op.astype(complex)


def _reference_interaction(fock, basis, tensors, eps, phase_cutoff=None):
    """Cubic operator by dense matrix products, one term at a time.

    phase_cutoff None multiplies full position operators; otherwise only
    the lowering/raising monomials whose phase is within it are summed.
    """
    dim = fock.dimension
    low = {m: _reference_lowering(fock, m) for m in fock.modes}
    h = np.zeros((dim, dim), dtype=complex)
    for coef, factors in quantum._cubic_triples(fock, basis, tensors, eps):
        if coef == 0.0:
            continue
        if phase_cutoff is None:
            a, b, c = (low[mode] + low[mode].conj().T for mode, _f in factors)
            h += coef * (a @ b @ c)
            continue
        for signs in product((0, 1), repeat=3):
            phase = sum((freq if s else -freq)
                        for s, (_m, freq) in zip(signs, factors))
            if abs(phase) > phase_cutoff:
                continue
            a, b, c = (low[mode].conj().T if s else low[mode]
                       for s, (mode, _f) in zip(signs, factors))
            h += coef * (a @ b @ c)
    return h


def _six_ion_fock(six_ion_resonance, cutoff):
    entry, _, basis, tensors, _ = six_ion_resonance
    fock = quantum.FockBasis.uniform(quantum.resonance_mode_set(entry), cutoff)
    return entry, basis, tensors, fock


@pytest.mark.parametrize("cutoff", [2, 3])
def test_builders_match_dense_reference(six_ion_resonance, cutoff):
    entry, basis, tensors, fock = _six_ion_fock(six_ion_resonance, cutoff)
    eps = 7.09e-4
    for mode in fock.modes:
        ref = _reference_lowering(fock, mode)
        assert np.array_equal(fock.lowering(mode), ref)
        assert np.array_equal(fock.raising(mode), ref.conj().T)
    full = quantum.build_full_interaction(fock, basis, tensors, eps)
    rwa = quantum.build_rwa_interaction(fock, basis, tensors, eps,
                                        resonance=entry)
    assert np.max(np.abs(
        full.matrix - _reference_interaction(fock, basis, tensors, eps))) <= 1e-15
    assert np.max(np.abs(
        rwa.matrix - _reference_interaction(fock, basis, tensors, eps,
                                            phase_cutoff=resonances.MATCH_TOL))) <= 1e-15


def _from_dense(mat, basis):
    """The operator holding the nonzero entries of a dense matrix."""
    rows, cols = np.nonzero(mat)
    return quantum.HamiltonianMatrix(basis, rows, cols, mat[rows, cols])


def _dense_evolve(amps, h, duration):
    w, v = np.linalg.eigh(h.matrix)
    return v @ (np.exp(-1j * w * duration) * (v.conj().T @ amps))


def test_sectored_evolve_matches_whole_matrix_eigh(six_ion_resonance):
    entry, _, basis, tensors, fock = six_ion_resonance
    eps = 7.09e-4
    h0 = quantum.build_free_hamiltonian(fock, basis)
    h_int = quantum.build_full_interaction(fock, basis, tensors, eps)
    h = h0 + h_int
    rng = np.random.default_rng(7)
    psi, _, _ = quantum.down_conversion_states(fock, entry)
    spread = rng.normal(size=fock.dimension) + 1j * rng.normal(size=fock.dimension)
    for amps in (fock.number_state(psi), spread / np.linalg.norm(spread)):
        # steps of the size the simulate command takes; over much longer
        # steps both sides carry eigenvalue rounding times the duration
        durations = (0.3, 7.0)
        for got, duration in zip(_dense_propagate(h, amps, durations),
                                 durations):
            assert np.max(np.abs(got - _dense_evolve(amps, h, duration))) <= 1e-12


def _reference_components(pattern):
    """Connected components by depth-first search, edges either way."""
    owner = [-1] * len(pattern)
    components = []
    for start in range(len(pattern)):
        if owner[start] >= 0:
            continue
        owner[start] = start
        stack, members = [start], []
        while stack:
            i = stack.pop()
            members.append(i)
            for j in np.flatnonzero(pattern[i] | pattern[:, i]):
                if owner[j] < 0:
                    owner[j] = start
                    stack.append(j)
        components.append(sorted(members))
    return sorted(components)


@pytest.mark.parametrize("seed", range(6))
def test_connected_blocks_match_graph_search(seed):
    rng = np.random.default_rng(seed)
    n = 60
    mat = np.zeros((n, n), dtype=complex)
    # one-sided entries: a link counts whichever triangle it sits in
    rows, cols = rng.integers(0, n, size=(2, 45))
    mat[rows, cols] = 1e-14j
    order, starts = quantum._connected_blocks(*np.nonzero(mat), n)
    got = sorted(sorted(b.tolist()) for b in np.split(order, starts[1:]))
    assert got == _reference_components(mat != 0)


def test_sectored_evolve_on_planted_blocks():
    fock = quantum.FockBasis.uniform((("z", 1), ("x", 1), ("y", 1)), 2)
    dim = fock.dimension
    rng = np.random.default_rng(11)
    # three blocks over scattered indices plus a one-state block
    labels = rng.permutation(np.arange(dim) % 3)
    labels[0] = 3
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = (mat + mat.conj().T) * (labels[:, None] == labels[None, :])
    h = _from_dense(mat, fock)
    order, starts = h._blocks
    blocks = [h._eigensystem(b) for b in range(len(starts))]
    assert sorted(len(idx) for idx, _w, _v in blocks) == sorted(
        np.bincount(labels))
    assert sorted(order) == list(range(dim))
    for idx, _w, _v in blocks:
        assert len(set(labels[idx])) == 1
    spread = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    # amplitude in every block, then in one block only (the rest skipped)
    one_block = np.where(labels == 1, spread, 0.0)
    for amps in (spread, one_block):
        amps = amps / np.linalg.norm(amps)
        (got,) = _dense_propagate(h, amps, [0.9])
        assert np.max(np.abs(got - _dense_evolve(amps, h, 0.9))) <= 1e-12
    assert np.all(got[labels != 1] == 0.0)


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_rwa_pump_block_is_the_three_state_problem(six_ion_resonance, cutoff):
    entry, basis, tensors, fock = _six_ion_fock(six_ion_resonance, cutoff)
    h = quantum.build_rwa_interaction(fock, basis, tensors, 7.09e-4,
                                      resonance=entry)
    states = quantum.down_conversion_states(fock, entry)
    pump = fock.index_of(states[0])
    order, starts = h._blocks
    block = next(idx for idx in np.split(order, starts[1:]) if pump in idx)
    assert sorted(block) == sorted(fock.index_of(s) for s in states)


def _sector_parities(fock, tensors, order, starts):
    """(total x, total y, mirror) parity of each block; one per block."""
    occ = np.stack(np.unravel_index(np.arange(fock.dimension), fock.shape),
                   axis=1)
    x_axes = [k for k, (d, _i) in enumerate(fock.modes) if d == "x"]
    y_axes = [k for k, (d, _i) in enumerate(fock.modes) if d == "y"]
    # the reflection flips axial displacements, not transverse ones: an
    # axial phonon is mirror-odd on a symmetric vector, a transverse one
    # on an antisymmetric vector
    odd_axes = [k for k, (d, i) in enumerate(fock.modes)
                if (tensors.parity[i - 1] > 0) == (d == "z")]
    labels = np.stack([occ[:, axes].sum(axis=1) % 2
                       for axes in (x_axes, y_axes, odd_axes)], axis=1)
    parities = []
    for idx in np.split(order, starts[1:]):
        assert len(np.unique(labels[idx], axis=0)) == 1
        parities.append(tuple(labels[idx[0]]))
    return parities


def test_full_generator_splits_into_parity_sectors(six_ion_resonance):
    _, _, basis, tensors, fock = six_ion_resonance
    h0 = quantum.build_free_hamiltonian(fock, basis)
    h_int = quantum.build_full_interaction(fock, basis, tensors, 7.09e-4)
    h = h0 + h_int
    order, starts = h._blocks
    assert len(starts) == 8
    parities = _sector_parities(fock, tensors, order, starts)
    assert len(set(parities)) == 8


# --- block-native engine: triplets, lazy blocks, batched samples ---------

def _full_generator(six_ion_resonance, cutoff=2, eps=7.09e-4):
    entry, basis, tensors, fock = _six_ion_fock(six_ion_resonance, cutoff)
    h = (quantum.build_free_hamiltonian(fock, basis)
         + quantum.build_full_interaction(fock, basis, tensors, eps))
    return entry, fock, h


@pytest.mark.parametrize("cutoff", [2, 3])
def test_triplets_are_real_coalesced_and_sum_exactly(six_ion_resonance,
                                                     cutoff):
    entry, basis, tensors, fock = _six_ion_fock(six_ion_resonance, cutoff)
    eps = 7.09e-4
    h_free = quantum.build_free_hamiltonian(fock, basis)
    h_int = quantum.build_full_interaction(fock, basis, tensors, eps)
    h_rwa = quantum.build_rwa_interaction(fock, basis, tensors, eps,
                                          resonance=entry)
    dim = fock.dimension
    for h in (h_free, h_int, h_rwa):
        assert h._values.dtype == np.float64
        keys = h._rows * dim + h._cols
        assert np.all(np.diff(keys) > 0)
        assert np.all(h._values != 0.0)
        # the scatter of the raw triplets is the dense operator
        dense = np.zeros((dim, dim))
        np.add.at(dense, (h._rows, h._cols), h._values)
        assert np.array_equal(dense, h.matrix)
    total = h_free + h_int
    assert np.array_equal(total.matrix, h_free.matrix + h_int.matrix)
    assert not total.matrix.flags.writeable


def test_constructor_stores_real_triplets(six_ion_resonance):
    *_, fock = six_ion_resonance
    dim = fock.dimension
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 1] = mat[1, 0] = 0.5
    mat[2, 2] = 1.0
    h = _from_dense(mat, fock)
    assert h._values.dtype == np.float64
    assert np.array_equal(h.matrix, mat.real)
    assert np.array_equal(h._states, np.arange(dim))
    mat[0, 1], mat[1, 0] = 0.5j, -0.5j
    h = _from_dense(mat, fock)
    assert np.iscomplexobj(h._values)
    assert np.array_equal(h.matrix, mat)
    # states are sorted and deduplicated, and must hold every entry
    h = quantum.HamiltonianMatrix(fock, [2, 0, 1], [2, 1, 0], [1.0, 0.5, 0.5],
                                  states=[2, 1, 0, 2])
    assert np.array_equal(h._states, [0, 1, 2])
    with pytest.raises(ValueError, match="leaves the given basis states"):
        quantum.HamiltonianMatrix(fock, [0, 1], [1, 0], [0.5, 0.5],
                                  states=[0, 2])


def test_triplet_check_rejects_missing_adjoint(six_ion_resonance):
    entry, basis, tensors, fock = _six_ion_fock(six_ion_resonance, 2)
    every = np.arange(fock.dimension)
    (rows, cols, values), _kept = quantum._cubic_interaction(
        fock, basis, tensors, 7.09e-4, resonances.MATCH_TOL, every)
    # the kept monomials come in adjoint pairs; one half alone is rejected
    upper = rows < cols
    with pytest.raises(ValueError, match="Hermitian"):
        quantum.HamiltonianMatrix(
            fock, rows[upper], cols[upper], values[upper], every)
    quantum.HamiltonianMatrix(fock, rows, cols, values, every)
    # an entry without its adjoint passes only below 1e-12 of the scale
    one = np.array([0]), np.array([1])
    quantum.HamiltonianMatrix(fock, *one, [1e-13], every)
    with pytest.raises(ValueError, match="Hermitian"):
        quantum.HamiltonianMatrix(fock, *one, [1e-11], every)
    with pytest.raises(ValueError, match="Hermitian"):
        quantum.HamiltonianMatrix(fock, *one, [np.nan], every)


def test_sum_requires_one_basis(six_ion_resonance):
    _, basis, tensors, fock = _six_ion_fock(six_ion_resonance, 2)
    h_full = quantum.build_full_interaction(fock, basis, tensors, 7e-4)
    other = quantum.FockBasis.uniform(fock.modes, 1)
    with pytest.raises(ValueError, match="different bases"):
        h_full + quantum.build_free_hamiltonian(other, basis)


def _whole_matrix_samples(h, amps, taus):
    w, v = np.linalg.eigh(h.matrix)
    coeffs = v.conj().T @ amps
    return np.array([v @ (np.exp(-1j * w * tau) * coeffs) for tau in taus])


def _scatter(basis, idx, out):
    """Support samples (K, idx.size) as dense (K, dim) rows."""
    dense = np.zeros((len(out), basis.dimension), dtype=complex)
    dense[:, idx] = out
    return dense


def _dense_propagate(h, amps, taus):
    run = quantum.propagate(h, amps, taus)
    return _scatter(h.basis, run.states, run.amplitudes)


def _reference_propagate(h, amps, taus):
    """Whole-block propagation, every live block written into (K, dim).

    Each live block is diagonalized whole, never split into its x<->y
    parts: the oracle the split engine is held to.
    """
    amps = np.asarray(amps, dtype=complex)
    taus = np.asarray(taus, dtype=float)
    order, starts = h._blocks
    live = np.logical_or.reduceat(amps[order] != 0, starts)
    out = np.zeros((taus.size, amps.size), dtype=complex)
    for b in np.flatnonzero(live):
        idx, w, v = h._eigensystem(b)
        product = np.matmul if np.iscomplexobj(v) else quantum._real_product
        coeffs = product(v.conj().T, amps[idx])
        out[:, idx] = product(v, coeffs[:, None] * np.exp(-1j * np.outer(w, taus))).T
    out[taus == 0.0] = amps
    return out


@pytest.mark.parametrize("cutoff", [2, 3])
def test_support_samples_scatter_to_dense_reference(six_ion_resonance, cutoff):
    entry, fock, h = _full_generator(six_ion_resonance, cutoff)
    psi, _, _ = quantum.down_conversion_states(fock, entry)
    taus = np.linspace(0.0, 900.0, 17)
    starts = [fock.number_state(psi),
              fock.number_state({("x", 5): 1}),
              (fock.number_state(psi) + fock.number_state({("x", 5): 1}))
              / np.sqrt(2.0)]
    order, block_starts = h._blocks
    for amps, n_live in zip(starts, (1, 1, 2)):
        run = quantum.propagate(h, amps, taus)
        idx = run.states
        assert np.all(np.diff(idx) > 0)
        assert run.amplitudes.shape == (taus.size, idx.size)
        assert not (idx.flags.writeable or run.amplitudes.flags.writeable)
        dense = _reference_propagate(h, amps, taus)
        got = _dense_propagate(h, amps, taus)
        live = np.flatnonzero(np.logical_or.reduceat(amps[order] != 0,
                                                     block_starts))
        if all(h._exchange_orbits(b) is None for b in live):
            assert np.array_equal(got, dense)
        else:
            # the x<->y parts are diagonalized apart from the whole block
            assert np.max(np.abs(got - dense)) <= 5e-12
        # nothing outside the support: the live blocks' states, all of them
        blocks = np.split(order, block_starts[1:])
        live = [b for b in blocks if np.any(amps[b] != 0)]
        assert len(live) == n_live
        assert np.array_equal(idx, np.sort(np.concatenate(live)))


def test_propagate_matches_whole_matrix_eigh(six_ion_resonance):
    entry, fock, h = _full_generator(six_ion_resonance)
    rng = np.random.default_rng(3)
    taus = np.concatenate([[0.0], rng.uniform(0.0, 7.0, size=9)])
    spread = rng.normal(size=fock.dimension) + 1j * rng.normal(size=fock.dimension)
    psi, _, _ = quantum.down_conversion_states(fock, entry)
    for amps in (fock.number_state(psi), spread / np.linalg.norm(spread)):
        got = _dense_propagate(h, amps, taus)
        assert np.array_equal(got[0], amps)
        assert np.max(np.abs(got - _whole_matrix_samples(h, amps, taus))) <= 1e-12


def test_propagate_on_planted_complex_blocks():
    fock = quantum.FockBasis.uniform((("z", 1), ("x", 1), ("y", 1)), 2)
    dim = fock.dimension
    rng = np.random.default_rng(5)
    labels = rng.permutation(np.arange(dim) % 4)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = (mat + mat.conj().T) * (labels[:, None] == labels[None, :])
    h = _from_dense(mat, fock)
    assert np.iscomplexobj(h._values)
    taus = np.linspace(0.0, 2.0, 7)
    spread = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    two_blocks = np.where(labels % 2 == 0, spread, 0.0)
    for amps in (spread, two_blocks):
        amps = amps / np.linalg.norm(amps)
        got = _dense_propagate(h, amps, taus)
        assert np.max(np.abs(got - _whole_matrix_samples(h, amps, taus))) <= 1e-12
    assert np.array_equal(quantum.propagate(h, amps, taus).states,
                          np.flatnonzero(labels % 2 == 0))


def test_propagate_matches_repeated_evolve(six_ion_resonance):
    entry, fock, h = _full_generator(six_ion_resonance)
    psi, _, _ = quantum.down_conversion_states(fock, entry)
    amps = fock.number_state(psi)
    step = 0.37
    batched = _dense_propagate(h, amps, np.arange(40) * step)
    # one dense step exp(-i H step) from the eigh of the whole matrix,
    # applied 39 times
    w, v = np.linalg.eigh(h.matrix)
    stepper = v @ (np.exp(-1j * w * step)[:, None] * v.conj().T)
    assert np.array_equal(batched[0], amps)
    for k in range(1, 40):
        amps = stepper @ amps
        assert np.max(np.abs(amps - batched[k])) <= 1e-12


@pytest.mark.parametrize("cutoff", [2, 3])
def test_only_the_live_block_is_diagonalized(six_ion_resonance, cutoff):
    entry, fock, h = _full_generator(six_ion_resonance, cutoff)
    psi, _, _ = quantum.down_conversion_states(fock, entry)
    pump = fock.index_of(psi)
    quantum.propagate(h, fock.number_state(psi), [0.0, 1.0, 2.0])
    assert len(h._blocks[1]) == 8
    _, _, tensors, _ = _six_ion_fock(six_ion_resonance, cutoff)
    assert len(set(_sector_parities(fock, tensors, *h._blocks))) == 8
    ((b, (idx, _w, v)),) = h._diagonalized.items()
    assert pump in idx and v.dtype == np.float64
    # a second run from the same sector reuses the kept eigensystem
    quantum.propagate(h, fock.number_state(psi), [1.0])
    assert list(h._diagonalized) == [b]
    _, basis, tensors, _ = _six_ion_fock(six_ion_resonance, cutoff)
    h_rwa = quantum.build_rwa_interaction(fock, basis, tensors, 7.09e-4,
                                          resonance=entry)
    quantum.propagate(h_rwa, fock.number_state(psi), [1.0])
    ((_b, (idx, _w, _v)),) = h_rwa._diagonalized.items()
    assert len(idx) == 3


# --- symmetry sectors and x<->y exchange parts ---------------------------

_STARTS = [{("z", 5): 1}, {("x", 5): 1}, {}, {("z", 5): 2}]


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_sector_build_restricts_the_whole_basis_triplets(six_ion_resonance,
                                                         cutoff):
    entry, basis, tensors, fock = _six_ion_fock(six_ion_resonance, cutoff)
    eps = 7.09e-4
    whole = {
        "full": quantum.build_free_hamiltonian(fock, basis)
        + quantum.build_full_interaction(fock, basis, tensors, eps),
        "rwa": quantum.build_rwa_interaction(fock, basis, tensors, eps,
                                             resonance=entry)}
    everything = np.arange(fock.dimension)
    labels = np.array(_sector_parities(fock, tensors, everything,
                                       np.arange(fock.dimension)))
    for occ in _STARTS:
        amps = fock.number_state(occ)
        states = quantum.sector_states(fock, tensors, amps)
        # the sector: every state with the start's three labels
        start = fock.index_of(occ)
        assert np.array_equal(
            states, np.flatnonzero((labels == labels[start]).all(axis=1)))
        built = {
            "full": quantum.build_free_hamiltonian(fock, basis, states=states)
            + quantum.build_full_interaction(fock, basis, tensors, eps,
                                             states=states),
            "rwa": quantum.build_rwa_interaction(fock, basis, tensors, eps,
                                                 resonance=entry,
                                                 states=states)}
        for label, h in built.items():
            ref = whole[label]
            inside = np.isin(ref._rows, states)
            for name in ("_rows", "_cols", "_values"):
                assert np.array_equal(getattr(h, name),
                                      getattr(ref, name)[inside])
            assert np.array_equal(h._states, states)
        # the sector is the live support of the whole-basis generator
        run = quantum.propagate(whole["full"], amps, [1.0])
        assert np.array_equal(run.states, states)


def test_sector_sizes(six_ion_resonance):
    entry, basis, tensors, _ = _six_ion_fock(six_ion_resonance, 2)
    for cutoff, size in ((3, 128), (4, 410), (6, 2163)):
        fock = quantum.FockBasis.uniform(quantum.resonance_mode_set(entry),
                                         cutoff)
        states = quantum.sector_states(
            fock, tensors, fock.number_state({("z", 5): 1}))
        assert states.size == size
    # a superposition lights the union of its sectors
    fock = quantum.FockBasis.uniform(quantum.resonance_mode_set(entry), 3)
    amps = fock.number_state({("z", 5): 1}) + fock.number_state({("x", 5): 1})
    union = quantum.sector_states(fock, tensors, amps)
    assert union.size == 256


def test_parity_forbidden_coupling_makes_the_builder_raise(six_ion_resonance):
    entry, basis, tensors, fock = _six_ion_fock(six_ion_resonance, 2)
    states = quantum.sector_states(fock, tensors,
                                   fock.number_state({("z", 5): 1}))
    mode = np.array(tensors.mode)
    # (5, 5, 5): s_5^3 = s_5, a parity-forbidden triple when s_5 = +1
    p = next(i for i in (5, 6) if tensors.parity[i - 1] > 0)
    assert mode[p - 1, p - 1, p - 1] == 0.0
    mode[p - 1, p - 1, p - 1] = 1.0
    planted = coupling.CouplingTensors(ion=tensors.ion, mode=mode,
                                       stretch_norm=tensors.stretch_norm,
                                       parity=tensors.parity)
    planted_fock = quantum.FockBasis.uniform(
        (("z", p),) + tuple(m for m in fock.modes if m[0] != "z"), 2)
    planted_states = quantum.sector_states(
        planted_fock, tensors, planted_fock.number_state({("z", p): 1}))
    with pytest.raises(ValueError, match="leaves the given basis states"):
        quantum.build_full_interaction(planted_fock, basis, planted, 7.09e-4,
                                       states=planted_states)
    # the whole basis takes it, and the true tensors build on the sector
    quantum.build_full_interaction(planted_fock, basis, planted, 7.09e-4)
    quantum.build_full_interaction(fock, basis, tensors, 7.09e-4,
                                   states=states)
    with pytest.raises(ValueError, match="must lie in"):
        quantum.build_free_hamiltonian(fock, basis, states=[fock.dimension])


def test_sector_operator_refuses_amplitude_outside(six_ion_resonance):
    entry, basis, tensors, fock = _six_ion_fock(six_ion_resonance, 2)
    pump = fock.number_state({("z", 5): 1})
    states = quantum.sector_states(fock, tensors, pump)
    h_free = quantum.build_free_hamiltonian(fock, basis, states=states)
    h = h_free + quantum.build_full_interaction(fock, basis, tensors, 7.09e-4,
                                                states=states)
    other = fock.number_state({("x", 5): 1})
    with pytest.raises(ValueError, match="outside the basis states"):
        quantum.propagate(h, other, [1.0])
    assert np.array_equal(quantum.propagate(h, pump, [0.0]).states, states)
    assert abs(pump.conj() @ h.matrix @ pump - np.sqrt(basis.mu[4])) < 1e-12
    # a sum keeps the union of the two state sets; the whole basis wins
    other_states = quantum.sector_states(fock, tensors, other)
    both = h + quantum.build_free_hamiltonian(fock, basis,
                                              states=other_states)
    assert np.array_equal(both._states, np.union1d(states, other_states))
    assert np.array_equal(
        (h + quantum.build_free_hamiltonian(fock, basis))._states,
        np.arange(fock.dimension))


@pytest.mark.parametrize("cutoff", [3, 4])
def test_exchange_split_matches_whole_block_oracle(six_ion_resonance, cutoff):
    entry, fock, h = _full_generator(six_ion_resonance, cutoff)
    taus = np.linspace(0.0, 1204.0, 29)
    symmetric = fock.number_state({("z", 5): 1})
    breaking = fock.number_state({("x", 5): 1})
    # |x5 y6> is (symmetric + antisymmetric orbit vector) / sqrt(2)
    both_parts = fock.number_state({("x", 5): 1, ("y", 6): 1})
    order, starts = h._blocks
    lit = {}
    for name, amps in (("symmetric", symmetric), ("breaking", breaking),
                       ("both", both_parts)):
        before = set(h._diagonalized)
        got = _dense_propagate(h, amps, taus)
        lit[name] = sorted(set(h._diagonalized) - before,
                           key=lambda k: (k[0], k[1] or 0))
        assert np.max(np.abs(got - _reference_propagate(h, amps, taus))) <= 5e-12
        assert np.array_equal(got[0], amps)
    (block, part), = lit["symmetric"]
    assert part == 1 and h._exchange_orbits(block) is not None
    # x5 alone breaks the swap: its block maps onto the y5 block
    (block, part), = lit["breaking"]
    assert part is None and h._exchange_orbits(block) is None
    assert [part for _b, part in lit["both"]] == [-1, 1]


def test_exchange_orbits_and_parts(six_ion_resonance):
    _, fock, h = _full_generator(six_ion_resonance, 3)
    pump = fock.index_of({("z", 5): 1})
    order, starts = h._blocks
    b = next(b for b, idx in enumerate(np.split(order, starts[1:]))
             if pump in idx)
    reps, partners = h._exchange_orbits(b)
    paired = reps != partners
    assert np.all(np.diff(reps) > 0) and np.all(partners >= reps)
    swap = [fock.axis_of(({"x": "y", "y": "x"}.get(d, d), i))
            for d, i in fock.modes]
    for rep, partner in zip(reps, partners):
        occ = np.unravel_index(rep, fock.shape)
        assert np.ravel_multi_index([occ[k] for k in swap],
                                    fock.shape) == partner
    assert reps.size == 72 and paired.sum() == 56
    # the parts are the block in the orbit basis, one after the other
    idx = np.sort(np.concatenate([reps, partners[paired]]))
    block = h.matrix[np.ix_(idx, idx)]
    at = {i: k for k, i in enumerate(idx)}
    for part in (1, -1):
        states, w, v = h._eigensystem(b, part)
        keep = paired if part < 0 else np.ones(reps.size, dtype=bool)
        assert np.array_equal(states, reps[keep])
        basis_vectors = np.zeros((idx.size, states.size))
        for k, (rep, partner) in enumerate(zip(reps[keep], partners[keep])):
            if rep == partner:
                basis_vectors[at[rep], k] = 1.0
            else:
                basis_vectors[at[rep], k] = np.sqrt(0.5)
                basis_vectors[at[partner], k] = part * np.sqrt(0.5)
        ref = basis_vectors.T @ block @ basis_vectors
        assert np.max(np.abs(v @ np.diag(w) @ v.T - ref)) <= 1e-13
    # one 125-state block: split while the swap maps its entries onto
    # equal ones, whole once one entry differs by more than 1e-14 of the
    # largest or the basis has no swap
    fock3 = quantum.FockBasis.uniform((("z", 1), ("x", 1), ("y", 1)), 4)
    ones = np.ones((fock3.dimension, fock3.dimension))
    assert _from_dense(ones, fock3)._exchange_orbits(0)
    i, j = fock3.index_of({("x", 1): 1}), fock3.index_of({("z", 1): 2})
    tilted = ones.copy()
    tilted[i, j] = tilted[j, i] = 1.0 + 1e-13
    assert _from_dense(tilted, fock3)._exchange_orbits(0) is None
    for other in (quantum.FockBasis.uniform((("z", 1), ("x", 1), ("x", 2)), 4),
                  quantum.FockBasis((("z", 1), ("x", 1), ("y", 1)), (4, 4, 3)),
                  quantum.FockBasis.uniform((("z", 1), ("x", 1), ("y", 1)), 2)):
        h_other = _from_dense(np.ones((other.dimension, other.dimension)),
                              other)
        assert h_other._exchange_orbits(0) is None


def test_full_run_diagonalizes_one_part_of_72_states(tmp_path, capsys,
                                                     monkeypatch):
    seen = []
    real = quantum.propagate

    def spy(h, start, taus):
        seen.append(h)
        return real(h, start, taus)

    monkeypatch.setattr(quantum, "propagate", spy)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 6\nresonance = 6,5,5\ncutoff = 3\nsamples = 5\n"
                   "mode = full\n")
    assert cli.main(["simulate", str(cfg)]) == 0
    capsys.readouterr()
    (h,) = seen
    assert h._states.size == 128
    ((_b, part), (states, w, v)), = h._diagonalized.items()
    assert part == 1 and states.size == 72 and v.shape == (72, 72)


def _reference_entropy(basis, amps, axes):
    """Single-state Schmidt entropy, as computed one state at a time."""
    rest = [k for k in range(len(basis.modes)) if k not in axes]
    moved = np.transpose(amps.reshape(basis.shape), axes + rest)
    dim_a = int(np.prod([basis.shape[k] for k in axes]))
    weights = np.linalg.svd(moved.reshape(dim_a, -1), compute_uv=False) ** 2
    weights = weights[weights > 1e-300]
    return float(-np.sum(weights * np.log(weights)) + 0.0)


def test_batched_entropies_match_single_state(six_ion_resonance):
    entry, fock, h = _full_generator(six_ion_resonance)
    psi, _, _ = quantum.down_conversion_states(fock, entry)
    run = quantum.propagate(h, fock.number_state(psi),
                            np.linspace(0.0, 900.0, 12))
    idx, out = run.states, run.amplitudes
    rng = np.random.default_rng(9)
    spread = rng.normal(size=(3, fock.dimension)) + 0j
    spread /= np.linalg.norm(spread, axis=1)[:, None]
    amps = np.vstack([_scatter(fock, idx, out), spread])
    for axes in ([1, 2], [0], [0, 3, 4]):
        got = np.concatenate([
            quantum._schmidt_entropies(fock, idx, out, axes),
            quantum._schmidt_entropies(fock, np.arange(fock.dimension),
                                       spread, axes)])
        ref = [_reference_entropy(fock, a, axes) for a in amps]
        assert np.max(np.abs(got - ref)) <= 1e-14
    x_pair = tuple(m for m in fock.modes if m[0] == "x")
    ref = [_reference_entropy(fock, a, [1, 2]) for a in amps[:12]]
    assert np.max(np.abs(run.entropies(x_pair) - ref)) <= 1e-14


def _reference_top_fock(basis, dense):
    """Top-Fock population from dense (K, dim) amplitudes, mode by mode."""
    probs = np.reshape(np.abs(dense) ** 2, (-1,) + basis.shape)
    return max(float(np.max(np.take(probs, cutoff, axis=k + 1)
                            .reshape(len(probs), -1).sum(axis=1)))
               for k, cutoff in enumerate(basis.cutoffs))


@pytest.fixture(scope="module")
def cutoff2_generator(six_ion_resonance):
    _, fock, h = _full_generator(six_ion_resonance, cutoff=2)
    return fock, h


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_support_kernels_match_dense_reference(cutoff2_generator, data):
    fock, h = cutoff2_generator
    order, starts = h._blocks
    blocks = np.split(order, starts[1:])
    kind = data.draw(st.sampled_from(["single state", "full", "two blocks"]))
    if kind == "single state":
        idx = np.array([data.draw(st.integers(0, fock.dimension - 1))])
    elif kind == "full":
        idx = np.arange(fock.dimension)
    else:
        pair = data.draw(st.lists(st.integers(0, len(blocks) - 1),
                                  min_size=2, max_size=2, unique=True))
        idx = np.sort(np.concatenate([blocks[b] for b in pair]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (data.draw(st.integers(1, 4)), idx.size)
    out = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out /= np.linalg.norm(out, axis=1)[:, None]
    dense = _scatter(fock, idx, out)
    n_modes = len(fock.modes)
    axes = data.draw(st.lists(st.integers(0, n_modes - 1), min_size=1,
                              max_size=n_modes - 1, unique=True))

    got = quantum._schmidt_entropies(fock, idx, out, axes)
    ref = [_reference_entropy(fock, a, axes) for a in dense]
    assert np.max(np.abs(got - ref)) <= 1e-14
    assert abs(quantum._top_fock_population(fock, idx, out)
               - _reference_top_fock(fock, dense)) <= 1e-15
    assert np.max(np.abs(quantum._checked_norms(out)
                         - np.linalg.norm(dense, axis=1))) <= 1e-15


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gram_weights_match_the_svd_at_any_rank(cutoff2_generator, data):
    """Entropies from the Gram product's eigenvalues agree with the SVD
    formula for Schmidt matrices of every rank, a number state (entropy
    exactly 0) and product states (rank 1) included."""
    fock, _ = cutoff2_generator
    n_modes = len(fock.modes)
    axes = data.draw(st.lists(st.integers(0, n_modes - 1), min_size=1,
                              max_size=n_modes - 1, unique=True))
    rest = [k for k in range(n_modes) if k not in axes]
    side_shape = [fock.shape[k] for k in axes + rest]
    dim_a = int(np.prod(side_shape[:len(axes)]))
    dim_b = fock.dimension // dim_a
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rank = data.draw(st.integers(0, min(dim_a, dim_b)))
    if rank == 0:
        psi = np.zeros(fock.dimension, dtype=complex)
        psi[data.draw(st.integers(0, fock.dimension - 1))] = 1.0
    else:
        left = rng.normal(size=(dim_a, rank)) + 1j * rng.normal(size=(dim_a, rank))
        right = rng.normal(size=(rank, dim_b)) + 1j * rng.normal(size=(rank, dim_b))
        # the Schmidt matrix back in the basis's own mode order
        moved = (left @ right).reshape(side_shape)
        psi = np.transpose(moved, np.argsort(axes + rest)).ravel()
        psi /= np.linalg.norm(psi)

    (got,) = quantum._schmidt_entropies(fock, np.arange(fock.dimension),
                                        psi, axes)
    assert abs(got - _reference_entropy(fock, psi, axes)) <= 1e-12
    if rank == 0:
        assert got == 0.0


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_schmidt_blocks_change_no_bit(cutoff2_generator, extra):
    """Entropies from the blocked Gram products equal those from one
    product over all K samples, for K below, at and above the block."""
    fock, _ = cutoff2_generator
    k = quantum._SCHMIDT_BLOCK + extra
    rng = np.random.default_rng(k)
    amps = (rng.normal(size=(k, fock.dimension))
            + 1j * rng.normal(size=(k, fock.dimension)))
    n_modes = len(fock.modes)
    # the first cut has the smaller side first, the second the larger
    for axes in ([0], list(range(1, n_modes))):
        rest = [m for m in range(n_modes) if m not in axes]
        moved = np.transpose(amps.reshape((k,) + fock.shape),
                             [0] + [m + 1 for m in axes + rest])
        matrices = moved.reshape(k, int(np.prod([fock.shape[m]
                                                 for m in axes])), -1)
        adjoint = matrices.conj().swapaxes(1, 2)
        if matrices.shape[1] <= matrices.shape[2]:
            weights = np.linalg.eigvalsh(matrices @ adjoint)
        else:
            weights = np.linalg.eigvalsh(adjoint @ matrices)
        kept = weights > 1e-300
        terms = np.where(kept, weights * np.log(np.where(kept, weights, 1.0)),
                         0.0)
        got = quantum._schmidt_entropies(fock, np.arange(fock.dimension),
                                         amps, axes)
        assert np.array_equal(got, -np.sum(terms, axis=1) + 0.0)


def test_top_fock_population_matches_occupation_loop(six_ion_resonance):
    entry, fock, h = _full_generator(six_ion_resonance, cutoff=2)
    psi, _, _ = quantum.down_conversion_states(fock, entry)
    rng = np.random.default_rng(13)
    spread = rng.normal(size=(4, fock.dimension)) + 1j * rng.normal(
        size=(4, fock.dimension))
    run = quantum.propagate(h, fock.number_state(psi), [0.0, 300.0, 600.0])
    samples = np.vstack([_scatter(fock, run.states, run.amplitudes),
                         spread / np.linalg.norm(spread, axis=1)[:, None]])
    everything = np.arange(fock.dimension)
    for got, amps in ((run.top_fock_population(), samples[:3]),
                      (quantum._top_fock_population(fock, everything, samples),
                       samples)):
        top = 0.0
        for row in amps:
            per_mode = dict.fromkeys(fock.modes, 0.0)
            for i in range(fock.dimension):
                for mode, n in fock.occupations(i).items():
                    if n == fock.cutoffs[fock.axis_of(mode)]:
                        per_mode[mode] += abs(row[i]) ** 2
            top = max(top, *per_mode.values())
        assert abs(got - top) <= 1e-15
    pump = [fock.index_of(psi)]
    assert quantum._top_fock_population(fock, np.array(pump), np.ones(1)) == 0.0


def test_rwa_refuses_off_resonant_anisotropy(six_ion_resonance):
    entry, u, _, _, fock = six_ion_resonance
    detuned = modes.mode_basis(u, 0.05)
    tensors = coupling.coupling_tensors(u, detuned)
    with pytest.raises(NoResonantCouplingError):
        quantum.build_rwa_interaction(fock, detuned, tensors, 7e-4)


def test_transverse_directions_must_be_mirrored(six_ion_resonance):
    entry, _, basis, tensors, _ = six_ion_resonance
    lopsided = quantum.FockBasis.uniform(
        (("z", entry.p), ("x", entry.m), ("x", entry.n), ("y", entry.m)), 2)
    with pytest.raises(ValueError, match="pairs"):
        quantum.build_full_interaction(lopsided, basis, tensors, 7e-4)


def test_hamiltonian_rejects_non_hermitian(six_ion_resonance):
    *_, fock = six_ion_resonance
    bad = np.zeros((fock.dimension, fock.dimension), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        _from_dense(bad, fock)


# --- dynamics -----------------------------------------------------------

def test_evolution_conserves_norm_and_energy(six_ion_resonance):
    entry, _, basis, tensors, fock = six_ion_resonance
    eps = 7.09e-4
    h0 = quantum.build_free_hamiltonian(fock, basis)
    h_int = quantum.build_full_interaction(fock, basis, tensors, eps)
    h = h0 + h_int
    psi, _, _ = quantum.down_conversion_states(fock, entry)
    amps = fock.number_state(psi)
    e0 = (amps.conj() @ h.matrix @ amps).real
    run = quantum.propagate(h, amps, np.arange(51) * 7.0)
    assert np.max(np.abs(run.norms() - 1.0)) < 1e-9
    for amps in _scatter(fock, run.states, run.amplitudes):
        energy = (amps.conj() @ h.matrix @ amps).real
        assert abs(energy - e0) < 1e-8 * abs(e0)


def test_evolve_requires_matching_basis(six_ion_resonance):
    entry, _, basis, tensors, fock = six_ion_resonance
    other = quantum.FockBasis.uniform((("z", entry.p),), 2)
    h = quantum.build_free_hamiltonian(other, basis)
    psi, _, _ = quantum.down_conversion_states(fock, entry)
    # a start over another basis has the wrong number of amplitudes
    with pytest.raises(ValueError, match="basis dimension is 3"):
        quantum.propagate(h, fock.number_state(psi), [1.0])
    with pytest.raises(ValueError, match="basis dimension is 243"):
        quantum.sector_states(fock, tensors, other.number_state({}))


def test_three_state_solution_population_shapes():
    t = np.linspace(0.0, 8.0, 400)
    rate = 0.35
    psi, phi, chi = quantum.three_state_solution(1.0, 0.0, 0.0, rate, t)
    # unitarity, symmetry between the two pair states, full revival
    assert np.max(np.abs(np.abs(psi)**2 + np.abs(phi)**2
                         + np.abs(chi)**2 - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(phi) - np.abs(chi))) < 1e-12
    angle = np.sqrt(2.0) * rate * t
    assert np.max(np.abs(np.abs(psi)**2 - np.cos(angle)**2)) < 1e-12
    # starting from the y-pair state the pump stays bounded by 1/2
    _, phi_b, _ = quantum.three_state_solution(0.0, 1.0, 0.0, rate, t)
    assert np.max(np.abs(np.abs(phi_b)**2
                         - np.cos(angle / 2.0)**4)) < 1e-12


def test_three_state_solution_requires_normalized_input():
    with pytest.raises(ValueError, match="norm"):
        quantum.three_state_solution(1.0, 1.0, 0.0, 0.3, 0.0)


def test_down_conversion_states_validation(catalogs):
    degenerate = next(e for e in catalogs[2])
    fock = quantum.FockBasis.uniform(quantum.resonance_mode_set(degenerate), 2)
    with pytest.raises(ValueError, match="distinct"):
        quantum.down_conversion_states(fock, degenerate)


# --- entanglement -------------------------------------------------------

def _at_rest(basis, amps):
    """The one-sample run of amps under the zero operator on basis."""
    zero = quantum.HamiltonianMatrix(basis, [], [], [])
    return quantum.propagate(zero, amps, [0.0])


def test_entropy_of_product_and_bell_states():
    fb = quantum.FockBasis.uniform((("x", 1), ("y", 1)), 1)
    product = _at_rest(fb, fb.number_state({("x", 1): 1}))
    assert product.entropies((("x", 1),)).tolist() == [0.0]
    bell = (fb.number_state({}) + fb.number_state({("x", 1): 1,
                                                   ("y", 1): 1})) / np.sqrt(2)
    entangled = _at_rest(fb, bell)
    (s,) = entangled.entropies((("x", 1),))
    assert abs(s - np.log(2.0)) < 1e-12
    # entropy is symmetric under swapping the partition
    (s_other,) = entangled.entropies((("y", 1),))
    assert abs(s - s_other) < 1e-12


def test_entropy_partition_validation():
    fb = quantum.FockBasis.uniform((("x", 1), ("y", 1)), 1)
    run = _at_rest(fb, fb.number_state({}))
    with pytest.raises(ValueError, match="proper subset"):
        run.entropies((("x", 1), ("y", 1)))
    with pytest.raises(ValueError, match="nonempty"):
        run.entropies(())
    with pytest.raises(ValueError, match="twice"):
        run.entropies((("x", 1), ("x", 1)))


def test_state_normalization_enforced():
    fb = quantum.FockBasis.uniform((("z", 1),), 1)
    with pytest.raises(ValueError, match="norm"):
        _at_rest(fb, np.array([0.5, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="norm"):
        _at_rest(fb, np.array([np.nan, 0.0], dtype=complex))

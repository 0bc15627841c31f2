import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ionchain import classical, equilibrium, modes
from ionchain.errors import UnstableTrajectoryError


@pytest.fixture(scope="module")
def two_ion_setup(chains):
    u = chains[2]
    return u, modes.mode_basis(u, 0.5)


# --- forces and potentials ----------------------------------------------

def test_equilibrium_is_force_free(chains):
    for n in (2, 5, 8):
        pos = np.zeros((n, 3))
        pos[:, 2] = chains[n]
        acc = classical.accelerations(pos, 0.1)
        assert np.max(np.abs(acc)) < 1e-11


def test_single_ion_restoring_force():
    pos = np.array([[0.2, -0.3, 0.4]])
    acc = classical.accelerations(pos, 0.5)
    assert np.allclose(acc, [[-0.4, 0.6, -0.4]], atol=1e-15)


def test_two_ion_axial_force_by_hand():
    # ions at -+d on the axis: coulomb 1/(2d)^2 against trap d
    d = 0.5
    pos = np.array([[0.0, 0.0, -d], [0.0, 0.0, d]])
    acc = classical.accelerations(pos, 0.3)
    expected = 1.0 / (4.0 * d * d) - d
    assert abs(acc[1, 2] - expected) < 1e-14
    assert abs(acc[0, 2] + expected) < 1e-14
    assert np.max(np.abs(acc[:, :2])) == 0.0


def test_accelerations_broadcast_over_snapshots(chains):
    pos = np.zeros((4, 3, 3))
    pos[:, :, 2] = chains[3]
    pos[2, 0, 0] = 0.01
    acc = classical.accelerations(pos, 0.2)
    assert acc.shape == (4, 3, 3)
    assert np.max(np.abs(acc[[0, 1, 3]])) < 1e-11
    assert acc[2, 0, 0] < 0.0


def test_accelerations_validation():
    with pytest.raises(ValueError, match="shape"):
        classical.accelerations(np.zeros((2, 2)), 0.5)
    for alpha in (0.0, float("nan")):
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            classical.accelerations(np.zeros((2, 3)), alpha)


def test_coincident_positions_rejected():
    pos = np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 0.1]])
    with pytest.raises(ValueError, match="coincident"):
        classical.accelerations(pos, 0.5)


# Reference implementations the pair kernel replaced: the full (n, n)
# separation grid with a masked diagonal, and the energy offset of one
# sample at a time.

def _reference_accelerations(pos, alpha):
    diff = pos[..., :, None, :] - pos[..., None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    eye = np.eye(pos.shape[-2], dtype=bool)
    inv3 = (dist + eye) ** -3 * ~eye
    coulomb = np.sum(diff * inv3[..., None], axis=-2)
    return coulomb - pos * np.array([1.0 / alpha, 1.0 / alpha, 1.0])


def _reference_offset(pos, ref, alpha):
    stiff = np.array([1.0 / alpha, 1.0 / alpha, 1.0])
    dp = pos - ref
    trap = 0.5 * float(np.sum(dp * (pos + ref) * stiff))
    iu, ju = np.triu_indices(pos.shape[0], k=1)
    d0 = (ref[:, None, :] - ref[None, :, :])[iu, ju]
    dz = (dp[:, None, :] - dp[None, :, :])[iu, ju]
    r02 = np.einsum("pk,pk->p", d0, d0)
    cross = 2.0 * np.einsum("pk,pk->p", d0, dz) + np.einsum("pk,pk->p", dz, dz)
    r0 = np.sqrt(r02)
    r = np.sqrt(r02 + cross)
    return trap + float(np.sum(-cross / (r * r0 * (r + r0))))


def _snapshots(bound):
    """(batch, n, 3) position arrays with N in 2..8 and entries in +-bound.

    Every entry is drawn on its own (no fill value): a filled array repeats
    one value so often that whole ions coincide, and the callers' minimum
    separation filter then trips hypothesis' filter_too_much health check.
    """
    return st.tuples(st.integers(1, 4), st.integers(2, 8)).flatmap(
        lambda shape: arrays(float, shape + (3,),
                             elements=st.floats(-bound, bound),
                             fill=st.nothing()))


@settings(max_examples=40, deadline=None)
@given(pos=_snapshots(2.0), alpha=st.floats(0.01, 1.0))
def test_pair_kernel_matches_reference(pos, alpha):
    iu, ju = np.triu_indices(pos.shape[-2], k=1)
    sep = np.linalg.norm(pos[..., iu, :] - pos[..., ju, :], axis=-1)
    assume(np.min(sep) > 0.05)
    expected = _reference_accelerations(pos, alpha)
    got = classical.accelerations(pos, alpha)
    assert got.shape == pos.shape
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=40, deadline=None)
@given(disp=_snapshots(1e-3), alpha=st.floats(0.01, 1.0))
def test_vectorised_offset_matches_per_sample(disp, alpha):
    reference = classical._reference_pairs(
        equilibrium.solve_equilibrium(disp.shape[1]))
    ref = reference[0]
    pos = ref + disp
    got = classical._potential_offset(pos, reference, alpha)
    expected = [_reference_offset(p, ref, alpha) for p in pos]
    assert got.shape == (pos.shape[0],)
    assert np.max(np.abs(got - expected)) <= 1e-15


# The single-trajectory Verlet loop the batched integrator replaced, with
# the indexed pair differences of its force kernel.  Its energies use the
# per-sample offset above.

def _reference_force(pos, alpha):
    n = pos.shape[-2]
    iu, ju = np.triu_indices(n, k=1)
    cols = np.arange(iu.size)
    scatter = np.zeros((n, iu.size))
    scatter[iu, cols] = 1.0
    scatter[ju, cols] = -1.0
    d = pos[..., iu, :] - pos[..., ju, :]
    r2 = np.einsum("...pk,...pk->...p", d, d)
    stiff = np.array([1.0 / alpha, 1.0 / alpha, 1.0])
    return scatter @ (d * r2[..., None] ** -1.5) - pos * stiff


def _reference_integrate(u, basis, displacements, velocities, dt, t_final,
                         stride):
    pos, vel = classical._assemble_initial(u, basis, displacements,
                                           velocities)
    n_steps = int(round(t_final / dt))
    traj_pos = np.empty((n_steps // stride + 1,) + pos.shape)
    traj_vel = np.empty_like(traj_pos)
    traj_pos[0], traj_vel[0] = pos, vel
    acc = _reference_force(pos, basis.alpha)
    for step in range(1, n_steps + 1):
        vel += 0.5 * dt * acc
        pos += dt * vel
        acc = _reference_force(pos, basis.alpha)
        vel += 0.5 * dt * acc
        if step % stride == 0:
            traj_pos[step // stride] = pos
            traj_vel[step // stride] = vel
    ref = np.zeros_like(pos)
    ref[:, 2] = u
    kinetic = 0.5 * np.sum(traj_vel * traj_vel, axis=(-2, -1))
    potential = [_reference_offset(p, ref, basis.alpha) for p in traj_pos]
    return traj_pos, traj_vel, kinetic + potential


@settings(max_examples=40, deadline=None)
@given(pos=_snapshots(2.0), alphas=st.lists(st.floats(0.01, 1.0),
                                            min_size=4, max_size=4))
def test_matmul_pair_differences_match_indexed_force(pos, alphas):
    iu, ju = np.triu_indices(pos.shape[-2], k=1)
    sep = np.linalg.norm(pos[..., iu, :] - pos[..., ju, :], axis=-1)
    assume(np.min(sep) > 0.05)
    # one alpha for the whole stack, then one alpha per member through
    # the kernel on the ion-major (n, batch, 3) layout of the Verlet loop
    got = classical.accelerations(pos, alphas[0])
    assert np.array_equal(got, _reference_force(pos, alphas[0]))
    stiff = np.stack([classical._stiffness(a) for a in alphas[:len(pos)]])
    ion_major = np.ascontiguousarray(np.moveaxis(pos, 1, 0))
    out = np.empty_like(ion_major)
    classical._force_kernel(ion_major, out, stiff)()
    for member, alpha, acc in zip(pos, alphas, np.moveaxis(out, 0, 1)):
        assert np.array_equal(acc, _reference_force(member, alpha))


def test_kernel_einsum_is_the_one_np_einsum_runs():
    # the kernels skip NumPy's Python layers; each must still reach the
    # C function the public call returns through, with the same bits: the
    # Verlet loop's einsum, and the Newton step's LAPACK gufunc, which
    # np.linalg.solve calls for a 1-d right-hand side
    from numpy._core import einsumfunc
    from numpy.linalg import _linalg
    assert classical._c_einsum is einsumfunc.c_einsum
    assert equilibrium._solve1 is _linalg._umath_linalg.solve1
    rng = np.random.default_rng(3)
    for batch in (1, 3, 64):
        d = rng.standard_normal((15, batch, 3))
        r2 = np.empty((15, batch))
        classical._c_einsum("...k,...k->...", d, d, out=r2)
        assert np.array_equal(r2, np.einsum("...k,...k->...", d, d))
    for n in (1, 2, 10, 40):
        a = rng.standard_normal((n, n)) + 2.0 * n * np.eye(n)
        b = rng.standard_normal(n)
        got = equilibrium._solve1(a, b, signature="dd->d")
        assert got.tobytes() == np.linalg.solve(a, b).tobytes()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), batch=st.integers(1, 4),
       fractions=st.lists(st.floats(0.2, 0.95), min_size=4, max_size=4),
       amps=st.lists(st.floats(-0.02, 0.02), min_size=4, max_size=4),
       stride=st.integers(1, 7))
def test_batched_verlet_matches_single_reference(chains, n, batch, fractions,
                                                 amps, stride):
    u = chains[n]
    alpha_crit = modes.critical_anisotropy(
        np.linalg.eigvalsh(modes.axial_matrix(u)))
    bases = [modes.mode_basis(u, f * alpha_crit) for f in fractions[:batch]]
    displacements = {("z", n): amps[0], ("x", 1): amps[1], ("y", n): amps[2]}
    velocities = {("x", n): amps[3]}
    run = dict(dt=1e-2, t_final=0.5, stride=stride)
    members = classical.integrate_batch(u, bases, displacements, velocities,
                                        **run)
    assert len(members) == batch
    for basis, member in zip(bases, members):
        ref_pos, ref_vel, ref_energy = _reference_integrate(
            u, basis, displacements, velocities, **run)
        single = classical.integrate(u, basis, displacements, velocities,
                                     **run)
        for traj in (member, single):
            assert np.array_equal(traj.positions, ref_pos)
            assert np.array_equal(traj.velocities, ref_vel)
            assert np.max(np.abs(traj.total_energy - ref_energy)) <= 1e-15


def test_energy_blocks_change_no_bit(chains, monkeypatch):
    u = chains[5]
    bases = [modes.mode_basis(u, a) for a in (0.05, 0.04, 0.06)]
    run = dict(displacements={("z", 5): 0.02, ("x", 4): 0.01, ("y", 5): -0.01},
               velocities={("x", 1): 0.01}, dt=1e-2, t_final=0.49, stride=1)
    runs = {}
    # 50 samples: blocks of 7 end in a block of one sample
    for block in (1, 7, 50):
        monkeypatch.setattr(classical, "_ENERGY_BLOCK", block)
        runs[block] = classical.integrate_batch(u, bases, **run)
    assert runs[50][0].n_samples == 50
    for block in (1, 7):
        for got, whole in zip(runs[block], runs[50]):
            assert np.array_equal(got.positions, whole.positions)
            assert np.array_equal(got.velocities, whole.velocities)
            assert np.array_equal(got.total_energy, whole.total_energy)


@pytest.mark.parametrize("t_final, stride", [(0.49, 1), (0.49, 3),
                                             (0.48, 3)])
def test_sample_blocks_change_no_bit(chains, monkeypatch, t_final, stride):
    # 50 samples at stride 1, 17 at stride 3 from 49 steps (one step past
    # the last sample) and from 48 (none): blocks of 7 end in blocks of
    # one and three samples
    u = chains[5]
    bases = [modes.mode_basis(u, a) for a in (0.05, 0.04, 0.06)]
    run = dict(displacements={("z", 5): 0.02, ("x", 4): 0.01, ("y", 5): -0.01},
               velocities={("x", 1): 0.01}, dt=1e-2, t_final=t_final,
               stride=stride)
    runs = {}
    for block in (1, 7, 50):
        monkeypatch.setattr(classical, "_SAMPLE_BLOCK", block)
        runs[block] = classical.integrate_batch(u, bases, **run)
    for block in (1, 7):
        for got, whole in zip(runs[block], runs[50]):
            assert np.array_equal(got.positions, whole.positions)
            assert np.array_equal(got.velocities, whole.velocities)


def test_projection_blocks_change_no_bit(chains, monkeypatch):
    # 130 samples end in a lone one at every block size below; a block
    # of one row is projected as a pair, since numpy sends a one-row
    # matmul to gemv, which sums in another order than gemm
    u = chains[6]
    basis = modes.mode_basis(u, 0.05)
    traj = classical.integrate(u, basis, {("z", 6): 0.02, ("x", 5): 0.01},
                               {("y", 1): 0.01}, dt=1e-2, t_final=1.29)
    whole = classical.mode_projection(traj, basis, u)
    for block in (1, 2, 3, 7):
        monkeypatch.setattr(classical, "_SAMPLE_BLOCK", block)
        got = classical.mode_projection(traj, basis, u)
        for d in "xyz":
            assert np.array_equal(got.coordinates[d], whole.coordinates[d])
            assert np.array_equal(got.energies[d], whole.energies[d])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), batch=st.integers(1, 4), stride=st.integers(1, 7),
       block=st.sampled_from([1, 2, 3, 7, 64]),
       steps=st.integers(20, 90),
       amps=st.lists(st.floats(-0.02, 0.02), min_size=4, max_size=4))
def test_reduced_blocks_equal_the_stored_runs(chains, n, batch, stride, block,
                                              steps, amps):
    u = chains[n]
    alpha_crit = modes.critical_anisotropy(
        np.linalg.eigvalsh(modes.axial_matrix(u)))
    bases = [modes.mode_basis(u, f * alpha_crit)
             for f in (0.6, 0.45, 0.8, 0.3)[:batch]]
    run = ({("z", n): amps[0], ("x", 1): amps[1], ("y", n): amps[2]},
           {("x", n): amps[3]}, 1e-2, steps * 1e-2, stride)
    pair = sorted({n, n - 1})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classical, "_SAMPLE_BLOCK", block)
        coords, table, gains = classical._reduce_blocks(u, bases, pair, *run)
    trajs = classical.integrate_batch(u, bases, *run)
    projs = [classical.mode_projection(t, b, u) for t, b in zip(trajs, bases)]
    for gain, proj in zip(gains, projs, strict=True):
        series = sum(proj.energies[d][:, p - 1] for d in "xy" for p in pair)
        assert gain == float(np.max(series - series[0]))
    first = trajs[0]
    assert np.array_equal(table[:, 0], first.times)
    for k, d in enumerate("zxy"):
        assert np.array_equal(coords[k], projs[0].coordinates[d])
        assert np.array_equal(table[:, 1 + k * n:1 + (k + 1) * n],
                              projs[0].energies[d])
    assert np.array_equal(table[:, -2], first.total_energy)
    assert np.array_equal(
        table[:, -1], (first.total_energy - first.total_energy[0])
        / max(abs(first.total_energy[0]), 1e-300))
    assert classical._windowed_drift(table[:, -2]) == first.energy_drift()


def test_long_run_projection_is_independent_of_run_length():
    # at N = 17-20 OpenBLAS sums a product of 5001 or more rows in another
    # order than a 64-row one; the stored run is projected in the streamed
    # run's blocks, so every sample agrees to the bit
    n = 18
    u = equilibrium.solve_equilibrium(n)
    alpha = 0.5 * modes.critical_anisotropy(
        np.linalg.eigvalsh(modes.axial_matrix(u)))
    basis = modes.mode_basis(u, alpha)
    run = ({("z", n): 0.01, ("z", 2): 0.02, ("x", 3): 0.01, ("y", n): -0.01},
           {("x", n): 0.01}, 1e-2, 50.0, 1)
    traj = classical.integrate(u, basis, *run)
    assert traj.n_samples == 5001
    proj = classical.mode_projection(traj, basis, u)
    coords, table, _ = classical._reduce_blocks(u, [basis], [n, n - 1], *run)
    for k, d in enumerate("zxy"):
        assert np.array_equal(coords[k], proj.coordinates[d])
        assert np.array_equal(table[:, 1 + k * n:1 + (k + 1) * n],
                              proj.energies[d])


def test_one_sample_offset_equals_its_batch_row(chains):
    # the pair sum folds left in every layout, where `sum` would sum a
    # lone sample's contiguous row pairwise
    rng = np.random.default_rng(5)
    reference = classical._reference_pairs(chains[8])
    pos = reference[0] + 0.05 * rng.standard_normal((40, 8, 3))
    batch = classical._potential_offset(pos, reference, 0.05)
    for k in range(pos.shape[0]):
        assert classical._potential_offset(pos[k:k + 1], reference,
                                           0.05)[0] == batch[k]


# The pair geometry the energies and the coincidence check used before they
# took the force kernel's matmul: pair differences by `tensordot`, their
# pair axis moved outermost in memory.  Kept as the definition the energies
# must reproduce to the last bit; the offset test above compares at 1e-15.

def _tensordot_separations(pos, diff):
    d = np.moveaxis(np.tensordot(diff, pos, axes=(1, -2)), 0, -2)
    return d, np.einsum("...pk,...pk->...p", d, d)


def _tensordot_offset(pos, ref, alpha):
    diff = classical._pairs(ref.shape[0])[1]
    d0, r02 = _tensordot_separations(ref, diff)
    r0 = np.sqrt(r02)
    dp = pos - ref
    trap = 0.5 * np.sum(dp * (pos + ref) * classical._stiffness(alpha),
                        axis=(-2, -1))
    dz, dz2 = _tensordot_separations(dp, diff)
    cross = 2.0 * np.einsum("pk,...pk->...p", d0, dz) + dz2
    r = np.sqrt(r02 + cross)
    terms = -cross / (r * r0 * (r + r0))
    if not terms.shape[-1]:
        return trap + 0.0
    return trap + np.add.accumulate(terms, axis=-1)[..., -1]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 13),
       lead=st.sampled_from([(), (1,), (2,), (64,), (512,), (3, 5)]),
       scale=st.sampled_from([1e-7, 1e-3, 0.1]),
       alpha=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_pair_geometry_matches_the_tensordot_layout(n, lead, scale, alpha,
                                                    seed):
    u = equilibrium.solve_equilibrium(n)
    reference = classical._reference_pairs(u)
    ref, diff, d0, r02, r0 = reference
    assert _same_bits(ref[:, 2], u) and not ref[:, :2].any()
    old_d0, old_r02 = _tensordot_separations(ref, diff)
    assert _same_bits(d0, old_d0) and _same_bits(r02, old_r02)
    assert _same_bits(r0, np.sqrt(old_r02))
    rng = np.random.default_rng(seed)
    pos = ref + scale * rng.standard_normal(lead + (n, 3))
    assert _same_bits(classical._potential_offset(pos, reference, alpha),
                      _tensordot_offset(pos, ref, alpha))
    # the coincidence check: raised exactly where the old r^2 has a zero,
    # also for a separation whose square underflows (1e-170)
    if n > 1:
        first = (0,) * len(lead)
        pos[first + (0,)] = 0.0
        pos[first + (n - 1,)] = rng.choice([0.0, 1e-170, 1e-100])
    coincident = np.any(_tensordot_separations(pos, diff)[1] == 0.0)
    if coincident:
        with pytest.raises(ValueError, match="^coincident ion positions$"):
            classical.accelerations(pos, alpha)
    else:
        classical.accelerations(pos, alpha)


# --- trajectory container -----------------------------------------------

def _toy_trajectory(energy):
    s = len(energy)
    return classical.Trajectory(
        times=np.linspace(0.0, 1.0, s),
        positions=np.zeros((s, 1, 3)) + [[0.0, 0.0, 0.1]],
        velocities=np.zeros((s, 1, 3)),
        total_energy=np.asarray(energy, dtype=float),
    )


def test_trajectory_shape_validation():
    good = _toy_trajectory(np.ones(5))
    assert good.n_samples == 5
    assert good.n_ions == 1
    with pytest.raises(ValueError, match="two samples"):
        _toy_trajectory(np.ones(1))
    with pytest.raises(ValueError, match="one value per sample"):
        classical.Trajectory(
            times=np.zeros(3), positions=np.zeros((3, 1, 3)),
            velocities=np.zeros((3, 1, 3)), total_energy=np.zeros(2))
    with pytest.raises(ValueError, match="match positions"):
        classical.Trajectory(
            times=np.zeros(3), positions=np.zeros((3, 1, 3)),
            velocities=np.zeros((3, 2, 3)), total_energy=np.zeros(3))


def test_trajectory_is_read_only():
    traj = _toy_trajectory(np.ones(5))
    with pytest.raises(ValueError):
        traj.positions[0, 0, 0] = 1.0


def test_energy_drift_measure():
    assert _toy_trajectory(np.full(100, 2.5)).energy_drift() == 0.0
    ramp = _toy_trajectory(np.linspace(1.0, 2.0, 100))
    assert 0.3 < ramp.energy_drift() < 1.0


# --- integration --------------------------------------------------------

def test_integrate_argument_validation(two_ion_setup, chains):
    u, basis = two_ion_setup
    with pytest.raises(ValueError, match="sizes disagree"):
        classical.integrate(chains[3], basis)
    with pytest.raises(ValueError, match="positive"):
        classical.integrate(u, basis, dt=0.0)
    with pytest.raises(ValueError, match="positive"):
        classical.integrate(u, basis, t_final=-1.0)
    with pytest.raises(ValueError, match="stride"):
        classical.integrate(u, basis, stride=0)
    with pytest.raises(ValueError, match="unknown direction"):
        classical.integrate(u, basis, displacements={("q", 1): 0.1})
    with pytest.raises(ValueError, match="out of range"):
        classical.integrate(u, basis, velocities={("z", 3): 0.1})


def test_sampling_grid(two_ion_setup):
    u, basis = two_ion_setup
    traj = classical.integrate(u, basis, displacements={("z", 2): 1e-3},
                               dt=1e-3, t_final=1.0, stride=10)
    assert traj.n_samples == 101
    assert abs(traj.times[-1] - 1.0) < 1e-12
    assert np.allclose(np.diff(traj.times), 1e-2, atol=1e-12)


def test_single_ion_kick_frequency(chains):
    u = chains[1]
    basis = modes.mode_basis(u, 0.2)
    traj = classical.integrate(u, basis, velocities={("z", 1): 0.1},
                               dt=2e-3, t_final=160.0, stride=5)
    proj = classical.mode_projection(traj, basis, u)
    dt_s = traj.times[1] - traj.times[0]
    peak = classical.spectrum(proj.coordinates["z"][:, 0], dt_s)[0]
    # the axial trap frequency is the unit of time
    assert abs(peak - 1.0) < 1e-3
    assert traj.energy_drift() < 1e-8


def test_runaway_ion_detected(two_ion_setup):
    u, basis = two_ion_setup
    # the first sample past the bound is step 290 of the stride-10 grid
    with pytest.raises(UnstableTrajectoryError,
                       match=r"^ion coordinate exceeded 1000 at t = 0\.29 "
                             r"\(alpha = 0\.5\)$"):
        classical.integrate(u, basis, velocities={("z", 1): 5000.0},
                            dt=1e-3, t_final=2.0, stride=10)


def test_runaway_member_is_named(two_ion_setup):
    # the kick moves the transverse centre of mass, which the Coulomb
    # term never feels: amplitude 5000 b / sqrt(1/alpha) stays below the
    # bound at alpha = 0.01 and passes it at alpha = 0.5
    u, _ = two_ion_setup
    bases = [modes.mode_basis(u, alpha) for alpha in (0.01, 0.5)]
    with pytest.raises(UnstableTrajectoryError,
                       match=r"^ion coordinate exceeded 1000 at t = 0\.3 "
                             r"\(alpha = 0\.5\)$") as exc:
        classical.integrate_batch(u, bases, velocities={("x", 1): 5000.0},
                                  dt=1e-3, t_final=2.0, stride=10)
    assert "0.01" not in str(exc.value)


def test_nan_fails_the_bound_check(two_ion_setup):
    # a NaN velocity passes the argument checks and makes the first
    # stepped sample NaN, which the bound check must reject
    u, basis = two_ion_setup
    with pytest.raises(UnstableTrajectoryError,
                       match=r"^ion coordinate exceeded 1000 at t = 0\.001 "
                             r"\(alpha = 0\.5\)$"):
        classical.integrate(u, basis, velocities={("x", 1): np.nan},
                            dt=1e-3, t_final=0.01, stride=1)


def test_integrate_batch_argument_validation(two_ion_setup, chains):
    u, basis = two_ion_setup
    with pytest.raises(ValueError, match="at least one mode basis"):
        classical.integrate_batch(u, [])
    other = modes.mode_basis(chains[3], 0.1)
    with pytest.raises(ValueError, match="sizes disagree"):
        classical.integrate_batch(u, [basis, other])
    for dt, t_final in ((0.0, 1.0), (1e-3, -1.0), (np.nan, 1.0),
                        (1e-3, np.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            classical.integrate_batch(u, [basis], dt=dt, t_final=t_final)


@pytest.mark.parametrize("dt, t_final", [(1e-300, 1e300),
                                         (np.float64(1e-300), 1e300),
                                         (1e-3, np.inf)])
def test_overflowing_step_count_is_a_value_error(two_ion_setup, dt, t_final):
    u, basis = two_ion_setup
    message = "give no finite number of steps"
    with pytest.raises(ValueError, match=message):
        classical._time_grid(dt, t_final, 1)
    with pytest.raises(ValueError, match=message):
        classical.integrate_batch(u, [basis], dt=dt, t_final=t_final)


def test_energy_conservation(two_ion_setup):
    u, basis = two_ion_setup
    traj = classical.integrate(
        u, basis,
        displacements={("z", 2): 1e-2, ("x", 1): 1e-2},
        dt=1e-3, t_final=50.0, stride=10)
    assert traj.energy_drift() < 1e-6


def test_projected_energy_matches_trajectory_energy(two_ion_setup):
    # at tiny amplitude the quadratic mode energies add up to the exact
    # energy; this only resolves because the stored energy is an offset
    # from equilibrium, not a difference of two absolute potentials
    u, basis = two_ion_setup
    amp = 1e-6
    traj = classical.integrate(
        u, basis,
        displacements={("z", 2): amp, ("x", 1): amp},
        velocities={("y", 2): 0.5 * amp},
        dt=1e-3, t_final=20.0, stride=5)
    proj = classical.mode_projection(traj, basis, u)
    scale = np.max(np.abs(traj.total_energy))
    mismatch = np.max(np.abs(proj.total - traj.total_energy)) / scale
    assert mismatch < 1e-6


def test_pure_stretch_motion_stays_pure(two_ion_setup):
    u, basis = two_ion_setup
    traj = classical.integrate(u, basis, displacements={("z", 2): 1e-3},
                               dt=1e-3, t_final=5.0, stride=10)
    proj = classical.mode_projection(traj, basis, u)
    # the transverse planes never move, and mirror symmetry keeps the
    # centre-of-mass coordinate at the level of one eigenvector ulp
    assert np.max(np.abs(proj.energies["x"])) == 0.0
    assert np.max(np.abs(proj.energies["y"])) == 0.0
    assert np.max(np.abs(proj.energies["z"][:, 0])) < 1e-30
    assert np.min(proj.energies["z"][:, 1]) > 0.0


def test_three_ion_mode_frequencies(chains):
    # one run, two mode frequencies: the axial stretch at sqrt(3) and the
    # third transverse mode at sqrt(gamma_3)
    u = chains[3]
    basis = modes.mode_basis(u, 0.1)
    traj = classical.integrate(
        u, basis,
        displacements={("z", 2): 1e-3, ("x", 3): 1e-3},
        dt=2e-3, t_final=160.0, stride=5)
    assert traj.energy_drift() < 1e-6
    proj = classical.mode_projection(traj, basis, u)
    dt_s = traj.times[1] - traj.times[0]
    stretch = classical.spectrum(proj.coordinates["z"][:, 1], dt_s)[0]
    assert abs(stretch - np.sqrt(3.0)) / np.sqrt(3.0) < 1e-3
    transverse = classical.spectrum(proj.coordinates["x"][:, 2], dt_s)[0]
    expected = np.sqrt(basis.gamma[2])
    assert abs(transverse - expected) / expected < 1e-3


def test_mode_projection_size_validation(two_ion_setup, chains):
    u, basis = two_ion_setup
    traj = classical.integrate(u, basis, displacements={("z", 2): 1e-3},
                               dt=1e-3, t_final=1.0, stride=10)
    with pytest.raises(ValueError, match="sizes disagree"):
        classical.mode_projection(traj, basis, chains[3])
    with pytest.raises(ValueError, match="sizes disagree"):
        classical.mode_projection(traj, modes.mode_basis(chains[3], 0.1), u)


# --- spectral estimation ------------------------------------------------

def test_spectrum_recovers_a_pure_tone():
    dt = 0.02
    t = np.arange(16384) * dt
    omega = 2.37
    peaks = classical.spectrum(np.cos(omega * t + 0.4), dt)
    assert abs(peaks[0] - omega) / omega < 2e-4


def test_spectrum_orders_peaks_by_strength():
    dt = 0.02
    t = np.arange(4096) * dt
    y = 1.0 * np.cos(1.9 * t) + 0.4 * np.cos(3.1 * t)
    peaks = classical.spectrum(y, dt, n_peaks=2)
    assert abs(peaks[0] - 1.9) < 5e-3
    assert abs(peaks[1] - 3.1) < 5e-3


def test_spectrum_validation():
    with pytest.raises(ValueError, match="one-dimensional"):
        classical.spectrum(np.zeros((4, 4)), 0.1)
    with pytest.raises(ValueError, match="too short"):
        classical.spectrum(np.zeros(8), 0.1)
    for dt in (0.0, float("nan")):
        with pytest.raises(ValueError, match="^dt must be positive$"):
            classical.spectrum(np.ones(32), dt)
    with pytest.raises(ValueError, match="n_peaks"):
        classical.spectrum(np.ones(32), 0.1, n_peaks=0)
    with pytest.raises(ValueError, match="no spectral peak"):
        classical.spectrum(np.ones(32), 0.1)

"""Classical point-charge dynamics for the trapped chain.

Everything here is dimensionless: time in units of 1/omega3, length in
units of the chain length scale, energy in units of M * omega3^2 * ell^2.
The equations of motion contain alpha as the only parameter, so one
trajectory serves every ion species and drive frequency at once.

The integrator is plain velocity Verlet with a fixed step.  Symplecticity
keeps the sampled energy bounded instead of drifting, which is what the
mode-energy bookkeeping below relies on.  One loop (`_sample_blocks`)
integrates a batch of trajectories that differ only in alpha (a
per-member stiffness), so a resonant run and its detuned comparisons
advance together, and hands the samples out in blocks, which
`integrate_batch` stores and `_reduce_blocks` reduces as they arrive
(for the `classical` command); a single trajectory is a batch of one.

Every pair difference is one matmul with the difference matrix of
`_pairs`: in the force, the energies and the coincidence check.  The
loop holds the state ion-major, positions and velocities of shape
(n, B, 3), so the pair differences of the whole batch are one matmul on
an (n, 3B) view.  One force kernel (`_force_kernel`) serves the loop and
`accelerations`, which moves the ion axis of its input first.  The
kernel and the loop allocate every work array once per call and then
write through `out`, so a step allocates nothing; each step takes one
force evaluation and one product 0.5 * dt * acc, shared by both
half-kicks.  At a few ions a step is a dozen NumPy calls on arrays of
tens of elements, so its cost is what each call costs to dispatch, and
the loop calls the C functions with as little around them as it can:
every ufunc gets its `out` positionally, r^2 calls the C einsum that
`np.einsum` itself returns through (skipping its Python layer, not its
arithmetic), and dt and 0.5 * dt are arrays of the state's shape, which
pass faster than Python floats and round each product the same.  Every
member stays bit for bit the run of its own, and the kernel keeps the
operations that rounding depends on:

- r^2 stays an `einsum`.  On a contiguous last axis it sums the three
  squares in a pairing that follows the SIMD width of the build, and a
  hand-written sum (or `vecdot`, or a matmul) rounds differently.
- r^-3 is one `power` over the contiguous (pairs, B) array, not over a
  broadcast view, which can take another pow loop; its -1.5 stays a
  scalar for the same reason.
- The scatter of pair forces back onto the ions runs member by member
  (see `_force_kernel`), since BLAS orders that sum by the product shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy._core.multiarray import c_einsum as _c_einsum

from .errors import UnstableTrajectoryError
from .modes import ModeBasis

__all__ = [
    "Trajectory",
    "accelerations",
    "integrate",
    "ModeProjection",
    "mode_projection",
    "spectrum",
]

# Any coordinate beyond this is a runaway ion, not a chain oscillation.
POSITION_BOUND = 1.0e3

# Fraction of samples averaged at each end for the energy-drift estimate.
# Instantaneous Verlet energy wobbles at O((w*dt)^2); windowed means cancel
# the wobble and expose genuine secular drift.
DRIFT_WINDOW = 0.1

# Fewest samples `spectrum` takes a peak from.
_MIN_SPECTRUM_SAMPLES = 16

# Samples per block of the total-energy pass of `integrate_batch`: the pair
# temporaries of `_potential_offset` then span one block, not the run.
_ENERGY_BLOCK = 512

# Samples per block that `_sample_blocks` yields.
_SAMPLE_BLOCK = 64


@dataclass(frozen=True)
class Trajectory:
    """Sampled phase-space history of one integration run.

    positions carry the equilibrium offsets; total_energy is measured
    relative to the static chain so a quiet run sits near zero.
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    total_energy: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        pos = np.asarray(self.positions, dtype=float)
        vel = np.asarray(self.velocities, dtype=float)
        en = np.asarray(self.total_energy, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("trajectory needs at least two samples")
        if pos.shape != (t.size,) + pos.shape[1:] or pos.ndim != 3 or pos.shape[2] != 3:
            raise ValueError("positions must have shape (samples, ions, 3)")
        if vel.shape != pos.shape:
            raise ValueError("velocities must match positions in shape")
        if en.shape != t.shape:
            raise ValueError("total_energy must have one value per sample")
        for name, arr in (("times", t), ("positions", pos),
                          ("velocities", vel), ("total_energy", en)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def n_ions(self) -> int:
        return self.positions.shape[1]

    def energy_drift(self) -> float:
        """Relative secular energy change between the first and last windows."""
        return _windowed_drift(self.total_energy)


def _windowed_drift(energy: np.ndarray) -> float:
    """`Trajectory.energy_drift` of an energy series."""
    k = max(2, int(energy.size * DRIFT_WINDOW))
    head, tail = float(np.mean(energy[:k])), float(np.mean(energy[-k:]))
    return abs(tail - head) / max(abs(head), abs(tail), 1e-300)


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, pairs) scatter matrix of the pairs i < j and its transpose.

    The scatter matrix adds each pair term to ion i (+1) and subtracts it
    from ion j (-1); its transpose, stored contiguous, takes the pair
    differences r_i - r_j in one matmul.  Every product is +-1 or 0 times
    a coordinate, so for finite positions each difference is exactly the
    one a direct subtraction gives, in any summation order or layout.
    """
    iu, ju = np.triu_indices(n, k=1)
    cols = np.arange(iu.size)
    scatter = np.zeros((n, iu.size))
    scatter[iu, cols] = 1.0
    scatter[ju, cols] = -1.0
    return scatter, np.ascontiguousarray(scatter.T)


def _stiffness(alpha: float) -> np.ndarray:
    return np.array([1.0 / alpha, 1.0 / alpha, 1.0])


def _force_kernel(pos: np.ndarray, out: np.ndarray, stiff: np.ndarray):
    """The Coulomb plus trap force per unit mass, bound to two arrays.

    pos and out are contiguous ion-major arrays of shape (n, *lead, 3);
    stiff broadcasts against (*lead, 3).  Each call of the returned
    function reads pos as it stands and writes the accelerations into
    out, through work arrays allocated here once.

    The pair differences are one 2-D matmul over an (n, 3 * prod(lead))
    view of pos.  The scatter back onto the ions sums n - 1 nonzero
    terms in an order BLAS picks by the product's shape (a (pairs, 3B)
    right-hand side rounds differently from B (pairs, 3) ones), so it is
    one stacked matmul over strided per-member views, each shaped as a
    single trajectory's product.
    Coincident ions give NaN rather than an error; callers either check
    first or catch the NaN downstream.
    """
    n, lead = pos.shape[0], pos.shape[1:-1]
    scatter, diff = _pairs(n)
    n_pairs = diff.shape[0]
    pos_2d = pos.reshape(n, pos.size // n)
    d = np.empty((n_pairs, pos_2d.shape[1]))
    d3 = d.reshape((n_pairs,) + lead + (3,))
    r2 = np.empty((n_pairs,) + lead)
    r2_col = r2[..., None]
    f3 = np.empty_like(d3)
    # (*lead, pairs, 3) and (*lead, n, 3) views for the scatter
    f_members = np.moveaxis(f3, 0, -2)
    out_members = np.moveaxis(out, 0, -2)
    # spread over every ion, so the trap product needs no broadcasting
    stiff = np.broadcast_to(stiff, pos.shape).copy()
    trap = np.empty_like(stiff)
    matmul, power, multiply, subtract = (
        np.matmul, np.power, np.multiply, np.subtract)

    def force() -> None:
        matmul(diff, pos_2d, d)
        _c_einsum("...k,...k->...", d3, d3, out=r2)
        # on the contiguous (pairs, *lead) array: a broadcast operand
        # can take another pow loop, with other last bits
        power(r2, -1.5, r2)
        multiply(d3, r2_col, f3)
        matmul(scatter, f_members, out_members)
        multiply(pos, stiff, trap)
        subtract(out, trap, out)

    return force


def accelerations(positions: np.ndarray, alpha: float) -> np.ndarray:
    """Dimensionless force per unit mass on each ion.

    positions has shape (..., n, 3) with axes (x, y, z); the trap pulls
    with stiffness 1/alpha transversely and 1 axially, and every pair
    repels with the inverse-square Coulomb term.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim < 2 or pos.shape[-1] != 3:
        raise ValueError("positions must have shape (..., n, 3)")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    d = _pairs(pos.shape[-2])[1] @ pos
    if np.any(np.einsum("...pk,...pk->...p", d, d) == 0.0):
        raise ValueError("coincident ion positions")
    # the kernel works ion-major: ions first, then the leading axes
    ion_major = np.ascontiguousarray(np.moveaxis(pos, -2, 0))
    acc = np.empty_like(ion_major)
    _force_kernel(ion_major, acc, _stiffness(alpha))()
    return np.moveaxis(acc, 0, -2)


def _reference_pairs(u: np.ndarray) -> tuple:
    """The chain at rest on the equilibrium u, as `_potential_offset`
    reads it: its positions (n, 3), the pair-difference matrix and its
    pair separations."""
    ref = np.zeros((u.size, 3))
    ref[:, 2] = u
    diff = _pairs(u.size)[1]
    d0 = diff @ ref
    r02 = np.einsum("...pk,...pk->...p", d0, d0)
    return ref, diff, d0, r02, np.sqrt(r02)


def _potential_offset(pos: np.ndarray, reference: tuple,
                      alpha: float) -> np.ndarray:
    """V(pos) - V(ref) evaluated without subtracting two large potentials.

    pos has shape (..., n, 3), reference is `_reference_pairs(u)` and
    the result has shape (...,).  A naive difference loses every digit
    below V(ref) * eps, which swamps the tiny energies of small-amplitude
    runs.  Difference-of-squares forms keep the roundoff scaled to the
    offset itself.
    """
    ref, diff, d0, r02, r0 = reference
    dp = pos - ref
    trap = 0.5 * np.sum(dp * (pos + ref) * _stiffness(alpha), axis=(-2, -1))
    # pair separations built from per-ion displacements, so the change in
    # r^2 never touches the O(1) separation roundoff
    dz = diff @ dp
    # r^2 - r0^2 = 2 d0.dz + |dz|^2
    cross = (2.0 * np.einsum("pk,...pk->...p", d0, dz)
             + np.einsum("...pk,...pk->...p", dz, dz))
    r = np.sqrt(r02 + cross)
    # 1/r - 1/r0 = (r0^2 - r^2) / (r * r0 * (r + r0)), summed over the
    # pairs as a left fold, the order the printed energies' last digits
    # follow; `sum` would sum each sample's contiguous row pairwise
    terms = -cross / (r * r0 * (r + r0))
    if not terms.shape[-1]:
        return trap + 0.0
    return trap + np.add.accumulate(terms, axis=-1)[..., -1]


def _energy(pos, vel, reference: tuple, alpha: float) -> np.ndarray:
    """Total energy of samples (..., n, 3): kinetic plus potential offset."""
    return (0.5 * np.sum(vel * vel, axis=(-2, -1))
            + _potential_offset(pos, reference, alpha))


def _assemble_initial(u: np.ndarray, basis: ModeBasis,
                      displacements: dict[tuple[str, int], float] | None,
                      velocities: dict[tuple[str, int], float] | None,
                      ) -> tuple[np.ndarray, np.ndarray]:
    n = u.size
    pos = np.zeros((n, 3))
    pos[:, 2] = u
    vel = np.zeros((n, 3))
    axis_of = {"x": 0, "y": 1, "z": 2}
    for target, spec in ((pos, displacements), (vel, velocities)):
        for (direction, p), amp in (spec or {}).items():
            if direction not in axis_of:
                raise ValueError(f"unknown direction {direction!r}")
            if not 1 <= p <= n:
                raise ValueError(f"mode index {p} out of range for {n} ions")
            target[:, axis_of[direction]] += amp * basis.vectors[:, p - 1]
    return pos, vel


def _time_grid(dt: float, t_final: float, stride: int) -> tuple[int, int]:
    """Verlet steps to t_final, and samples kept: step 0, then every stride.

    Raises ValueError when t_final / dt is not a finite number of steps.
    """
    with np.errstate(over="ignore"):
        ratio = float(t_final / dt)
    if not math.isfinite(ratio):
        raise ValueError(
            f"t_final = {t_final:g} and dt = {dt:g} give no finite number "
            "of steps")
    n_steps = int(round(ratio))
    return n_steps, n_steps // stride + 1


def integrate(u: np.ndarray, basis: ModeBasis,
              displacements: dict[tuple[str, int], float] | None = None,
              velocities: dict[tuple[str, int], float] | None = None,
              dt: float = 1.0e-3, t_final: float = 100.0,
              stride: int = 1) -> Trajectory:
    """Integrate the chain from mode-coordinate initial conditions.

    displacements and velocities map ("x"|"y"|"z", mode index 1..n) to
    dimensionless amplitudes; omitted modes start at rest on the axis.
    Samples are kept every `stride` steps, including step zero.
    """
    return integrate_batch(u, [basis], displacements, velocities,
                           dt, t_final, stride)[0]


def integrate_batch(u: np.ndarray, bases: list[ModeBasis],
                    displacements: dict[tuple[str, int], float] | None = None,
                    velocities: dict[tuple[str, int], float] | None = None,
                    dt: float = 1.0e-3, t_final: float = 100.0,
                    stride: int = 1) -> list[Trajectory]:
    """Integrate one trajectory per mode basis, all in one Verlet loop.

    The members share the equilibrium u and the mode-coordinate initial
    conditions (see `integrate`) and differ only in their basis: its
    alpha sets the transverse stiffness and its vectors turn the initial
    conditions into positions.  Each member comes out exactly as a run
    of its own would, and a member that runs away stops the whole batch
    with an error naming its alpha.  The members keep separate arrays,
    so a caller who keeps one does not keep the others alive.  Energies
    are computed per sample, over blocks of `_ENERGY_BLOCK`.
    """
    u = np.asarray(u, dtype=float)
    times, blocks = _sample_blocks(u, bases, displacements, velocities,
                                   dt, t_final, stride)
    samples = times.size
    traj_pos = [np.empty((samples, u.size, 3)) for _ in bases]
    traj_vel = [np.empty((samples, u.size, 3)) for _ in bases]
    for start, pos, vel in blocks:
        rows = slice(start, start + len(pos))
        for b in range(len(bases)):
            traj_pos[b][rows], traj_vel[b][rows] = pos[:, :, b], vel[:, :, b]
    # the chain at rest, which the energies are measured from
    reference = _reference_pairs(u)
    out = []
    for basis, member_pos, member_vel in zip(bases, traj_pos, traj_vel):
        energy = np.empty(samples)
        for start in range(0, samples, _ENERGY_BLOCK):
            block = slice(start, start + _ENERGY_BLOCK)
            energy[block] = _energy(member_pos[block], member_vel[block],
                                    reference, basis.alpha)
        out.append(Trajectory(times=times, positions=member_pos,
                              velocities=member_vel, total_energy=energy))
    return out


def _reduce_blocks(u, bases, pair, *run) -> tuple:
    """Integrate a batch (`_sample_blocks`), reducing each block as it
    arrives to the first member's mode coordinates (z, x, y; samples, n)
    and energy table (t, z, x and y mode energies, total, drift) and to
    each member's pair gain, the largest rise of the transverse pair's
    mode energy.  Blocks are projected from contiguous per-member copies,
    as stored runs are, in the row blocks `mode_projection` uses, so the
    values are those of `mode_projection` over `integrate_batch`, bit for
    bit.  The `classical` command tabulates these."""
    times, blocks = _sample_blocks(u, bases, *run)
    samples, n = times.size, u.size
    coords = np.empty((3, samples, n))   # z, x, y
    table = np.empty((samples, 3 * n + 3))
    table[:, 0] = times
    series = [np.empty(samples) for _ in bases]
    reference = _reference_pairs(u)
    for start, pos, vel in blocks:
        rows = slice(start, start + len(pos))
        for b, basis in enumerate(bases):
            member = pos[:, :, b].copy(), vel[:, :, b].copy()
            proj = _project(*member, basis, u)
            series[b][rows] = sum(proj.energies[d][:, p - 1]
                                  for d in ("x", "y") for p in pair)
            if not b:
                coords[:, rows] = [proj.coordinates[d] for d in "zxy"]
                table[rows, 1:-2] = np.hstack(
                    [proj.energies[d] for d in "zxy"])
                table[rows, -2] = _energy(*member, reference, basis.alpha)
    energy = table[:, -2]
    table[:, -1] = (energy - energy[0]) / max(abs(energy[0]), 1e-300)
    return coords, table, [float(np.max(s - s[0])) for s in series]


def _sample_blocks(u: np.ndarray, bases: list[ModeBasis], displacements,
                   velocities, dt: float, t_final: float, stride: int):
    """Check a batch run (see `integrate_batch`); return its sample times
    and a generator that integrates it, `stride` steps per sample and
    none after the last, checks each sample against `POSITION_BOUND` (a
    NaN fails too) and yields (start, positions, velocities) blocks of
    up to `_SAMPLE_BLOCK` samples, shaped (samples, n, B, 3): views of
    one buffer, which the next block overwrites."""
    if not bases:
        raise ValueError("bases must hold at least one mode basis")
    if any(u.size != basis.mu.size for basis in bases):
        raise ValueError("equilibrium and mode basis sizes disagree")
    if not (dt > 0.0 and t_final > 0.0):
        raise ValueError("dt and t_final must be positive")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    initial = [_assemble_initial(u, basis, displacements, velocities)
               for basis in bases]
    n_steps, samples = _time_grid(dt, t_final, stride)
    if n_steps < 1:
        raise ValueError("t_final shorter than one step")
    # ion-major state (n, B, 3), the layout of the force kernel
    pos = np.stack([p for p, _ in initial], axis=1)
    vel = np.stack([v for _, v in initial], axis=1)

    # the loop skips the checks of accelerations(); the sampling check
    # below catches blowups (including the NaNs a collision would
    # produce) before anything is buffered
    stiff = np.stack([_stiffness(basis.alpha) for basis in bases])
    kick = np.empty_like(pos)
    force = _force_kernel(pos, kick, stiff)
    buffered = min(_SAMPLE_BLOCK, samples)
    buf_pos = np.empty((buffered,) + pos.shape)
    buf_vel = np.empty_like(buf_pos)

    # the kernel writes each acceleration into kick, which is then scaled
    # in place to 0.5 * dt * acc, rounded as that expression rounds it;
    # the one product serves both half-kicks around a force evaluation
    step_dt = np.full_like(pos, dt)
    half = np.full_like(pos, 0.5 * dt)
    dx = np.empty_like(pos)

    def blocks():
        force()
        np.multiply(kick, half, kick)
        add, multiply, steps = np.add, np.multiply, range(stride)
        largest, smallest = np.maximum.reduce, np.minimum.reduce  # no wrappers
        for i in range(samples):
            # sample 0 is the initial state
            if i:
                for _ in steps:
                    add(vel, kick, vel)
                    multiply(vel, step_dt, dx)
                    add(pos, dx, pos)
                    force()
                    multiply(kick, half, kick)
                    add(vel, kick, vel)
            # written so that NaN fails the test as well
            if not (largest(pos, None) <= POSITION_BOUND
                    and -smallest(pos, None) <= POSITION_BOUND):
                bad = ~(np.max(np.abs(pos), axis=(0, 2)) <= POSITION_BOUND)
                alphas = ", ".join(f"{bases[b].alpha:g}"
                                   for b in np.flatnonzero(bad))
                raise UnstableTrajectoryError(
                    f"ion coordinate exceeded {POSITION_BOUND:g} at "
                    f"t = {i * stride * dt:g} (alpha = {alphas})")
            k = i % buffered
            buf_pos[k] = pos
            buf_vel[k] = vel
            if k == buffered - 1 or i == samples - 1:
                yield i - k, buf_pos[:k + 1], buf_vel[:k + 1]

    return np.arange(0, n_steps + 1, stride) * dt, blocks()


@dataclass(frozen=True)
class ModeProjection:
    """Normal-mode coordinates and quadratic energies along a trajectory.

    coordinates and energies are keyed by direction ("x", "y", "z") with
    arrays of shape (samples, modes); total sums every mode and direction.
    """

    coordinates: dict[str, np.ndarray]
    energies: dict[str, np.ndarray]
    total: np.ndarray


def mode_projection(trajectory: Trajectory, basis: ModeBasis,
                    u: np.ndarray) -> ModeProjection:
    """Project a trajectory onto the linear normal modes.

    Axial mode energies use the axial eigenvalues, transverse ones use the
    transverse eigenvalues; in the linear regime the grand total matches
    the trajectory energy.  A sample projects to the same bits in a run
    of any length, and as the `classical` command streams it.
    """
    u = np.asarray(u, dtype=float)
    if trajectory.n_ions != u.size or u.size != basis.mu.size:
        raise ValueError("trajectory, equilibrium and basis sizes disagree")
    return _project(trajectory.positions, trajectory.velocities, basis, u)


def _rows_times(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v in the row blocks `_sample_blocks` yields, as BLAS sums a
    longer product in another order; a lone row as a pair, as numpy sends
    a one-row matmul to gemv, which sums in another order than gemm."""
    out = np.empty((len(a), v.shape[1]))
    for k in range(0, len(a), _SAMPLE_BLOCK):
        m = min(_SAMPLE_BLOCK, len(a) - k)
        if m > 1:
            np.matmul(a[k:k + m], v, out[k:k + m])
        else:
            out[k] = (a[[k, k]] @ v)[0]
    return out


def _project(positions, velocities, basis: ModeBasis, u) -> ModeProjection:
    """`mode_projection` of samples (samples, n, 3), unchecked."""
    v = basis.vectors
    coords: dict[str, np.ndarray] = {}
    energies: dict[str, np.ndarray] = {}
    for direction, axis, eig in (("x", 0, basis.gamma),
                                 ("y", 1, basis.gamma),
                                 ("z", 2, basis.mu)):
        disp = positions[:, :, axis]
        if direction == "z":
            disp = disp - u
        q = _rows_times(disp, v)
        qdot = _rows_times(velocities[:, :, axis], v)
        coords[direction] = q
        energies[direction] = 0.5 * (qdot * qdot + eig * q * q)
    total = sum(e.sum(axis=1) for e in energies.values())
    return ModeProjection(coordinates=coords, energies=energies, total=total)


def spectrum(series: np.ndarray, dt: float, n_peaks: int = 1) -> np.ndarray:
    """Dominant angular frequencies of a real sampled series.

    Hann-windowed DFT with parabolic interpolation of the log magnitude
    around each local maximum; peaks come back strongest first.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if y.size < _MIN_SPECTRUM_SAMPLES:
        raise ValueError(f"series too short for a spectrum "
                         f"(need >= {_MIN_SPECTRUM_SAMPLES} samples)")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if n_peaks < 1:
        raise ValueError("n_peaks must be at least 1")
    window = np.hanning(y.size)
    mag = np.abs(np.fft.rfft((y - y.mean()) * window))
    # interior local maxima only; the DC bin is removed by the mean shift
    interior = mag[1:-1]
    is_peak = (interior > mag[:-2]) & (interior >= mag[2:])
    peak_bins = np.nonzero(is_peak)[0] + 1
    if peak_bins.size == 0:
        raise ValueError("no spectral peak found")
    order = np.argsort(mag[peak_bins])[::-1][:n_peaks]
    freqs = []
    for bin_idx in peak_bins[order]:
        left, center, right = mag[bin_idx - 1:bin_idx + 2]
        floor = 1e-300
        la, ca, ra = (np.log(max(x, floor)) for x in (left, center, right))
        denom = la - 2.0 * ca + ra
        shift = 0.0 if denom == 0.0 else 0.5 * (la - ra) / denom
        freqs.append(2.0 * np.pi * (bin_idx + shift) / (y.size * dt))
    return np.array(freqs)

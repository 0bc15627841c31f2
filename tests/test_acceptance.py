"""End-to-end acceptance checks against the published reference values.

Every test in this module records one line through `record_criterion`;
the summary block printed after the run is the scorecard. Tolerances and
runtime budgets are pinned here on purpose: loosen nothing silently.
"""

import time

import numpy as np

from ionchain import classical, coupling, equilibrium, modes, quantum, resonances

import golden

GAMMA_HALF_PERIOD = np.pi / (2.0 * np.sqrt(2.0))


def _second_kind_key(n_ions, m, n, p):
    return n_ions, tuple(sorted((m, n))), p


def test_closed_form_coefficients(record_criterion):
    t0 = time.perf_counter()
    u2 = equilibrium.solve_equilibrium(2)
    d2 = coupling.coupling_tensors(u2, modes.mode_basis(u2, 0.5)).mode
    u3 = equilibrium.solve_equilibrium(3)
    d3 = coupling.coupling_tensors(u3, modes.mode_basis(u3, 0.2)).mode
    devs = {
        "D_222(2)": abs(d2[1, 1, 1] + 2.0 ** (1.0 / 6.0)),
        "D_222(3)": abs(d3[1, 1, 1] + (4.0 / 5.0) ** (1.0 / 3.0) / np.sqrt(2.0)),
        "D_233(3)": abs(d3[1, 2, 2] + 3.0 * (4.0 / 5.0) ** (4.0 / 3.0) / np.sqrt(2.0)),
    }
    elapsed = time.perf_counter() - t0
    worst = max(devs.values())
    ok = worst < 1e-9 and elapsed < 1.0
    record_criterion(1, "closed-form cubic coefficients (N=2, 3)", ok,
                     f"worst dev {worst:.1e}, {elapsed:.2f} s")
    assert ok, devs


def test_down_conversion_catalog(record_criterion):
    t0 = time.perf_counter()
    published = {_second_kind_key(*row[:4]): row[4:]
                 for row in golden.SECOND_KIND_ROWS}
    computed = {}
    for n_ions in range(2, 11):
        for e in resonances.build_catalog(n_ions):
            if e.kind == resonances.SECOND_KIND:
                computed[_second_kind_key(n_ions, e.m, e.n, e.p)] = (
                    e.coupling, e.alpha_res)
    elapsed = time.perf_counter() - t0

    missing = sorted(set(published) - set(computed))
    extras = sorted(set(computed) - set(published))
    worst_alpha = worst_rel = 0.0
    for key, (coup_pub, alpha_pub) in published.items():
        if key in missing:
            continue
        coup, alpha = computed[key]
        worst_alpha = max(worst_alpha, abs(alpha - alpha_pub))
        worst_rel = max(worst_rel, abs(coup - coup_pub) / abs(coup_pub))

    # report, never absorb: the published table prints one row twice and
    # omits one entry the scan finds
    notes = [f"published duplicate row: {row}"
             for row in golden.DUPLICATED_SECOND_KIND]
    notes += [f"computed entry absent from the published table: "
              f"N={k[0]} pair {k[1]} pump {k[2]} "
              f"(D={computed[k][0]:.4f}, alpha={computed[k][1]:.6f})"
              for k in extras]
    ok = (not missing and worst_alpha < 5e-4 and worst_rel < 5e-3
          and elapsed < 30.0)
    record_criterion(
        2, "down-conversion catalog vs published table", ok,
        f"{len(published) - len(missing)}/{len(published)} rows, "
        f"worst |d_alpha| {worst_alpha:.1e}, worst |dD|/|D| {worst_rel:.1e}, "
        f"{elapsed:.1f} s; " + "; ".join(notes))
    assert ok, (missing, worst_alpha, worst_rel)


def test_first_kind_catalog(record_criterion, catalogs):
    published = {tuple(row[:4]): row[4:] for row in golden.FIRST_KIND_ROWS}
    computed = {}
    for n_ions in range(2, 11):
        for e in catalogs[n_ions]:
            if e.kind == resonances.FIRST_KIND:
                computed[(n_ions, e.m, e.n, e.p)] = (e.coupling, e.alpha_res)
    missing = sorted(set(published) - set(computed))
    extras = sorted(set(computed) - set(published))
    worst_alpha = worst_coup = 0.0
    coup_ok = True
    for key, (coup_pub, alpha_pub) in published.items():
        if key in missing:
            continue
        coup, alpha = computed[key]
        worst_alpha = max(worst_alpha, abs(alpha - alpha_pub))
        dev = abs(coup - coup_pub)
        worst_coup = max(worst_coup, dev)
        # tiny coefficients: relative 5e-3 or absolute 1e-7, whichever looser
        coup_ok = coup_ok and dev < max(5e-3 * abs(coup_pub), 1e-7)
    ok = not missing and not extras and worst_alpha < 5e-4 and coup_ok
    record_criterion(
        3, "first-kind catalog vs published table", ok,
        f"{len(published) - len(missing)}/{len(published)} rows, "
        f"worst |d_alpha| {worst_alpha:.1e}, worst |dD| {worst_coup:.1e}"
        + (f"; extras {extras}" if extras else ""))
    assert ok, (missing, extras, worst_alpha, worst_coup)


def test_nonlinearity_scale_table(record_criterion):
    worst = 0.0
    for name, freq_hz, eps_pub in golden.EPSILON_ROWS:
        eps = quantum.nonlinearity_epsilon(
            equilibrium.species(name), 2.0 * np.pi * freq_hz)
        worst = max(worst, abs(eps - eps_pub) / eps_pub)
    ok = worst < 1e-2
    record_criterion(4, "nonlinearity scale for the four operating points",
                     ok, f"worst rel dev {worst:.1e}")
    assert ok, worst


def test_six_ion_worked_example(record_criterion):
    u = equilibrium.solve_equilibrium(6)
    basis = modes.mode_basis(u, 0.09151)
    d = coupling.coupling_tensors(u, basis).mode
    d655 = d[5, 4, 4]
    coef = 6.0 * d655 / (basis.mu[4] * basis.gamma[4] * basis.gamma[5]) ** 0.25
    checks = {
        "mu_5": (basis.mu[4], 13.51, 1e-2),
        "gamma_5": (basis.gamma[4], 4.6709, 1e-3),
        "gamma_6": (basis.gamma[5], 2.2949, 1e-3),
        "D_655": (d655, 4.2528, 5e-3),
        "coefficient": (coef, 7.3556, 1e-3),
    }
    bad = {k: v for k, (v, ref, tol) in checks.items() if abs(v - ref) > tol}
    ok = not bad
    record_criterion(
        5, "six-ion example at alpha = 0.09151", ok,
        ", ".join(f"{k} {v:.5f}" for k, (v, *_rest) in checks.items()))
    assert ok, bad


def test_structural_identities(record_criterion, chains, axial_eigenvalues):
    worst = worst_mirror = 0.0
    for n in range(2, 11):
        u = chains[n]
        alpha = 0.5 * modes.critical_anisotropy(axial_eigenvalues[n])
        basis = modes.mode_basis(u, alpha)
        report = coupling.check_identities(
            coupling.coupling_tensors(u, basis), basis, u)
        worst = max(worst, report.max_violation())
        worst_mirror = max(worst_mirror, report.mirror_parity)
    ok = worst < 1e-9
    record_criterion(6, "cubic-tensor identity suite, N = 2..10", ok,
                     f"worst violation {worst:.1e}, "
                     f"worst mirror parity {worst_mirror:.1e}")
    assert ok, worst


def _six_ion_quantum_setup(cutoff=2):
    entry = next(e for e in resonances.build_catalog(6)
                 if (e.m, e.n, e.p) == (6, 5, 5))
    u = equilibrium.solve_equilibrium(6)
    basis = modes.mode_basis(u, entry.alpha_res)
    tensors = coupling.coupling_tensors(u, basis)
    fock = quantum.FockBasis.uniform(quantum.resonance_mode_set(entry), cutoff)
    eps = quantum.nonlinearity_epsilon(equilibrium.species("Ca40"),
                                       2.0 * np.pi * 2.0e6)
    return entry, basis, tensors, fock, eps


def test_quantum_dynamics_vs_closed_form(record_criterion):
    t0 = time.perf_counter()
    entry, basis, tensors, fock, eps = _six_ion_quantum_setup()
    rate = abs(eps * quantum.rwa_coefficient(entry, basis.mu))
    h_rwa = quantum.build_rwa_interaction(fock, basis, tensors, eps,
                                          resonance=entry)
    occupations = quantum.down_conversion_states(fock, entry)
    psi_occ, phi_occ, chi_occ = occupations

    # one run: the 50 curve samples, then the half period
    t_gamma = np.linspace(0.0, 2.0 * np.pi, 50)
    run = quantum.propagate(h_rwa, fock.number_state(psi_occ),
                            np.append(t_gamma, GAMMA_HALF_PERIOD) / rate)
    pops = run.populations(occupations)[:50]
    ref = np.abs(np.array(quantum.three_state_solution(
        1.0, 0.0, 0.0, rate, t_gamma / rate))) ** 2
    pop_dev = float(np.max(np.abs(pops - ref.T)))

    # population curves behave like the published figures: the pump
    # empties completely once, and the two pair states share the yield
    shapes_ok = (np.all(pops >= -1e-12) and np.all(pops <= 1.0 + 1e-12)
                 and float(np.min(pops[:, 0])) < 1e-2
                 and float(np.max(np.abs(pops[:, 1] - pops[:, 2]))) < 1e-9)

    # maximally converted state: both pair states with equal phase
    converted = np.zeros(fock.dimension, dtype=complex)
    converted[run.states] = run.amplitudes[-1]
    target = (fock.number_state(phi_occ)
              + fock.number_state(chi_occ)) * (1j / np.sqrt(2.0))
    fidelity = float(np.abs(np.vdot(target, converted)) ** 2)
    x_pair = tuple(m for m in fock.modes if m[0] == "x")
    entropy = float(run.entropies(x_pair)[-1])
    elapsed = time.perf_counter() - t0

    ok = (pop_dev < 1e-6 and shapes_ok and fidelity > 1.0 - 1e-9
          and abs(entropy - np.log(2.0)) < 1e-6 and elapsed < 10.0)
    record_criterion(
        7, "reduced-model dynamics vs closed form", ok,
        f"pop dev {pop_dev:.1e}, fidelity 1-{1.0 - fidelity:.1e}, "
        f"entropy dev {abs(entropy - np.log(2.0)):.1e}, {elapsed:.1f} s")
    assert ok, (pop_dev, shapes_ok, fidelity, entropy)


def test_full_hamiltonian_tracks_reduced_model(record_criterion):
    t0 = time.perf_counter()
    entry, basis, tensors, fock, eps = _six_ion_quantum_setup(cutoff=2)
    rate = abs(eps * quantum.rwa_coefficient(entry, basis.mu))
    h_rwa = quantum.build_rwa_interaction(fock, basis, tensors, eps,
                                          resonance=entry)
    h_free = quantum.build_free_hamiltonian(fock, basis)
    h_int = quantum.build_full_interaction(fock, basis, tensors, eps)
    # counter-rotating terms only average out against free evolution, so
    # the unreduced run must propagate the complete generator
    h_full = h_free + h_int
    occupations = quantum.down_conversion_states(fock, entry)
    start = fock.number_state(occupations[0])

    t_gamma = np.linspace(0.0, 2.0 * np.pi, 101)
    d_tau = (t_gamma[1] - t_gamma[0]) / rate
    # every sample of each run in one call
    pops = {label: quantum.propagate(h, start, np.arange(101) * d_tau)
            .populations(occupations)
            for label, h in (("rwa", h_rwa), ("full", h_full))}
    dev = float(np.max(np.abs(pops["full"] - pops["rwa"])))
    elapsed = time.perf_counter() - t0
    bound = 10.0 * eps
    ok = dev < bound and elapsed < 120.0
    record_criterion(
        8, "full Hamiltonian tracks the reduced model", ok,
        f"max pop dev {dev:.1e} < 10*eps = {bound:.1e}, "
        f"dim {fock.dimension}, {elapsed:.1f} s")
    assert ok, (dev, bound)


def test_classical_oracle(record_criterion):
    t0 = time.perf_counter()
    # small-amplitude frequencies across every direction and mode
    worst_freq = 0.0
    for n in range(1, 7):
        u = equilibrium.solve_equilibrium(n)
        basis = modes.mode_basis(u, 0.08)
        seeds = {(d, p): 1e-3 for d in ("x", "y", "z")
                 for p in range(1, n + 1)}
        traj = classical.integrate(u, basis, displacements=seeds,
                                   dt=2e-3, t_final=160.0, stride=5)
        proj = classical.mode_projection(traj, basis, u)
        dt_s = float(traj.times[1] - traj.times[0])
        for direction, eig in (("z", basis.mu), ("x", basis.gamma),
                               ("y", basis.gamma)):
            for p in range(n):
                peak = classical.spectrum(proj.coordinates[direction][:, p],
                                          dt_s)[0]
                expected = float(np.sqrt(eig[p]))
                worst_freq = max(worst_freq,
                                 abs(peak - expected) / expected)

    # resonant vs detuned down-conversion of a pumped axial mode
    entry = next(e for e in resonances.build_catalog(6)
                 if (e.m, e.n, e.p) == (6, 5, 5))
    u6 = equilibrium.solve_equilibrium(6)
    pump = {("z", entry.p): 1e-2}
    seeds6 = {(d, p): 1e-6 for d in ("x", "y") for p in (entry.m, entry.n)}

    # the resonant run and both detuned runs as one batch; each member is
    # bit for bit the run of its own
    bases = [modes.mode_basis(u6, f * entry.alpha_res)
             for f in (1.0, 0.8, 1.2)]
    trajs = classical.integrate_batch(u6, bases,
                                      displacements={**pump, **seeds6},
                                      dt=2e-3, t_final=300.0, stride=10)

    def pair_gain(basis, traj):
        proj = classical.mode_projection(traj, basis, u6)
        series = sum(proj.energies[d][:, p - 1]
                     for d in ("x", "y") for p in (entry.m, entry.n))
        return float(np.max(series - series[0]))

    resonant, low, high = (pair_gain(b, t) for b, t in zip(bases, trajs))
    ratio = min(resonant / low, resonant / high)
    elapsed = time.perf_counter() - t0

    ok = worst_freq < 1e-3 and ratio >= 10.0 and elapsed < 120.0
    record_criterion(
        9, "classical frequencies and resonant transfer", ok,
        f"worst freq dev {worst_freq:.1e}, transfer ratio {ratio:.1e}, "
        f"{elapsed:.0f} s")
    assert ok, (worst_freq, ratio)


def test_anisotropy_window(record_criterion, catalogs, axial_eigenvalues):
    inside = True
    for n in range(2, 11):
        mu = axial_eigenvalues[n]
        lo = resonances.alpha_min(mu)
        hi = modes.critical_anisotropy(mu)
        for e in catalogs[n]:
            inside = inside and lo - 1e-9 <= e.alpha_res < hi
    lo2 = resonances.alpha_min(axial_eigenvalues[2])
    lo3 = resonances.alpha_min(axial_eigenvalues[3])
    edge_ok = abs(lo2 - 4.0 / 7.0) < 1e-12 and abs(lo3 - 0.30917) < 5e-6
    ok = inside and edge_ok
    record_criterion(
        10, "catalog anisotropies inside the resonance window", ok,
        f"alpha_min(2) = {lo2:.6f}, alpha_min(3) = {lo3:.6f}")
    assert ok, (inside, lo2, lo3)

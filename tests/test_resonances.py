import numpy as np
import pytest

from ionchain import coupling as coupling_mod
from ionchain import equilibrium as equilibrium_mod
from ionchain import modes, resonances
from ionchain import modes as modes_mod
from ionchain.errors import ZigZagError
from ionchain.resonances import (COUPLING_FLOOR, FIRST_KIND, SECOND_KIND,
                                 ResonanceEntry, candidate_alpha, classify,
                                 delta)


def test_two_ion_resonance_is_four_sevenths(catalogs):
    cat = catalogs[2]
    assert len(cat) == 1
    entry = cat[0]
    assert (entry.m, entry.n, entry.p) == (2, 2, 2)
    assert entry.kind == SECOND_KIND
    assert abs(entry.alpha_res - 4.0 / 7.0) < 1e-12


def test_candidate_alpha_solves_the_matched_condition(catalogs, axial_eigenvalues):
    mu = axial_eigenvalues[6]
    for entry in catalogs[6]:
        sign = +1 if entry.kind == SECOND_KIND else -1
        residual = resonances.delta(
            mu[entry.m - 1], mu[entry.n - 1], mu[entry.p - 1],
            entry.alpha_res, sign)
        assert abs(residual) < 1e-9
        assert abs(entry.delta_residual) < 1e-9


def test_delta_rejects_unstable_alpha():
    with pytest.raises(ValueError, match="linear regime"):
        resonances.delta(3.0, 3.0, 3.0, alpha=5.0, sign=+1)
    with pytest.raises(ValueError):
        resonances.delta(3.0, 3.0, 3.0, alpha=0.4, sign=0)


def test_classify_reports_ambiguity_for_loose_tolerance():
    a = resonances.candidate_alpha(3.0, 3.0, 3.0)
    with pytest.raises(ValueError, match="ambiguous"):
        resonances.classify(3.0, 3.0, 3.0, a, tol=10.0)


def test_classify_none_off_resonance():
    # a deliberately wrong alpha satisfies neither condition
    assert resonances.classify(3.0, 3.0, 3.0, 0.25) is None


def test_alpha_min_values(axial_eigenvalues):
    assert abs(resonances.alpha_min(axial_eigenvalues[2]) - 4.0 / 7.0) < 1e-12
    assert abs(resonances.alpha_min(axial_eigenvalues[3]) - 0.309168) < 5e-7
    with pytest.raises(ValueError):
        resonances.alpha_min([1.0])


@pytest.mark.parametrize("n", range(2, 11))
def test_catalog_respects_the_stability_window(n, catalogs, axial_eigenvalues):
    mu = axial_eigenvalues[n]
    lo = resonances.alpha_min(mu)
    hi = modes.critical_anisotropy(mu)
    cat = catalogs[n]
    assert cat, "every chain length has at least one resonance"
    alphas = [e.alpha_res for e in cat]
    assert min(alphas) >= lo - 1e-9
    assert max(alphas) < hi
    # the window edge is attained by the softest entry
    assert abs(min(alphas) - lo) < 1e-9


@pytest.mark.parametrize("n", range(2, 11))
def test_catalog_keys_are_unique_and_sorted(n, catalogs):
    cat = catalogs[n]
    keys = [(e.p, e.m, e.n) for e in cat]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    for e in cat:
        if e.kind == SECOND_KIND:
            assert e.m >= e.n
        else:
            assert e.m != e.n


def test_first_kind_absent_in_short_chains(catalogs):
    for n in range(2, 6):
        assert all(e.kind == SECOND_KIND for e in catalogs[n])
    assert any(e.kind == FIRST_KIND for e in catalogs[6])


def test_first_kind_counts_grow(catalogs):
    counts = {n: sum(e.kind == FIRST_KIND for e in catalogs[n])
              for n in range(6, 11)}
    assert counts == {6: 1, 7: 1, 8: 3, 9: 4, 10: 7}


def test_entry_validation():
    with pytest.raises(ValueError, match="mode 1 never couples"):
        resonances.ResonanceEntry(
            n_ions=4, m=1, n=2, p=2, kind=SECOND_KIND,
            alpha_res=0.3, coupling=1.0, delta_residual=0.0)
    with pytest.raises(ValueError, match="distinct"):
        resonances.ResonanceEntry(
            n_ions=4, m=3, n=3, p=2, kind=FIRST_KIND,
            alpha_res=0.3, coupling=1.0, delta_residual=0.0)
    with pytest.raises(ValueError, match="zero coupling"):
        resonances.ResonanceEntry(
            n_ions=4, m=3, n=2, p=2, kind=SECOND_KIND,
            alpha_res=0.3, coupling=0.0, delta_residual=0.0)
    with pytest.raises(ValueError, match="unknown resonance kind"):
        resonances.ResonanceEntry(
            n_ions=4, m=3, n=2, p=2, kind="third",
            alpha_res=0.3, coupling=1.0, delta_residual=0.0)


def test_build_catalog_range_guard():
    with pytest.raises(ValueError):
        resonances.build_catalog(1)
    with pytest.raises(ValueError):
        resonances.build_catalog(11)
    # the cap is advisory and can be raised
    cat11 = resonances.build_catalog(11, n_cap=11)
    assert all(e.n_ions == 11 for e in cat11)


def test_catalog_sizes(catalogs):
    sizes = [len(catalogs[n]) for n in range(2, 11)]
    assert sizes == [1, 2, 5, 8, 14, 17, 26, 35, 50]


def _reference_catalog(n_ions, n_cap=10):
    """The scalar triple loop the vectorised kernel replaced, verbatim."""
    if not 2 <= n_ions <= n_cap:
        raise ValueError(f"n_ions must be in 2..{n_cap}, got {n_ions}")

    u = equilibrium_mod.solve_equilibrium(n_ions)
    axial = modes_mod.axial_matrix(u)
    # Eigenvectors and mu do not depend on alpha; any stable alpha works
    # for extracting the coupling tensor, so probe near half the threshold.
    probe = modes_mod.diagonalize(
        axial,
        alpha=0.5 * modes_mod.critical_anisotropy(np.linalg.eigvalsh(axial)))
    tensors = coupling_mod.coupling_tensors(u, probe)
    mu = probe.mu
    alpha_crit = modes_mod.critical_anisotropy(mu)

    entries = []
    for p in range(2, n_ions + 1):
        for i in range(2, n_ions + 1):
            for j in range(i, n_ions + 1):
                a_cand = candidate_alpha(mu[i - 1], mu[j - 1], mu[p - 1])
                if not a_cand < alpha_crit:
                    continue
                kind = classify(mu[i - 1], mu[j - 1], mu[p - 1], a_cand)
                if kind is None:
                    continue
                if kind == SECOND_KIND:
                    m, n = j, i
                    sign = +1
                else:
                    if i == j:
                        continue
                    m, n = i, j
                    sign = -1
                coupling = tensors.mode[m - 1, n - 1, p - 1]
                if abs(coupling) <= COUPLING_FLOOR:
                    continue
                residual = delta(mu[m - 1], mu[n - 1], mu[p - 1], a_cand, sign)
                entries.append(
                    ResonanceEntry(
                        n_ions=n_ions,
                        m=m,
                        n=n,
                        p=p,
                        kind=kind,
                        alpha_res=a_cand,
                        coupling=float(coupling),
                        delta_residual=float(residual),
                    )
                )

    entries.sort(key=lambda e: (e.p, e.m, e.n))
    return entries


@pytest.mark.parametrize("n", [*range(2, 21), 24, 28, 32])
def test_vectorised_catalog_matches_the_triple_loop(n):
    cat = resonances.build_catalog(n, n_cap=max(n, 10))
    ref = _reference_catalog(n, n_cap=max(n, 10))
    assert len(cat) == len(ref)
    # two ulps of the largest term, sqrt(mu_N): every delta term is at most
    # that large, and numpy takes **0.5 of an array as sqrt, of a scalar as pow
    mu_top = resonances._solve_chain(n, n_cap=max(n, 10)).probe.mu[-1]
    residual_tol = 2.0 * np.spacing(np.sqrt(mu_top))
    for got, want in zip(cat, ref):
        # same entry, same place, every printed field bit-equal
        assert ((got.n_ions, got.m, got.n, got.p, got.kind)
                == (want.n_ions, want.m, want.n, want.p, want.kind))
        assert got.alpha_res == want.alpha_res
        assert got.coupling == want.coupling
        assert abs(got.delta_residual - want.delta_residual) <= residual_tol


def test_entry_fields_are_plain_python_numbers(catalogs):
    for n in range(2, 11):
        for entry in catalogs[n]:
            for name in ("n_ions", "m", "n", "p"):
                assert type(getattr(entry, name)) is int, name
            for name in ("alpha_res", "coupling", "delta_residual"):
                assert type(getattr(entry, name)) is float, name


def test_chain_reads_one_spectrum_from_one_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted("eigvalsh", np.linalg.eigvalsh))
    chain = resonances._memo_chain.__wrapped__(6)
    assert calls == ["eigh"]
    assert not hasattr(chain, "mu")
    assert chain.probe.alpha == 0.5 * chain.alpha_crit
    assert chain.probe.mu.tobytes() == modes_mod.mode_basis(
        chain.u, 0.01).mu.tobytes()


def test_vectorised_kernel_reports_ambiguity_for_loose_tolerance():
    chain = resonances._solve_chain(6)
    with pytest.raises(ValueError, match="ambiguous"):
        resonances._catalog(chain, tol=10.0)


def test_array_inputs_name_the_first_failing_triple():
    mu = np.array([3.0, 3.0, 3.0])
    with pytest.raises(ValueError, match="alpha=5;"):
        resonances.delta(mu, mu, mu, np.array([0.4, 5.0, 6.0]), +1)
    soft = np.array([3.0, 0.5, 0.25])
    with pytest.raises(ValueError, match=r"\(0\.5, 0\.5, 0\.5\)"):
        resonances.candidate_alpha(soft, soft, soft)
    a = resonances.candidate_alpha(mu, mu, mu)
    assert np.all(a == resonances.candidate_alpha(3.0, 3.0, 3.0))


# --- the per-process chain memo -------------------------------------------

def _chain_arrays(chain):
    return {"u": chain.u, "probe.mu": chain.probe.mu,
            "probe.gamma": chain.probe.gamma,
            "probe.vectors": chain.probe.vectors,
            "tensors.ion": chain.tensors.ion,
            "tensors.mode": chain.tensors.mode}


def test_memoised_chain_is_read_only():
    chain = resonances._solve_chain(6)
    assert resonances._solve_chain(6) is chain
    for name, arr in _chain_arrays(chain).items():
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1.0
        assert not arr.flags.writeable, name
    with pytest.raises(TypeError):
        chain.resonances[(5, 5, 6)] = None
    # the positions memo has no catalog cap and shares its arrays too
    u = resonances._positions(40)
    assert resonances._positions(40) is u and not u.flags.writeable


@pytest.mark.parametrize("n", range(2, 11))
def test_memoised_chain_equals_a_fresh_solve_bit_for_bit(n):
    warm = resonances._solve_chain(n)
    fresh = resonances._memo_chain.__wrapped__(n)
    assert fresh is not warm
    fresh_arrays = _chain_arrays(fresh)
    for name, arr in _chain_arrays(warm).items():
        assert arr.dtype == fresh_arrays[name].dtype
        assert arr.tobytes() == fresh_arrays[name].tobytes(), name
    assert warm.probe.alpha == fresh.probe.alpha
    assert warm.tensors.stretch_norm == fresh.tensors.stretch_norm
    assert list(warm.resonances.items()) == list(fresh.resonances.items())
    # the uncached chain reads the positions memo; check it against a solve
    assert warm.u.tobytes() == equilibrium_mod.solve_equilibrium(n).tobytes()


def test_chain_memo_is_bounded_and_keyed_by_length_alone():
    assert resonances._CHAIN_MEMO_SIZE == 16
    assert (resonances._memo_chain.cache_info().maxsize
            == resonances._CHAIN_MEMO_SIZE)
    assert resonances._solve_chain(12, n_cap=12) is resonances._solve_chain(
        12, n_cap=20)


@pytest.mark.parametrize("n, n_cap", [(11, 10), (1, 10), (0, 10), (21, 20)])
def test_out_of_range_chain_raises_on_every_call(n, n_cap, monkeypatch):
    if n >= 2:
        # a memoised chain of this length must not slip past a lower cap
        resonances._solve_chain(n, n_cap=n)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a chain outside the cap")

    monkeypatch.setattr(equilibrium_mod, "solve_equilibrium", no_solve)
    cached = resonances._memo_chain.cache_info().currsize
    message = f"n_ions must be in 2..{n_cap}, got {n}"
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            resonances._solve_chain(n, n_cap=n_cap)
        with pytest.raises(ValueError, match=message):
            resonances.build_catalog(n, n_cap=n_cap)
    assert resonances._memo_chain.cache_info().currsize == cached


@pytest.mark.parametrize("n_ions", [2, 6, 10])
def test_chain_basis_at_equals_mode_basis(n_ions):
    chain = resonances._solve_chain(n_ions)
    for alpha in (1e-3, 0.5 * chain.alpha_crit, 0.99 * chain.alpha_crit):
        got = chain.basis_at(alpha)
        ref = modes.mode_basis(chain.u, alpha)
        for name in ("mu", "gamma", "vectors"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
        assert got.alpha == ref.alpha
    # the probe's vectors are copied, not taken to alpha in place
    assert not chain.probe.vectors.flags.writeable
    for alpha, error in ((0.0, ValueError), (-1.0, ValueError),
                         (float("nan"), ValueError),
                         (chain.alpha_crit, ZigZagError)):
        with pytest.raises(error):
            chain.basis_at(alpha)

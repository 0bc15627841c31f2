import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionchain import coupling, equilibrium, modes, resonances
from ionchain.errors import IonChainError


def tensors_for(n, alpha=None):
    u = equilibrium.solve_equilibrium(n)
    axial = modes.axial_matrix(u)
    if alpha is None:
        alpha = 0.5 * modes.critical_anisotropy(np.linalg.eigvalsh(axial))
    basis = modes.diagonalize(axial, alpha)
    return u, basis, coupling.coupling_tensors(u, basis)


def test_two_ion_mode_tensor_closed_form():
    _, _, t = tensors_for(2)
    assert abs(t.mode[1, 1, 1] + 2.0 ** (1.0 / 6.0)) < 1e-12


def test_three_ion_mode_tensor_closed_forms():
    _, _, t = tensors_for(3)
    d222 = -(4.0 / 5.0) ** (1.0 / 3.0) / np.sqrt(2.0)
    d233 = -3.0 * (4.0 / 5.0) ** (4.0 / 3.0) / np.sqrt(2.0)
    assert abs(t.mode[1, 1, 1] - d222) < 1e-12
    assert abs(t.mode[1, 2, 2] - d233) < 1e-12
    # one stretch index anywhere picks the same entry
    assert abs(t.mode[2, 1, 2] - d233) < 1e-12


def test_ion_tensor_sparsity_pattern():
    _, _, t = tensors_for(5)
    n = 5
    for m in range(n):
        for q in range(n):
            for p in range(n):
                if m != q and q != p and m != p:
                    assert t.ion[m, q, p] == 0.0
    # diagonal entries are strictly positive for edge ions
    assert t.ion[0, 0, 0] > 0.0


def test_ion_tensor_rejects_coincident_ions():
    # two ions at one position leave no finite, symmetric tensor; the
    # check raises even under python -O, which strips asserts
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(IonChainError, match="asymmetric"):
            coupling.ion_tensor(np.array([-1.0, 0.0, 0.0, 1.0]))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=2, max_value=9))
def test_full_permutation_symmetry(n):
    _, _, t = tensors_for(n)
    for tensor in (t.ion, t.mode):
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            assert np.max(np.abs(tensor - tensor.transpose(perm))) < 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_structural_identities(n):
    u, basis, t = tensors_for(n)
    report = coupling.check_identities(t, basis, u)
    assert report.max_violation() < 1e-9
    assert report.com_decoupling < 1e-12


@pytest.mark.parametrize("n", [24, 28, 30, 32])
def test_long_chain_ion_tensor(n):
    u, basis, t = tensors_for(n)
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        assert np.array_equal(t.ion, t.ion.transpose(perm))
    assert coupling.check_identities(t, basis, u).max_violation() < 1e-9


def test_stretch_contraction_is_diagonal():
    _, basis, t = tensors_for(7)
    d_stretch = t.mode[:, :, 1]
    off = d_stretch - np.diag(np.diag(d_stretch))
    assert np.max(np.abs(off)) < 1e-12
    expected = (1.0 - basis.mu) / (2.0 * t.stretch_norm)
    assert np.allclose(np.diag(d_stretch), expected, atol=1e-10)


def test_tensors_are_read_only():
    _, _, t = tensors_for(4)
    with pytest.raises(ValueError):
        t.ion[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        t.mode[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        t.parity[0] = -1


@settings(max_examples=12, deadline=None)
@given(n=st.integers(min_value=2, max_value=20))
def test_mode_tensor_matches_plain_contraction(n):
    u, basis, t = tensors_for(n)
    v = basis.vectors
    plain = np.einsum("lmn,lp,mq,nr->pqr", t.ion, v, v, v)
    assert np.max(np.abs(t.mode - plain)) <= 1e-12 * np.max(np.abs(plain))


def test_mode_tensor_path_is_the_optimized_one():
    # the fixed contraction order is the one optimize=True searches out
    for n in range(2, 33):
        u, basis, t = tensors_for(n)
        v = basis.vectors
        searched = np.einsum("lmn,lp,mq,nr->pqr", t.ion, v, v, v,
                             optimize=True)
        assert np.array_equal(coupling.mode_tensor(t.ion, basis), searched)


def test_mirror_forbidden_couplings_are_exact_zeros():
    for n in range(2, 33):
        u, basis, t = tensors_for(n)
        v = basis.vectors
        # centre of mass symmetric, stretch antisymmetric, and so on
        assert t.parity.tolist() == [(-1) ** k for k in range(n)]
        assert np.max(np.abs(v[::-1] * t.parity - v)) <= coupling.MIRROR_TOL
        unmasked = coupling.mode_tensor(t.ion, basis)
        s = t.parity
        product = s[:, None, None] * s[None, :, None] * s[None, None, :]
        assert np.all(t.mode[product > 0] == 0.0)
        assert np.array_equal(t.mode[product < 0], unmasked[product < 0])
        for e in resonances.build_catalog(n, n_cap=n):
            assert s[e.m - 1] * s[e.n - 1] * s[e.p - 1] == -1


def test_basis_without_mirror_parity_raises():
    u, basis, _ = tensors_for(4)
    v = basis.vectors.copy()
    # a rotation between a symmetric and an antisymmetric mode keeps the
    # basis orthonormal but leaves both vectors without a parity
    v[:, [1, 2]] = (v[:, [1, 2]] @ np.array([[1.0, -1.0], [1.0, 1.0]])
                    / np.sqrt(2.0))
    mixed = modes.ModeBasis(mu=basis.mu, gamma=basis.gamma, vectors=v,
                            alpha=basis.alpha)
    with pytest.raises(IonChainError, match="mode 2 is not mirror-symmetric"):
        coupling.coupling_tensors(u, mixed)


def test_identity_report_sees_unmasked_mirror_noise():
    u, basis, t = tensors_for(6)
    report = coupling.check_identities(t, basis, u)
    # the masked tensor has exact zeros; the check looks past the mask
    s = t.parity
    forbidden = s[:, None, None] * s[None, :, None] * s[None, None, :] > 0
    noise = np.max(np.abs(coupling.mode_tensor(t.ion, basis)[forbidden]))
    assert report.mirror_parity == noise < 1e-12
    assert report.max_violation() >= report.mirror_parity

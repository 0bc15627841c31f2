import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionchain import equilibrium, modes
from ionchain.errors import DegenerateModesError, IonChainError, ZigZagError


def basis_for(n, alpha):
    u = equilibrium.solve_equilibrium(n)
    return modes.mode_basis(u, alpha)


def test_two_ion_eigenvalues_exact():
    b = basis_for(2, 0.5)
    assert np.allclose(b.mu, [1.0, 3.0], atol=1e-12)


def test_three_ion_eigenvalues_exact():
    # centre of mass 1, stretch 3, bending 29/5
    b = basis_for(3, 0.2)
    assert np.allclose(b.mu, [1.0, 3.0, 5.8], atol=1e-9)


def test_centre_of_mass_and_stretch_vectors():
    n = 5
    u = equilibrium.solve_equilibrium(n)
    b = modes.mode_basis(u, 0.05)
    assert np.allclose(b.vectors[:, 0], np.ones(n) / np.sqrt(n), atol=1e-12)
    stretch = u / np.linalg.norm(u)
    assert np.allclose(b.vectors[:, 1], stretch, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=10),
       frac=st.floats(min_value=0.05, max_value=0.95))
def test_basis_properties(n, frac):
    u = equilibrium.solve_equilibrium(n)
    axial = modes.axial_matrix(u)
    alpha = frac * modes.critical_anisotropy(np.linalg.eigvalsh(axial))
    b = modes.diagonalize(axial, alpha)
    v = b.vectors
    assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-12
    assert np.all(np.diff(b.mu) > 0.0)          # axial ascending
    assert np.all(np.diff(b.gamma) < 0.0)       # transverse descending
    assert np.all(b.gamma > 0.0)                # inside the linear window
    assert np.all(v[-1, :] > 0.0)               # sign convention
    # the two quadratic forms share this eigenbasis
    expected_gamma = 1.0 / alpha + 0.5 - 0.5 * b.mu
    assert np.allclose(b.gamma, expected_gamma, atol=1e-12)
    bt = (1.0 / alpha + 0.5) * np.eye(n) - 0.5 * axial
    assert np.max(np.abs(v.T @ bt @ v - np.diag(b.gamma))) < 1e-9


def test_critical_anisotropy_two_ions():
    b = basis_for(2, 0.5)
    assert abs(modes.critical_anisotropy(b.mu) - 1.0) < 1e-12


def test_zigzag_rejected():
    u = equilibrium.solve_equilibrium(4)
    axial = modes.axial_matrix(u)
    crit = modes.critical_anisotropy(np.linalg.eigvalsh(axial))
    with pytest.raises(ZigZagError) as err:
        modes.diagonalize(axial, alpha=2.0)
    assert err.value.alpha == 2.0
    assert abs(err.value.alpha_crit - crit) < 1e-12
    assert "zig-zag" in str(err.value)
    # just inside the window is fine
    modes.diagonalize(axial, alpha=0.999 * crit)


def test_zigzag_is_reported_before_the_sign_convention():
    # at N = 40 some mode has no amplitude on the last ion, which only a
    # stable alpha gets far enough to report
    axial = modes.axial_matrix(equilibrium.solve_equilibrium(40))
    crit = modes.critical_anisotropy(np.linalg.eigvalsh(axial))
    with pytest.raises(ZigZagError):
        modes.diagonalize(axial, alpha=2.0 * crit)
    with pytest.raises(IonChainError, match="vanishing amplitude") as err:
        modes.diagonalize(axial, alpha=0.5 * crit)
    assert not isinstance(err.value, ZigZagError)


def test_degenerate_spectrum_rejected():
    with pytest.raises(DegenerateModesError):
        modes.diagonalize(np.eye(3), alpha=0.1)


def test_argument_validation():
    u = equilibrium.solve_equilibrium(3)
    axial = modes.axial_matrix(u)
    with pytest.raises(ValueError):
        modes.diagonalize(axial, alpha=0.0)
    with pytest.raises(ValueError):
        modes.diagonalize(axial[:2, :], alpha=0.1)
    with pytest.raises(ValueError):
        modes.critical_anisotropy(np.array([1.0]))


def test_axial_matrix_row_sums():
    # centre-of-mass column: every row sums to 1 (uniform translation
    # feels only the trap)
    u = equilibrium.solve_equilibrium(6)
    a = modes.axial_matrix(u)
    assert np.allclose(a.sum(axis=1), np.ones(6), atol=1e-12)


def test_mode_basis_is_read_only():
    b = basis_for(3, 0.1)
    with pytest.raises(ValueError):
        b.vectors[0, 0] = 0.0

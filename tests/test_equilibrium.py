import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionchain import equilibrium
from ionchain.constants import ATOMIC_MASS
from ionchain.errors import ConvergenceError
from ionchain.modes import axial_matrix


def test_two_ions_closed_form():
    u = equilibrium.solve_equilibrium(2)
    expected = 2.0 ** (-2.0 / 3.0)
    assert abs(u[0] + expected) < 1e-12
    assert abs(u[1] - expected) < 1e-12


def test_three_ions_closed_form():
    u = equilibrium.solve_equilibrium(3)
    expected = (5.0 / 4.0) ** (1.0 / 3.0)
    assert abs(u[1]) < 1e-12
    assert abs(u[2] - expected) < 1e-12


def test_single_ion_sits_at_origin():
    u = equilibrium.solve_equilibrium(1)
    assert u.shape == (1,)
    assert u[0] == 0.0


@settings(max_examples=12, deadline=None)
@given(n=st.integers(min_value=2, max_value=12))
def test_solution_properties(n):
    u = equilibrium.solve_equilibrium(n)
    # ascending, reflection-antisymmetric, force balance
    assert np.all(np.diff(u) > 0.0)
    assert np.max(np.abs(u + u[::-1])) < 1e-9
    assert np.max(np.abs(equilibrium.equilibrium_residual(u))) < 1e-10


def test_spacing_shrinks_toward_the_centre():
    u = equilibrium.solve_equilibrium(8)
    gaps = np.diff(u)
    half = gaps[: gaps.size // 2]
    assert np.all(np.diff(half) < 0.0)
    assert np.max(np.abs(gaps - gaps[::-1])) < 1e-9


def test_residual_rejects_coincident_ions():
    with pytest.raises(ValueError, match="degenerate"):
        equilibrium.equilibrium_residual(np.array([-1.0, 0.5, 0.5]))


def test_invalid_ion_count():
    with pytest.raises(ValueError):
        equilibrium.solve_equilibrium(0)


@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(4.0), "3", None])
def test_non_integral_ion_count_raises(n):
    # 2.5 used to solve a chain of three: _initial_guess ranged to 3.5
    message = f"^n_ions must be an integer, got {re.escape(repr(n))}$"
    with pytest.raises(ValueError, match=message):
        equilibrium.solve_equilibrium(n)


def test_numpy_integer_ion_count_is_accepted():
    want = equilibrium.solve_equilibrium(5)
    got = equilibrium.solve_equilibrium(np.int64(5))
    assert got.tobytes() == want.tobytes()


def test_stalled_damping_raises(monkeypatch):
    # no residual is below 0, so Newton runs into the rounding floor
    monkeypatch.setattr(equilibrium, "RESIDUAL_TOL", 0.0)
    with pytest.raises(ConvergenceError, match="damping stalled") as err:
        equilibrium.solve_equilibrium(5)
    assert 0.0 <= err.value.residual_norm < 1e-12


def test_iteration_limit_raises(monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError,
                       match="not converged after 1 iterations") as err:
        equilibrium.solve_equilibrium(5)
    assert err.value.residual_norm > equilibrium.RESIDUAL_TOL


def test_stall_at_the_rounding_floor_returns(monkeypatch):
    # a positive tolerance no float residual reaches: Newton stalls at the
    # rounding floor, and the floor rule returns that iterate
    default = equilibrium.solve_equilibrium(5)
    monkeypatch.setattr(equilibrium, "RESIDUAL_TOL", 1e-300)
    u = equilibrium.solve_equilibrium(5)
    floor = np.finfo(float).eps * np.max(np.abs(u) * np.diag(axial_matrix(u)))
    residual = np.max(np.abs(equilibrium.equilibrium_residual(u)))
    assert residual <= equilibrium.FLOOR_FACTOR * floor
    assert np.max(np.abs(u - default)) < 1e-12


_LONG_CHAINS = """\
import numpy as np
from ionchain import equilibrium
for n in (150, 200):
    u = equilibrium.solve_equilibrium(n)
    assert np.all(np.diff(u) > 0.0) and np.array_equal(u, -u[::-1])
    print(n, np.max(np.abs(equilibrium.equilibrium_residual(u))))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_long_chains_solve_at_any_thread_count(threads):
    """N = 150 and 200 reach the residual's rounding floor before
    RESIDUAL_TOL, which of them stalls there depending on the BLAS
    thread count; both solve with one thread or two, from the library
    and from the command line."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", _LONG_CHAINS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        assert float(line.split()[1]) < 1e-11
    proc = subprocess.run([sys.executable, "-m", "ionchain", "equilibrium",
                           "--n", "150", "--format", "csv"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[-1].startswith("150,")


def test_species_registry():
    be = equilibrium.species("Be9")
    assert be.name == "Be9"
    assert 8.9 * ATOMIC_MASS < be.mass < 9.1 * ATOMIC_MASS
    with pytest.raises(ValueError, match="unknown species"):
        equilibrium.species("Xe999")


def test_species_validation():
    with pytest.raises(ValueError):
        equilibrium.IonSpecies(name="bad", mass=-1.0)
    with pytest.raises(ValueError):
        equilibrium.IonSpecies(name="bad", mass=1e-26, charge=0.0)


def test_length_scale_frequency_scaling():
    ion = equilibrium.species("Ca40")
    omega = 2.0 * np.pi * 1.0e6
    # ell ~ omega^(-2/3): an 8-fold frequency raise shrinks ell 4-fold
    ratio = equilibrium.length_scale(ion, omega) / equilibrium.length_scale(ion, 8 * omega)
    assert abs(ratio - 4.0) < 1e-12
    with pytest.raises(ValueError):
        equilibrium.length_scale(ion, 0.0)

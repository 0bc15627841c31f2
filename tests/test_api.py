import importlib
import inspect
import subprocess
import sys

import pytest

import ionchain

LAYER_MODULES = ["classical", "coupling", "equilibrium", "errors", "modes",
                 "quantum", "resonances"]

PUBLIC_NAMES = [
    "CODATA_VERSION",
    "ConvergenceError",
    "CouplingTensors",
    "DegenerateModesError",
    "FIRST_KIND",
    "FockBasis",
    "HamiltonianMatrix",
    "IdentityReport",
    "IonChainError",
    "IonSpecies",
    "ModeBasis",
    "ModeProjection",
    "NoResonantCouplingError",
    "QuantumState",
    "ResonanceEntry",
    "SECOND_KIND",
    "Trajectory",
    "UnstableTrajectoryError",
    "ZigZagError",
    "__version__",
    "accelerations",
    "alpha_min",
    "axial_matrix",
    "build_catalog",
    "build_free_hamiltonian",
    "build_full_interaction",
    "build_rwa_interaction",
    "candidate_alpha",
    "check_identities",
    "classify",
    "coupling_tensors",
    "critical_anisotropy",
    "delta",
    "diagonalize",
    "down_conversion_states",
    "entanglement_entropy",
    "evolve",
    "integrate",
    "ion_tensor",
    "length_scale",
    "mode_basis",
    "mode_projection",
    "mode_tensor",
    "nonlinearity_epsilon",
    "resonance_mode_set",
    "rwa_coefficient",
    "solve_equilibrium",
    "species",
    "spectrum",
    "three_state_solution",
    "wavepacket_epsilon",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 51
    assert sorted(ionchain.__all__) == PUBLIC_NAMES


def test_narrowed_surface_is_pinned():
    # the solver's tolerance knobs are module constants, not parameters
    params = inspect.signature(ionchain.solve_equilibrium).parameters
    assert list(params) == ["n_ions"]


def test_every_public_name_resolves():
    for name in ionchain.__all__:
        assert hasattr(ionchain, name), name


@pytest.mark.parametrize("name", LAYER_MODULES)
def test_star_import_binds_exactly_the_module_all(name):
    module = importlib.import_module(f"ionchain.{name}")
    namespace = {}
    exec(f"from ionchain.{name} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)
    for public in module.__all__:
        assert hasattr(module, public), public


def test_package_all_is_the_layer_lists():
    assert len(ionchain.__all__) == len(set(ionchain.__all__))
    layers = [importlib.import_module(f"ionchain.{name}").__all__
              for name in LAYER_MODULES]
    assert sorted(ionchain.__all__) == sorted(
        ["CODATA_VERSION", "__version__"] + sum(layers, []))


def test_import_loads_no_scipy():
    code = ("import sys, ionchain; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

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
    "Propagation",
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
    "integrate",
    "ion_tensor",
    "length_scale",
    "mode_basis",
    "mode_projection",
    "mode_tensor",
    "nonlinearity_epsilon",
    "propagate",
    "resonance_mode_set",
    "rwa_coefficient",
    "sector_states",
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


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace = {}
    exec(compile(code, f"{readme.name} ## Library", "exec"), namespace)
    # the pump starts full and the run stays normalized
    assert namespace["pops"][0].tolist() == [1.0, 0.0, 0.0]
    assert namespace["run"].norms().shape == (201,)


@pytest.mark.parametrize("command", ["simulate", "classical"])
def test_readme_config_table_lists_the_declared_keys(command):
    from ionchain import cli

    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text().split(f"\n`{command}` config keys:\n", 1)[1]
    rows = table.strip().split("\n\n", 1)[0].splitlines()
    assert rows[0] == "| key | default | rule |"
    keys = [row.split("|")[1].strip().strip("`") for row in rows[2:]]
    assert keys == list(cli._CONFIGS[command])

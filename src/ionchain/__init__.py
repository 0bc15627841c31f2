"""Intrinsic phonon-phonon coupling in linear ion-trap crystals.

The pipeline: equilibrium positions -> normal modes -> cubic coupling
tensors -> resonance catalog -> quantum down-conversion dynamics, with a
classical integrator as an independent cross-check and a CLI on top.
"""

from .constants import CODATA_VERSION
from .coupling import (
    CouplingTensors,
    IdentityReport,
    check_identities,
    coupling_tensors,
    ion_tensor,
    mode_tensor,
)
from .equilibrium import (
    IonSpecies,
    length_scale,
    solve_equilibrium,
    species,
)
from .errors import (
    ConvergenceError,
    DegenerateModesError,
    IonChainError,
    NoResonantCouplingError,
    UnstableTrajectoryError,
    ZigZagError,
)
from .modes import (
    ModeBasis,
    axial_matrix,
    critical_anisotropy,
    diagonalize,
    mode_basis,
)
from .quantum import (
    FockBasis,
    HamiltonianMatrix,
    QuantumState,
    build_free_hamiltonian,
    build_full_interaction,
    build_rwa_interaction,
    down_conversion_states,
    entanglement_entropy,
    evolve,
    nonlinearity_epsilon,
    resonance_mode_set,
    rwa_coefficient,
    three_state_solution,
    wavepacket_epsilon,
)
from .resonances import (
    FIRST_KIND,
    SECOND_KIND,
    ResonanceEntry,
    alpha_min,
    build_catalog,
    candidate_alpha,
    classify,
    delta,
)
from .classical import (
    ModeProjection,
    Trajectory,
    accelerations,
    integrate,
    mode_projection,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]

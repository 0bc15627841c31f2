"""Physical constants (CODATA 2018) and the built-in ion mass registry.

All quantities SI.
"""

import math

CODATA_VERSION = "CODATA-2018"

ELEMENTARY_CHARGE = 1.602176634e-19       # C, exact
VACUUM_PERMITTIVITY = 8.8541878128e-12    # F/m
HBAR = 1.054571817e-34                    # J s
SPEED_OF_LIGHT = 299792458.0              # m/s, exact
ATOMIC_MASS = 1.66053906660e-27           # kg

COULOMB_CONSTANT = 1.0 / (4.0 * math.pi * VACUUM_PERMITTIVITY)  # N m^2 / C^2

# Singly charged ions available by name; masses in atomic mass units.
ION_MASS_U = {
    "Be9": 9.012,
    "Ca40": 39.963,
    "Sr88": 87.906,
    "Cd112": 111.903,
}

"""Intrinsic phonon-phonon coupling in linear ion-trap crystals.

The pipeline: equilibrium positions -> normal modes -> cubic coupling
tensors -> resonance catalog -> quantum down-conversion dynamics, with a
classical integrator as an independent cross-check and a CLI on top.

A layer module's `__all__` is its one list of public names; the package
re-exports exactly those.
"""

from .classical import *
from .constants import CODATA_VERSION
from .coupling import *
from .equilibrium import *
from .errors import *
from .modes import *
from .quantum import *
from .resonances import *

__version__ = "0.1.0"

__all__ = ["CODATA_VERSION", "__version__"]
__all__ += classical.__all__
__all__ += coupling.__all__
__all__ += equilibrium.__all__
__all__ += errors.__all__
__all__ += modes.__all__
__all__ += quantum.__all__
__all__ += resonances.__all__

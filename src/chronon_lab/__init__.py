"""chronon-lab: quantized-time evolution of two-state quantum systems.

Discrete forward-difference evolution on a chronon grid tau = hbar / E,
complex effective energies of the resulting step map, and a neutral-kaon
two-state model, with batch scan / convergence tooling on top.
"""

__version__ = "0.1.0"

from .errors import (ChrononLabError, DegenerateModes, GridMismatch, InvalidInput,
                     Overflow, RefusedTooLarge, SingularMap, UndefinedRatio)
from .evolution import (ChrononParams, NATURAL_UNITS, SI_SECONDS, Trajectory,
                        TwoState, UnitSystem, continuous_propagator,
                        discrete_step_operator, evolve, symmetric_hamiltonian)
from .kaon import (KaonModel, epsilon_mixing, kaon_hamiltonian, kaon_state,
                   kaon_trajectory, three_pion_intensity, two_pion_intensity,
                   width_shift)
from .linalg2 import EigenPair2, eig2, exp2, is_hermitian
from .spectrum import EffectiveSpectrum, ModeRecord, mode_report

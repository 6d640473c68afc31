"""chronon-lab: quantized-time evolution of two-state quantum systems.

Discrete forward-difference evolution on a chronon grid tau = hbar / E,
complex effective energies of the resulting step map, and a neutral-kaon
two-state model, with batch scan / convergence tooling on top.

The public names below are exported lazily (PEP 562): importing the
package loads none of its modules, and a name's module is imported on the
first access to it. So `python -m chronon_lab` compiles only the modules
that its command runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ChrononLabError", "DegenerateModes", "GridMismatch", "InvalidInput",
               "Overflow", "RefusedTooLarge", "SingularMap", "UndefinedRatio"),
    "evolution": ("ChrononParams", "NATURAL_UNITS", "Trajectory", "TwoState", "UnitSystem",
                  "continuous_propagator", "discrete_step_operator", "evolve",
                  "symmetric_hamiltonian"),
    "kaon": ("KaonModel", "epsilon_mixing", "kaon_hamiltonian", "kaon_state",
             "kaon_trajectory", "three_pion_intensity", "two_pion_intensity", "width_shift"),
    "linalg2": ("EigenPair2", "eig2", "exp2", "is_hermitian"),
    "spectrum": ("EffectiveSpectrum", "ModeRecord", "mode_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    # not cached here, so the package gives what the module binds now
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})

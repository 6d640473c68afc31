"""The names `import chronon_lab` binds: the package's public API."""

import types

import chronon_lab
from chronon_lab import errors, evolution, kaon, linalg2, spectrum

# Submodules are left out: importing one binds it on the package as well.
PUBLIC = [
    "ChrononLabError", "ChrononParams", "DegenerateModes", "EffectiveSpectrum",
    "EigenPair2", "GridMismatch", "InvalidInput", "KaonModel", "ModeRecord",
    "NATURAL_UNITS", "Overflow", "RefusedTooLarge", "SI_SECONDS", "SingularMap",
    "Trajectory", "TwoState", "UndefinedRatio", "UnitSystem",
    "continuous_propagator", "discrete_step_operator", "eig2", "epsilon_mixing",
    "evolve", "exp2", "is_hermitian", "kaon_hamiltonian", "kaon_state",
    "kaon_trajectory", "mode_report", "symmetric_hamiltonian",
    "three_pion_intensity", "two_pion_intensity", "width_shift",
]


def test_public_names():
    names = sorted(name for name, value in vars(chronon_lab).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


def test_public_names_resolve_to_their_modules():
    for name in PUBLIC:
        value = getattr(chronon_lab, name)
        assert any(getattr(m, name, None) is value
                   for m in (errors, evolution, kaon, linalg2, spectrum)), name

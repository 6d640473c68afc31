"""The names `import chronon_lab` exports: the package's public API."""

import subprocess
import sys
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
    # the exports are lazy (PEP 562), so they are read through dir() and
    # getattr, not from the package's namespace
    names = sorted(name for name in dir(chronon_lab) if not name.startswith("_")
                   and not isinstance(getattr(chronon_lab, name), types.ModuleType))
    assert names == PUBLIC


def test_public_names_resolve_to_their_modules():
    for name in PUBLIC:
        value = getattr(chronon_lab, name)
        assert any(getattr(m, name, None) is value
                   for m in (errors, evolution, kaon, linalg2, spectrum)), name


def test_package_import_loads_no_submodule():
    code = ("import sys, chronon_lab\n"
            "print(*sorted(m for m in sys.modules if m.startswith('chronon_lab.')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances are pinned in the assertions; expected constants are
recomputed from their independent derivations next to each use.
"""

import contextlib
import hashlib
import math
import time
from pathlib import Path

import numpy as np

from chronon_lab.evolution import (ChrononParams, NATURAL_UNITS, TwoState,
                                   discrete_step_operator, evolve,
                                   symmetric_hamiltonian)
from chronon_lab.kaon import KaonModel, epsilon_mixing, width_shift
from chronon_lab.linalg2 import PAULI_X, eig2
from chronon_lab.quantities import ScanSpec, kaon_from_config, load_kaon_config
from chronon_lab.runner import convergence_study, render, run_scan
from chronon_lab.spectrum import im_re_ratio, mode_report

import golden_defs

SIX_DECADES = np.geomspace(1e-3, 1e3, 25)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def digest_of(data: bytes) -> str:
    """The SHA-256 a manifest should record of `data`."""
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def criterion(num, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"[FAIL] criterion {num}: {description} "
              f"(runtime {elapsed:.2f}s > {budget_s}s)")
        raise AssertionError(f"criterion {num} exceeded runtime budget")
    print(f"[PASS] criterion {num}: {description} ({elapsed:.2f}s)")


def test_criterion_1_first_order_formula_fidelity():
    with criterion(1, "first-order energy is E(1+i) at tau = hbar/E", 1.0):
        for e in SIX_DECADES:
            e = float(e)
            # the mode h = +E of the symmetric H
            spec = mode_report(symmetric_hamiltonian(e), ChrononParams(energy=e))
            got = spec.modes[1].h_first_order
            want = e * (1 + 1j)
            assert abs(got - want) <= 1e-15 * abs(want)


def test_criterion_2_chronon_scale():
    with criterion(2, "kaon-scale chronon is exactly 1e-10 s", 1.0):
        model, params = kaon_from_config(load_kaon_config(CONFIGS / "kaon_physical.cfg"))
        assert model.mixing_energy / model.units.hbar == 1.0e10
        assert params.tau(model.units) == 1.0e-10


def test_criterion_3_same_order_ratio():
    with criterion(3, "Im/Re ratio is 2 ln2 / pi for both modes at any scale", 1.0):
        want = 2 * math.log(2) / math.pi
        for e in SIX_DECADES:
            spec = mode_report(symmetric_hamiltonian(float(e)),
                               ChrononParams(energy=float(e)))
            for rec in spec.modes:
                r, undefined = im_re_ratio(rec.h_eff_exact)
                assert not undefined
                assert abs(r - want) <= 1e-9
                assert 0.2 <= r <= 2.0


def test_criterion_4_lifetime_is_chronon_scale():
    with criterion(4, "e-folding time is (2/ln2) tau independent of E", 1.0):
        factor = 2.0 / math.log(2.0)
        for e in SIX_DECADES:
            p = ChrononParams(energy=float(e))
            spec = mode_report(symmetric_hamiltonian(float(e)), p)
            tau = p.tau(NATURAL_UNITS)
            for rec in spec.modes:
                assert abs(rec.efold_time - factor * tau) <= 1e-9 * factor * tau


def test_criterion_5_non_hermiticity_emerges_and_vanishes():
    with criterion(5, "nu = 0.4037 at the chronon point, < 1e-7 near continuum", 1.0):
        spec = mode_report(PAULI_X, ChrononParams(energy=1.0))
        # hand Frobenius oracle: nu = (ln2/2) / hypot(ln2/2, pi/4) = 0.40371
        want = (math.log(2) / 2) / math.hypot(math.log(2) / 2, math.pi / 4)
        assert abs(spec.nu_nonhermitian - want) <= 1e-12
        assert abs(spec.nu_nonhermitian - 0.4037) <= 1e-3
        near = mode_report(PAULI_X, ChrononParams(energy=1.0, tau_scale=1e-8))
        assert near.nu_nonhermitian < 1e-7


def test_criterion_6_integrator_order():
    with criterion(6, "composed map converges at first order", 5.0):
        rows = convergence_study(1.0, 1.0, [2 ** k for k in range(4, 13)])
        assert all(r["status"] == "ok" for r in rows)
        for row in rows[1:]:
            assert 0.8 <= row["observed_order"] <= 1.2


def test_criterion_7_eigenvector_preservation():
    with criterion(7, "step map shares H's eigenvectors (100 random H)", 1.0):
        rng = np.random.default_rng(977)
        p = ChrononParams(energy=1.0, tau_scale=0.8)
        for _ in range(100):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = 0.5 * (a + a.conj().T)
            u = discrete_step_operator(h, p)
            u_pairs = eig2(u)
            for hp in eig2(h):
                lam = 1.0 - 1j * hp.value.real * p.step(NATURAL_UNITS)
                up = min(u_pairs, key=lambda q: abs(q.value - lam))
                assert np.max(np.abs(up.vector - hp.vector)) <= 1e-10


def test_criterion_8_kaon_null_result_and_response():
    with criterion(8, "epsilon: null at delta=0, |delta|/2E response, monotone", 5.0):
        model = KaonModel(mixing_energy=1.0, gamma_short=0.1, gamma_long=0.001)
        for s in np.geomspace(0.01, 2.0, 20):
            p = ChrononParams(energy=1.0, tau_scale=float(s))
            for engine in ("continuous", "discrete"):
                assert abs(epsilon_mixing(model, p, engine)) < 1e-12

        widthless = KaonModel(mixing_energy=1.0, gamma_short=0.0,
                              gamma_long=0.0, delta=0.01)
        eps = epsilon_mixing(widthless, ChrononParams(energy=1.0), "continuous")
        assert abs(abs(eps) - 0.005) <= 0.1 * 0.005

        p = ChrononParams(energy=1.0)
        for engine in ("continuous", "discrete"):
            mags = [abs(epsilon_mixing(
                KaonModel(mixing_energy=1.0, gamma_short=0.1,
                          gamma_long=0.001, delta=float(d)), p, engine))
                for d in np.linspace(0.01, 0.1, 10)]
            assert all(a < b for a, b in zip(mags, mags[1:]))


def test_criterion_9_norm_growth_law():
    with criterion(9, "eigenmode norm after k steps is 2^(k/2)", 1.0):
        psi0 = TwoState(np.array([1.0, 1.0]) / math.sqrt(2.0))
        traj = evolve(PAULI_X, psi0, "discrete", 100.0, 100,
                      ChrononParams(energy=1.0))
        norms = np.sqrt(traj.norm_sq())
        for k in range(101):
            want = 2.0 ** (k / 2.0)
            assert abs(norms[k] - want) <= 1e-9 * want


def test_criterion_10_width_shift_oracle_point():
    with criterion(10, "width shift at the hand-computed oracle point", 1.0):
        model = KaonModel(mixing_energy=1.0, gamma_short=0.1, gamma_long=0.0)
        fast, _ = width_shift(model, ChrononParams(energy=1.0))
        # hand oracle: lambda = 1 - i(1 - 0.05i) = 0.95 - i,
        # |lambda| = sqrt(0.95^2 + 1) = sqrt(1.9025) = 1.3793114,
        # gamma_eff = -(2/1) ln|lambda| = -ln(1.9025) = -0.6431688
        assert abs(abs(fast.lambda_step) - 1.379311) <= 1e-6
        assert abs(abs(fast.lambda_step) - math.sqrt(1.9025)) <= 1e-12
        assert abs(fast.gamma_effective - (-math.log(1.9025))) <= 1e-6


def test_criterion_11_determinism_and_goldens():
    with criterion(11, "byte-identical scans across workers; goldens match", 10.0):
        spec = ScanSpec.from_dict(golden_defs.RATIO_SCAN)
        serial = render(run_scan(spec, workers=1), "csv")
        parallel = render(run_scan(spec, workers=3), "csv")
        assert serial == parallel
        assert digest_of(serial) == digest_of(parallel)

        for name, builder in golden_defs.GOLDEN_BUILDERS.items():
            committed = (golden_defs.GOLDEN_DIR / name).read_bytes()
            fresh = builder()
            assert fresh == committed, f"golden {name} drifted"
            assert digest_of(fresh) == digest_of(committed)

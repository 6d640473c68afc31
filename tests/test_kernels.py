import numpy as np

from chronon_lab import kernels


def random_inputs(seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return u, psi


def test_step_trajectory_matches_matrix_power():
    u, psi = random_inputs(103)
    u = 0.5 * u
    out = kernels.step_trajectory(u, psi, 50)
    for k in (0, 1, 7, 50):
        np.testing.assert_allclose(out[k], np.linalg.matrix_power(u, k) @ psi,
                                   rtol=1e-10, atol=1e-12)

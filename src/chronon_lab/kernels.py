"""The sequential trajectory-stepping loop of the discrete engine.

`step_trajectory` applies the chronon step map one step at a time and keeps
every visited state; the step-by-step order fixes the rounding of each row.
"""

import numpy as np


def step_trajectory(u, psi0, steps):
    """Apply the fixed 2x2 step map `steps` times; rows are the visited states."""
    out = np.empty((steps + 1, 2), dtype=np.complex128)
    a = u[0, 0]
    b = u[0, 1]
    c = u[1, 0]
    d = u[1, 1]
    x = psi0[0]
    y = psi0[1]
    out[0, 0] = x
    out[0, 1] = y
    for k in range(1, steps + 1):
        x, y = a * x + b * y, c * x + d * y
        out[k, 0] = x
        out[k, 1] = y
    return out

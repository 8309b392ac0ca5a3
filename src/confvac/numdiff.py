"""Central finite-difference stencils used throughout the package.

All first/second derivatives use 5-point stencils (4th order accurate);
third derivatives use the 5-point stencil (2nd order accurate). Mixed
second derivatives nest two first-derivative stencils (4th order).
"""

from __future__ import annotations

import numpy as np

# weights on offsets (-2, -1, 0, 1, 2) * step
W_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
W_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
W_D3 = np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / 2.0
OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def gradient(f, x, step=1e-3):
    """4th-order gradient of a scalar function on R^4."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(4)
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = step
        vals = np.array([f(x + o * e) for o in OFFSETS])
        g[mu] = W_D1 @ (vals - vals[2]) / step
    return g


def hessian(f, x, step=1e-3):
    """4th-order Hessian of a scalar function on R^4.

    Diagonal entries use the 5-point second-derivative stencil; off-diagonal
    entries nest two 4th-order first-derivative stencils.
    """
    x = np.asarray(x, dtype=float)
    H = np.zeros((4, 4))
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = step
        vals = np.array([f(x + o * e) for o in OFFSETS])
        H[mu, mu] = W_D2 @ (vals - vals[2]) / step**2
    for mu in range(4):
        for nu in range(mu + 1, 4):
            em = np.zeros(4)
            em[mu] = step

            def d_nu(y, nu=nu):
                e = np.zeros(4)
                e[nu] = step
                vals = np.array([f(y + o * e) for o in OFFSETS])
                return W_D1 @ vals / step

            vals = np.array([d_nu(x + o * em) for o in OFFSETS])
            H[mu, nu] = H[nu, mu] = W_D1 @ vals / step
    return H


def jacobian(f, x, step=1e-5):
    """4th-order Jacobian of a map R^4 -> R^4 (rows: output index)."""
    x = np.asarray(x, dtype=float)
    J = np.zeros((4, 4))
    for nu in range(4):
        e = np.zeros(4)
        e[nu] = step
        vals = np.array([f(x + o * e) for o in OFFSETS])
        J[:, nu] = W_D1 @ vals / step
    return J


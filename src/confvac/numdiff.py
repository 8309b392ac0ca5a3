"""Central finite-difference stencils used throughout the package.

All first/second derivatives use 5-point stencils (4th order accurate);
third derivatives use the 5-point stencil (2nd order accurate). Mixed
second derivatives nest two first-derivative stencils (4th order).
Sampled curves are interpolated, with their first three derivatives, by
local quintics through six neighbouring samples (``local_quintic``).
"""

from __future__ import annotations

import numpy as np

# weights on offsets (-2, -1, 0, 1, 2) * step
W_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
W_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
W_D3 = np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / 2.0
OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def gradient_hessian(f, x, step=1e-3):
    """4th-order gradient (4,) and Hessian (4, 4) of a scalar function on R^4.

    ``f`` maps event rows (n, 4) to values (n,).  It is called once, on all
    170 stencil events of x: the 20 axis events x + o h e_mu, which give the
    gradient and the diagonal (5-point second-derivative stencil), and the
    150 mixed events (x + o h e_mu) + o' h e_nu, mu < nu, whose nested
    first-derivative stencils give the off-diagonal entries.  Each 5-term sum
    is a ``vecdot`` over one stencil row, which rounds as ``W @ row`` does.
    """
    x = np.asarray(x, dtype=float)
    E = step * np.eye(4)
    axis = x + OFFSETS[:, None] * E[:, None, :]                       # (4, 5, 4)
    mu, nu = np.triu_indices(4, 1)
    mixed = axis[mu][:, :, None] + OFFSETS[:, None] * E[nu][:, None, None, :]  # (6, 5, 5, 4)
    vals = np.asarray(f(np.concatenate([axis.reshape(20, 4), mixed.reshape(150, 4)])),
                      dtype=float)
    centred = vals[:20].reshape(4, 5) - vals[2:20:5, None]
    H = np.diag(np.vecdot(centred, W_D2) / step**2)
    inner = np.vecdot(vals[20:].reshape(6, 5, 5), W_D1) / step
    H[mu, nu] = H[nu, mu] = np.vecdot(inner, W_D1) / step
    return np.vecdot(centred, W_D1) / step, H


def local_quintic(nodes, values, x, order=0):
    """Derivatives 0..order at ``x`` of the polynomial through the 6 samples
    around each point: a quintic, so third derivatives keep O(h^3) accuracy.
    With fewer than 6 samples it is the one polynomial through all of them.

    ``nodes`` is strictly increasing with shape (n,) and ``values`` has shape
    (n, ...).  Returns order + 1 arrays of shape x.shape + values.shape[1:].
    A point's window runs from two samples left of its anchor (the sample at
    or left of it) to three right, shifted to stay inside the samples.  It is
    held as Newton divided differences with the anchor first, so at a node
    the interpolant returns that sample exactly.  Only the windows of the
    points asked for are built, as one (m, 6) array, with no loop over them.
    A point outside [nodes[0], nodes[-1]] raises ValueError naming the first
    such point: values and derivatives are interpolated, never extrapolated.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    lo, hi = float(nodes[0]), float(nodes[-1])
    outside = (flat < lo) | (flat > hi)
    if outside.any():
        raise ValueError(f"{flat[outside][0]} outside sampled range [{lo}, {hi}]")
    n = nodes.size
    k = min(6, n)
    anchor = np.searchsorted(nodes, flat, side="right") - 1   # in [0, n - 1]: no point outside
    start = np.clip(anchor - 2, 0, n - k)[:, None]
    cols = np.arange(k)
    idx = np.where(cols == anchor[:, None] - start, start, start + cols)
    idx[:, 0] = anchor
    trail = (1,) * (values.ndim - 1)
    t = nodes[idx].reshape(idx.shape + trail)
    c = values[idx]
    for j in range(1, k):
        c[:, j:] = (c[:, j:] - c[:, j - 1:-1]) / (t[:, j:] - t[:, :-j])
    d = flat.reshape((-1, 1) + trail) - t
    p = [c[:, -1]] + [np.zeros_like(c[:, 0])] * order
    for i in range(k - 2, -1, -1):
        for r in range(order, 0, -1):
            p[r] = p[r] * d[:, i] + r * p[r - 1]
        p[0] = p[0] * d[:, i] + c[:, i]
    return [q.reshape(x.shape + values.shape[1:]) for q in p]

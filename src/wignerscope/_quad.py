"""Shared fixed-order quadrature helpers.

Panelled Gauss-Legendre rules (deterministic, vectorizable), their cosine
transform summed panel by panel, and cached Gauss-Jacobi rules for
integrands with an algebraic endpoint singularity.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

# elements of one (y rows x panels) block in gl_cos_sum: bounds its four
# block arrays at 2 MiB each, whatever the number of y values
_COS_SUM_BUDGET = 2**18
# the one Gauss-Legendre rule of every panel: 16 nodes on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _panel_rule(a: float, b: float, max_width: float):
    # equal panels no wider than max_width: midpoints, half-widths and the
    # (panels, 16) Gauss-Legendre nodes and weights
    n_panels = max(1, int(math.ceil((b - a) / max_width)))
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = mid[:, None] + half[:, None] * _GL_X[None, :]
    w = half[:, None] * _GL_W[None, :]
    return mid, half, x, w


def gl_panels(a: float, b: float, max_width: float):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b].

    The interval is split into equal panels no wider than ``max_width``;
    each panel carries the 16-point Gauss-Legendre rule.
    """
    if b <= a:
        return np.empty(0), np.empty(0)
    _, _, x, w = _panel_rule(a, b, max_width)
    return x.ravel(), w.ravel()


def gl_cos_sum(y, a: float, b: float, max_width: float, g) -> np.ndarray:
    """sum_j w_j g(t_j) cos(y t_j) for every y, over the rule gl_panels(a, b,
    max_width) builds: the same panels, 16 nodes each, the same weights.

    ``g`` maps the flat array of nodes to integrand values.  The panels are
    equal, so every node is t = m_p + d_i, a panel midpoint plus one of 16
    shared offsets, and angle addition,

        cos(y t) = cos(y m_p) cos(y d_i) - sin(y m_p) sin(y d_i),

    turns the sum into two (rows x 16) @ (16 x panels) products and two
    row-wise dot products: 2 (16 + panels) transcendentals per y in place
    of 16 panels.  The y values are taken in row blocks of
    max(1, _COS_SUM_BUDGET // panels) rows.  A value depends on its row's
    place in the block only through the BLAS product's grouping of rows,
    in the last bits, so results are deterministic for the fixed budget.
    """
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros(ys.size)
    if b <= a:
        return out
    mid, half, t, w = _panel_rule(a, b, max_width)
    wg = (w * np.reshape(g(t.ravel()), t.shape)).T      # (16, panels)
    offsets = half[0] * _GL_X
    rows = max(1, _COS_SUM_BUDGET // mid.size)
    for i in range(0, ys.size, rows):
        yb = ys[i : i + rows]
        phase = np.multiply.outer(yb, offsets)
        at_cos = np.cos(phase) @ wg                      # (rows, panels)
        at_sin = np.sin(phase) @ wg
        phase = np.multiply.outer(yb, mid)
        out[i : i + yb.size] = (
            np.einsum("ij,ij->i", np.cos(phase), at_cos)
            - np.einsum("ij,ij->i", np.sin(phase), at_sin)
        )
    return out


@lru_cache(maxsize=32)
def jacobi_unit(n: int, beta: float):
    """Nodes/weights for ∫₀¹ s^beta g(s) ds ≈ Σ w_i g(s_i), beta > -1.

    Built from the Gauss-Jacobi rule with weight (1+x)^beta on [-1, 1];
    exact for g polynomial of degree ≤ 2n-1.
    """
    x, w = roots_jacobi(n, 0.0, beta)
    s = 0.5 * (x + 1.0)
    w = w / 2.0 ** (beta + 1.0)
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


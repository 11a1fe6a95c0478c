"""Shared fixed-order quadrature helpers.

Panelled Gauss-Legendre rules (deterministic, vectorizable), their cosine
transform summed panel by panel, Gauss-Jacobi rules (Golub-Welsch) for
integrands with an algebraic endpoint singularity, and local cubic Hermite
tables.
"""

from __future__ import annotations

import math

import numpy as np

# elements of one (y rows x max(panels, 16)) block in gl_cos_sum: bounds its
# block arrays, (rows x 16) and (rows x panels), at 2 MiB each, whatever the
# number of y values
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
    max(1, _COS_SUM_BUDGET // max(panels, 16)) rows.  A value depends on
    its row's place in the block only through the BLAS product's grouping
    of rows, in the last bits, so results are deterministic for the fixed
    budget.
    """
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros(ys.size)
    if b <= a:
        return out
    mid, half, t, w = _panel_rule(a, b, max_width)
    wg = (w * np.reshape(g(t.ravel()), t.shape)).T      # (16, panels)
    offsets = half[0] * _GL_X
    rows = max(1, _COS_SUM_BUDGET // max(mid.size, _GL_X.size))
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


def hermite_cells(values, step: float) -> np.ndarray:
    """(4, len(values) - 4) Horner coefficients, highest power first, cell k
    starting at k * step, of the local cubic Hermite interpolant of an even f
    given as values[k] = f(k * step).  A cell matches f and the seven-point
    central difference (45 (f[k+1] - f[k-1]) - 9 (f[k+2] - f[k-2]) + f[k+3]
    - f[k-3]) / (60 step) at both its nodes; evenness supplies f[-k] = f[k]
    and the last three values only close stencils, so cell k depends on the
    eight values f[k-3..k+4] and on no boundary policy."""
    f = np.asarray(values, dtype=float)
    ext = np.concatenate([f[3:0:-1], f])               # f[-3], f[-2], ...
    slope = (45.0 * (ext[4:-2] - ext[2:-4]) - 9.0 * (ext[5:-1] - ext[1:-5])
             + (ext[6:] - ext[:-6])) / (60.0 * step)   # at nodes 0 .. len(f) - 4
    d0, d1, secant = slope[:-1], slope[1:], (f[1:-3] - f[:-4]) / step
    return np.stack([(d0 + d1 - 2.0 * secant) / step**2, (3.0 * secant - 2.0 * d0 - d1) / step,
                     d0, f[:-4]])


def cells_eval(coef: np.ndarray, step: float, x: np.ndarray) -> np.ndarray:
    """The piecewise cubic of hermite_cells at x >= 0: the cell by index
    arithmetic, then Horner.  x past the last cell (and NaN) uses the last."""
    cell = np.fmin(x / step, coef.shape[1] - 1).astype(np.intp)
    t = x - cell * step
    c3, c2, c1, c0 = np.take(coef, cell, axis=1)
    return ((c3 * t + c2) * t + c1) * t + c0


def jacobi_unit(n: int, beta: float):
    """Nodes/weights for ∫₀¹ s^beta g(s) ds ≈ Σ w_i g(s_i), beta > -1; exact
    for g polynomial of degree ≤ 2n-1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the polynomials orthogonal under s^beta on [0, 1] (the
    Jacobi recurrence with weight (1+x)^beta on [-1, 1], mapped by
    s = (x + 1)/2), and the weights are mu_0 v_0^2, with mu_0 = 1/(beta + 1)
    and v_0 the first component of each unit eigenvector.
    """
    k = np.arange(1.0, n)
    d = 2.0 * k + beta
    diag = 0.5 * (1.0 + np.concatenate(([beta / (beta + 2.0)], beta * beta / (d * (d + 2.0)))))
    off = k * (k + beta) / (d * np.sqrt(d * d - 1.0))
    s, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return s, v[0] ** 2 / (beta + 1.0)

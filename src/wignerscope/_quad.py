"""Shared fixed-order quadrature helpers.

Panelled Gauss-Legendre rules (deterministic, vectorizable) and cached
Gauss-Jacobi rules for integrands with an algebraic endpoint singularity.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi


@lru_cache(maxsize=64)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gl_panels(a: float, b: float, max_width: float, nodes: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b].

    The interval is split into equal panels no wider than ``max_width``;
    each panel carries an ``nodes``-point Gauss-Legendre rule.
    """
    if b <= a:
        return np.empty(0), np.empty(0)
    n_panels = max(1, int(math.ceil((b - a) / max_width)))
    edges = np.linspace(a, b, n_panels + 1)
    x0, w0 = _leggauss(nodes)
    half = 0.5 * (edges[1:] - edges[:-1])     # (n_panels,)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w


def gl_integrate(f, a: float, b: float, max_width: float, nodes: int = 16):
    """Integrate a vectorized callable with gl_panels."""
    x, w = gl_panels(a, b, max_width, nodes)
    if x.size == 0:
        return 0.0
    return float(np.dot(w, f(x)))


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


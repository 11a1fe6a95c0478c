"""Reference transforms the tests check the package against.

None of the package's jobs (simulate, estimate, risk, lower bound) calls
these; they are independent routes to quantities the package computes
another way: the Radon transform of a Wigner evaluator (against
``quad_density``), the noisy quadrature density by direct convolution
(against the sampler's records), the Fourier slice of a quadrature density
(against the 2-d transform of W), the Hilbert-Schmidt distance (against
the L2 distance of Wigner functions), and the lower bound's base-density
tail mass by its asymptotic series (against the densities' normalization).  ``invert_reference`` is the
sampler's table inversion as generator ``wignerscope-sampler/2`` first
shipped it, frozen so that a faster inversion can be held to the same draws
bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from wignerscope._quad import gl_panels
from wignerscope.fockspace import DensityMatrix
from wignerscope.lowerbound import AlphaXi
from wignerscope.tomography import NoiseModel, quad_density, x_support_radius

# Gauss-Legendre panel width of radon_numeric's line integral
_RADON_PANEL = 0.125


def radon_numeric(
    wigner: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: float,
    phi: float,
    radius: float,
) -> float:
    """Line integral of a Wigner evaluator along the direction phi at offset x.

    Integrates W(x cos phi - t sin phi, x sin phi + t cos phi) over t with a
    composite Gauss-Legendre rule; the evaluator must cover the disc of the
    given radius (absolute error target 1e-7 for smooth Wigner functions).
    """
    if abs(x) >= radius:
        raise ValueError(f"|x| = {abs(x)} outside evaluator radius {radius}")
    t_max = math.sqrt(radius * radius - x * x)
    t, w = gl_panels(-t_max, t_max, _RADON_PANEL)
    q = x * math.cos(phi) - t * math.sin(phi)
    p = x * math.sin(phi) + t * math.cos(phi)
    return float(np.dot(w, wigner(q, p)))


def noisy_density(rho: DensityMatrix, noise: NoiseModel, y: float, phi: float) -> float:
    """Efficiency-corrected density of Y = sqrt(eta) X + sqrt((1-eta)/2) xi:

        p^eta(y | phi) = (pi (1-eta))^{-1/2}
                         int p(x | phi) exp[-(eta/(1-eta)) (x - y/sqrt(eta))^2] dx.
    """
    eta = noise.eta
    sigma_g = math.sqrt((1.0 - eta) / (2.0 * eta))   # std of the x-space Gaussian
    center = y / math.sqrt(eta)
    xm = x_support_radius(rho.dim)
    lo = max(-xm, center - 10.0 * sigma_g)
    hi = min(xm, center + 10.0 * sigma_g)
    if hi <= lo:
        return 0.0
    width = min(0.25, sigma_g / 2.0)
    t, w = gl_panels(lo, hi, width)
    dens = quad_density(rho, t, phi)
    kern = np.exp(-eta / (1.0 - eta) * (t - center) ** 2)
    val = float(np.dot(w, dens * kern)) / math.sqrt(math.pi * (1.0 - eta))
    return max(val, 0.0)


def fourier_slice(rho: DensityMatrix, t: float, phi: float) -> complex:
    """F_1[p_rho(.|phi)](t) = Tr(rho exp(i t X_phi)), by quadrature in x."""
    xm = x_support_radius(rho.dim)
    width = min(0.25, math.pi / (4.0 * abs(t))) if t != 0.0 else 0.25
    xs, w = gl_panels(-xm, xm, width)
    dens = quad_density(rho, xs, phi)
    return complex(np.dot(w, dens * np.exp(1j * t * xs)))


def hs_distance_sq(rho: DensityMatrix, tau: DensityMatrix) -> float:
    """Squared Hilbert-Schmidt distance sum_jk |rho_jk - tau_jk|^2.

    Equals 2*pi times the squared L2 distance of the Wigner functions.
    The smaller matrix is zero-padded.
    """
    d = max(rho.dim, tau.dim)
    a = np.zeros((d, d), dtype=complex)
    b = np.zeros((d, d), dtype=complex)
    a[: rho.dim, : rho.dim] = rho.entries
    b[: tau.dim, : tau.dim] = tau.entries
    return float(np.sum(np.abs(a - b) ** 2))


# terms of p_tail_mass's asymptotic series
_TAIL_TERMS = 6


def p_tail_mass(axi: AlphaXi, x_cut: float, eta: float = 1.0) -> float:
    """Analytic tail integral int_{x_cut}^inf p(x) dx via the asymptotic
    series p(x) = pref * x^{-1-2 alpha} sum_k c_k kappa^k x^{-2k}; the
    leading term is the |x|^{-(1+2 alpha)} power law with its exact constant.

    eta < 1 gives the tail of the noisy density p_0^eta (kappa = 2 eta - 1;
    eta = 1 is p_alpha_xi itself).  Valid once the endpoint correction
    exp(-u_top^2) is negligible, i.e. x_cut >= ~8 sqrt((1+kappa xi)/(1-xi)).
    """
    a, xi = axi.alpha, axi.xi
    kappa = 2.0 * eta - 1.0
    pref = a * 2.0 ** (a + 1.0) * eta**a / ((1.0 - xi) ** a * math.sqrt(math.pi))
    total = 0.0
    for k in range(_TAIL_TERMS):
        binom = _binom_neg(a, k) * kappa**k
        moment = 0.5 * math.exp(math.lgamma(a + k + 0.5))   # int_0^inf u^{2a+2k} e^{-u^2} du
        power = 2.0 * a + 2.0 * k
        total += binom * moment * x_cut ** (-power) / power
    return pref * total


def _binom_neg(a: float, k: int) -> float:
    """binomial(-(a+1), k) by the stable product form."""
    out = 1.0
    for i in range(k):
        out *= (-(a + 1.0) - i) / (i + 1.0)
    return out


# Newton stopping rule of the frozen inversion: in units of a cell, and the
# sweep cap
_REF_SOLVE_TOL = 1e-15
_REF_MAX_SWEEPS = 64


def _search_rows_reference(flat, base, n, t):
    """Per record, the last index i of its row (flat[base:base + n], non-
    decreasing, first entry <= t) with row[i] <= t, i.e. the row's
    searchsorted(t, side="right") - 1: one branchless binary search over
    all records at once, about log2(n) gathers."""
    pos = np.zeros(t.shape, dtype=np.int64)
    step = (1 << (n - 1).bit_length()) >> 1
    while step:
        # clamping the probe to the row end keeps every probe in the row;
        # once the row end is taken it stays the answer
        probe = np.minimum(pos + step, n - 1)
        pos = np.where(flat[base + probe] <= t, probe, pos)
        step >>= 1
    return pos


def _solve_cubic_reference(dc, m0, m1, t):
    """Solve H(s) = t on [0, 1] for the monotone Hermite cubic with
    H(0)=0, H(1)=dc, H'(0)=m0, H'(1)=m1 (all arrays), by bisection-
    safeguarded Newton.  Returns (s, sweeps run)."""
    a = m0 + m1 - 2.0 * dc
    b = 3.0 * dc - 2.0 * m0 - m1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(dc > 0.0, t / np.where(dc > 0.0, dc, 1.0), 0.5)
    s = np.clip(s, 0.0, 1.0)
    lo = np.zeros_like(s)
    hi = np.ones_like(s)
    for sweep in range(1, _REF_MAX_SWEEPS + 1):
        val = ((a * s + b) * s + m0) * s - t
        der = (3.0 * a * s + 2.0 * b) * s + m0
        hi = np.where(val > 0.0, s, hi)
        lo = np.where(val <= 0.0, s, lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(der > 0.0, val / np.where(der > 0.0, der, 1.0), 0.0)
        s_new = s - step
        bad = (s_new < lo) | (s_new > hi) | ((der <= 0.0) & (val != 0.0))
        s_new = np.where(bad, 0.5 * (lo + hi), s_new)
        moved = float(np.max(np.abs(s_new - s)))
        s = s_new
        if moved <= _REF_SOLVE_TOL:
            break
    return np.clip(s, 0.0, 1.0), sweep


def invert_reference(x_grid, pdf, cdf, bucket, u):
    """Inverse of the tabulated CDF per record (phase bucket, uniform u):
    the row search clamped to the row's last cell, then the cell's monotone
    Hermite cubic solved for the target."""
    h = x_grid[1] - x_grid[0]
    n = x_grid.size
    cdf = cdf.ravel()
    pdf = pdf.ravel()
    base = bucket * n
    target = u * cdf[base + (n - 1)]
    cell = base + np.minimum(_search_rows_reference(cdf, base, n, target), n - 2)
    c0 = cdf[cell]
    c1 = cdf[cell + 1]
    # Fritsch-Carlson clamp keeps the Hermite cubic monotone
    sec = np.maximum(c1 - c0, 1e-300) / h
    d0 = np.minimum(pdf[cell], 3.0 * sec)
    d1 = np.minimum(pdf[cell + 1], 3.0 * sec)
    s, _ = _solve_cubic_reference(c1 - c0, d0 * h, d1 * h, target - c0)
    return x_grid[cell - base] + s * h

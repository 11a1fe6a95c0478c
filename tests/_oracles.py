"""Reference transforms the tests check the package against.

None of the package's jobs (simulate, estimate, risk, lower bound) calls
these; they are independent routes to quantities the package computes
another way: the Radon transform of a Wigner evaluator (against
``quad_density``), the noisy quadrature density by direct convolution
(against the sampler's records), the Fourier slice of a quadrature density
(against the 2-d transform of W), and the Hilbert-Schmidt distance (against
the L2 distance of Wigner functions).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from wignerscope._quad import gl_panels
from wignerscope.fockspace import DensityMatrix
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

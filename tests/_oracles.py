"""Reference transforms the tests check the package against.

None of the package's jobs (simulate, estimate, risk, lower bound) calls
these; they are independent routes to quantities the package computes
another way: the Radon transform of a Wigner evaluator (against
``quad_density``), the noisy quadrature density by direct convolution
(against the sampler's records), the Fourier slice of a quadrature density
(against the 2-d transform of W), the Hilbert-Schmidt distance (against
the L2 distance of Wigner functions), and the lower bound's base-density
tail mass by its asymptotic series (against the densities' normalization).
``p_alpha_xi`` names the noiseless base density, the eta = 1 case of the
package's one mixture rule.  ``gl_cos_sum_flat_reference`` is a frozen
copy of an earlier fast path, the flat cosine sum before the separable
grid, so that the faster one can be held to its values, and
``recurrence_rows_reference`` is a frozen copy of the three-term
recurrence one row at a time, before ``fockspace._recurrence_blocks``,
with the two coefficient rules it ran (``hermite_psi_reference``,
``laguerre_rows_reference``), so that the block recurrence can be held to
its rows bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from wignerscope._quad import _COS_SUM_BUDGET, _GL_X, _panel_rule, gl_panels
from wignerscope.fockspace import _LAGUERRE_X_ZERO, _LOG2, DensityMatrix
from wignerscope.lowerbound import AlphaXi, _p_mixture
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


def p_alpha_xi(axi: AlphaXi, x):
    """Quadrature density of rho^{alpha,xi} (phase-independent):

        p(x) = int_xi^1 f(z) / sqrt(pi (1 - z^2)) exp(-x^2 (1-z)/(1+z)) dz,

    the eta = 1 case of the lower bound's noisy base density."""
    return _p_mixture(axi, x, 1.0)


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


def gl_cos_sum_flat_reference(y, a: float, b: float, max_width: float, g) -> np.ndarray:
    """``_quad.gl_cos_sum`` on a flat y grid as it shipped before the
    separable grid, frozen so that the one separable path can be held to it:
    a block's cos(y d) and sin(y d) in fresh arrays, two products, two
    row-wise dot products."""
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


def recurrence_rows_reference(n: int, log2_y0: np.ndarray, coef):
    """Rows y_0..y_{n-1}, one at a time, of y_{k+1} = a_k y_k - b_k y_{k-1}
    with (a_k, b_k) = coef(k) and y_{-1} = 0, from y_0 = 2^log2_y0; each
    point carried as mantissa * 2^exponent and rescaled by 2^+-500 after
    rows 1, 49, 97, ... where its last two rows left [2^-500, 2^500]."""
    expo = np.floor(np.nan_to_num(log2_y0, neginf=0.0)).astype(np.int32)
    prev, cur = 0.0, np.exp2(log2_y0 - expo)
    for k in range(n - 1):
        yield np.ldexp(cur, expo)
        a, b = coef(k)
        cur, prev = a * cur - b * prev, cur
        if k % 48 == 0:
            m = np.maximum(np.abs(prev), np.abs(cur))
            shift = np.zeros(m.shape, dtype=np.int32)
            shift[m > 2.0 ** 500] = -500
            shift[(m > 0.0) & (m < 2.0 ** -500)] = 500
            if np.any(shift):
                prev = np.ldexp(prev, shift)
                cur = np.ldexp(cur, shift)
                expo = expo - shift
    yield np.ldexp(cur, expo)


def hermite_psi_reference(j_max: int, x) -> np.ndarray:
    """psi_0..psi_{j_max} at x, a (j_max + 1, len(x)) table, row by row."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    log2_psi0 = -0.25 * math.log2(math.pi) - x * x / (2.0 * _LOG2)
    rows = recurrence_rows_reference(j_max + 1, log2_psi0, lambda k: (
        x * math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1.0))))
    return np.array(list(rows))


def laguerre_rows_reference(j_max: int, d: int, x) -> np.ndarray:
    """b_0^d..b_{j_max}^d at x, a (j_max + 1, len(x)) table, row by row."""
    x = np.minimum(np.atleast_1d(np.asarray(x, dtype=float)), _LAGUERRE_X_ZERO)
    log2_b0 = -x / (2.0 * _LOG2) - 0.5 * math.lgamma(d + 1) / _LOG2
    if d > 0:
        log2_b0 += 0.5 * d * np.log2(x, out=np.full(x.shape, -np.inf), where=x > 0.0)
    rows = recurrence_rows_reference(j_max + 1, log2_b0, lambda j: (
        (2 * j + d + 1 - x) / math.sqrt((j + 1.0) * (j + d + 1.0)),
        math.sqrt(j * (j + d) / ((j + 1.0) * (j + d + 1.0))),
    ))
    return np.array(list(rows))

"""Forward model of homodyne tomography.

Quadrature densities of a state, the detection-noise model, the
supersmooth class and its bandwidth equation, and the weighted-L2
class-membership integral, which takes the log of its profile and joins it
with the class weight in log space.

Density convention: all densities here are conditional-in-x densities
with respect to Lebesgue measure at fixed phase; the uniform phase
Phi ~ U[0, pi] is handled by the sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._quad import gl_panels
from .errors import NumericGuardError, ValidationError
from .fockspace import DensityMatrix, hermite_psi_table

# class_integral: t-blocks of this length, panels of this width, and the
# t at which an unconverged integral gives up
_CLASS_BLOCK = 8.0
_CLASS_PANEL = 0.25
_CLASS_T_CAP = 400.0
# phases per block of quad_density_blocks: bounds the complex block product
# at _PHASE_BLOCK x len(x) values
_PHASE_BLOCK = 64


@dataclass(frozen=True)
class NoiseModel:
    """Detection-efficiency noise: Y = sqrt(eta) X + sqrt((1-eta)/2) xi."""

    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValidationError(f"eta must lie in (0, 1), got {self.eta!r}")

    @property
    def gamma(self) -> float:
        """Deconvolution exponent constant (1-eta)/(4 eta)."""
        return (1.0 - self.eta) / (4.0 * self.eta)


@dataclass(frozen=True)
class SmoothnessClass:
    """Parameters (beta, r, L) of the supersmooth class

        A(beta, r, L) = { W : int |W~(w)|^2 exp(2 beta |w|^r) dw <= (2 pi)^2 L }.
    """

    beta: float
    r: float
    L: float

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValidationError(f"beta must be finite and > 0, got {self.beta!r}")
        if not 0.0 < self.r <= 2.0:
            raise ValidationError(f"r must lie in (0, 2], got {self.r!r}")
        if not 0.0 < self.L < math.inf:
            raise ValidationError(f"L must be finite and > 0, got {self.L!r}")

    @property
    def rhs(self) -> float:
        """Right-hand side (2 pi)^2 L of the class inequality."""
        return (2.0 * math.pi) ** 2 * self.L


def bandwidth_root(cls: SmoothnessClass, noise: NoiseModel, target: float) -> float:
    """The h > 0 with 2 beta / h^r + 2 gamma / h^2 = target (> 0).

    The left side falls in h, so doubling from h = 1 and then halving
    brackets the root; bisection then shrinks the bracket until it holds
    two adjacent doubles.  The lower end is returned: the left side is at
    least target there and below it at the next double up.
    """
    beta, r, gamma = cls.beta, cls.r, noise.gamma

    def g(h):
        return 2.0 * beta / h**r + 2.0 * gamma / h**2 - target

    h_hi = 1.0
    while g(h_hi) >= 0.0:
        h_hi *= 2.0
    h_lo = h_hi
    while g(h_lo) <= 0.0:
        h_lo *= 0.5
        if h_lo < 1e-12:
            raise ValidationError("failed to bracket the bandwidth equation")
    while (mid := 0.5 * (h_lo + h_hi)) not in (h_lo, h_hi):
        if g(mid) >= 0.0:
            h_lo = mid
        else:
            h_hi = mid
    return h_lo


def x_support_radius(dim: int) -> float:
    """Quadrature truncation radius: classical turning point plus margin."""
    return math.sqrt(2.0 * dim) + 6.0


def quad_density_blocks(rho: DensityMatrix, x, phases):
    """p_rho(x | phi) = sum_jk rho_jk psi_j(x) psi_k(x) e^{-i(j-k)phi} for
    an array of phases, yielded as (start, block) pairs: block is the
    (phases[start:start + _PHASE_BLOCK], x) slice of the table.  rho's
    diagonals are walked once, through the decomposition

        p(x | phi) = s_0(x) + 2 Re sum_{d>=1} e^{i d phi} s_d(x),
        s_d(x) = sum_j rho_{j,j+d} psi_j(x) psi_{j+d}(x).

    Only one block's complex product is alive at a time.  A block of two
    or more rows equals those rows of the one-shot product bit for bit; a
    one-row block (one phase, as in quad_density) goes through BLAS's
    matrix-vector path and may differ in the last bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    psi = hermite_psi_table(rho.dim - 1, x)
    profiles = np.zeros((rho.dim, x.size), dtype=complex)
    for d in range(rho.dim):
        diag = np.diagonal(rho.entries, offset=d)
        if np.any(diag):
            profiles[d] = diag @ (psi[: rho.dim - d] * psi[d:])
    del psi
    orders = np.arange(rho.dim)
    for start in range(0, phases.size, _PHASE_BLOCK):
        coeff = np.exp(1j * np.outer(phases[start:start + _PHASE_BLOCK], orders))
        coeff[:, 1:] *= 2.0
        p = (coeff @ profiles).real
        p_min = float(p.min(initial=0.0))      # 0.0 for an empty x
        if p_min < -1e-9:
            raise NumericGuardError(
                f"quadrature density is negative ({p_min:.3e}): broken DensityMatrix"
            )
        np.clip(p, 0.0, None, out=p)
        yield start, p


def quad_density(rho: DensityMatrix, x, phi: float):
    """Quadrature density p_rho(x | phi) at one phase: a float for scalar x,
    else an array over x (the one-phase view of quad_density_blocks)."""
    _, p = next(quad_density_blocks(rho, x, phi))
    return float(p[0, 0]) if np.ndim(x) == 0 else p[0]


@dataclass(frozen=True)
class ClassIntegralResult:
    """Outcome of the class-membership integral in polar coordinates."""

    value: float
    converged: bool
    diagnostic: Optional[str] = None


def class_integral(
    log_profile: Callable[[np.ndarray], np.ndarray],
    cls: SmoothnessClass,
) -> ClassIntegralResult:
    """Weighted L2 integral of a radial Fourier profile W~, given as
    log_profile(t) = log |W~(t)| (-inf where W~ vanishes):

        int_{R^2} |W~(w)|^2 exp(2 beta |w|^r) dw
            = 2 pi int_0^inf t exp(2 log |W~(t)| + 2 beta t^r) dt.

    In log space neither a profile far below the smallest double nor the
    weight far above the largest hides the integrand; where the integrand
    itself overflows or is NaN, the integral ends unconverged.  Integrates block by
    block, stopping once blocks are negligible and decreasing; growth
    across blocks is flagged as divergence.  The first panel is graded,
    t = _CLASS_PANEL v^5, so that a |t|^{2 alpha} cusp at 0 (W~ of
    rho^{alpha,xi}) is smooth in v.
    """
    total = 0.0
    prev_contrib = None
    grow_count = 0
    t0 = 0.0
    while t0 < _CLASS_T_CAP:
        t, w = gl_panels(max(t0, _CLASS_PANEL), t0 + _CLASS_BLOCK, _CLASS_PANEL)
        if t0 == 0.0:   # the graded first panel, t = _CLASS_PANEL v^5
            v, wv = gl_panels(0.0, 1.0, 1.0)
            t = np.concatenate([_CLASS_PANEL * v**5, t])
            w = np.concatenate([5.0 * _CLASS_PANEL * v**4 * wv, w])
        with np.errstate(over="ignore"):   # an overflow ends the integral below
            g = 2.0 * math.pi * t * np.exp(2.0 * np.asarray(log_profile(t), dtype=float)
                                            + 2.0 * cls.beta * t ** cls.r)
            contrib = float(np.dot(w, g))
        if not math.isfinite(contrib):
            what = "is NaN" if math.isnan(contrib) else "overflows"
            return ClassIntegralResult(
                value=total,
                converged=False,
                diagnostic=f"integrand {what} on t in [{t0:.1f}, {t0 + _CLASS_BLOCK:.1f}]",
            )
        total += contrib
        if prev_contrib is not None and contrib > prev_contrib and contrib > 1e-290:
            grow_count += 1
            if grow_count >= 3:
                return ClassIntegralResult(
                    value=total,
                    converged=False,
                    diagnostic=f"integrand growing past t = {t0 + _CLASS_BLOCK:.1f}",
                )
        else:
            grow_count = 0
        if contrib <= 1e-13 * max(total, 1e-300) and prev_contrib is not None:
            return ClassIntegralResult(value=total, converged=True)
        prev_contrib = contrib
        t0 += _CLASS_BLOCK
    return ClassIntegralResult(
        value=total,
        converged=False,
        diagnostic=f"no convergence by t = {_CLASS_T_CAP}",
    )

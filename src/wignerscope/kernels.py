"""Deconvolution kernels for noisy tomographic reconstruction.

The sharp kernel has Fourier multiplier (|t|/2) e^{gamma t^2} on |t| <= 1/h
(deconvolving the Gaussian detection noise while band-limiting the inverse
Radon filter |t|).  The modified variant extends the multiplier over
[1/h, 2/h] with a smooth taper exp(h^2 - 1/(u(2/h - u))), u = |t|, giving a
faster-decaying kernel in real space.

Kernels are evaluated as cosine integrals with oscillation-aware composite
Gauss-Legendre panels, summed panel by panel (``_quad.gl_cos_sum``: angle
addition about each panel midpoint makes the sum over one band segment two
matrix products), and cached in local cubic Hermite tables for the
estimator's inner loop.  The panels are sized from the largest |u| of a
batch and the products group rows, so a value depends on its batch in the
last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quad import cells_eval, gl_cos_sum, hermite_cells
from .errors import BandwidthTooSmallError, TableStepError, ValidationError
from .tomography import NoiseModel

_EXP_CAP = 700.0  # hard guard on the deconvolution exponent
# build_table's check: largest error at _TABLE_CHECKS random mid-node
# points, relative to the table's largest |value|
_TABLE_REL_TOL = 1e-4
_TABLE_CHECKS = 64
# largest table build_table makes; the README's and the benchmark's hold
# 1601 nodes, and the cosine sum behind a table grows with its node count
_MAX_TABLE_NODES = 2**16
VARIANTS = ("sharp", "modified")


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth, noise model and variant of a deconvolution kernel."""

    h: float
    noise: NoiseModel
    variant: str = "sharp"

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise ValidationError(f"bandwidth h must be finite and > 0, got {self.h!r}")
        if self.variant not in VARIANTS:
            raise ValidationError(f"variant must be one of {VARIANTS}")


def _guard(spec: KernelSpec) -> None:
    expo = spec.noise.gamma / spec.h**2
    if spec.variant == "modified":
        expo *= 4.0
    if expo > _EXP_CAP:
        raise BandwidthTooSmallError(
            f"deconvolution exponent {expo:.1f} exceeds {_EXP_CAP:.0f}; "
            f"h = {spec.h} too small for eta = {spec.noise.eta}"
        )


def _panel_width(spec: KernelSpec, u_abs_max: float) -> float:
    # oscillation-aware: resolve both cos(ut) and the band edge structure
    width = spec.h / 8.0
    if u_abs_max > 0.0:
        width = min(width, math.pi / (4.0 * u_abs_max))
    return width


def kernel_eval(spec: KernelSpec, u):
    """Deconvolution kernel of either variant,

        K(u) = (1/2pi) int_0^{1/h} cos(u t) t e^{gamma t^2} dt   (sharp),

    the modified one applying the same convention to the tapered
    multiplier (plateau on [0, 1/h], C^1 taper on [1/h, 2/h]).  Even in u,
    relative accuracy 1e-6 of the scale value K(0).  Each band segment is
    one panel-separable cosine sum (``_quad.gl_cos_sum``).  The panels are
    sized from the largest |u| given, and the sum's matrix products group
    the u values in row blocks, so a value depends on its batch in the
    last bits."""
    _guard(spec)
    gamma, h = spec.noise.gamma, spec.h
    u_arr = np.abs(np.atleast_1d(np.asarray(u, dtype=float)))
    width = _panel_width(spec, float(np.max(u_arr)) if u_arr.size else 0.0)
    vals = gl_cos_sum(u_arr, 0.0, 1.0 / h, width, lambda t: np.exp(np.log(t) + gamma * t * t))
    if spec.variant == "modified":
        def tapered(t):
            taper = h * h - 1.0 / (t * (2.0 / h - t))
            return np.exp(np.log(t) + gamma * t * t + taper)

        vals += gl_cos_sum(u_arr, 1.0 / h, 2.0 / h, width, tapered)
    vals /= 2.0 * math.pi
    return float(vals[0]) if np.ndim(u) == 0 else vals


def kernel_scale(spec: KernelSpec) -> float:
    """Closed-form magnitude scale: the sharp kernel at u = 0 equals
    (e^{gamma/h^2} - 1) / (4 pi gamma)."""
    _guard(spec)
    gamma = spec.noise.gamma
    return math.expm1(gamma / spec.h**2) / (4.0 * math.pi * gamma)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Tabulated kernel on [0, u_max] with local cubic interpolation.

    Lookup uses even symmetry and evaluates the cubic Hermite cell of |u|
    (``_quad.hermite_cells``: node values, seven-point slopes), found by
    index arithmetic: coef holds the (4, cells) Horner coefficients,
    highest power first, cell k starting at k * step.  |u| beyond u_max
    falls back to the exact integral, one value at a time, so every value
    depends on its own u alone.  build_table refuses steps whose measured
    mid-node error exceeds 1e-4 of the kernel scale.
    """

    spec: KernelSpec
    u_max: float
    step: float
    values: np.ndarray
    coef: np.ndarray

    def __call__(self, u):
        u_abs = np.abs(np.atleast_1d(np.asarray(u, dtype=float)))
        # |u| past u_max (and NaN) lands in the last cell and is replaced below
        out = cells_eval(self.coef, self.step, u_abs)
        outside = ~(u_abs <= self.u_max)
        if np.any(outside):
            # one value per call: no value may depend on the rest of its batch
            out[outside] = [kernel_eval(self.spec, v) for v in u_abs[outside]]
        return float(out[0]) if np.ndim(u) == 0 else out


def build_table(spec: KernelSpec, u_max: float, step: Optional[float] = None) -> KernelTable:
    """Tabulate the kernel on a uniform grid and validate the interpolant."""
    _guard(spec)
    if step is None:
        step = spec.h / 8.0
    if not 0.0 < step < u_max < math.inf:
        raise ValidationError(f"need finite u_max > step > 0, got {u_max!r}, {step!r}")
    if u_max / step > _MAX_TABLE_NODES - 1:
        raise ValidationError(
            f"u_max / step = {u_max / step:.3g} asks for more than {_MAX_TABLE_NODES} table nodes"
        )
    n = int(math.ceil(u_max / step)) + 1
    values = kernel_eval(spec, np.arange(n + 3) * step)   # 3 past u_max close the last stencils
    table = KernelTable(
        spec=spec, u_max=(n - 1) * step, step=step, values=values[:n],
        coef=hermite_cells(values, step),
    )
    # accuracy is relative to the variant's own magnitude scale (the
    # modified kernel's K(0) can dwarf the sharp closed form)
    scale = float(np.max(np.abs(table.values)))
    rng = np.random.default_rng(0)
    mids = rng.uniform(0.0, table.u_max, size=_TABLE_CHECKS)
    err = float(np.max(np.abs(table(mids) - kernel_eval(spec, mids))))
    if err > _TABLE_REL_TOL * scale:
        raise TableStepError(
            f"step {step} gives interpolation error {err:.3e} "
            f"> {_TABLE_REL_TOL:.0e} * scale ({scale:.3e})"
        )
    return table

"""Deconvolution kernels for noisy tomographic reconstruction.

The sharp kernel has Fourier multiplier (|t|/2) e^{gamma t^2} on |t| <= 1/h
(deconvolving the Gaussian detection noise while band-limiting the inverse
Radon filter |t|).  The modified variant extends the multiplier over
[1/h, 2/h] with a smooth taper exp(h^2 - 1/(u(2/h - u))), u = |t|, giving a
faster-decaying kernel in real space.  KernelSpec holds the one check of
the multiplier's peak exponent, gamma/h/h (4 gamma/h/h modified; no h under-
or overflows it) <= _EXP_CAP, and of the modified h <= _MAX_TAPER_H.

Kernels are evaluated as cosine integrals with composite 16-point
Gauss-Legendre panels on a separable u grid (``_quad.gl_cos_sum``: angle
addition about each panel midpoint and each row of u makes a row block of
one band segment one matrix product).  Each band segment sizes its own
panels from the largest |u| of a batch: the plateau [0, 1/h] to
min(1/(16h), 2h/gamma, 4/max|u|), the taper [1/h, 2/h] to
min(h/8, pi/(4 max|u|)).  The products group rows, so a value depends on
its batch in the last bits.

For the estimator's inner loop a table caches the kernel: local cubic
Hermite cells on nodes k * step (themselves such a grid), refined to a
table _FINE times denser that a lookup interpolates linearly, two gathers
and one multiply-add a value, into buffers a caller can reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quad import gl_cos_sum, hermite_cells
from .errors import NumericGuardError, ValidationError
from .tomography import NoiseModel

_EXP_CAP = 700.0  # KernelSpec's cap on the deconvolution exponent
# largest modified h: the taper's 1/(u (2/h - u)) overflows past h = 1.4e153
_MAX_TAPER_H = 1e150
# build_table's check: largest error at _TABLE_CHECKS random mid-node
# points, relative to the table's largest |value|
_TABLE_REL_TOL = 1e-4
_TABLE_CHECKS = 64
# nodes per row of build_table's separable grid (16 costs more workspace)
_TABLE_ROW = 4
# fine nodes per cubic cell of a table.  At the default step h/8 the linear
# lookup on them errs by at most 1.5e-6 (sharp, h = 0.1 to 0.5) and 1.3e-5
# (modified, h = 0.15 to 0.4) of max|K|, the cubic cells by 2.9e-7 and 6.5e-6
_FINE = 32
# largest error of a lookup against kernel_eval at the default step,
# relative to max|K|, that the tests hold tables to
_LOOKUP_REL_TOL = 2e-5
# largest table build_table makes; the README's and the benchmark's hold
# 1601 nodes, the cosine sum behind a table grows with its node count, and
# its fine and slope arrays hold _FINE values a node (16 MiB each at the cap)
_MAX_TABLE_NODES = 2**16
# most panels kernel_eval lays on one band segment (2^24 nodes, 128 MiB per
# node array); the README's and the benchmark's kernels need a few thousand
_MAX_PANELS = 2**20
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
        if self.variant == "modified" and self.h > _MAX_TAPER_H:
            raise ValidationError(f"modified variant needs h <= {_MAX_TAPER_H:.0e}, got {self.h!r}")
        expo = (4.0 if self.variant == "modified" else 1.0) * self.noise.gamma / self.h / self.h
        if expo > _EXP_CAP:
            raise NumericGuardError(
                f"deconvolution exponent {expo:.1f} exceeds {_EXP_CAP:.0f}; "
                f"h = {self.h} too small for eta = {self.noise.eta}"
            )


def _panel_widths(spec: KernelSpec, u_abs_max: float) -> tuple[float, float]:
    # (plateau, taper) panel widths.  A 16-node Gauss-Legendre panel over
    # theta rad of cos(ut) errs by about 2.7e-45 (theta/2)^32, so the smooth
    # plateau t e^{gamma t^2} on [0, 1/h] takes at least 16 panels, each
    # spanning at most 4 rad of cos(ut) and a rise of at most 4 in gamma t^2
    # (without that bound K(0) errs by 7e-5 at gamma/h^2 ~ 700).  The
    # taper's essential singularity at 2/h keeps h/8 and pi/4 rad.
    h = spec.h
    plateau = min(1.0 / (16.0 * h), 2.0 * h / spec.noise.gamma)
    taper = h / 8.0
    if u_abs_max > 0.0:
        plateau = min(plateau, 4.0 / u_abs_max)
        taper = min(taper, math.pi / (4.0 * u_abs_max))
    return plateau, taper


def kernel_eval(spec: KernelSpec, u, u_off=None):
    """Deconvolution kernel of either variant,

        K(u) = (1/2pi) int_0^{1/h} cos(u t) t e^{gamma t^2} dt   (sharp),

    the modified one applying the same convention to the tapered
    multiplier (plateau on [0, 1/h], C^1 taper on [1/h, 2/h]).  Even in u,
    relative accuracy 1e-6 of the scale value K(0).  With ``u_off``, K at
    every u[q] + u_off[i] of a separable grid, as a (len(u), len(u_off))
    array.  Each band segment is one cosine sum on that grid
    (``_quad.gl_cos_sum``; without ``u_off``, u_off = [0]) over equal
    panels sized from the largest |u + u_off|: on the plateau no wider than
    min(1/(16h), 2h/gamma, 4/max|u|) (at least 16 panels, at most 4 rad of
    cos(ut) and a rise of at most 4 in gamma t^2 each), on the taper no
    wider than min(h/8, pi/(4 max|u|)).  The sum's matrix products group
    the u values in row blocks, so a value depends on its batch in the
    last bits.  A non-finite |u|, or one whose segment would need more
    than _MAX_PANELS panels, is refused before anything is allocated."""
    gamma, h = spec.noise.gamma, spec.h
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if u_off is None:
        u_arr = np.abs(u_arr)   # K is even: exactly so, value by value
    offsets = np.zeros(1) if u_off is None else np.asarray(u_off, dtype=float)
    u_abs_max = float(np.max(np.abs(np.add.outer(u_arr, offsets)), initial=0.0))
    plateau_width, taper_width = _panel_widths(spec, u_abs_max)
    width = min(plateau_width, taper_width) if spec.variant == "modified" else plateau_width
    if not (math.isfinite(u_abs_max) and width * h * _MAX_PANELS >= 1.0):  # segments are 1/h long
        raise ValidationError(
            f"kernel argument |u| = {u_abs_max:.3g} is not finite or needs more than "
            f"{_MAX_PANELS} panels per band segment at h = {h}"
        )
    vals = gl_cos_sum(u_arr, 0.0, 1.0 / h, plateau_width,
                      lambda t: np.exp(np.log(t) + gamma * t * t), u_off)
    if spec.variant == "modified":
        def tapered(t):
            taper = h * h - 1.0 / (t * (2.0 / h - t))
            return np.exp(np.log(t) + gamma * t * t + taper)

        vals += gl_cos_sum(u_arr, 1.0 / h, 2.0 / h, taper_width, tapered, u_off)
    vals /= 2.0 * math.pi
    return float(vals[0]) if np.ndim(u) == 0 and u_off is None else vals


def kernel_scale(spec: KernelSpec) -> float:
    """Closed-form magnitude scale: the sharp kernel at u = 0 equals
    (e^{gamma/h^2} - 1) / (4 pi gamma)."""
    gamma = spec.noise.gamma
    return math.expm1(gamma / spec.h / spec.h) / (4.0 * math.pi * gamma)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Tabulated kernel on [0, u_max], looked up by linear interpolation.

    values[k] = K(k step) are the nodes.  fine[j] is their local cubic
    Hermite interpolant (``_quad.hermite_cells``: node values, seven-point
    slopes) at u = j step / _FINE, so fine[_FINE k] = values[k], and
    slope[j] = fine[j + 1] - fine[j], with slope[-1] = 0.
    A lookup uses even symmetry and the linear cell of |u| on the fine
    nodes, found by index arithmetic.  |u| beyond u_max (and NaN) falls back
    to the exact integral, one value at a time, so every value depends on
    its own u alone.  build_table refuses steps whose measured lookup error
    exceeds 1e-4 of the kernel scale.
    """

    spec: KernelSpec
    u_max: float
    step: float
    values: np.ndarray
    fine: np.ndarray
    slope: np.ndarray

    def __call__(self, u, out=None, work=None):
        """K at every u, u unchanged.  A caller that looks up many blocks
        can pass ``out``, a float array, and ``work``, a pair of a float and
        an intp array, all of u's shape, and reuse them; the values are the
        same bit for bit."""
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if out is None:
            out = np.empty(u_arr.shape)
        x, cell = work if work is not None else (np.empty(u_arr.shape),
                                                 np.empty(u_arr.shape, np.intp))
        np.abs(u_arr, out=x)
        outside = not x.max(initial=0.0) <= self.u_max   # NaN compares false
        # clamp before scaling: |u| past u_max, NaN and inf land on the last
        # fine node, whose slope is 0, and are replaced below
        np.fmin(x, self.u_max, out=x)
        x /= self.step / _FINE    # a node k step maps to exactly _FINE k
        np.copyto(cell, x, casting="unsafe")   # x >= 0: truncation is floor
        x -= cell
        np.take(self.slope, cell, out=out)
        out *= x
        out += np.take(self.fine, cell, out=x)
        if outside:
            u_abs = np.abs(u_arr)
            far = ~(u_abs <= self.u_max)
            # one value per call: no value may depend on the rest of its batch
            out[far] = [kernel_eval(self.spec, v) for v in u_abs[far]]
        return float(out[0]) if np.ndim(u) == 0 else out


def build_table(spec: KernelSpec, u_max: float, step: Optional[float] = None) -> KernelTable:
    """Tabulate the kernel on a uniform grid and validate the interpolant."""
    if step is None:
        step = spec.h / 8.0
    if not 0.0 < step < u_max < math.inf:
        raise ValidationError(f"need finite u_max > step > 0, got {u_max!r}, {step!r}")
    if u_max / step > _MAX_TABLE_NODES - 1:
        raise ValidationError(
            f"u_max / step = {u_max / step:.3g} asks for more than {_MAX_TABLE_NODES} table nodes"
        )
    n = int(math.ceil(u_max / step)) + 1
    # n + 3 nodes (3 past u_max close the last stencils), k step as the
    # separable grid _TABLE_ROW step m + step j, j < _TABLE_ROW
    rows = -(-(n + 3) // _TABLE_ROW)
    values = kernel_eval(spec, _TABLE_ROW * step * np.arange(rows),
                         step * np.arange(_TABLE_ROW)).ravel()[: n + 3]
    coef = hermite_cells(values, step)
    # every cell at its _FINE offsets in one product, (cells, 4) @ (4, _FINE)
    offsets = step / _FINE * np.arange(_FINE)
    fine = np.append(coef.T @ np.vander(offsets, 4).T, values[n - 1])
    table = KernelTable(
        spec=spec, u_max=(n - 1) * step, step=step, values=values[:n], fine=fine,
        slope=np.append(np.diff(fine), 0.0),
    )
    # accuracy is relative to the variant's own magnitude scale (the
    # modified kernel's K(0) can dwarf the sharp closed form)
    scale = float(np.max(np.abs(table.values)))
    rng = np.random.default_rng(0)
    mids = rng.uniform(0.0, table.u_max, size=_TABLE_CHECKS)
    err = float(np.max(np.abs(table(mids) - kernel_eval(spec, mids))))
    if err > _TABLE_REL_TOL * scale:
        raise ValidationError(
            f"step {step} gives interpolation error {err:.3e} "
            f"> {_TABLE_REL_TOL:.0e} * scale ({scale:.3e})"
        )
    return table

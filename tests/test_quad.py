import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_jacobi

from wignerscope import _quad
from wignerscope import kernels as kn
from wignerscope._quad import gl_cos_sum, gl_panels
from wignerscope.tomography import NoiseModel


def _outer_reference(y, a, b, max_width, g):
    # the full (y x t-node) cosine matrix over the same rule
    t, w = gl_panels(a, b, max_width)
    wg = w * g(t)
    return np.cos(np.multiply.outer(y, t)) @ wg, float(np.sum(np.abs(wg)))


def _width(a, b, y):
    return min((b - a) / 8.0, math.pi / (4.0 * max(float(np.max(np.abs(y))), 1.0)))


class TestClosedForms:
    A, B = 0.3, 7.1

    @pytest.mark.parametrize("y", [np.linspace(-25.0, 25.0, 2049), np.array([0.0]), np.array([3.7])])
    def test_constant(self, y):
        got = gl_cos_sum(y, self.A, self.B, _width(self.A, self.B, y), np.ones_like)
        with np.errstate(invalid="ignore", divide="ignore"):
            want = (np.sin(self.B * y) - np.sin(self.A * y)) / y
        want = np.where(y == 0.0, self.B - self.A, want)
        assert np.max(np.abs(got - want)) <= 1e-12 * (self.B - self.A)

    @pytest.mark.parametrize("y", [np.linspace(-25.0, 25.0, 2049), np.array([0.0]), np.array([3.7])])
    def test_linear(self, y):
        # int_a^b t cos(y t) dt = [t sin(y t) / y + cos(y t) / y^2]_a^b
        a, b = self.A, self.B
        got = gl_cos_sum(y, a, b, _width(a, b, y), lambda t: t)
        with np.errstate(invalid="ignore", divide="ignore"):
            want = (b * np.sin(b * y) - a * np.sin(a * y)) / y + (np.cos(b * y) - np.cos(a * y)) / y**2
        want = np.where(y == 0.0, 0.5 * (b * b - a * a), want)
        assert np.max(np.abs(got - want)) <= 1e-12 * 0.5 * (b * b - a * a)


class TestOuterProductReference:
    @staticmethod
    def _g(t):
        return np.exp(-0.3 * t) * (1.0 + np.sin(2.0 * t))

    @pytest.mark.parametrize(
        "y",
        [np.linspace(0.0, 40.0, 2049), np.array([0.0]), np.array([11.3]), np.linspace(-5.0, 5.0, 17)],
        ids=["2049-rows", "zero", "one-row", "negative"],
    )
    def test_matches(self, y):
        a, b = 1.2, 9.7
        width = _width(a, b, y)
        want, scale = _outer_reference(y, a, b, width, self._g)
        got = gl_cos_sum(y, a, b, width, self._g)
        assert got.shape == y.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_empty_interval_and_empty_y(self):
        assert np.array_equal(gl_cos_sum(np.array([1.0, 2.0]), 3.0, 3.0, 0.1, np.ones_like), [0.0, 0.0])
        assert gl_cos_sum(np.empty(0), 0.0, 1.0, 0.1, np.ones_like).shape == (0,)

    def test_one_panel_blocks_stay_within_budget(self):
        # a rule of one panel still builds (rows x 16) offset arrays, so its
        # blocks hold budget // 16 rows; 2^17 y values in one block would
        # allocate 16 MiB per array
        y = np.linspace(0.0, 1.0, 2**17)
        tracemalloc.start()
        try:
            gl_cos_sum(y, 0.0, 1.0, 2.0, np.ones_like)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * _quad._COS_SUM_BUDGET

    @pytest.mark.parametrize("variant", ["sharp", "modified"])
    def test_kernel_multi_block(self, variant, monkeypatch):
        # kernel_eval against the full cosine matrix of each band segment,
        # each over its own panel width, with a budget small enough to split
        # the u values into many blocks
        spec = kn.KernelSpec(0.25, NoiseModel(0.9), variant)
        h, gamma = spec.h, spec.noise.gamma
        u = np.linspace(0.0, 30.0, 1201)
        plateau_width, taper_width = kn._panel_widths(spec, 30.0)
        monkeypatch.setattr(_quad, "_COS_SUM_BUDGET", 2**12)
        panels = math.ceil((1.0 / h) / plateau_width)
        assert u.size > 2 * (_quad._COS_SUM_BUDGET // panels)
        got = kn.kernel_eval(spec, u)

        def plateau(t):
            return t * np.exp(gamma * t * t)

        def taper(t):
            return t * np.exp(gamma * t * t + h * h - 1.0 / (t * (2.0 / h - t)))

        want, _ = _outer_reference(u, 0.0, 1.0 / h, plateau_width, plateau)
        if variant == "modified":
            want = want + _outer_reference(u, 1.0 / h, 2.0 / h, taper_width, taper)[0]
        want /= 2.0 * math.pi
        assert np.max(np.abs(got - want)) <= 1e-12 * want[0]


class TestJacobiUnit:
    BETAS = np.linspace(-0.49, 0.49, 25)

    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_scipy_roots_jacobi(self, beta):
        s, w = _quad.jacobi_unit(64, beta)
        x, wx = roots_jacobi(64, 0.0, beta)
        assert np.max(np.abs(s - 0.5 * (x + 1.0))) <= 1e-15
        assert np.max(np.abs(w / (wx / 2.0 ** (beta + 1.0)) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("beta", BETAS)
    def test_monomial_moments_are_exact(self, beta):
        # the 64-node rule integrates s^beta s^m exactly for m <= 127
        s, w = _quad.jacobi_unit(64, beta)
        m = np.arange(128)
        moments = np.array([np.dot(w, s**k) for k in m])
        assert np.max(np.abs(moments * (beta + m + 1.0) - 1.0)) <= 1e-13

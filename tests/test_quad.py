import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_jacobi

from _oracles import gl_cos_sum_flat_reference
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


class TestFlatReference:
    # kernel-tab's three kernels: (variant, h, eta), tabulated to 50 in steps of 1/32
    SPECS = [("modified", 0.25, 0.9), ("modified", 0.15, 0.9), ("sharp", 0.1, 0.95)]

    @staticmethod
    def _flat_reference(y, a, b, max_width, g, y_off):
        # kernel_eval passes u_off through; the reference takes a flat grid only
        assert y_off is None
        return gl_cos_sum_flat_reference(y, a, b, max_width, g)

    @pytest.mark.parametrize("variant,h,eta", SPECS)
    def test_kernel_table_bit_equal(self, variant, h, eta, monkeypatch):
        # build_table's nodes (a separable grid) and kernel_eval at its 64
        # check points (u_off = [0]) against the flat sum before the separable
        # grid, relative to K(0)
        spec = kn.KernelSpec(h, NoiseModel(eta), variant)
        step = 0.03125
        table = kn.build_table(spec, 50.0, step)
        n = table.values.size
        checks = np.random.default_rng(0).uniform(0.0, table.u_max, size=kn._TABLE_CHECKS)
        got = kn.kernel_eval(spec, checks)
        monkeypatch.setattr(kn, "gl_cos_sum", self._flat_reference)
        want_nodes = kn.kernel_eval(spec, np.arange(n + 3) * step)[:n]
        want_checks = kn.kernel_eval(spec, checks)
        k0 = want_nodes[0]
        assert np.max(np.abs(table.values - want_nodes)) <= 1e-13 * k0
        assert np.max(np.abs(got - want_checks)) <= 1e-14 * k0


class TestSeparableGrid:
    A, B = 1.2, 9.7

    @staticmethod
    def _grid(kind, n_off):
        # y = y_mid + y_off over [-12, 12]: Gauss-Legendre panels of width
        # 0.3, or 80 cells of width 0.3 split into 16 equal steps
        if kind == "gauss-legendre":
            y_mid, half, _, _ = _quad._panel_rule(-12.0, 12.0, 0.3)
            y_off = half[0] * _quad._GL_X
        else:
            y_mid = -12.0 + 0.3 * np.arange(80)
            y_off = 0.3 / 16.0 * np.arange(16)
        return y_mid, y_off[-n_off:]

    @pytest.mark.parametrize("n_off", [1, 16])
    @pytest.mark.parametrize("kind", ["gauss-legendre", "uniform"])
    def test_matches_outer_reference(self, kind, n_off):
        y_mid, y_off = self._grid(kind, n_off)
        y = np.add.outer(y_mid, y_off)
        width, g = _width(self.A, self.B, y), TestOuterProductReference._g
        got = gl_cos_sum(y_mid, self.A, self.B, width, g, y_off)
        want, scale = _outer_reference(y.ravel(), self.A, self.B, width, g)
        assert got.shape == (y_mid.size, n_off)
        assert np.max(np.abs(got.ravel() - want)) <= 1e-12 * scale

    def test_zero_offset_is_the_flat_sum(self):
        y_mid, _ = self._grid("uniform", 1)
        width = _width(self.A, self.B, y_mid)
        got = gl_cos_sum(y_mid, self.A, self.B, width, np.ones_like, [0.0])
        flat = gl_cos_sum(y_mid, self.A, self.B, width, np.ones_like)
        assert got.shape == (y_mid.size, 1)
        assert np.max(np.abs(got[:, 0] - flat)) <= 1e-12 * (self.B - self.A)

    def test_empty_interval_and_empty_y(self):
        assert np.array_equal(gl_cos_sum([1.0, 2.0], 3.0, 3.0, 0.1, np.ones_like, [0.0, 0.1]),
                              np.zeros((2, 2)))
        assert gl_cos_sum(np.empty(0), 0.0, 1.0, 0.1, np.ones_like, [0.0, 0.1]).shape == (0, 2)


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

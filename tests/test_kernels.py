import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from _oracles import table_lookup_reference
from wignerscope import kernels as kn
from wignerscope._quad import cells_eval, hermite_cells
from wignerscope.errors import NumericGuardError, ValidationError
from wignerscope.tomography import NoiseModel


@pytest.fixture(scope="module")
def nm_half():
    return NoiseModel(0.5)  # gamma = 0.25


@pytest.fixture(scope="module")
def nm_09():
    return NoiseModel(0.9)  # gamma = 1/36


def _noise_ft(nm, t):
    # Fourier transform of the N(0, (1-eta)/2) noise that every kernel divides
    # out: exp(-(1-eta) t^2 / 4) = exp(-gamma eta t^2)
    return math.exp(-nm.gamma * nm.eta * t * t)


class TestNoiseFT:
    def test_gamma_arithmetic(self, nm_09):
        # N~^eta(t/sqrt(eta)) = exp(-gamma t^2); t = 6 gives exp(-36 gamma) = e^{-1}
        t = 6.0 / math.sqrt(0.9)
        assert _noise_ft(nm_09, t) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_against_quadrature_of_density(self, nm_09):
        # numeric Fourier transform of the N(0, (1-eta)/2) density
        from wignerscope._quad import gl_panels

        var = (1.0 - 0.9) / 2.0
        xs, w = gl_panels(-10.0 * math.sqrt(var), 10.0 * math.sqrt(var), 0.02)
        dens = np.exp(-xs * xs / (2 * var)) / math.sqrt(2 * math.pi * var)
        for t in (0.5, 2.0, 5.0):
            numeric = float(np.dot(w, dens * np.cos(t * xs)))
            assert _noise_ft(nm_09, t) == pytest.approx(numeric, abs=1e-10)


class TestSharpKernel:
    def test_closed_form_at_zero(self, nm_half):
        spec = kn.KernelSpec(1.0, nm_half, "sharp")
        expect = (math.exp(0.25) - 1.0) / math.pi  # (e^{gamma/h^2}-1)/(4 pi gamma)
        assert kn.kernel_eval(spec, 0.0) == pytest.approx(expect, rel=1e-9)
        assert kn.kernel_scale(spec) == pytest.approx(expect, rel=1e-14)

    def test_gamma_to_zero_limit(self):
        nm = NoiseModel(0.999999)
        spec = kn.KernelSpec(0.7, nm, "sharp")
        # -> 1/(4 pi h^2) with an O(gamma/h^2) residual
        limit = 1.0 / (4.0 * math.pi * 0.49)
        assert kn.kernel_eval(spec, 0.0) == pytest.approx(limit, rel=1e-6)

    def test_brute_force_riemann_oracle(self, nm_09):
        spec = kn.KernelSpec(0.5, nm_09, "sharp")
        n = 10**6
        ts = (np.arange(n) + 0.5) / n * 2.0
        g = nm_09.gamma
        brute = float(
            np.sum(np.cos(1.3 * ts) * ts * np.exp(g * ts * ts)) * (2.0 / n)
        ) / (2.0 * math.pi)
        got = kn.kernel_eval(spec, 1.3)
        scale = kn.kernel_scale(spec)
        assert abs(got - brute) <= 1e-6 * scale

    @pytest.mark.parametrize("h, eta", [(0.1, 0.95), (0.25, 0.9), (0.5, 0.5), (0.3, 0.99), (0.1, 0.999)])
    def test_faddeeva_closed_form_oracle(self, h, eta):
        # with T = 1/h, F = e^{gamma T^2 + iuT}, s0 = iu/(2 sqrt(gamma)) and
        # s1 = sqrt(gamma) T + s0 (both in the upper half-plane, so w = wofz
        # cannot overflow):
        # K(u) = Re{(F-1)/(2 gamma) - u sqrt(pi)/(4 gamma^{3/2}) (F w(s1) - w(s0))} / 2pi
        from scipy.special import wofz

        spec = kn.KernelSpec(h, NoiseModel(eta), "sharp")
        gamma, big_t = spec.noise.gamma, 1.0 / h
        u = np.arange(1601) / 32.0
        f = np.exp(gamma * big_t**2 + 1j * u * big_t)
        s0 = 1j * u / (2.0 * math.sqrt(gamma))
        s1 = math.sqrt(gamma) * big_t + s0
        closed = ((f - 1.0) / (2.0 * gamma)
                  - u * math.sqrt(math.pi) / (4.0 * gamma**1.5) * (f * wofz(s1) - wofz(s0)))
        want = closed.real / (2.0 * math.pi)
        scale = kn.kernel_scale(spec)
        assert np.max(np.abs(kn.kernel_eval(spec, u) - want)) <= 1e-12 * scale
        table = kn.build_table(spec, 50.0, 1.0 / 32.0)
        assert np.max(np.abs(table.values - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("h, eta", [(0.1, 0.1), (0.019, 0.5)])
    def test_closed_form_at_zero_large_exponent(self, h, eta):
        # gamma / h^2 = 225 and 693: u = 0 alone sets no oscillation bound
        # on the panels, so the rise of gamma t^2 per panel must
        spec = kn.KernelSpec(h, NoiseModel(eta), "sharp")
        assert kn.kernel_eval(spec, 0.0) == pytest.approx(kn.kernel_scale(spec), rel=1e-12)

    @given(st.floats(-20.0, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_even(self, u):
        nm = NoiseModel(0.9)
        spec = kn.KernelSpec(0.5, nm, "sharp")
        assert kn.kernel_eval(spec, u) == kn.kernel_eval(spec, -u)

    @pytest.mark.parametrize("variant", kn.VARIANTS)
    def test_separable_grid_is_the_flat_grid(self, nm_09, variant):
        # u = u_mid + u_off, some negative, the offsets wider than the rows:
        # the panels must follow the largest |u + u_off|, not the largest |u|
        spec = kn.KernelSpec(0.3, nm_09, variant)
        u_mid = np.linspace(-2.0, 3.0, 41)
        u_off = np.array([-150.0, -1.5, 0.0, 0.7, 120.0])
        got = kn.kernel_eval(spec, u_mid, u_off)
        want = kn.kernel_eval(spec, np.add.outer(u_mid, u_off).ravel())
        assert got.shape == (u_mid.size, u_off.size)
        assert np.max(np.abs(got.ravel() - want)) <= 1e-13 * kn.kernel_eval(spec, 0.0)

    def test_overflow_guard(self, nm_half):
        with pytest.raises(NumericGuardError, match="deconvolution exponent 2500.0 exceeds 700"):
            kn.kernel_eval(kn.KernelSpec(0.01, nm_half, "sharp"), 0.0)

    def test_scale_law(self, nm_half):
        # log(K(0) * 4 pi gamma) - gamma/h^2 = log(1 - e^{-gamma/h^2}) -> 0
        resid = []
        for h in (0.5, 0.35, 0.25):
            spec = kn.KernelSpec(h, nm_half, "sharp")
            k0 = kn.kernel_eval(spec, 0.0)
            resid.append(
                abs(math.log(k0 * 4 * math.pi * nm_half.gamma) - nm_half.gamma / h**2)
            )
        assert resid[0] > resid[1] > resid[2]
        assert resid[2] < 0.02


class TestKernelSpec:
    """KernelSpec holds the kernel's one exponent check, gamma/h/h (times 4
    for the modified variant), which no h under- or overflows."""

    @pytest.mark.parametrize("variant", kn.VARIANTS)
    def test_tiny_h_is_a_numeric_guard(self, nm_half, variant):
        # h^2 underflows to 0 at h = 1e-200
        with pytest.raises(NumericGuardError, match="deconvolution exponent inf exceeds 700"):
            kn.KernelSpec(1e-200, nm_half, variant)

    @pytest.mark.parametrize("variant, h", [("sharp", 1e300), ("modified", 1e150)])
    def test_huge_h_is_accepted(self, nm_half, variant, h):
        # h^2 overflows at h = 1e300; gamma/h/h does not
        spec = kn.KernelSpec(h, nm_half, variant)
        assert 0.0 <= kn.kernel_scale(spec) < 1e-300
        table = kn.build_table(spec, 1.0, 0.1)
        assert np.all(np.isfinite(table.values))

    def test_modified_refuses_h_its_taper_overflows(self, nm_half):
        # 1/(u (2/h - u)) overflows on [1/h, 2/h] past h = 1.4e153
        with pytest.raises(ValidationError, match="modified variant needs h <= 1e"):
            kn.KernelSpec(1.4e153, nm_half, "modified")

    @pytest.mark.parametrize("h", [math.inf, -0.5, math.nan, 0.0])
    def test_bad_h_is_a_validation_error(self, nm_half, h):
        with pytest.raises(ValidationError, match="bandwidth h must be finite and > 0"):
            kn.KernelSpec(h, nm_half, "sharp")


class TestModifiedKernel:
    def test_taper_continuity_at_band_edge(self):
        # multiplier value 1 at |t| = 1/h: u(2/h - u) = 1/h^2 exactly
        h = 0.37
        u = 1.0 / h
        assert math.exp(h * h - 1.0 / (u * (2.0 / h - u))) == pytest.approx(1.0, abs=1e-15)

    def test_taper_vanishes_at_outer_edge(self):
        h = 0.37
        u = 2.0 / h - 1e-9
        assert math.exp(h * h - 1.0 / (u * (2.0 / h - u))) < 1e-200

    def test_brute_force_oracle_at_zero(self, nm_09):
        h = 0.5
        spec = kn.KernelSpec(h, nm_09, "modified")
        n = 2 * 10**6
        g = nm_09.gamma
        t1 = (np.arange(n) + 0.5) / n * (1 / h)
        t2 = 1 / h + (np.arange(n) + 0.5) / n * (1 / h)
        taper = np.exp(h * h - 1.0 / (t2 * (2 / h - t2)))
        brute = (
            float(np.sum(t1 * np.exp(g * t1 * t1))) * (1 / h / n)
            + float(np.sum(t2 * np.exp(g * t2 * t2) * taper)) * (1 / h / n)
        ) / (2 * math.pi)
        got = kn.kernel_eval(spec, 0.0)
        assert got == pytest.approx(brute, rel=1e-6)

    @pytest.mark.parametrize("h, eta", [(0.25, 0.9), (0.15, 0.9), (0.5, 0.5)])
    def test_quadpack_cosine_oracle(self, h, eta):
        # QUADPACK's cosine-weighted rule (QAWO) on each band segment; it
        # flags roundoff at this tolerance (full_output returns the flag in
        # place of a warning), yet its values agree with mpmath to 2.6e-15
        # of K(0) at these u
        from scipy.integrate import quad

        gamma = NoiseModel(eta).gamma

        def plateau(t):
            return t * math.exp(gamma * t * t)

        def taper(t):
            if t >= 2.0 / h:
                return 0.0
            return t * math.exp(gamma * t * t + h * h - 1.0 / (t * (2.0 / h - t)))

        def segment(g, a, b, u):
            return quad(g, a, b, weight="cos", wvar=u, epsabs=0.0, epsrel=1e-13, limit=200,
                        full_output=1)[0]

        u = np.array([0.0, 0.7, 3.1, 9.9, 17.3, 29.5, 41.2, 50.0])
        want = np.array([segment(plateau, 0.0, 1.0 / h, v) + segment(taper, 1.0 / h, 2.0 / h, v)
                         for v in u]) / (2.0 * math.pi)
        got = kn.kernel_eval(kn.KernelSpec(h, NoiseModel(eta), "modified"), u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_tail_envelope_faster_decay(self, nm_09):
        # normalized by each kernel's scale, the modified kernel's tail
        # envelope on [10, 50] is smaller; in absolute terms the modified
        # kernel only wins beyond u ~ 40 (its K(0) is ~7.5x larger)
        sharp = kn.KernelSpec(0.25, nm_09, "sharp")
        mod = kn.KernelSpec(0.25, nm_09, "modified")
        uu = np.linspace(10.0, 50.0, 2001)
        env_sharp = np.max(np.abs(kn.kernel_eval(sharp, uu)))
        env_mod = np.max(np.abs(kn.kernel_eval(mod, uu)))
        assert env_mod / kn.kernel_eval(mod, 0.0) < env_sharp / kn.kernel_eval(
            sharp, 0.0
        )
        far = uu >= 40.0
        assert np.max(np.abs(kn.kernel_eval(mod, uu[far]))) < np.max(
            np.abs(kn.kernel_eval(sharp, uu[far]))
        )

    def test_extended_guard(self, nm_half):
        # modified variant guards at 4 gamma / h^2, when the spec is built
        h = math.sqrt(4.0 * 0.25 / 701.0)
        with pytest.raises(NumericGuardError, match="deconvolution exponent 701.0 exceeds 700"):
            kn.KernelSpec(h, nm_half, "modified")
        # the same h is fine for the sharp variant
        kn.kernel_eval(kn.KernelSpec(h, nm_half, "sharp"), 0.0)


class TestKernelTable:
    def test_node_lookup_exact(self, nm_09):
        spec = kn.KernelSpec(0.5, nm_09, "sharp")
        table = kn.build_table(spec, 20.0)
        assert table(5 * table.step) == table.values[5]

    def test_midnode_accuracy(self, nm_09):
        spec = kn.KernelSpec(0.5, nm_09, "sharp")
        table = kn.build_table(spec, 20.0)
        rng = np.random.default_rng(1)
        us = rng.uniform(0.0, 20.0, 200)
        exact = kn.kernel_eval(spec, us)
        scale = kn.kernel_scale(spec)
        assert np.max(np.abs(table(us) - exact)) <= 1e-4 * scale

    def test_out_of_range_fallback(self, nm_09):
        spec = kn.KernelSpec(0.5, nm_09, "sharp")
        table = kn.build_table(spec, 10.0)
        assert table(11.3) == pytest.approx(kn.kernel_eval(spec, 11.3), rel=1e-12)

    @pytest.mark.parametrize("variant,h,eta,u_max,step", [
        ("sharp", 0.5, 0.9, 20.0, None),
        ("sharp", 0.35, 0.9, 12.3, 0.0437),
        ("sharp", 0.142, 0.95, 20.0, None),
        ("modified", 0.4, 0.9, 15.0, None),
        ("modified", 0.15, 0.9, 50.0, None),
    ])
    def test_lookup_within_tolerance_of_kernel_eval(self, variant, h, eta, u_max, step):
        # the exact kernel as the oracle, at random points and at the fine
        # cells' midpoints over the first coarse cells, where |K''| is largest
        spec = kn.KernelSpec(h, NoiseModel(eta), variant)
        table = kn.build_table(spec, u_max, step)
        rng = np.random.default_rng(3)
        fine_mids = (np.arange(8 * kn._FINE) + 0.5) * table.step / kn._FINE
        us = np.concatenate([fine_mids, rng.uniform(0.0, table.u_max, 2000)])
        scale = float(np.max(np.abs(table.values)))
        err = np.max(np.abs(table(us) - kn.kernel_eval(spec, us)))
        assert err <= kn._LOOKUP_REL_TOL * scale
        assert np.array_equal(table(-us), table(us))
        assert table(table.u_max) == table.values[-1]

    @pytest.mark.parametrize("variant,h,u_max,step", [
        ("sharp", 0.5, 20.0, None),
        ("sharp", 0.35, 12.3, 0.0437),
        ("modified", 0.4, 15.0, None),
    ])
    def test_fine_table_is_the_hermite_cells(self, nm_09, variant, h, u_max, step):
        # the fine table, which lookups read, against each cell's Hermite
        # form written out independently: node values K(k s) (K even, three
        # nodes past u_max), seven-point central-difference slopes, the cubic
        # Hermite basis at the _FINE offsets of every cell; then the cells
        # themselves through cells_eval, as chi_squared evaluates its table
        spec = kn.KernelSpec(h, nm_09, variant)
        table = kn.build_table(spec, u_max, step)
        s, n = table.step, table.values.size
        exact = kn.kernel_eval(spec, np.arange(n + 3) * s)
        assert np.max(np.abs(table.values - exact[:n])) <= 1e-13 * exact[0]
        k_all = np.concatenate([table.values, exact[n:]])

        def slope(k):
            f = lambda j: k_all[abs(k + j)]
            return (45 * (f(1) - f(-1)) - 9 * (f(2) - f(-2)) + (f(3) - f(-3))) / (60 * s)

        d = np.array([slope(k) for k in range(n)])

        def hermite(cell, tau):
            return ((2 * tau**3 - 3 * tau**2 + 1) * k_all[cell]
                    + (tau**3 - 2 * tau**2 + tau) * s * d[cell]
                    + (3 * tau**2 - 2 * tau**3) * k_all[cell + 1]
                    + (tau**3 - tau**2) * s * d[cell + 1])

        scale = float(np.max(np.abs(table.values)))
        cell, j = np.divmod(np.arange(table.fine.size - 1), kn._FINE)
        assert np.max(np.abs(table.fine[:-1] - hermite(cell, j / kn._FINE))) <= 1e-14 * scale
        rng = np.random.default_rng(3)
        us = np.concatenate([np.arange(n) * s, [table.u_max], rng.uniform(0.0, table.u_max, 500)])
        cell = np.minimum((us / s).astype(int), n - 2)
        cells = cells_eval(hermite_cells(k_all, s), s, us)
        assert np.max(np.abs(cells - hermite(cell, us / s - cell))) <= 1e-14 * scale
        assert np.array_equal(table.fine[:: kn._FINE], table.values)
        assert np.array_equal(table.slope, np.append(np.diff(table.fine), 0.0))

    def test_lookup_leaves_u_unchanged_and_reuses_buffers(self, nm_09):
        table = kn.build_table(kn.KernelSpec(0.4, nm_09, "sharp"), 10.0)
        rng = np.random.default_rng(5)
        u = rng.uniform(-12.0, 12.0, (3, 50))     # some past u_max = 10
        u[0, :3] = [table.u_max, -table.u_max, 0.0]
        kept = u.copy()
        alone = table(u)
        assert np.array_equal(u, kept)
        out, x, cell = np.empty((3, 50)), np.empty((3, 50)), np.empty((3, 50), np.intp)
        for _ in range(2):    # buffers holding the last call's values
            assert table(u, out=out, work=(x, cell)) is out
            assert np.array_equal(out, alone)
        assert np.array_equal(u, kept)

    @pytest.mark.parametrize("variant,h,eta,u_max,step", [
        ("sharp", 0.35, 0.9, 12.3, 0.0437),
        ("sharp", 0.1, 0.95, 50.0, 0.03125),      # README sharp kernel-table
        ("modified", 0.25, 0.9, 50.0, 0.03125),   # README kernel-table
        ("modified", 0.4, 0.9, 15.0, None),
    ])
    def test_lookup_is_the_frozen_reference(self, variant, h, eta, u_max, step):
        # bit for bit: every fine node (either sign), 1e5 uniform u and
        # +-u_max, where no value is clamped, then a batch with values past
        # u_max, which is clamped and takes kernel_eval there, alone and
        # into caller buffers holding stale values
        table = kn.build_table(kn.KernelSpec(h, NoiseModel(eta), variant), u_max, step)
        rng = np.random.default_rng(11)
        nodes = np.minimum(np.arange(table.fine.size) * (table.step / kn._FINE), table.u_max)
        inside = np.concatenate([nodes, -nodes, rng.uniform(-table.u_max, table.u_max, 10**5),
                                 [table.u_max, -table.u_max]])
        past = np.array([np.nextafter(table.u_max, math.inf), -(table.u_max + 0.5),
                         table.u_max + 3.0])
        mixed = np.concatenate([inside[::97], past])
        for u in (inside, mixed):
            expect = table_lookup_reference(table, u)
            assert np.array_equal(table(u), expect)
            out, x = np.full(u.shape, np.nan), np.full(u.shape, -7.5)
            got = table(u, out=out, work=(x, np.full(u.shape, -1, np.intp)))
            assert got is out and np.array_equal(got, expect)
        assert table(table.u_max) == table_lookup_reference(table, table.u_max)
        assert np.array_equal(table(past), [kn.kernel_eval(table.spec, abs(v)) for v in past])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e308])
    @pytest.mark.parametrize("variant", kn.VARIANTS)
    def test_non_finite_lookup_one_line_error_no_warning(self, nm_09, variant, bad):
        # every table's last fine slope is 0: a NaN or inf that reached the
        # interpolation would meet 0 * inf there
        table = kn.build_table(kn.KernelSpec(0.5, nm_09, variant), 10.0)
        assert table.slope[-1] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="kernel argument") as info:
                table(np.array([0.3, bad, 2.0]))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("variant,h,eta,u_max", [
        ("modified", 0.25, 0.9, 50.0),    # README kernel-table; kernel-tab
        ("modified", 0.15, 0.9, 50.0),    # kernel-tab
        ("sharp", 0.1, 0.95, 50.0),       # kernel-tab
    ])
    def test_midnode_error_within_the_splines(self, variant, h, eta, u_max):
        # the parent construction, a global not-a-knot cubic spline with
        # K'(0) = 0 through the same nodes, as an oracle: the local Hermite
        # cells' largest error at the cell midpoints is no larger
        spec = kn.KernelSpec(h, NoiseModel(eta), variant)
        table = kn.build_table(spec, u_max, 0.03125)
        nodes = np.arange(table.values.size) * table.step
        mids = nodes[:-1] + 0.5 * table.step
        exact = kn.kernel_eval(spec, mids)
        spline = CubicSpline(nodes, table.values, bc_type=((1, 0.0), "not-a-knot"))
        err_table = np.max(np.abs(table(mids) - exact))
        err_spline = np.max(np.abs(spline(mids) - exact))
        assert err_table <= err_spline

    def test_fallback_value_independent_of_batch(self, nm_09):
        spec = kn.KernelSpec(0.5, nm_09, "sharp")
        table = kn.build_table(spec, 10.0)
        alone = table(11.3)
        for others in ([40.0], [3.0, 60.0], [-90.0, 25.0, 0.5]):
            batch = table(np.array(others + [11.3]))
            assert batch[-1] == alone

    def test_even_lookup(self, nm_09):
        spec = kn.KernelSpec(0.4, nm_09, "modified")
        table = kn.build_table(spec, 15.0)
        us = np.array([0.3, 4.7, 9.9])
        assert np.array_equal(table(us), table(-us))

    def test_step_validation_refuses(self, nm_09):
        spec = kn.KernelSpec(0.25, nm_09, "sharp")
        with pytest.raises(ValidationError, match="step 1.0 gives interpolation error"):
            kn.build_table(spec, 20.0, step=1.0)

    def test_fourier_consistency(self, nm_09):
        # Gaussian-windowed Fourier transform of the tabulated kernel
        # matches the exact multiplier convolved with the window transform:
        #   F[K * G](t) = (K~ conv G~)(t), comparing both sides numerically
        # on |t| <= 1/h - 0.1 at h = 0.5, eta = 0.9 (2e-4 relative)
        from wignerscope._quad import gl_panels

        h = 0.5
        spec = kn.KernelSpec(h, nm_09, "sharp")
        table = kn.build_table(spec, 60.0)
        sigma_u = 12.0
        us, wu = gl_panels(-60.0, 60.0, 0.05)
        ku = table(us) * np.exp(-us * us / (2 * sigma_u**2))
        g = nm_09.gamma

        def multiplier(t):
            t = np.abs(t)
            return np.where(t <= 1 / h, 0.5 * t * np.exp(g * t * t), 0.0)

        sigma_t = 1.0 / sigma_u
        ss, ws = gl_panels(-1 / h, 1 / h, 0.002)
        for t in (0.0, 0.6, 1.2, 1.0 / h - 0.1):
            lhs = float(np.dot(wu, ku * np.cos(t * us)))
            gauss = np.exp(-((t - ss) ** 2) / (2 * sigma_t**2)) / (
                math.sqrt(2 * math.pi) * sigma_t
            )
            rhs = float(np.dot(ws, multiplier(ss) * gauss))
            assert abs(lhs - rhs) <= 2e-4 * abs(multiplier(np.array([max(t, 0.3)]))[0]) + 1e-6

    @pytest.mark.parametrize("u_max,step", [
        (math.inf, 0.1), (math.nan, 0.1), (5.0, math.nan), (5.0, 0.0), (0.1, 0.1),
    ])
    def test_range_validation(self, nm_09, u_max, step):
        # NaN and inf must not reach the node count
        spec = kn.KernelSpec(0.5, nm_09, "sharp")
        with pytest.raises(ValidationError):
            kn.build_table(spec, u_max, step)

    @pytest.mark.parametrize("variant", kn.VARIANTS)
    @pytest.mark.parametrize("call", [
        lambda spec: kn.kernel_eval(spec, 1e300),
        lambda spec: kn.kernel_eval(spec, math.inf),
        lambda spec: kn.kernel_eval(spec, [0.0, math.nan]),
        lambda spec: kn.kernel_eval(spec, [0.0, 1.0], [0.5, 1e300]),
        lambda spec: kn.build_table(spec, 10.0)(math.inf),
    ], ids=["1e300", "inf", "nan", "offset-1e300", "table-fallback-inf"])
    def test_unbounded_argument_refused_before_allocation(self, nm_09, variant, call):
        # |u| sizes the panels: an infinite one asks for a panel of width 0,
        # a huge one for more nodes than memory holds
        with pytest.raises(ValidationError, match="kernel argument"):
            call(kn.KernelSpec(0.5, nm_09, variant))

    def test_spec_validation(self, nm_09):
        with pytest.raises(ValidationError):
            kn.KernelSpec(math.inf, nm_09, "sharp")
        with pytest.raises(ValidationError):
            kn.KernelSpec(-0.5, nm_09, "sharp")
        with pytest.raises(ValidationError):
            kn.KernelSpec(0.5, nm_09, "boxcar")

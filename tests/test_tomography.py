import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from _oracles import fourier_slice, noisy_density, radon_numeric
from wignerscope import fockspace as fs
from wignerscope import tomography as tg
from wignerscope._quad import gl_panels
from wignerscope.errors import ValidationError


@pytest.fixture(scope="module")
def vac():
    return fs.materialize(fs.StateSpec.fock(0))


@pytest.fixture(scope="module")
def fock1():
    return fs.materialize(fs.StateSpec.fock(1))


@pytest.fixture(scope="module")
def fock2():
    return fs.materialize(fs.StateSpec.fock(2))


class TestNoiseModel:
    def test_gamma_derived(self):
        nm = tg.NoiseModel(0.9)
        assert nm.gamma == pytest.approx((1 - 0.9) / (4 * 0.9), rel=1e-15)

    def test_eta_range(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValidationError):
                tg.NoiseModel(bad)


class TestQuadDensity:
    def test_vacuum_at_origin(self, vac):
        assert tg.quad_density(vac, 0.0, 1.1) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-13
        )

    def test_fock1_zero_at_origin(self, fock1):
        assert tg.quad_density(fock1, 0.0, 0.7) == 0.0

    def test_fock1_value(self, fock1):
        # psi_1(x)^2 = 2 x^2 e^{-x^2} / sqrt(pi)
        assert tg.quad_density(fock1, 1.0, 0.7) == pytest.approx(
            2.0 * math.exp(-1.0) / math.sqrt(math.pi), rel=1e-12
        )

    def test_normalization(self):
        rho = fs.materialize(fs.StateSpec.cat(3.0))
        xm = tg.x_support_radius(rho.dim)
        xs, w = gl_panels(-xm, xm, 0.1)
        total = float(np.dot(w, tg.quad_density(rho, xs, 0.33)))
        assert total == pytest.approx(1.0 - rho.tail_mass, abs=1e-8)


    def test_empty_point_arrays(self, fock1):
        # no points, no values: like kernel_eval and KernelTable
        got = tg.quad_density(fock1, np.array([]), 0.7)
        assert got.shape == (0,)
        assert fs.wigner_eval_many(fock1, [], []).shape == (0,)


class TestRadon:
    def test_vacuum_line_integral(self, vac):
        w, radius = partial(fs.wigner_eval_many, vac), tg.x_support_radius(vac.dim)
        assert radon_numeric(w, 0.0, 0.0, radius) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-7
        )

    def test_rotation_symmetry(self, fock2):
        w, radius = partial(fs.wigner_eval_many, fock2), tg.x_support_radius(fock2.dim)
        vals = [radon_numeric(w, 0.8, phi, radius) for phi in (0.0, 0.9, 2.2)]
        assert max(vals) - min(vals) < 1e-9

    def test_cross_oracle_fock2(self, fock2):
        w, radius = partial(fs.wigner_eval_many, fock2), tg.x_support_radius(fock2.dim)
        assert radon_numeric(w, 0.5, 1.1, radius) == pytest.approx(
            tg.quad_density(fock2, 0.5, 1.1), abs=1e-6
        )

    def test_radon_equals_quad_density_at_random_points(self):
        # defining property R[W_jk] = p_jk checked through full states
        rng = np.random.default_rng(3)
        for spec in [fs.StateSpec.cat(3.0), fs.StateSpec.coherent(1.5, -0.5),
                     fs.StateSpec.fock(3)]:
            rho = fs.materialize(spec)
            w, radius = partial(fs.wigner_eval_many, rho), tg.x_support_radius(rho.dim)
            for _ in range(33):
                x = rng.uniform(-3.0, 3.0)
                phi = rng.uniform(0.0, math.pi)
                assert radon_numeric(w, x, phi, radius) == pytest.approx(
                    tg.quad_density(rho, x, phi), abs=1e-6
                )

    def test_coverage_error(self, vac):
        w, radius = partial(fs.wigner_eval_many, vac), tg.x_support_radius(vac.dim)
        with pytest.raises(ValueError):
            radon_numeric(w, radius + 1.0, 0.0, radius)


class TestNoisyDensity:
    def test_vacuum_noise_invariance(self, vac):
        # sqrt(eta) N(0,1/2) + N(0,(1-eta)/2) = N(0,1/2)
        for eta in (0.7, 0.9, 0.99):
            nm = tg.NoiseModel(eta)
            assert noisy_density(vac, nm, 0.0, 0.3) == pytest.approx(
                1.0 / math.sqrt(math.pi), abs=1e-8
            )
            assert noisy_density(vac, nm, 1.3, 0.3) == pytest.approx(
                math.exp(-1.3**2) / math.sqrt(math.pi), abs=1e-8
            )

    def test_vanishing_noise_limit(self, fock1):
        nm = tg.NoiseModel(0.999)
        got = noisy_density(fock1, nm, 0.8, 0.2)
        want = tg.quad_density(fock1, 0.8 / math.sqrt(0.999), 0.2)
        # the residual is the physical smoothing ~ sigma^2 |p''| / 2
        assert got == pytest.approx(want, abs=5e-4)

    def test_monte_carlo_oracle_fock1(self, fock1):
        # density of Y = sqrt(eta) X + sqrt((1-eta)/2) xi at y = 0 from
        # 1e7 simulated draws (X by inverse CDF of 2x^2 e^{-x^2}/sqrt(pi))
        rng = np.random.default_rng(12345)
        n = 10**7
        from scipy.special import gammaincinv

        u = rng.random(n)
        xabs = np.sqrt(gammaincinv(1.5, u))
        x = xabs * rng.choice([-1.0, 1.0], size=n)
        eta = 0.9
        y = math.sqrt(eta) * x + math.sqrt((1 - eta) / 2) * rng.standard_normal(n)
        half = 0.05
        hits = np.count_nonzero(np.abs(y) < half)
        dens_mc = hits / (n * 2 * half)
        se = math.sqrt(hits) / (n * 2 * half)
        nm = tg.NoiseModel(eta)
        # compare with the bin-averaged density to avoid binning bias
        ys = np.linspace(-half, half, 21)
        dens = np.mean([noisy_density(fock1, nm, float(t), 0.0) for t in ys])
        assert abs(dens_mc - dens) < 3.0 * se

    def test_normalization_over_y(self, fock2):
        nm = tg.NoiseModel(0.8)
        ym = math.sqrt(0.8) * tg.x_support_radius(fock2.dim) + 6.0
        ys, w = gl_panels(-ym, ym, 0.2)
        vals = np.array([noisy_density(fock2, nm, float(y), 0.4) for y in ys])
        assert float(np.dot(w, vals)) == pytest.approx(1.0, abs=1e-6)


class TestFourierSlice:
    def test_vacuum_characteristic_function(self, vac):
        for t in (0.7, 1.3, 2.9):
            got = fourier_slice(vac, t, 0.4)
            assert got.real == pytest.approx(math.exp(-t * t / 4.0), abs=1e-10)
            assert abs(got.imag) < 1e-10

    def test_normalization_at_zero(self, fock2):
        assert fourier_slice(fock2, 0.0, 0.0).real == pytest.approx(1.0, abs=1e-8)

    def test_bounded_by_one(self):
        rho = fs.materialize(fs.StateSpec.cat(3.0))
        for t in (0.5, 2.0, 6.0):
            assert abs(fourier_slice(rho, t, 1.0)) <= 1.0 + 1e-9

    def test_fourier_slice_matches_wigner_2d_transform(self, fock1):
        # Fourier-slice cross-check: F2[W](t cos phi, t sin phi) equals
        # F1[p(.|phi)](t); evaluate the 2-d transform by radial quadrature
        # of the closed-form Wigner function
        t, phi = 2.0, 0.3
        w_eval, radius = partial(fs.wigner_eval_many, fock1), tg.x_support_radius(fock1.dim)

        def integrand(r):
            # angular integral of e^{i t r cos(theta)} is 2 pi J0(t r)
            from scipy.special import j0

            return 2.0 * math.pi * r * j0(t * r) * w_eval(np.array([r]), np.array([0.0]))[0]

        two_d, _ = quad(integrand, 0.0, radius, limit=300)
        got = fourier_slice(fock1, t, phi)
        assert got.real == pytest.approx(two_d, abs=1e-5)
        assert abs(got.imag) < 1e-10

    def test_convolution_duality(self, fock1):
        # F1[p^eta(., phi)](t) = F1[p(., phi)](t sqrt(eta)) * N~^eta(t)
        nm = tg.NoiseModel(0.9)
        phi = 0.6
        ym = math.sqrt(0.9) * tg.x_support_radius(fock1.dim) + 6.0
        for t in (0.8, 1.7):
            ys, w = gl_panels(-ym, ym, min(0.2, math.pi / (4 * t)))
            dens = np.array([noisy_density(fock1, nm, float(y), phi) for y in ys])
            lhs = complex(np.dot(w, dens * np.exp(1j * t * ys)))
            rhs = fourier_slice(fock1, t * math.sqrt(0.9), phi) * math.exp(
                -(1 - 0.9) * t * t / 4.0
            )
            assert abs(lhs - rhs) < 1e-6


class TestClassIntegral:
    def test_vacuum_closed_form(self):
        cls = tg.SmoothnessClass(0.2, 2.0, 1.0)
        res = tg.class_integral(lambda t: -t * t / 4.0, cls)
        assert res.converged
        assert res.value == pytest.approx(10.0 * math.pi, rel=1e-10)
        assert res.value <= cls.rhs  # 10 pi <= (2 pi)^2

    def test_divergence_flagged_at_quarter(self):
        cls = tg.SmoothnessClass(0.25, 2.0, 1.0)
        res = tg.class_integral(lambda t: -t * t / 4.0, cls)
        assert not res.converged
        assert res.diagnostic

    def test_zero_profile(self):
        cls = tg.SmoothnessClass(0.2, 2.0, 1.0)
        res = tg.class_integral(lambda t: np.full_like(t, -np.inf), cls)
        assert res.value == 0.0
        assert res.converged

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            tg.SmoothnessClass(0.0, 2.0, 1.0)
        with pytest.raises(ValidationError):
            tg.SmoothnessClass(0.5, 2.5, 1.0)
        with pytest.raises(ValidationError):
            tg.SmoothnessClass(0.5, 2.0, -1.0)


class TestSmoothnessClass:
    @pytest.mark.parametrize("beta,r,L", [
        (math.inf, 2.0, 1.0), (math.nan, 2.0, 1.0), (0.0, 2.0, 1.0),
        (0.2, 2.0, math.inf), (0.2, 2.0, math.nan), (0.2, 2.0, -1.0),
        (0.2, 2.5, 1.0), (0.2, math.nan, 1.0),
    ])
    def test_refuses_non_finite_or_out_of_range(self, beta, r, L):
        with pytest.raises(ValidationError):
            tg.SmoothnessClass(beta, r, L)

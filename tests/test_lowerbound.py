import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import betainc, eval_laguerre, gamma as gamma_fn

from _oracles import gl_cos_sum_flat_reference, laguerre_rows_reference, p_alpha_xi, p_tail_mass
from wignerscope import _quad
from wignerscope import fockspace as fs
from wignerscope import lowerbound as lb
from wignerscope import tomography as tg
from wignerscope._quad import gl_panels
from wignerscope.errors import ValidationError


@pytest.fixture(scope="module")
def axi_ref():
    return lb.AlphaXi(0.2, 0.5)


@pytest.fixture(scope="module")
def fixture_objects():
    fx = lb.FROZEN_FIXTURE
    return (
        lb.AlphaXi(fx["alpha"], fx["xi"]),
        lb.BumpSpec(fx["delta"], fx["big_d"]),
        tg.SmoothnessClass(fx["beta"], fx["r"], fx["L"]),
        tg.NoiseModel(fx["eta"]),
        fx["n"],
        fs.MAX_ORDER,
    )


# (alpha, xi, k_max) of the incomplete-beta cross-checks: a mid-range case,
# the fixture's (alpha, xi) and a heavier tail closer to xi = 1
RHO_CASES = [(0.5, 0.3, 200), (0.2, 0.94, fs.MAX_ORDER), (0.05, 0.99, fs.MAX_ORDER)]


class TestRhoDiag:
    def test_alpha_one_xi_zero_special_case(self):
        # rho_kk -> 1/((k+1)(k+2)) as alpha -> 1, xi -> 0
        axi = lb.AlphaXi(1.0 - 1e-12, 1e-14)
        rho = lb.rho_alpha_xi_diag(axi, 10)
        k = np.arange(11)
        assert np.max(np.abs(rho - 1.0 / ((k + 1) * (k + 2)))) < 1e-9

    def test_incomplete_beta_cross_check(self):
        # rho_kk = alpha (1-xi)^{-alpha} B(k+1, alpha+1) (1 - I_xi(k+1, alpha+1))
        for a, xi, k_max in RHO_CASES:
            rho = lb.rho_alpha_xi_diag(lb.AlphaXi(a, xi), k_max)
            k = np.arange(k_max + 1)
            exact = (a * (1.0 - xi) ** -a * beta_fn(k + 1, a + 1.0)
                     * (1.0 - betainc(k + 1, a + 1.0, xi)))
            assert np.max(np.abs(rho / exact - 1.0)) < 1e-10, (a, xi)

    @pytest.mark.parametrize("k_max", [0, 50, fs.MAX_ORDER])
    @pytest.mark.parametrize("a,xi", [case[:2] for case in RHO_CASES])
    def test_tail_mass_incomplete_beta(self, a, xi, k_max):
        # sum_{k > K} rho_kk = alpha (1-xi)^{-alpha} B(K+2, alpha) (1 - I_xi(K+2, alpha))
        exact = (a * (1.0 - xi) ** -a * beta_fn(k_max + 2, a)
                 * (1.0 - betainc(k_max + 2, a, xi)))
        assert lb.rho_tail_mass(lb.AlphaXi(a, xi), k_max) == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_positive_and_subnormalized(self, axi_ref):
        rho = lb.rho_alpha_xi_diag(axi_ref, 2000)
        assert np.all(rho > 0.0)
        assert rho.sum() <= 1.0

    def test_sum_with_tail_is_one(self, axi_ref):
        # heavy k^{-(1+alpha)} tail: partial sum plus the exact tail mass
        rho = lb.rho_alpha_xi_diag(axi_ref, fs.MAX_ORDER)
        total = rho.sum() + lb.rho_tail_mass(axi_ref, fs.MAX_ORDER)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_order_past_max_order_refused(self, axi_ref):
        # one Fock-order budget: the base diagonal and the perturbation stop
        # where laguerre_rows does
        with pytest.raises(ValidationError):
            lb.rho_alpha_xi_diag(axi_ref, fs.MAX_ORDER + 1)
        with pytest.raises(ValidationError):
            lb.tau_diag(lb.BumpSpec(0.1, 1.0), tg.SmoothnessClass(0.5, 1.0, 1.0), 0.2,
                        fs.MAX_ORDER + 1)

    def test_diagonal_asymptotic_power_law_at_200(self, axi_ref):
        rho = lb.rho_alpha_xi_diag(axi_ref, 200)
        asym = 0.2 / 0.5**0.2 * gamma_fn(1.2) * 200.0**-1.2
        assert abs(rho[200] / asym - 1.0) < 0.10


class TestPAlphaXi:
    def test_normalization_with_analytic_tail(self, axi_ref):
        X = 40.0
        xs, w = gl_panels(0.0, X, 0.05)
        body = 2.0 * float(np.dot(w, p_alpha_xi(axi_ref, xs)))
        total = body + 2.0 * p_tail_mass(axi_ref, X)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_density_tail_power_law(self, axi_ref):
        # p(x) |x|^{1+2 alpha} constant-bounded over [5, 50]
        xs = np.linspace(5.0, 50.0, 300)
        ratio = p_alpha_xi(axi_ref, xs) * xs ** (1.0 + 0.4)
        assert math.log(ratio.max() / ratio.min()) <= 0.5

    def test_matched_truncation_series_cross_oracle(self, axi_ref):
        # sum_{k<=K} rho_kk psi_k(x)^2 (Gauss-Jacobi moments + Hermite
        # recurrence) vs int f(z) M_K(z, x) dz (independent z-quadrature of
        # the partial Mehler kernel); disjoint quadrature paths, 1e-8
        K = 400
        rho = lb.rho_alpha_xi_diag(axi_ref, K)
        for x in (0.0, 1.7, 5.0):
            psi_sq = fs.hermite_psi_table(K, np.array([x]))[:, 0] ** 2
            series = float(np.dot(rho, psi_sq))

            def integrand(z):
                zp = z ** np.arange(K + 1)
                f = 0.2 * (1 - z) ** 0.2 / 0.5**0.2
                return f * float(np.dot(zp, psi_sq))

            integral, _ = quad(integrand, 0.5, 1.0, limit=300, epsabs=1e-13)
            assert series == pytest.approx(integral, abs=1e-8)


def _p0_eta_quadpack(a, xi, eta, y):
    """p_0^eta(y) by adaptive QUADPACK in s = (1-z)/(1-xi): the algebraic
    weight s^{alpha-1/2} on [0, s1], where the Gaussian factor has not yet
    decayed, and a plain rule on [s1, 1]."""
    kappa, om = 2.0 * eta - 1.0, 1.0 - xi

    def smooth(s):
        den = 1.0 + kappa - kappa * om * s
        return a * math.sqrt(om / math.pi) * den**-0.5 * math.exp(-y * y * om * s / den)

    s1 = min(1.0, 1.0 / max(y * y * om, 1e-300))
    head = quad(smooth, 0.0, s1, weight="alg", wvar=(a - 0.5, 0.0),
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    tail = 0.0
    if s1 < 1.0:
        tail = quad(lambda s: s ** (a - 0.5) * smooth(s), s1, 1.0,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return head + tail


NOISY_CASES = [(0.2, 0.94, 0.2), (0.2, 0.5, 0.9), (0.3, 0.7, 0.5), (0.5, 0.3, 1e-3),
               (0.2, 0.5, 0.01), (0.05, 0.99, 0.05), (0.9, 0.01, 0.99), (0.21, 0.94, 0.2)]


class TestBaseDensityNoisy:
    @pytest.mark.parametrize("a,xi,eta", NOISY_CASES)
    def test_against_quadpack_oracle(self, a, xi, eta):
        axi = lb.AlphaXi(a, xi)
        cross = 3.0 * math.sqrt(eta)
        ys = np.array([0.0, 0.3, 0.999 * cross, cross, 1.001 * cross, 2.0, 5.0,
                       12.0, 40.0, 120.0])
        got = lb.base_density_noisy(axi, tg.NoiseModel(eta), ys)
        want = np.array([_p0_eta_quadpack(a, xi, eta, y) for y in ys])
        assert np.max(np.abs(got / want - 1.0)) < 1e-10

    def test_eta_one_is_p_alpha_xi(self, axi_ref):
        # the noisy density tends to p_alpha_xi as eta -> 1
        xs = np.array([0.0, 1.0, 2.999, 3.0, 3.001, 10.0, 50.0])
        near = lb.base_density_noisy(axi_ref, tg.NoiseModel(1.0 - 1e-9), xs)
        assert np.max(np.abs(near / p_alpha_xi(axi_ref, xs) - 1.0)) < 1e-8

    @pytest.mark.parametrize("a,xi,eta", NOISY_CASES)
    def test_normalization_with_analytic_tail(self, a, xi, eta):
        axi = lb.AlphaXi(a, xi)
        kappa = 2.0 * eta - 1.0
        Y = 8.0 * math.sqrt((1.0 + kappa * xi) / (1.0 - xi))
        ys, w = gl_panels(0.0, Y, 0.05)
        body = 2.0 * float(np.dot(w, lb.base_density_noisy(axi, tg.NoiseModel(eta), ys)))
        total = body + 2.0 * p_tail_mass(axi, Y, eta=eta)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestWtilde:
    def test_normalization_at_zero(self, axi_ref):
        assert lb.log_wtilde_alpha_xi(axi_ref, 0.0) == 0.0

    def test_against_z_integral_quadrature(self, axi_ref):
        def oracle(t):
            f = lambda z: (
                0.2 * (1 - z) ** 0.2 / 0.5**0.2 / (1 - z)
                * math.exp(-t * t * (1 + z) / (4 * (1 - z)))
            )
            return quad(f, 0.5, 1.0, limit=300)[0]

        for t in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert math.exp(lb.log_wtilde_alpha_xi(axi_ref, t)) == pytest.approx(
                oracle(t), rel=1e-8, abs=0.0
            )

    @pytest.mark.parametrize("alpha,xi,t,ref", [
        # frozen from mpmath (60 digits) of e^{t^2/4} (e^{-c} - c^alpha
        # Gamma(1-alpha, c)), c = t^2 / (2 (1-xi)); each (alpha, xi) has points
        # on both sides of c = 2 - alpha, where the series hands over to the
        # fraction, and points at c >= 400, where the closed form's own
        # cancellation costs 1e-11 to 1e-9 relative
        (0.2, 0.94, 0.001, 0.88774814897537864),
        (0.2, 0.94, 0.1, 0.31295989476500074),
        (0.2, 0.94, 0.46, 0.013512475961924716),
        (0.2, 0.94, 0.47, 0.01215400421727196),
        (0.2, 0.94, 1.0, 6.5486304692351311e-6),
        (0.2, 0.94, 3.0, 6.6717381824021123e-35),
        (0.2, 0.94, 7.0, 4.6982680530252445e-176),      # c = 408
        (0.2, 0.94, 8.0, 7.9076064816739092e-229),      # c = 533
        (0.05, 0.5, 0.01, 0.34921094726322574),
        (0.05, 0.5, 1.39, 0.0042912337628382825),
        (0.05, 0.5, 1.4, 0.0041571601408693759),
        (0.05, 0.5, 5.0, 1.3828285712583055e-11),
        (0.05, 0.5, 20.0, 6.4184436667338204e-135),     # c = 400
        (0.05, 0.5, 25.0, 2.1223829693837603e-208),     # c = 625
        (0.9, 0.3, 0.1, 0.95526537405441793),
        (0.9, 0.3, 1.29, 0.15904358547943425),
        (0.9, 0.3, 1.31, 0.15275062564603426),
        (0.9, 0.3, 10.0, 8.4226057086504662e-23),
        (0.9, 0.3, 24.0, 1.567469195433182e-119),       # c = 411
        (0.9, 0.3, 30.0, 4.6967447591603755e-185),      # c = 643
        (0.5, 0.99, 0.01, 0.87968641565022422),
        (0.5, 0.99, 0.17, 0.046173091569072095),
        (0.5, 0.99, 0.18, 0.036074606307082398),
        (0.5, 0.99, 1.0, 2.4057428397410497e-24),
        (0.5, 0.99, 3.0, 3.8811565356902206e-198),      # c = 450
    ])
    def test_matches_mpmath(self, alpha, xi, t, ref):
        # an absolute error in log W~ is a relative error in W~
        got = lb.log_wtilde_alpha_xi(lb.AlphaXi(alpha, xi), np.array([t]))[0]
        assert got == pytest.approx(math.log(ref), rel=0.0, abs=1e-12)

    def test_nan_is_refused(self, axi_ref):
        with pytest.raises(ValidationError):
            lb.log_wtilde_alpha_xi(axi_ref, np.array([math.nan]))

    def test_infinity_is_zero(self):
        # W~(inf) = 0 beside a finite t, with no RuntimeWarning (tier-1 makes
        # one an error); t = 1e200 overflows t^2 and is 0 as well
        axi = lb.AlphaXi(0.2, 0.94)
        got = lb.log_wtilde_alpha_xi(axi, np.array([math.inf, 1.0, 1e200]))
        assert got[0] == -math.inf and got[2] == -math.inf
        assert got[1] == lb.log_wtilde_alpha_xi(axi, 1.0)
        assert lb.log_wtilde_alpha_xi(axi, math.inf) == -math.inf

    def test_tiny_alpha_cancels_to_zero(self):
        # at alpha = 1e-17, W~ ~ alpha O(1) below c = 2 - alpha is a difference
        # of terms near 1 that rounding can leave <= 0: its log is -inf, a zero
        # contribution, with no RuntimeWarning and no NaN
        axi = lb.AlphaXi(1e-17, 0.94)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lb.log_wtilde_alpha_xi(axi, np.linspace(0.0, 1.0, 101))
            res = lb.base_class_integral(axi, tg.SmoothnessClass(0.1, 2.0, 1.0))
        assert not np.isnan(got).any() and np.isneginf(got).any()
        assert got[0] == 0.0
        assert res.converged and res.diagnostic is None and 0.0 < res.value < 1e-30

    def test_class_membership_xi_near_one(self):
        # for xi close to 1 the base profile belongs to the class
        axi = lb.AlphaXi(0.2, 0.95)
        cls = tg.SmoothnessClass(0.1, 2.0, 1.0)
        res = lb.base_class_integral(axi, cls)
        assert res.converged
        assert res.value <= cls.rhs

    @pytest.mark.parametrize("alpha", [0.2, 0.21])
    def test_class_integral_matches_quadpack(self, fixture_objects, alpha):
        # t W~(t)^2 carries a t^{1 + 2 alpha} cusp at 0, which ungraded
        # panels from t = 0 miss by 6e-6 relative; QUADPACK split at 0.25, 2
        # and 8 (the integrand is below e^{-200} past 8)
        axi, _, cls, _, _, _ = fixture_objects
        axi = lb.AlphaXi(alpha, axi.xi)

        def f(t):
            wt = math.exp(lb.log_wtilde_alpha_xi(axi, t))
            return 2.0 * math.pi * t * wt**2 * math.exp(2.0 * cls.beta * t**cls.r)

        edges = [0.0, 0.25, 2.0, 8.0]
        want = sum(quad(f, a, b, limit=200, epsabs=0.0, epsrel=1e-13)[0]
                   for a, b in zip(edges, edges[1:]))
        res = lb.base_class_integral(axi, cls)
        assert res.converged
        assert abs(res.value / want - 1.0) <= 1e-10

    def test_class_integral_where_the_weight_overflows(self, fixture_objects):
        # at beta = 3, e^{6 t^2} overflows past t = 10.9, where W~^2 has long
        # underflowed; log W~ keeps the integrand finite.  Past 8 it is below
        # e^{-600}, so QUADPACK stops there
        axi, _, cls, _, _, _ = fixture_objects
        cls = tg.SmoothnessClass(3.0, cls.r, cls.L)

        def f(t):
            return 2.0 * math.pi * t * math.exp(lb.log_wtilde_alpha_xi(axi, t)) ** 2 * math.exp(6.0 * t * t)

        edges = [0.0, 0.25, 2.0, 8.0]
        want = sum(quad(f, a, b, limit=200, epsabs=0.0, epsrel=1e-13)[0]
                   for a, b in zip(edges, edges[1:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = lb.base_class_integral(axi, cls)
        assert res.converged and res.diagnostic is None
        assert abs(res.value / want - 1.0) <= 1e-12

    def test_divergent_class_integral_ends_at_overflow(self, fixture_objects):
        # 2 beta = 20 > (1 + xi) / (2 (1 - xi)) = 16.2: the integrand grows as
        # e^{3.8 t^2}, and overflows past t = 13.6, where W~ itself is 0
        axi, _, cls, _, _, _ = fixture_objects
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = lb.base_class_integral(axi, tg.SmoothnessClass(10.0, cls.r, cls.L))
        assert not res.converged and math.isfinite(res.value)
        assert res.diagnostic == "integrand overflows on t in [8.0, 16.0]"

    def test_log_past_underflow(self, axi_ref):
        # W~ underflows at t = 40 (c = 1600) while its log is
        # log alpha + t^2/4 - c + log F(-alpha, c); F's large-c expansion
        # (1 + (a-1)/c + (a-1)(a-2)/c^2) / c drops a term of 2e-9 relative
        a, t = -axi_ref.alpha, 40.0
        c = t * t / (2.0 * (1.0 - axi_ref.xi))
        want = (math.log(axi_ref.alpha) + t * t / 4.0 - c
                + math.log((1.0 + (a - 1.0) / c + (a - 1.0) * (a - 2.0) / c**2) / c))
        got = lb.log_wtilde_alpha_xi(axi_ref, np.array([t, math.inf]))
        assert math.exp(got[0]) == 0.0
        assert abs(got[0] - want) <= 1e-8
        assert got[1] == -math.inf

    def test_fourier_transform_of_p_matches(self, axi_ref):
        # W~(t) = F1[p](t): heavy-tailed oscillatory integral via QUADPACK
        for t in (0.7, 1.5):
            val, _ = quad(
                lambda x: p_alpha_xi(axi_ref, x),
                0.0,
                np.inf,
                weight="cos",
                wvar=t,
                limit=400,
            )
            assert 2.0 * val == pytest.approx(
                math.exp(lb.log_wtilde_alpha_xi(axi_ref, t)), abs=1e-6
            )


class TestBumpAndJ:
    @pytest.mark.parametrize("delta,big_d", [(0.5, math.inf), (0.5, math.nan), (0.5, 2.0)])
    def test_needs_finite_d_above_four_delta(self, delta, big_d):
        with pytest.raises(ValidationError):
            lb.BumpSpec(delta, big_d)

    def test_sandwich_on_grid(self):
        bump = lb.BumpSpec(0.1, 1.0)
        u = np.linspace(-0.5, 1.5, 10**4)
        J = bump.j_value(u)
        inner = ((u >= 0.2) & (u <= 0.8)).astype(float)
        outer = ((u >= 0.1) & (u <= 0.9)).astype(float)
        assert np.all(J >= inner - 1e-12)
        assert np.all(J <= outer + 1e-12)

    def test_c3_bounded_third_derivative(self):
        bump = lb.BumpSpec(0.1, 1.0)
        u = np.linspace(0.0, 1.0, 10**4)
        J = bump.j_value(u)
        h = u[1] - u[0]
        d3 = np.diff(J, n=3) / h**3
        assert np.all(np.isfinite(d3))
        # 7th-order smoothstep: |S'''| <= 840/delta^3 scale, finite
        assert np.max(np.abs(d3)) < 2e6

    def test_derivative_matches_finite_difference(self):
        bump = lb.BumpSpec(0.1, 1.0)
        u = np.linspace(0.05, 0.95, 901)
        h = 1e-6
        fd = (bump.j_value(u + h) - bump.j_value(u - h)) / (2 * h)
        assert np.max(np.abs(fd - bump.j_derivative(u))) < 1e-5

    def test_j_htilde_support_and_plateau(self):
        bump = lb.BumpSpec(0.1, 1.0)
        cls = tg.SmoothnessClass(0.5, 1.0, 1.0)
        ht = 0.2
        # below support
        assert lb.j_htilde(bump, cls, ht, 1 / ht + 0.05) == 0.0
        # plateau: J = 1 exactly
        t = 1 / ht + 0.5
        expect = (
            2.0
            * math.sqrt(math.pi * 0.5 * 1.0 * 1.0)
            * ht**0.5
            * math.exp(0.5 / ht - 2 * 0.5 * t)
        )
        assert lb.j_htilde(bump, cls, ht, t) == pytest.approx(expect, rel=1e-12)

    def test_class_weighted_bound(self):
        # int |J|^2 e^{2 beta t^r} over R^2-polar <= 4 pi^2 L e^{-2 beta delta}
        bump = lb.BumpSpec(0.1, 1.0)
        cls = tg.SmoothnessClass(0.5, 1.0, 1.0)
        iv = 2.0 * math.pi * lb._j_sq_weighted(bump, cls, 0.2)
        assert iv <= 4.0 * math.pi**2 * 1.0 * math.exp(-2 * 0.5 * 0.1)


class TestHtildeSolve:
    def test_r2_closed_form(self):
        # gamma = 0.5 at eta = 1/3; beta = 0.5 -> (log(n log n)/2)^{-1/2}
        nm = tg.NoiseModel(1.0 / 3.0)
        cls = tg.SmoothnessClass(0.5, 2.0, 1.0)
        ht = lb.htilde_solve(cls, nm, 10**4)
        expect = (math.log(10**4 * math.log(10**4)) / 2.0) ** -0.5
        assert ht == pytest.approx(expect, rel=1e-14)
        assert ht == pytest.approx(0.41831, abs=5e-5)

    def test_r1_residual(self):
        nm = tg.NoiseModel(0.9)
        cls = tg.SmoothnessClass(0.5, 1.0, 1.0)
        ht = lb.htilde_solve(cls, nm, 10**6)
        target = math.log(10**6) + math.log(math.log(10**6)) ** 2
        resid = 2 * 0.5 / ht + 2 * nm.gamma / ht**2 - target
        assert abs(resid) <= 1e-12

    def test_monotone_in_n(self):
        nm = tg.NoiseModel(0.9)
        cls = tg.SmoothnessClass(0.3, 1.5, 1.0)
        hts = [lb.htilde_solve(cls, nm, n) for n in (10**3, 10**4, 10**5, 10**6, 10**7)]
        assert all(a > b for a, b in zip(hts, hts[1:]))

    @pytest.mark.parametrize("n", [15, 10**301, 10**400, 100.5],
                             ids=["15", "1e301", "1e400", "100.5"])
    def test_n_outside_range_refused(self, n):
        # past 1e300, n log n overflows and htilde would collapse to 0; n
        # counts records, so it has an integer value
        cls = tg.SmoothnessClass(0.1, 2.0, 1.0)
        with pytest.raises(ValidationError):
            lb.htilde_solve(cls, tg.NoiseModel(0.2), n)


class TestTauDiag:
    def test_k0_brute_force(self):
        bump = lb.BumpSpec(0.1, 1.0)
        cls = tg.SmoothnessClass(0.5, 1.0, 1.0)
        ht = 0.2
        tau = lb.tau_diag(bump, cls, ht, 0)
        lo, hi = lb.j_support(bump, cls, ht)
        n = 10**6
        ts = lo + (np.arange(n) + 0.5) / n * (hi - lo)
        brute = (
            4.0
            * math.pi**2
            * float(np.sum(np.exp(-ts * ts / 4) * ts * lb.j_htilde(bump, cls, ht, ts)))
            * (hi - lo)
            / n
        )
        assert tau[0] == pytest.approx(brute, rel=1e-8)

    def test_perturbation_decay_bound_shrinks_with_htilde(self):
        bump = lb.BumpSpec(0.1, 1.0)
        cls = tg.SmoothnessClass(0.5, 1.0, 1.0)
        ks = np.arange(50, 1001)
        bounds = []
        for ht in (0.3, 0.2, 0.15):
            tau = lb.tau_diag(bump, cls, ht, 1000)
            bounds.append(float(np.max(np.abs(tau[50:]) * ks**1.25)))
        assert all(np.isfinite(bounds))
        assert bounds[0] > bounds[1] > bounds[2]

    def test_finite_where_the_laguerre_polynomials_overflow(self):
        # r = 1, eta = 0.9, n = 1e100: J's support sits near t = 60, where
        # L_k(t^2/2) overflows and e^{-t^2/4} underflows; each tau_kk is
        # finite, and so is every number of the report
        bump, cls = lb.BumpSpec(0.1, 1.0), tg.SmoothnessClass(0.5, 1.0, 1.0)
        noise, n = tg.NoiseModel(0.9), 1e100
        tau = lb.tau_diag(bump, cls, lb.htilde_solve(cls, noise, n), 2000)
        assert np.all(np.isfinite(tau))
        rep = lb.verify_pair(lb.AlphaXi(0.2, 0.95), bump, cls, noise, n)
        assert math.isfinite(rep.positivity_margin)
        json.dumps(rep.to_json_dict(), allow_nan=False)   # raises on NaN or inf

    def test_negative_order_refused(self):
        with pytest.raises(ValidationError):
            lb.tau_diag(lb.BumpSpec(0.1, 1.0), tg.SmoothnessClass(0.5, 1.0, 1.0), 0.2, -1)

    def test_trace_small_at_small_amplitude(self, fixture_objects):
        # trace(tau) = J(0) = 0; the k<=2000 partial sum reaches 1e-6 once
        # the perturbation amplitude is small enough (fixture at n=1e200)
        axi, bump, cls, nm, n, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, 10**200)
        tau = lb.tau_diag(bump, cls, ht, k_max)
        assert abs(tau.sum()) <= 1e-6

    def test_trace_small_at_fixture(self, fixture_objects):
        # partial sums to k_max oscillate with the truncated k^{-5/4} tail;
        # at the fixture amplitude the remainder stays below 1e-5
        axi, bump, cls, nm, n, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, n)
        tau = lb.tau_diag(bump, cls, ht, k_max)
        assert abs(tau.sum()) <= 1e-5

    @staticmethod
    def _nodes_and_weights(fixture_objects, n):
        _, bump, cls, nm, _, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, n)
        t, w = lb._j_rule(bump, cls, ht, math.sqrt(2.0 * k_max + 1.0))
        return t * t / 2.0, w * t * lb.j_htilde(bump, cls, ht, t), ht

    @pytest.mark.parametrize("n", [1e120, 1e160, 1e200])
    def test_table_and_tau_match_the_row_recurrence(self, fixture_objects, n):
        # the Laguerre blocks at the fixture's tau nodes are the rows of the
        # row-at-a-time recurrence, and tau is that table times the weights
        _, bump, cls, _, _, k_max = fixture_objects
        x, weights, ht = self._nodes_and_weights(fixture_objects, n)
        table = laguerre_rows_reference(k_max, 0, x)
        assert np.array_equal(np.concatenate(list(fs.laguerre_blocks(k_max, 0, x))), table)
        assert np.all(lb.tau_diag(bump, cls, ht, k_max) == 4.0 * math.pi**2 * (table @ weights))

    def test_table_past_its_cap_never_enters_the_recurrence(self, fixture_objects,
                                                             monkeypatch):
        _, bump, cls, nm, n, k_max = fixture_objects
        calls = []
        real = fs._recurrence_blocks

        def spy(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(fs, "_recurrence_blocks", spy)
        ht = lb.htilde_solve(cls, nm, n)
        with pytest.raises(ValidationError, match="Laguerre"):
            lb.tau_diag(lb.BumpSpec(0.5, 1844.0), cls, ht, k_max)
        assert calls == []
        lb.tau_diag(bump, cls, ht, k_max)   # the spy sees a table within the cap
        assert calls == [k_max + 1]


# (n, delta, D, beta) of the knot-split rule's oracle checks, beta None for
# the fixture's: the fixture's three n, a plateau ten times wider, and beta = 1
# at n = 1e300, D = 300, where J^2 underflows on J's support and e^{2 beta t^2}
# overflows
J_RULE_CASES = [(1e120, 0.5, 5.0, None), (1e160, 0.5, 5.0, None), (1e200, 0.5, 5.0, None),
                (1e120, 0.5, 50.0, None), (1e300, 0.5, 300.0, 1.0)]


def _knots(bump, cls, ht):
    d, D, r = bump.delta, bump.big_d, cls.r
    return [(ht**-r + u) ** (1.0 / r) for u in (d, 2.0 * d, D - 2.0 * d, D - d)]


def _quad_knots(f, knots, scale=1.0, epsabs=0.0, **kw):
    # QUADPACK on each knot segment of s = scale t, where f is smooth
    return sum(quad(f, scale * a, scale * b, epsabs=epsabs, epsrel=1e-13, limit=200, **kw)[0]
               for a, b in zip(knots[:-1], knots[1:]))


class TestJRule:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_segment_edges_are_the_knots(self, r):
        bump, cls, ht = lb.BumpSpec(0.3, 4.0), tg.SmoothnessClass(0.2, r, 1.0), 0.15
        knots = _knots(bump, cls, ht)
        segments = lb.j_segments(bump, cls, ht, omega=40.0)
        assert [(a, b) for a, b, _ in segments] == list(zip(knots[:-1], knots[1:]))
        assert lb.j_support(bump, cls, ht) == (knots[0], knots[-1])
        u = np.array(knots) ** r - ht**-r
        assert np.allclose(bump.j_value(u), [0.0, 1.0, 1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("n,delta,big_d,beta", J_RULE_CASES,
                             ids=["-".join(str(v) for v in case if v is not None)
                                  for case in J_RULE_CASES])
    def test_integrals_match_quadpack(self, fixture_objects, n, delta, big_d, beta):
        # each integral over J's support against QUADPACK split at the same
        # knots: the scalar ones relative to their value, tau_kk relative to
        # max|tau|, q(y) relative to q(0)
        _, _, cls, nm, _, k_max = fixture_objects
        if beta is not None:
            cls = tg.SmoothnessClass(beta, cls.r, cls.L)
        bump = lb.BumpSpec(delta, big_d)
        ht = lb.htilde_solve(cls, nm, n)
        knots, se, g = _knots(bump, cls, ht), math.sqrt(nm.eta), 1.0 - nm.eta
        beta, r = cls.beta, cls.r
        log_amp = (math.log(2.0 * math.sqrt(math.pi * beta * r * cls.L))
                   + (1.0 - r / 2.0) * math.log(ht) + beta / ht**r)

        def J(t):
            return lb.j_htilde(bump, cls, ht, t)

        def J_weighted(t):   # J(t) e^{beta t^r}, neither factor out of range
            return bump.j_value(t**r - ht**-r) * math.exp(log_amp - beta * t**r)

        def d(s):   # d/ds of J(sqrt(eta) s) e^{-(1-eta) s^2/4}
            dj = se * float(lb.j_htilde_derivative(bump, cls, ht, se * s)[0])
            return (dj - g * s / 2.0 * J(se * s)) * math.exp(-g * s * s / 4.0)

        def profile(s):
            return J(se * s) * math.exp(-g * s * s / 4.0)

        scalar = {
            "sep": (lb.sep_at_origin(bump, cls, ht),
                    _quad_knots(lambda t: t * J(t), knots) / math.pi),
            "j_sq": (lb._j_sq_weighted(bump, cls, ht),
                     _quad_knots(lambda t: t * J_weighted(t) ** 2, knots)),
            "l2": (lb.perturbation_l2(bump, cls, nm, ht),
                   4.0 / math.pi * _quad_knots(lambda s: profile(s) ** 2, knots, 1.0 / se)),
            "tail": (lb.tail_control_term(bump, cls, nm, ht),
                     4.0 / math.pi * _quad_knots(lambda s: d(s) ** 2, knots, 1.0 / se)),
        }
        for name, (value, oracle) in scalar.items():
            assert abs(value / oracle - 1.0) <= 1e-12, name

        tau = lb.tau_diag(bump, cls, ht, k_max)
        scale = float(np.max(np.abs(tau)))
        for k in (0, 1, 700, 1400, 1900, k_max):
            oracle = 4.0 * math.pi**2 * _quad_knots(
                lambda t: eval_laguerre(k, t * t / 2.0) * math.exp(-t * t / 4.0) * t * J(t),
                knots, epsabs=1e-16 * scale)
            assert abs(tau[k] - oracle) <= 1e-12 * scale, k

        ys = np.array([0.0, 3.7, 41.3, lb._CHI2_Y_MAX])
        q = lb.perturbation_profile_noisy(bump, cls, nm, ht, ys)
        q0 = _quad_knots(profile, knots, 1.0 / se) / math.pi
        for y, value in zip(ys[1:], q[1:]):
            oracle = _quad_knots(lambda s: profile(s) * math.cos(y * s), knots, 1.0 / se,
                                 epsabs=1e-13 * abs(q0)) / math.pi
            assert abs(value - oracle) <= 1e-12 * abs(q0), y
        assert abs(q[0] - q0) <= 1e-12 * abs(q0)


class TestJRuleCaps:
    """At the fixture, bump (0.5, D) with tau's frequency at MAX_ORDER: D =
    19,899 lays exactly _MAX_J_NODES nodes and D = 1843 a Laguerre table of
    exactly (MAX_ORDER + 1) x 16,768 values; one unit of D more is one panel
    past either cap, refused before the rule or the table is built."""

    @staticmethod
    def _tau_nodes(fixture_objects, big_d):
        # the nodes j_segments' rule lays: 16 a panel, as in gl_panels
        _, _, cls, nm, n, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, n)
        segments = lb.j_segments(lb.BumpSpec(0.5, big_d), cls, ht, math.sqrt(2.0 * k_max + 1.0))
        return sum(16 * math.ceil((b - a) / w) for a, b, w in segments)

    def test_rule_one_panel_past_its_cap(self, fixture_objects):
        assert self._tau_nodes(fixture_objects, 19899.0) == lb._MAX_J_NODES
        with pytest.raises(ValidationError, match="nodes"):
            self._tau_nodes(fixture_objects, 19900.0)

    def test_tau_table_one_panel_past_its_cap(self, fixture_objects):
        _, _, cls, nm, n, k_max = fixture_objects
        nodes = lb._MAX_TAU_VALUES // (k_max + 1)
        assert self._tau_nodes(fixture_objects, 1843.0) == nodes
        assert self._tau_nodes(fixture_objects, 1844.0) == nodes + 16
        with pytest.raises(ValidationError, match="Laguerre"):
            lb.tau_diag(lb.BumpSpec(0.5, 1844.0), cls, lb.htilde_solve(cls, nm, n), k_max)


class TestChi2Caps:
    def test_y_rule_at_its_cap(self):
        # 120 / (pi / (4 t_hi)) panels: 65535.5 rounds up to 2^16 panels,
        # 2^20 nodes, and 65536.5 to one panel more
        y_mid, y_off, w = lb._chi2_grid(math.pi * 65535.5 / 480.0)
        assert w.size == y_mid.size * y_off.size == lb._MAX_CHI2_Y_NODES
        with pytest.raises(ValidationError, match="y rule"):
            lb._chi2_grid(math.pi * 65536.5 / 480.0)

    def test_cap_inside_chi_squared_is_refused(self, fixture_objects):
        # J's noisy rule inside chi^2 past its cap is an error, not a false
        # chi^2 verdict
        axi, _, cls, _, n, _ = fixture_objects
        with pytest.raises(ValidationError, match="J's rule"):
            lb.verify_pair(axi, lb.BumpSpec(0.5, 200.0), cls, tg.NoiseModel(0.01), n)

    def test_degenerate_model_is_a_value(self, fixture_objects):
        axi, bump, _, nm, _, _ = fixture_objects
        cls = tg.SmoothnessClass(0.111111111111, 2.0, 1e9)
        chi = lb.chi_squared(axi, bump, cls, nm, lb.htilde_solve(cls, nm, 10**6))
        assert chi["chi2"] == math.inf and chi["error"].startswith("p_1^eta not positive")


class TestMehler:
    @pytest.mark.parametrize("z", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("x", [0.0, 1.0, 2.5])
    def test_identity(self, z, x):
        psi_sq = fs.hermite_psi_table(400, np.array([x]))[:, 0] ** 2
        lhs = float(np.dot(z ** np.arange(401), psi_sq))
        rhs = math.exp(-x * x * (1 - z) / (1 + z)) / math.sqrt(
            math.pi * (1 - z * z)
        )
        assert lhs == pytest.approx(rhs, abs=1e-8)


def _flat_reference(y, a, b, max_width, g, y_off=None):
    # perturbation_profile_noisy's flat calls, through the sum before the separable grid
    assert y_off is None
    return gl_cos_sum_flat_reference(y, a, b, max_width, g)


# verify_pair's chi2_times_n at the fixture for n = 10^decade, frozen from
# chi_squared's profile on the flat y grid, before the separable one
CHI2_TIMES_N = {120: 0.5639928382061586, 140: 0.4850293896074903,
                160: 0.424713012852275, 200: 0.3377083703744035}


class TestVerifyPair:
    def test_frozen_fixture_all_verdicts(self, fixture_objects):
        axi, bump, cls, nm, n, k_max = fixture_objects
        rep = lb.verify_pair(axi, bump, cls, nm, n)
        assert rep.verdicts["positivity"], rep.positivity_margin
        assert rep.verdicts["class"], (rep.class_lhs, rep.class_rhs)
        assert rep.verdicts["separation"], (rep.separation, rep.separation_threshold)
        assert rep.verdicts["chi2"], rep.chi2_times_n
        assert all(rep.to_json_dict()["verdicts"].values())

    def test_forced_violation(self, fixture_objects):
        # tau scales with sqrt(L): L x 1e6 is the perturbation x 1000
        axi, bump, cls, nm, n, k_max = fixture_objects
        big = tg.SmoothnessClass(cls.beta, cls.r, cls.L * 1e6)
        rep = lb.verify_pair(axi, bump, big, nm, n)
        assert not rep.verdicts["positivity"]

    def test_chi2_linear_in_n(self, fixture_objects):
        axi, bump, cls, nm, n, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, n)
        chi = lb.chi_squared(axi, bump, cls, nm, ht)["chi2"]
        assert 10 * n * chi == pytest.approx(10.0 * (n * chi), rel=1e-15)

    def test_l2_term_envelope(self, fixture_objects):
        # ||p2 - p1||^2 decreases in htilde and tracks the envelope
        # exp(-2 beta/h^r - (1-eta) h^{-2}/(2 eta)) h^{2-r} up to an
        # additive constant of 3 in log
        axi, bump, cls, nm, n, k_max = fixture_objects
        resid = []
        prev = None
        for ht in (0.3, 0.2, 0.15):
            l2 = lb.perturbation_l2(bump, cls, nm, ht)
            if prev is not None:
                assert l2 < prev
            prev = l2
            env = (
                -2 * cls.beta / ht**cls.r
                - (1 - nm.eta) / (2 * nm.eta * ht**2)
                + (2 - cls.r) * math.log(ht)
            )
            resid.append(math.log(l2) - env)
        assert max(resid) - min(resid) <= 3.0

    def test_l2_and_tail_terms_match_y_quadrature(self, fixture_objects):
        # both closed t-integrals against direct quadrature in y of
        # p_2 - p_1 = 2q over the full line, q even: 8 int_0^Y (1, y^2) q^2 dy;
        # at n = 1e20 the y^2-weighted mass past Y = 400 is below 1e-6 of it
        axi, bump, cls, nm, n, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, 10**20)
        ys, w = gl_panels(0.0, 400.0, 0.2)
        q = lb.perturbation_profile_noisy(bump, cls, nm, ht, ys)
        l2 = 8.0 * float(np.dot(w, q * q))
        tail = 8.0 * float(np.dot(w, ys * ys * q * q))
        # both terms are ~1e-20: abs=0 keeps approx's 1e-12 default floor off
        assert lb.perturbation_l2(bump, cls, nm, ht) == pytest.approx(l2, rel=1e-5, abs=0.0)
        assert lb.tail_control_term(bump, cls, nm, ht) == pytest.approx(tail, rel=1e-5, abs=0.0)

    def test_perturbation_profile_blocked_equals_one_shot(self, fixture_objects, monkeypatch):
        # chi_squared's own y grid spanning more than two blocks in every knot
        # segment: a block holds at most budget // max(panels, 16) <= budget // 16 rows
        axi, bump, cls, nm, n, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, n)
        ys, _ = gl_panels(0.0, lb._CHI2_Y_MAX, lb._CHI2_PANEL)
        rows = _quad._COS_SUM_BUDGET // 16
        assert ys.size > 2 * rows
        blocked = lb.perturbation_profile_noisy(bump, cls, nm, ht, ys)
        monkeypatch.setattr(_quad, "_COS_SUM_BUDGET", 2**62)   # one block
        one_shot = lb.perturbation_profile_noisy(bump, cls, nm, ht, ys)
        assert np.array_equal(blocked, one_shot)

    def test_perturbation_profile_flat_grid_bit_equal(self, fixture_objects, monkeypatch):
        # chi_squared's grid as a flat array of nodes takes the flat path,
        # bit for bit the sum before the separable grid
        axi, bump, cls, nm, n, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, n)
        width = min(lb._CHI2_PANEL, math.pi / (4.0 * lb.j_support(bump, cls, ht)[1]))
        ys, _ = gl_panels(0.0, lb._CHI2_Y_MAX, width)
        got = lb.perturbation_profile_noisy(bump, cls, nm, ht, ys)
        monkeypatch.setattr(lb, "gl_cos_sum", _flat_reference)
        assert np.array_equal(got, lb.perturbation_profile_noisy(bump, cls, nm, ht, ys))

    def test_perturbation_profile_separable_blocked_equals_one_shot(self, fixture_objects,
                                                                   monkeypatch):
        # chi_squared's separable grid: at a budget of 2^14 every knot segment
        # takes several row blocks, at the default the widest one does
        axi, bump, cls, nm, n, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, n)
        y_mid, y_off, _ = lb._chi2_grid(lb.j_support(bump, cls, ht)[1])
        segments = lb.j_segments(bump, cls, ht, lb._CHI2_Y_MAX, 1.0 / math.sqrt(nm.eta))
        panels = [math.ceil((b - a) / w) for a, b, w in segments]
        assert y_mid.size > 2 * (2**14 // (y_off.size * min(panels)))
        assert y_mid.size > 2 * (_quad._COS_SUM_BUDGET // (y_off.size * max(panels)))
        results = []
        for budget in (2**14, _quad._COS_SUM_BUDGET, 2**62):   # the last is one block
            monkeypatch.setattr(_quad, "_COS_SUM_BUDGET", budget)
            results.append(lb.perturbation_profile_noisy(bump, cls, nm, ht, y_mid, y_off))
        assert all(np.array_equal(r, results[-1]) for r in results)

    @pytest.mark.parametrize("decade", [120, 160, 200])
    def test_separable_profile_matches_quadpack(self, fixture_objects, monkeypatch, decade):
        # chi_squared's q on its own grid against QUADPACK split at the knots,
        # relative to q(0): at the nodes nearest y = 3.7, 41.3 and 120, and at
        # the node where it moved most from the flat sum on gl_panels' nodes
        axi, bump, cls, nm, _, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, 10**decade)
        knots, se, g = _knots(bump, cls, ht), math.sqrt(nm.eta), 1.0 - nm.eta
        y_mid, y_off, _ = lb._chi2_grid(knots[-1])
        y = np.add.outer(y_mid, y_off).ravel()
        q = lb.perturbation_profile_noisy(bump, cls, nm, ht, y_mid, y_off).ravel()
        y_flat, _ = gl_panels(0.0, lb._CHI2_Y_MAX, min(lb._CHI2_PANEL, math.pi / (4.0 * knots[-1])))
        monkeypatch.setattr(lb, "gl_cos_sum", _flat_reference)
        q_flat = lb.perturbation_profile_noisy(bump, cls, nm, ht, y_flat)
        nodes = [int(np.argmin(np.abs(y - v))) for v in (3.7, 41.3, lb._CHI2_Y_MAX)]
        nodes.append(int(np.argmax(np.abs(q - q_flat))))

        def profile(s):
            return float(lb.j_htilde(bump, cls, ht, se * s)) * math.exp(-g * s * s / 4.0)

        q0 = _quad_knots(profile, knots, 1.0 / se) / math.pi
        for k in nodes:
            oracle = _quad_knots(lambda s: profile(s) * math.cos(y[k] * s), knots, 1.0 / se,
                                 epsabs=1e-13 * abs(q0)) / math.pi
            assert abs(q[k] - oracle) <= 1e-12 * abs(q0), y[k]

    @pytest.mark.parametrize("decade", sorted(CHI2_TIMES_N))
    def test_bench_decades(self, fixture_objects, decade):
        # lb-fixture's decades: all four verdicts, and n chi^2 within 1e-13 of
        # its value on the flat y grid
        axi, bump, cls, nm, _, k_max = fixture_objects
        rep = lb.verify_pair(axi, bump, cls, nm, 10**decade)
        assert all(rep.to_json_dict()["verdicts"].values())
        assert abs(rep.chi2_times_n / CHI2_TIMES_N[decade] - 1.0) <= 1e-13

    def test_chi2_verdict_counts_tail_estimate(self, fixture_objects):
        # with tau x 1.315 (L x 1.315^2), n chi^2 alone stays <= 1, chi^2
        # plus its tail does not
        axi, bump, cls, nm, n, k_max = fixture_objects
        big = tg.SmoothnessClass(cls.beta, cls.r, cls.L * 1.315**2)
        rep = lb.verify_pair(axi, bump, big, nm, n)
        tail_n = n * rep.diagnostics["chi2_tail_estimate"]
        assert rep.chi2_times_n <= 1.0 < rep.chi2_times_n + tail_n
        assert not rep.verdicts["chi2"]

    def test_separation_structure_bound(self, fixture_objects):
        axi, bump, cls, nm, n, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, n)
        sep = lb.sep_at_origin(bump, cls, ht)
        bound = (
            2.0
            * math.sqrt(cls.L / (4 * math.pi * cls.beta * cls.r))
            * ht ** ((cls.r - 2) / 2)
            * math.exp(-cls.beta / ht**cls.r)
            * (
                math.exp(-4 * cls.beta * bump.delta)
                - math.exp(-2 * cls.beta * (bump.big_d - 2 * bump.delta))
            )
            * 0.9
        )
        assert sep >= bound

    def test_normalization_chain(self, fixture_objects):
        # W~(0) = 1 <-> int p = 1 <-> sum rho_kk = 1, tail-compensated
        axi, bump, cls, nm, n, k_max = fixture_objects
        assert lb.log_wtilde_alpha_xi(axi, 0.0) == 0.0
        rho = lb.rho_alpha_xi_diag(axi, fs.MAX_ORDER)
        assert rho.sum() + lb.rho_tail_mass(axi, fs.MAX_ORDER) == pytest.approx(
            1.0, abs=1e-6
        )
        X = 8.0 * math.sqrt((1 + axi.xi) / (1 - axi.xi))
        xs, w = gl_panels(0.0, X, 0.05)
        body = 2.0 * float(np.dot(w, p_alpha_xi(axi, xs)))
        assert body + 2.0 * p_tail_mass(axi, X) == pytest.approx(1.0, abs=1e-6)

    def test_r_below_two_branch_runs(self):
        # finite-n corrections make the verdicts fail for r < 2 at
        # reachable n; the report must still be computed coherently
        axi = lb.AlphaXi(0.2, 0.95)
        bump = lb.BumpSpec(0.1, 1.0)
        cls = tg.SmoothnessClass(0.5, 1.0, 0.47)
        nm = tg.NoiseModel(0.9)
        rep = lb.verify_pair(axi, bump, cls, nm, 10**6)
        assert math.isfinite(rep.htilde)
        assert math.isfinite(rep.separation)
        assert rep.separation_threshold > 0.0
        assert rep.chi2_times_n >= 0.0
        # verdicts are data, not exceptions
        assert all(isinstance(v, bool) for v in rep.to_json_dict()["verdicts"].values())

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            lb.AlphaXi(0.0, 0.5)
        with pytest.raises(ValidationError):
            lb.AlphaXi(0.2, 1.0)
        with pytest.raises(ValidationError):
            lb.BumpSpec(0.3, 1.0)  # D <= 4 delta

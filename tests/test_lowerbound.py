import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import betainc, gamma as gamma_fn

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
        fx["k_max"],
    )


class TestRhoDiag:
    def test_alpha_one_xi_zero_special_case(self):
        # rho_kk -> 1/((k+1)(k+2)) as alpha -> 1, xi -> 0
        axi = lb.AlphaXi(1.0 - 1e-12, 1e-14)
        rho = lb.rho_alpha_xi_diag(axi, 10)
        k = np.arange(11)
        assert np.max(np.abs(rho - 1.0 / ((k + 1) * (k + 2)))) < 1e-9

    def test_incomplete_beta_cross_check(self):
        axi = lb.AlphaXi(0.5, 0.3)
        rho = lb.rho_alpha_xi_diag(axi, 200)
        k = np.arange(201)
        exact = (
            0.5
            / 0.7**0.5
            * beta_fn(k + 1, 1.5)
            * (1.0 - betainc(k + 1, 1.5, 0.3))
        )
        assert np.max(np.abs(rho / exact - 1.0)) < 1e-10

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
        # where laguerre_table does
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
        body = 2.0 * float(np.dot(w, lb.p_alpha_xi(axi_ref, xs)))
        total = body + 2.0 * lb.p_tail_mass(axi_ref, X)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_density_tail_power_law(self, axi_ref):
        # p(x) |x|^{1+2 alpha} constant-bounded over [5, 50]
        xs = np.linspace(5.0, 50.0, 300)
        ratio = lb.p_alpha_xi(axi_ref, xs) * xs ** (1.0 + 0.4)
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

    def test_two_form_agreement_at_crossover(self, axi_ref):
        # small-x and large-x quadrature branches agree near |x| = 3
        left = lb._p_small_x(axi_ref, np.array([2.999, 3.0]))
        right = lb._p_large_x(axi_ref, np.array([2.999, 3.0]))
        assert np.max(np.abs(left - right)) < 1e-10


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


NOISY_CASES = [(0.2, 0.94, 0.2), (0.2, 0.5, 0.9), (0.3, 0.7, 0.5)]


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
        # the generalized branches at eta = 1 are p_alpha_xi, and the noisy
        # density tends to it as eta -> 1
        xs = np.array([0.0, 1.0, 2.999, 3.0, 3.001, 10.0, 50.0])
        small = xs <= 3.0
        branches = np.concatenate([
            lb._p_small_x(axi_ref, xs[small], 1.0),
            lb._p_large_x(axi_ref, xs[~small], 1.0),
        ])
        assert np.array_equal(branches, lb.p_alpha_xi(axi_ref, xs))
        near = lb.base_density_noisy(axi_ref, tg.NoiseModel(1.0 - 1e-9), xs)
        assert np.max(np.abs(near / lb.p_alpha_xi(axi_ref, xs) - 1.0)) < 1e-8

    @pytest.mark.parametrize("eta", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("xi", [0.5, 0.94])
    def test_two_form_agreement_at_crossover(self, xi, eta):
        axi = lb.AlphaXi(0.2, xi)
        cross = 3.0 * math.sqrt(eta)
        ys = np.array([0.999 * cross, cross])
        left = lb._p_small_x(axi, ys, eta)
        right = lb._p_large_x(axi, ys, eta)
        assert np.max(np.abs(left - right)) < 1e-10

    @pytest.mark.parametrize("a,xi,eta", NOISY_CASES)
    def test_normalization_with_analytic_tail(self, a, xi, eta):
        axi = lb.AlphaXi(a, xi)
        kappa = 2.0 * eta - 1.0
        Y = 8.0 * math.sqrt((1.0 + kappa * xi) / (1.0 - xi))
        ys, w = gl_panels(0.0, Y, 0.05)
        body = 2.0 * float(np.dot(w, lb.base_density_noisy(axi, tg.NoiseModel(eta), ys)))
        total = body + 2.0 * lb.p_tail_mass(axi, Y, eta=eta)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestWtilde:
    def test_normalization_at_zero(self, axi_ref):
        assert lb.wtilde_alpha_xi(axi_ref, 0.0) == 1.0

    def test_against_z_integral_quadrature(self, axi_ref):
        def oracle(t):
            f = lambda z: (
                0.2 * (1 - z) ** 0.2 / 0.5**0.2 / (1 - z)
                * math.exp(-t * t * (1 + z) / (4 * (1 - z)))
            )
            return quad(f, 0.5, 1.0, limit=300)[0]

        for t in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert lb.wtilde_alpha_xi(axi_ref, t) == pytest.approx(
                oracle(t), rel=1e-8
            )

    def test_class_membership_xi_near_one(self):
        # for xi close to 1 the base profile belongs to the class
        axi = lb.AlphaXi(0.2, 0.95)
        cls = tg.SmoothnessClass(0.1, 2.0, 1.0)
        res = lb.base_class_integral(axi, cls)
        assert res.converged
        assert res.value <= cls.rhs

    def test_fourier_transform_of_p_matches(self, axi_ref):
        # W~(t) = F1[p](t): heavy-tailed oscillatory integral via QUADPACK
        for t in (0.7, 1.5):
            val, _ = quad(
                lambda x: lb.p_alpha_xi(axi_ref, x),
                0.0,
                np.inf,
                weight="cos",
                wvar=t,
                limit=400,
            )
            assert 2.0 * val == pytest.approx(
                lb.wtilde_alpha_xi(axi_ref, t), abs=1e-6
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

    @pytest.mark.parametrize("n", [15, 10**301, 10**400], ids=["15", "1e301", "1e400"])
    def test_n_outside_range_refused(self, n):
        # past 1e300, n log n overflows and htilde would collapse to 0
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


class TestVerifyPair:
    def test_frozen_fixture_all_verdicts(self, fixture_objects):
        axi, bump, cls, nm, n, k_max = fixture_objects
        rep = lb.verify_pair(axi, bump, cls, nm, n, k_max=k_max)
        assert rep.verdict_positivity, rep.positivity_margin
        assert rep.verdict_class, (rep.class_lhs, rep.class_rhs)
        assert rep.verdict_separation, (rep.separation, rep.separation_threshold)
        assert rep.verdict_chi2, rep.chi2_times_n
        assert rep.all_true

    def test_forced_violation(self, fixture_objects):
        axi, bump, cls, nm, n, k_max = fixture_objects
        rep = lb.verify_pair(axi, bump, cls, nm, n, k_max=500, tau_scale=1000.0)
        assert not rep.verdict_positivity

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

    def test_perturbation_profile_blocked_equals_one_shot(self, fixture_objects, monkeypatch):
        # chi_squared's own y grid spanning more than two blocks: the profile
        # sums over at least 16 t panels, so a block holds at most budget // 16 rows
        axi, bump, cls, nm, n, k_max = fixture_objects
        ht = lb.htilde_solve(cls, nm, n)
        ys, _ = gl_panels(0.0, lb._CHI2_Y_MAX, lb._CHI2_PANEL)
        rows = _quad._COS_SUM_BUDGET // 16
        assert ys.size > 2 * rows
        blocked = lb.perturbation_profile_noisy(bump, cls, nm, ht, ys)
        monkeypatch.setattr(_quad, "_COS_SUM_BUDGET", 2**62)   # one block
        one_shot = lb.perturbation_profile_noisy(bump, cls, nm, ht, ys)
        assert np.array_equal(blocked, one_shot)

    def test_chi2_verdict_counts_tail_estimate(self, fixture_objects):
        # at this scale n chi^2 alone stays <= 1, chi^2 plus its tail does not
        axi, bump, cls, nm, n, k_max = fixture_objects
        rep = lb.verify_pair(axi, bump, cls, nm, n, k_max=k_max, tau_scale=1.315)
        tail_n = n * rep.diagnostics["chi2_tail_estimate"] * 1.315**2
        assert rep.chi2_times_n <= 1.0 < rep.chi2_times_n + tail_n
        assert not rep.verdict_chi2

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
        assert lb.wtilde_alpha_xi(axi, 0.0) == 1.0
        rho = lb.rho_alpha_xi_diag(axi, fs.MAX_ORDER)
        assert rho.sum() + lb.rho_tail_mass(axi, fs.MAX_ORDER) == pytest.approx(
            1.0, abs=1e-6
        )
        X = 8.0 * math.sqrt((1 + axi.xi) / (1 - axi.xi))
        xs, w = gl_panels(0.0, X, 0.05)
        body = 2.0 * float(np.dot(w, lb.p_alpha_xi(axi, xs)))
        assert body + 2.0 * lb.p_tail_mass(axi, X) == pytest.approx(1.0, abs=1e-6)

    def test_r_below_two_branch_runs(self):
        # finite-n corrections make the verdicts fail for r < 2 at
        # reachable n; the report must still be computed coherently
        axi = lb.AlphaXi(0.2, 0.95)
        bump = lb.BumpSpec(0.1, 1.0)
        cls = tg.SmoothnessClass(0.5, 1.0, 0.47)
        nm = tg.NoiseModel(0.9)
        rep = lb.verify_pair(axi, bump, cls, nm, 10**6, k_max=300)
        assert math.isfinite(rep.htilde)
        assert math.isfinite(rep.separation)
        assert rep.separation_threshold > 0.0
        assert rep.chi2_times_n >= 0.0
        # verdicts are data, not exceptions
        assert isinstance(rep.all_true, bool)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            lb.AlphaXi(0.0, 0.5)
        with pytest.raises(ValidationError):
            lb.AlphaXi(0.2, 1.0)
        with pytest.raises(ValidationError):
            lb.BumpSpec(0.3, 1.0)  # D <= 4 delta

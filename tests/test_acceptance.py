"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (written to the real stdout so it survives capture)."""

import math
import time
from functools import partial

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.stats import kstest

from _oracles import hs_distance_sq, radon_numeric
from wignerscope import estimator as es
from wignerscope import fockspace as fs
from wignerscope import kernels as kn
from wignerscope import lowerbound as lb
from wignerscope import sampler as sp
from wignerscope import tomography as tg


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)


def test_criterion_1_vacuum_estimator_mean():
    t0 = time.time()
    h, eta = 0.4, 0.9
    noise = tg.NoiseModel(eta)
    ds = sp.simulate(fs.StateSpec.fock(0), 10**6, eta, seed=20240811)
    kspec = kn.KernelSpec(h, noise, "sharp")
    table = kn.build_table(kspec, 30.0)
    west = es.estimate_point(ds, kspec, (0.0, 0.0), table=table)
    vals = table(-ds.y / math.sqrt(eta))
    se = float(np.std(vals, ddof=1)) / math.sqrt(ds.n)
    target = (1.0 / math.pi) * (1.0 - math.exp(-1.0 / (4 * h * h)))
    dev = abs(west - target)
    elapsed = time.time() - t0
    ok = dev <= 3.0 * se and elapsed <= 120.0
    report("1 (vacuum mean oracle)", ok,
           f"West={west:.6f} target={target:.6f} |dev|/SE={dev / se:.2f} "
           f"elapsed={elapsed:.0f}s")
    assert dev <= 3.0 * se
    assert elapsed <= 120.0


# Frozen cat-state MSE configuration: sharp kernel, smoothness beta = 0.08
# (any beta < 1/4 admits these states), cat amplitude q0 = 3 (domes at +-3).
_T1_CLS = tg.SmoothnessClass(0.08, 2.0, 1.0)
_T1_RULE = es.BandwidthRule("r2", cls=_T1_CLS)


def _cat_mse(eta: float, n: int, reps: int, seed: int = 11) -> tuple:
    """(MSE, its standard error) at the origin."""
    rep = es.risk_eval(
        fs.StateSpec.cat(3.0), tg.NoiseModel(eta), _T1_RULE, "sharp",
        [(0.0, 0.0)], n, reps, seed=seed,
    )
    return float(rep.per_point_mse[0]), float(rep.per_point_se[0])


def test_criterion_2_cat_mse_band_and_monotonicity():
    t0 = time.time()
    mse_1e4, se_1e4 = _cat_mse(0.95, 10**4, 100)
    mse_1e5, se_1e5 = _cat_mse(0.95, 10**5, 100)
    elapsed = time.time() - t0
    in_band = 1.7e-3 <= mse_1e4 <= 1.5e-2
    monotone = mse_1e5 < mse_1e4
    ok = in_band and monotone and elapsed <= 900.0
    report("2 (cat MSE band)", ok,
           f"MSE(n=1e4)={mse_1e4:.3e} ± {se_1e4:.1e} in [1.7e-3, 1.5e-2]; "
           f"MSE(n=1e5)={mse_1e5:.3e} ± {se_1e5:.1e} monotone={monotone} "
           f"elapsed={elapsed:.0f}s")
    assert in_band
    assert monotone
    assert elapsed <= 900.0


def test_criterion_3_noise_level_ordering():
    mse_095, se_095 = _cat_mse(0.95, 10**4, 50)
    mse_085, se_085 = _cat_mse(0.85, 10**4, 50)
    ok = mse_085 > mse_095
    report("3 (noise ordering)", ok,
           f"MSE(eta=0.85)={mse_085:.3e} ± {se_085:.1e} > "
           f"MSE(eta=0.95)={mse_095:.3e} ± {se_095:.1e}")
    assert ok


def test_criterion_4_risk_envelopes():
    noise = tg.NoiseModel(0.9)
    g = noise.gamma
    beta = 0.2
    res = tg.class_integral(lambda t: -t * t / 4.0, tg.SmoothnessClass(beta, 2.0, 1.0))
    L = res.value / (2 * math.pi) ** 2
    spec = fs.StateSpec.fock(0)
    sampler = sp.QuadratureSampler(fs.materialize(spec))
    n, reps = 10**5, 50
    bias_ok, var_ok = True, True
    details = []
    for h in (0.3, 0.25, 0.2):
        bias_sq = (math.exp(-1.0 / (4 * h * h)) / math.pi) ** 2
        bias_bound = (L / (4 * math.pi * beta * 2.0)) * math.exp(-2 * beta / h**2)
        bias_ok &= bias_sq <= 1.5 * bias_bound
        kspec = kn.KernelSpec(h, noise, "sharp")
        table = kn.build_table(kspec, 30.0)
        vals = []
        for j in range(reps):
            seed = sp.derive_seed(4242, j)
            ideal = sampler.sample(n, seed)
            ds = sp.add_noise(ideal, 0.9, seed, spec)
            vals.append(es.estimate_point(ds, kspec, (0.0, 0.0), table=table))
        var = float(np.var(vals, ddof=1))
        var_bound = math.exp(2 * g / h**2) / (8 * g * g * n)
        var_ok &= var <= 1.5 * var_bound
        details.append(f"h={h}: bias^2/bound={bias_sq / bias_bound:.3f} "
                       f"var/bound={var / var_bound:.4f}")
    ok = bias_ok and var_ok
    report("4 (bias/variance envelopes)", ok, "; ".join(details))
    assert bias_ok
    assert var_ok


def test_criterion_5_structural_suites():
    checks = {}
    # Hermite orthonormality <= 1e-10 for j,k <= 30
    xs, ws = hermgauss(300)
    table = fs.hermite_psi_table(30, xs) * np.exp(xs * xs / 2.0)
    gram = (table * ws) @ table.T
    checks["orthonormality"] = float(np.max(np.abs(gram - np.eye(31)))) <= 1e-10
    # Wigner bound on all materialized states
    qg, pg = np.meshgrid(np.linspace(-6, 6, 35), np.linspace(-6, 6, 35))
    bound_ok = True
    states = [fs.StateSpec.fock(0), fs.StateSpec.fock(1), fs.StateSpec.fock(2),
              fs.StateSpec.coherent(3.0, 0.0), fs.StateSpec.squeezed(0.5),
              fs.StateSpec.cat(3.0)]
    for s in states:
        w = fs.wigner_eval_many(fs.materialize(s), qg.ravel(), pg.ravel())
        bound_ok &= float(np.max(np.abs(w))) <= 1.0 / math.pi + 1e-9
    checks["wigner bound"] = bound_ok
    # isometry within 1e-4
    rng = np.random.default_rng(5)
    grid = np.linspace(-8.0, 8.0, 401)
    qq, pp = np.meshgrid(grid, grid, indexing="ij")
    step = grid[1] - grid[0]
    vecs = rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))
    weights = np.array([0.5, 0.3, 0.2])
    entries = sum(
        w * np.outer(v, v.conj()) / np.vdot(v, v).real for w, v in zip(weights, vecs)
    )
    rho = fs.DensityMatrix(dim=10, entries=entries)
    tau = fs.materialize(fs.StateSpec.fock(1, dim=10))
    w_r = fs.wigner_eval_many(rho, qq.ravel(), pp.ravel())
    w_t = fs.wigner_eval_many(tau, qq.ravel(), pp.ravel())
    l2 = float(np.sum((w_r - w_t) ** 2)) * step * step
    checks["isometry"] = abs(
        hs_distance_sq(rho, tau) - 2.0 * math.pi * l2
    ) <= 1e-4
    # Radon vs quad_density <= 1e-6
    rho_cat = fs.materialize(fs.StateSpec.cat(3.0))
    w_eval, radius = partial(fs.wigner_eval_many, rho_cat), tg.x_support_radius(rho_cat.dim)
    rng2 = np.random.default_rng(7)
    radon_ok = True
    for _ in range(20):
        x = rng2.uniform(-3, 3)
        phi = rng2.uniform(0, math.pi)
        radon_ok &= abs(
            radon_numeric(w_eval, x, phi, radius) - tg.quad_density(rho_cat, x, phi)
        ) <= 1e-6
    checks["radon agreement"] = radon_ok
    # vacuum noise invariance KS at 1% for eta in {0.7, 0.9, 0.99}
    ks_ok = True
    for eta in (0.7, 0.9, 0.99):
        ds = sp.simulate(fs.StateSpec.fock(0), 10**5, eta, seed=808)
        ks_ok &= kstest(ds.y, "norm", args=(0.0, math.sqrt(0.5))).pvalue > 0.01
    checks["vacuum KS"] = ks_ok
    # kernel closed form at zero within 1e-6 relative
    nm = tg.NoiseModel(0.9)
    kspec = kn.KernelSpec(0.5, nm, "sharp")
    k0 = kn.kernel_eval(kspec, 0.0)
    closed = math.expm1(nm.gamma / 0.25) / (4 * math.pi * nm.gamma)
    checks["kernel K(0)"] = abs(k0 / closed - 1.0) <= 1e-6
    ok = all(checks.values())
    report("5 (structural suites)", ok,
           ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    assert ok, checks


def test_criterion_6_bandwidth_correctness():
    max_resid = 0.0
    for n in (10**4, 10**6):
        for beta in (0.1, 0.2, 0.5, 1.0, 2.0):
            for r in (0.5, 1.0, 1.3, 1.7, 2.0):
                for eta in (0.7, 0.9, 0.95):
                    noise = tg.NoiseModel(eta)
                    cls = tg.SmoothnessClass(beta, r, 1.0)
                    h = es.bandwidth(es.BandwidthRule("opt", cls=cls), n, noise)
                    resid = abs(2 * beta / h**r + 2 * noise.gamma / h**2 - math.log(n))
                    max_resid = max(max_resid, resid)
    noise = tg.NoiseModel(0.9)
    cls2 = tg.SmoothnessClass(0.2, 2.0, 1.0)
    n = 5000
    h_root = es.bandwidth(es.BandwidthRule("opt", cls=cls2), n, noise)
    h_closed = math.sqrt((2 * 0.2 + 2 * noise.gamma) / math.log(n))
    r2_dev = abs(h_root - h_closed)
    h_ad = es.bandwidth(es.BandwidthRule("adaptive"), 10**4, noise)
    a = 2 * 0.9 * math.log(10**4) / 0.1
    ad_dev = abs(h_ad - (a - math.sqrt(a)) ** -0.5)
    ok = max_resid <= 1e-12 and r2_dev <= 1e-12 and ad_dev <= 1e-12
    report("6 (bandwidth correctness)", ok,
           f"max bandwidth-equation residual={max_resid:.2e}, r=2 dev={r2_dev:.2e}, "
           f"adaptive dev={ad_dev:.2e}")
    assert ok


def test_bandwidth_root_is_bracketed_by_adjacent_doubles():
    # for each class of criterion 6, the returned h and the next double up
    # straddle the root of the bandwidth equation, unless h solves it exactly
    for n in (10**4, 10**6):
        for beta in (0.1, 0.2, 0.5, 1.0, 2.0):
            for r in (0.5, 1.0, 1.3, 1.7, 2.0):
                for eta in (0.7, 0.9, 0.95):
                    noise = tg.NoiseModel(eta)

                    def g(h):
                        return 2 * beta / h**r + 2 * noise.gamma / h**2 - math.log(n)

                    h = tg.bandwidth_root(tg.SmoothnessClass(beta, r, 1.0), noise, math.log(n))
                    assert g(h) == 0.0 or g(h) > 0.0 > g(math.nextafter(h, math.inf)), (n, beta, r, eta)


def test_criterion_7_lower_bound_fixture():
    t0 = time.time()
    fx = lb.FROZEN_FIXTURE
    axi = lb.AlphaXi(fx["alpha"], fx["xi"])
    bump = lb.BumpSpec(fx["delta"], fx["big_d"])
    cls = tg.SmoothnessClass(fx["beta"], fx["r"], fx["L"])
    noise = tg.NoiseModel(fx["eta"])
    rep = lb.verify_pair(axi, bump, cls, noise, fx["n"])
    verdicts_ok = all(rep.to_json_dict()["verdicts"].values())
    # Mehler identity <= 1e-8
    mehler_ok = True
    for z in (0.3, 0.6, 0.9):
        for x in (0.0, 1.0, 2.5):
            psi_sq = fs.hermite_psi_table(400, np.array([x]))[:, 0] ** 2
            lhs = float(np.dot(z ** np.arange(401), psi_sq))
            rhs = math.exp(-x * x * (1 - z) / (1 + z)) / math.sqrt(math.pi * (1 - z * z))
            mehler_ok &= abs(lhs - rhs) <= 1e-8
    # rho^{1,0}_kk = 1/((k+1)(k+2))
    rho10 = lb.rho_alpha_xi_diag(lb.AlphaXi(1.0 - 1e-12, 1e-14), 20)
    k = np.arange(21)
    rho10_ok = float(np.max(np.abs(rho10 - 1.0 / ((k + 1) * (k + 2))))) <= 1e-9
    # asymptotic diagonal power law within 10% at k = 200
    from scipy.special import gamma as gamma_fn

    axi2 = lb.AlphaXi(0.2, 0.5)
    r200 = lb.rho_alpha_xi_diag(axi2, 200)[200]
    asym = 0.2 / 0.5**0.2 * gamma_fn(1.2) * 200.0**-1.2
    diag_asym_ok = abs(r200 / asym - 1.0) <= 0.10
    # perturbation decay: max |tau| k^{5/4} finite and decreasing in htilde
    bump2 = lb.BumpSpec(0.1, 1.0)
    cls2 = tg.SmoothnessClass(0.5, 1.0, 1.0)
    ks = np.arange(50, 1001)
    bounds = [
        float(np.max(np.abs(lb.tau_diag(bump2, cls2, ht, 1000)[50:]) * ks**1.25))
        for ht in (0.3, 0.2, 0.15)
    ]
    decay_ok = all(np.isfinite(bounds)) and bounds[0] > bounds[1] > bounds[2]
    elapsed = time.time() - t0
    ok = verdicts_ok and mehler_ok and rho10_ok and diag_asym_ok and decay_ok and elapsed <= 300.0
    report("7 (lower-bound fixture)", ok,
           f"verdicts={verdicts_ok} (margin={rep.positivity_margin:.2e}, "
           f"class={rep.class_lhs:.1f}<={rep.class_rhs:.1f}, "
           f"sep={rep.separation:.2e}>={rep.separation_threshold:.2e}, "
           f"n*chi2={rep.chi2_times_n:.3f}), mehler={mehler_ok}, "
           f"rho10={rho10_ok}, diag_asym={diag_asym_ok}, decay={decay_ok}, "
           f"elapsed={elapsed:.0f}s")
    assert verdicts_ok
    assert mehler_ok and rho10_ok and diag_asym_ok and decay_ok
    assert elapsed <= 300.0


def test_criterion_8_statement_coverage():
    # Asymptotic minimaxity is an n -> infinity statement over a
    # function class; it is not desk-reproducible and is covered by the
    # property-based criteria 4 (risk envelopes), 6 (bandwidth equations)
    # and 7 (two-hypothesis construction).
    report("8 (asymptotic minimaxity)", True,
           "covered by criteria 4, 6, 7 (documented, nothing to run)")

import math

import numpy as np
import pytest
from scipy.integrate import quad

from wignerscope import estimator as es
from wignerscope import fockspace as fs
from wignerscope import kernels as kn
from wignerscope import sampler as sp
from wignerscope import tomography as tg
from wignerscope.errors import NumericGuardError, ValidationError


@pytest.fixture(scope="module")
def nm():
    return tg.NoiseModel(0.9)


def _h1_or_none(cls, n, noise):
    """The h1 rule's bandwidth, or None where the rule does not apply (its
    inner expression is not positive); any other refusal is raised."""
    try:
        return es.bandwidth(es.BandwidthRule("h1", cls=cls), n, noise)
    except ValidationError as exc:
        if str(exc) != "h1 rule: inner expression not positive":
            raise
        return None


class TestBandwidth:
    def test_r2_closed_form_matches_root(self, nm):
        cls = tg.SmoothnessClass(0.2, 2.0, 1.0)
        h_root = es.bandwidth(es.BandwidthRule("opt", cls=cls), 5000, nm)
        h_closed = es.bandwidth(es.BandwidthRule("r2", cls=cls), 5000, nm)
        expect = math.sqrt((0.4 + 2.0 / 36.0) / math.log(5000))
        assert h_root == pytest.approx(expect, abs=1e-12)
        assert h_closed == pytest.approx(expect, abs=1e-15)

    def test_r1_quadratic_formula_oracle(self, nm):
        # x = 1/h solves x^2/18 + x = log 1e6 (gamma = 1/36, beta = 0.5)
        cls = tg.SmoothnessClass(0.5, 1.0, 1.0)
        h = es.bandwidth(es.BandwidthRule("opt", cls=cls), 10**6, nm)
        a, b, c = 1.0 / 18.0, 1.0, -math.log(10**6)
        x = (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)
        assert h == pytest.approx(1.0 / x, rel=1e-12)

    def test_adaptive_closed_form(self, nm):
        h = es.bandwidth(es.BandwidthRule("adaptive"), 10**4, nm)
        a = 2 * 0.9 * math.log(10**4) / 0.1
        expect = (a - math.sqrt(a)) ** -0.5
        assert h == pytest.approx(expect, abs=1e-15)
        assert h == pytest.approx(0.08086, abs=5e-5)

    def test_root_residual_grid(self):
        # 5 x 5 x 3 grid of (beta, r, eta) at n in {1e4, 1e6}
        betas = (0.1, 0.2, 0.5, 1.0, 2.0)
        rs = (0.5, 1.0, 1.3, 1.7, 2.0)
        etas = (0.7, 0.9, 0.95)
        for n in (10**4, 10**6):
            for beta in betas:
                for r in rs:
                    for eta in etas:
                        noise = tg.NoiseModel(eta)
                        cls = tg.SmoothnessClass(beta, r, 1.0)
                        h = es.bandwidth(es.BandwidthRule("opt", cls=cls), n, noise)
                        resid = (
                            2 * beta / h**r + 2 * noise.gamma / h**2 - math.log(n)
                        )
                        assert abs(resid) <= 1e-12, (beta, r, eta, n)

    def test_h1_above_opt(self):
        # provable ordering: the h1 formula subtracts a strictly larger
        # term than the fixed-point one, so h_opt <= h1 wherever defined
        checked = 0
        for eta in (0.7, 0.9):
            noise = tg.NoiseModel(eta)
            for beta in (0.1, 0.3, 0.5):
                for r in (0.3, 0.6, 1.0):
                    cls = tg.SmoothnessClass(beta, r, 1.0)
                    for n in (10**4, 10**6):
                        h1 = _h1_or_none(cls, n, noise)
                        if h1 is None:
                            continue
                        h_opt = es.bandwidth(es.BandwidthRule("opt", cls=cls), n, noise)
                        assert h_opt <= h1 + 1e-15
                        checked += 1
        assert checked

    def test_adaptive_undersmooths_on_lattice(self):
        # h_ad <= h1 holds iff beta/gamma >= (log n / 2 gamma)^{(1-r)/2};
        # check on that sublattice (the unrestricted claim is false)
        checked = 0
        for eta in (0.7, 0.9):
            noise = tg.NoiseModel(eta)
            g = noise.gamma
            for r in (0.3, 0.6, 0.9):
                for n in (10**4, 10**6):
                    beta_min = g * (math.log(n) / (2 * g)) ** ((1 - r) / 2)
                    for mult in (1.0, 2.0, 5.0):
                        beta = beta_min * mult
                        cls = tg.SmoothnessClass(beta, r, 1.0)
                        h1 = _h1_or_none(cls, n, noise)
                        if h1 is None:
                            continue
                        h_ad = es.bandwidth(es.BandwidthRule("adaptive"), n, noise)
                        assert h_ad <= h1 + 1e-12
                        checked += 1
        assert checked

    def test_adaptive_variance_identity(self):
        # adaptive variance identity: (1/n) exp(2 gamma / h_ad^2) = exp(-sqrt(2 gamma log n))
        for eta in (0.7, 0.9):
            noise = tg.NoiseModel(eta)
            for n in (10**4, 10**6):
                h = es.bandwidth(es.BandwidthRule("adaptive"), n, noise)
                lhs = math.log(1.0 / n) + 2 * noise.gamma / h**2
                rhs = -math.sqrt(2 * noise.gamma * math.log(n))
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_h2_rule(self, nm):
        cls = tg.SmoothnessClass(0.02, 1.2, 1.0)
        h1 = es.bandwidth(es.BandwidthRule("h1", cls=cls), 10**6, nm)
        h2 = es.bandwidth(es.BandwidthRule("h2", cls=cls), 10**6, nm)
        expect = (math.log(10**6) / (2 * nm.gamma) - (0.02 / nm.gamma) * h1**-1.2) ** -0.5
        assert h2 == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("eta,beta,n,message", [
        (0.9, 0.5, 50, "h2 rule: inner expression not positive"),
        (0.5, 0.5, 10, r"n too small: rule 'h2' gives h1 = 1\.78.* > 1"),
    ], ids=["inner", "h1-above-1"])
    def test_h2_refusals_name_h2(self, eta, beta, n, message):
        # h2 is built on h1, and refuses where h1 does, in its own name
        cls = tg.SmoothnessClass(beta, 1.0, 1.0)
        with pytest.raises(ValidationError, match=message):
            es.bandwidth(es.BandwidthRule("h2", cls=cls), n, tg.NoiseModel(eta))

    def test_adaptive_too_small_n(self):
        # needs 2 eta log n / (1 - eta) > 1, violated at eta = 0.2, n = 2
        noise = tg.NoiseModel(0.2)
        with pytest.raises(ValidationError, match=r"adaptive rule needs 2 eta log n/\(1-eta\) > 1"):
            es.bandwidth(es.BandwidthRule("adaptive"), 2, noise)

    def test_fixed(self, nm):
        assert es.bandwidth(es.BandwidthRule("fixed", h=0.33), 100, nm) == 0.33

    def test_produced_h_in_unit_interval(self, nm):
        # rules landing above 1 (n too small for the asymptotics) refuse
        cls = tg.SmoothnessClass(2.0, 2.0, 1.0)
        with pytest.raises(ValidationError, match="n too small: rule 'r2' gives h = .* > 1"):
            es.bandwidth(es.BandwidthRule("r2", cls=cls), 8, nm)
        with pytest.raises(ValidationError):
            es.BandwidthRule("fixed", h=1.5)


class TestRatePhi2:
    def test_r2_beta_equals_gamma(self):
        noise = tg.NoiseModel(0.9)
        cls = tg.SmoothnessClass(noise.gamma, 2.0, 1.0)
        assert es.rate_phi2(cls, 10**4, noise) == pytest.approx(1e-2, rel=1e-12)

    def test_r1_plugin_from_bandwidth(self, nm):
        cls = tg.SmoothnessClass(0.5, 1.0, 1.0)
        h = es.bandwidth(es.BandwidthRule("opt", cls=cls), 10**6, nm)
        expect = (1.0 / (4 * math.pi * 0.5 * 1.0)) * h**-1.0 * math.exp(-2 * 0.5 / h)
        assert es.rate_phi2(cls, 10**6, nm) == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_n(self, nm):
        cls = tg.SmoothnessClass(0.3, 1.5, 1.0)
        vals = [es.rate_phi2(cls, n, nm) for n in (10**3, 10**4, 10**5, 10**6, 10**7)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestEstimatePoint:
    def test_single_record_is_kernel_value(self, nm):
        spec = fs.StateSpec.fock(0)
        ds = sp.Dataset(
            y=np.array([0.0]), phi=np.array([0.0]),
            meta=sp.DatasetMeta(spec, 0.9, 1, 1),
        )
        kspec = kn.KernelSpec(0.4, nm, "sharp")
        got = es.estimate_point(ds, kspec, (0.0, 0.0))
        assert got == pytest.approx(kn.kernel_eval(kspec, 0.0), rel=1e-12)

    def test_linearity_of_concatenation(self, nm):
        spec = fs.StateSpec.fock(1)
        d1 = sp.simulate(spec, 400, 0.9, seed=1)
        d2 = sp.simulate(spec, 600, 0.9, seed=2)
        both = sp.Dataset(
            y=np.concatenate([d1.y, d2.y]),
            phi=np.concatenate([d1.phi, d2.phi]),
            meta=sp.DatasetMeta(spec, 0.9, 1, 1000),
        )
        kspec = kn.KernelSpec(0.4, nm, "sharp")
        table = kn.build_table(kspec, 30.0)
        w1 = es.estimate_point(d1, kspec, (0.3, -0.2), table=table)
        w2 = es.estimate_point(d2, kspec, (0.3, -0.2), table=table)
        wb = es.estimate_point(both, kspec, (0.3, -0.2), table=table)
        assert wb == pytest.approx((400 * w1 + 600 * w2) / 1000.0, rel=1e-13)

    def test_eta_mismatch_rejected(self, nm):
        ds = sp.simulate(fs.StateSpec.fock(0), 100, 0.8, seed=3)
        kspec = kn.KernelSpec(0.4, nm, "sharp")
        with pytest.raises(ValidationError, match="dataset eta = 0.8 but kernel eta = 0.9"):
            es.estimate_point(ds, kspec, (0.0, 0.0))

    @pytest.mark.parametrize("h,eta", [(0.2, 0.9), (0.35, 0.85)])
    def test_table_for_another_kernel_rejected(self, nm, h, eta):
        # the h = 0.2 table once gave the h = 0.2 estimate for h = 0.35
        ds = sp.simulate(fs.StateSpec.fock(1), 300, 0.9, seed=3)
        kspec = kn.KernelSpec(0.35, nm, "sharp")
        table = kn.build_table(kn.KernelSpec(h, tg.NoiseModel(eta), "sharp"), 30.0)
        with pytest.raises(ValidationError, match="kernel table built for"):
            es.estimate_point(ds, kspec, (0.0, 0.0), table=table)
        with pytest.raises(ValidationError, match="kernel table built for"):
            es.estimate_grid(ds, kspec, es.GridSpec(0, 1, 2, 0, 1, 2), table=table)

    def test_vacuum_mean_oracle_pooled(self, nm):
        # E[West(0,0)] = (1/pi)(1 - e^{-1/(4 h^2)}) for the vacuum
        ds = sp.simulate(fs.StateSpec.fock(0), 10**6, 0.9, seed=2024)
        kspec = kn.KernelSpec(0.4, nm, "sharp")
        table = kn.build_table(kspec, 30.0)
        got = es.estimate_point(ds, kspec, (0.0, 0.0), table=table)
        vals = table(-ds.y / math.sqrt(0.9))
        se = float(np.std(vals, ddof=1)) / math.sqrt(ds.n)
        expect = (1.0 / math.pi) * (1.0 - math.exp(-1.0 / (4 * 0.16)))
        assert abs(got - expect) <= 3.0 * se

    def test_fock1_mean_identity_numeric_oracle(self, nm):
        # E[West(z)] = (1/2pi) int_0^{1/h} t e^{-t^2/4}(1 - t^2/2) J0(t|z|) dt
        ds = sp.simulate(fs.StateSpec.fock(1), 10**6, 0.9, seed=515)
        h = 0.4
        kspec = kn.KernelSpec(h, nm, "sharp")
        table = kn.build_table(kspec, 30.0)
        for z in [(0.0, 0.0), (1.0, 0.5)]:
            got = es.estimate_point(ds, kspec, z, table=table)
            r = math.hypot(*z)
            from scipy.special import j0

            expect, _ = quad(
                lambda t: t * math.exp(-t * t / 4) * (1 - t * t / 2) * j0(t * r),
                0.0,
                1.0 / h,
                limit=200,
            )
            expect /= 2.0 * math.pi
            u = z[0] * np.cos(ds.phi) + z[1] * np.sin(ds.phi) - ds.y / math.sqrt(0.9)
            se = float(np.std(table(u), ddof=1)) / math.sqrt(ds.n)
            assert abs(got - expect) <= 3.0 * se


class TestEstimateGrid:
    def test_matches_pointwise(self, nm):
        ds = sp.simulate(fs.StateSpec.fock(1), 2000, 0.9, seed=8)
        kspec = kn.KernelSpec(0.35, nm, "sharp")
        table = kn.build_table(kspec, 30.0)
        grid = es.GridSpec(-1.0, 1.0, 3, -0.5, 0.5, 2)
        wg = es.estimate_grid(ds, kspec, grid, table=table)
        for iq, q in enumerate(wg.q):
            for ip, p in enumerate(wg.p):
                assert wg.values[iq, ip] == es.estimate_point(
                    ds, kspec, (q, p), table=table
                )

    @pytest.mark.parametrize("steps", [0, -1, 2.5])
    def test_bad_step_count_refused(self, steps):
        with pytest.raises(ValidationError, match="steps"):
            es.GridSpec(0, 1, steps, 0, 1, 3)
        with pytest.raises(ValidationError, match="steps"):
            es.GridSpec(0, 1, 3, 0, 1, steps)

    def test_numpy_step_counts_cannot_wrap_past_the_cap(self):
        # 2**40 * 2**40 wraps to 0 in int64
        with pytest.raises(ValidationError, match="points"):
            es.GridSpec(0, 1, np.int64(2**40), 0, 1, np.int64(2**40))

    def test_row_extraction_equals_cut(self, nm):
        ds = sp.simulate(fs.StateSpec.fock(1), 3000, 0.9, seed=9)
        kspec = kn.KernelSpec(0.35, nm, "sharp")
        table = kn.build_table(kspec, 30.0)
        full = es.estimate_grid(
            ds, kspec, es.GridSpec(-2, 2, 9, -1, 1, 3), table=table
        )
        cut = es.estimate_grid(
            ds, kspec, es.GridSpec(-2, 2, 9, 0.0, 0.0, 1), table=table
        )
        assert np.array_equal(full.values[:, 1], cut.values[:, 0])

    def test_multi_block_grid_matches_pointwise(self, nm):
        # 41 x 41 points at n = 5000 span 33 blocks of the core; every value
        # is still the pointwise call's, bit for bit
        ds = sp.simulate(fs.StateSpec.fock(1), 5000, 0.9, seed=12)
        kspec = kn.KernelSpec(0.35, nm, "sharp")
        table = kn.build_table(kspec, 30.0)
        wg = es.estimate_grid(ds, kspec, es.GridSpec(-4, 4, 41, -4, 4, 41), table=table)
        assert max(1, es._BLOCK // ds.n) < wg.values.size
        for iq, q in enumerate(wg.q):
            for ip, p in enumerate(wg.p):
                assert wg.values[iq, ip] == es.estimate_point(ds, kspec, (q, p), table=table)

    @pytest.mark.parametrize("block", [1, 999, 2**18])
    def test_block_size_does_not_change_values(self, nm, monkeypatch, block):
        # each point's row is reduced on its own
        ds = sp.simulate(fs.StateSpec.fock(1), 2000, 0.9, seed=13)
        kspec = kn.KernelSpec(0.4, nm, "sharp")
        table = kn.build_table(kspec, 30.0)
        grid = es.GridSpec(-2, 2, 7, -2, 2, 5)
        expect = es.estimate_grid(ds, kspec, grid, table=table).values
        monkeypatch.setattr(es, "_BLOCK", block)
        assert np.array_equal(es.estimate_grid(ds, kspec, grid, table=table).values, expect)

    def test_against_fsum_reference_loop(self, nm):
        # independent oracle: an exactly rounded sum per point over the
        # same kernel values, written out here
        ds = sp.simulate(fs.StateSpec.cat(3.0), 3000, 0.9, seed=14)
        kspec = kn.KernelSpec(0.3, nm, "sharp")
        table = kn.build_table(kspec, 30.0)
        wg = es.estimate_grid(ds, kspec, es.GridSpec(-3, 3, 9, -3, 3, 9), table=table)
        ref = np.empty_like(wg.values)
        for iq, q in enumerate(wg.q):
            for ip, p in enumerate(wg.p):
                u = q * np.cos(ds.phi) + p * np.sin(ds.phi) - ds.y / math.sqrt(0.9)
                ref[iq, ip] = math.fsum(table(u)) / ds.n
        assert np.max(np.abs(wg.values - ref)) <= 1e-13 * kn.kernel_scale(kspec)

    def test_short_table_grid_matches_pointwise(self, nm):
        # most arguments fall past u_max and take the exact-integral
        # fallback; its quadrature panels narrow for |u| > 18, and rows
        # from q = 0 to |q| = 24 share a block, yet each value depends on
        # its own u alone
        ds = sp.simulate(fs.StateSpec.fock(1), 200, 0.9, seed=15)
        kspec = kn.KernelSpec(0.35, nm, "sharp")
        table = kn.build_table(kspec, 1.5)
        grid = es.GridSpec(-24, 24, 5, -1, 1, 3)
        wg = es.estimate_grid(ds, kspec, grid, table=table)
        for iq, q in enumerate(wg.q):
            for ip, p in enumerate(wg.p):
                u = q * np.cos(ds.phi) + p * np.sin(ds.phi) - ds.y / math.sqrt(0.9)
                assert np.mean(np.abs(u) > table.u_max) > 0.2
                assert wg.values[iq, ip] == es.estimate_point(ds, kspec, (q, p), table=table)


class TestRiskEval:
    def test_table_range_covers_every_record(self, monkeypatch):
        # README risk's configuration: the table's range, fixed before any
        # record is drawn, holds every |u| of every repetition, so no lookup
        # falls back to the exact kernel
        ratios = []
        lookup = kn.KernelTable.__call__

        def recorded(table, u, out=None, work=None):
            ratios.append(float(np.max(np.abs(u))) / table.u_max)
            return lookup(table, u, out=out, work=work)

        monkeypatch.setattr(kn.KernelTable, "__call__", recorded)
        rule = es.BandwidthRule("r2", cls=tg.SmoothnessClass(0.08, 2.0, 1.0))
        es.risk_eval(fs.StateSpec.cat(3.0), tg.NoiseModel(0.95), rule, "sharp",
                     [(0.0, 0.0), (3.0, 0.0)], 10**4, 4, seed=11)
        assert len(ratios) == 1 + 4 and max(ratios) <= 1.0   # build_table's check, 4 reps

    @pytest.mark.parametrize("n,seed", [(sp._MAX_RECORDS + 1, 1), (100, 2**64 + 7), (100, -1)],
                             ids=["n-cap+1", "seed-2^64+7", "seed--1"])
    def test_refused_before_materialize(self, monkeypatch, nm, n, seed):
        def materialize(spec):
            raise AssertionError("materialize reached")

        monkeypatch.setattr(es, "materialize", materialize)
        with pytest.raises(ValidationError):
            es.risk_eval(fs.StateSpec.fock(0), nm, es.BandwidthRule("fixed", h=0.4), "sharp",
                         [(0.0, 0.0)], n, 1, seed)

    def test_overflowing_loss_is_a_numeric_guard(self, recwarn):
        # K(0) is about e^657 at h = 0.0195, eta = 0.5: its square overflows
        rule = es.BandwidthRule("fixed", h=0.0195)
        with pytest.raises(NumericGuardError, match="squared loss overflows"):
            es.risk_eval(fs.StateSpec.fock(0), tg.NoiseModel(0.5), rule, "sharp",
                         [(0.0, 0.0)], 200, 2, seed=1)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_determinism(self, nm):
        rule = es.BandwidthRule("fixed", h=0.4)
        a = es.risk_eval(
            fs.StateSpec.fock(0), nm, rule, "sharp", [(0.0, 0.0)], 500, 1, seed=5
        )
        b = es.risk_eval(
            fs.StateSpec.fock(0), nm, rule, "sharp", [(0.0, 0.0)], 500, 1, seed=5
        )
        assert np.array_equal(a.per_rep_losses, b.per_rep_losses)
        assert a.meta["bandwidth"] == b.meta["bandwidth"]

    def test_zero_noise_limit_sanity(self):
        noise = tg.NoiseModel(0.999)
        cls = tg.SmoothnessClass(0.2, 2.0, 1.0)
        rep = es.risk_eval(
            fs.StateSpec.fock(0), noise, es.BandwidthRule("r2", cls=cls), "sharp",
            [(0.0, 0.0)], 10**5, 20, seed=21,
        )
        assert rep.per_point_mse[0] <= 1e-3

    def test_standard_error_of_the_mse(self, nm):
        rule = es.BandwidthRule("fixed", h=0.4)
        rep = es.risk_eval(
            fs.StateSpec.fock(1), nm, rule, "sharp", [(0.0, 0.0), (0.5, 0.5)],
            500, 5, seed=6,
        )
        losses = rep.per_rep_losses
        for k in range(2):
            col = losses[:, k]
            want = math.sqrt(np.sum((col - col.mean()) ** 2) / 4) / math.sqrt(5)
            assert rep.per_point_se[k] == pytest.approx(want, rel=1e-12)
        assert rep.to_json_dict()["per_point_se"] == rep.per_point_se.tolist()

    def test_one_rep_has_no_standard_error(self, nm):
        rule = es.BandwidthRule("fixed", h=0.4)
        rep = es.risk_eval(
            fs.StateSpec.fock(0), nm, rule, "sharp", [(0.0, 0.0)], 200, 1, seed=5
        )
        assert np.isnan(rep.per_point_se[0])
        assert rep.to_json_dict()["per_point_se"] == [None]

    def test_mse_is_column_mean(self, nm):
        rule = es.BandwidthRule("fixed", h=0.4)
        rep = es.risk_eval(
            fs.StateSpec.fock(1), nm, rule, "sharp", [(0.0, 0.0), (0.5, 0.5)],
            500, 5, seed=6,
        )
        assert np.allclose(rep.per_point_mse, rep.per_rep_losses.mean(axis=0))

    @pytest.mark.parametrize("state", [fs.StateSpec.cat(3.0), fs.StateSpec.coherent(1.0, 0.8)],
                             ids=["cat3", "coherent"])
    def test_truth_equals_pointwise(self, nm, state):
        # one wigner_eval_many call over all points gives each point's
        # wigner_eval bit for bit
        pts = [(q, 0.5 * q - 0.3) for q in np.linspace(-4.0, 4.0, 41)]
        rep = es.risk_eval(state, nm, es.BandwidthRule("fixed", h=0.4), "sharp", pts, 200, 1,
                           seed=3)
        rho = fs.materialize(state)
        assert rep.meta["truth"] == [fs.wigner_eval(rho, z) for z in pts]

    def test_batched_losses_equal_pointwise(self, nm):
        # risk_eval passes all points of a repetition to the core at once
        # (at n = 1e5 a block holds two points, so these four span two);
        # each loss equals the one estimate_point gives on the same records
        state = fs.StateSpec.coherent(1.0, 0.5)
        pts = [(0.0, 0.0), (1.0, 0.5), (-2.0, 1.5), (0.3, -0.7)]
        n, reps, seed = 10**5, 2, 17
        rep = es.risk_eval(state, nm, es.BandwidthRule("fixed", h=0.4), "sharp",
                           pts, n, reps, seed)
        rho = fs.materialize(state)
        kspec = kn.KernelSpec(0.4, nm, "sharp")
        u_max = (max(math.hypot(*z) for z in pts) + tg.x_support_radius(rho.dim)
                 + 8.0 / math.sqrt(nm.eta))
        table = kn.build_table(kspec, u_max)
        sampler = sp.QuadratureSampler(rho)
        for j in range(reps):
            rep_seed = sp.derive_seed(seed, j)
            ds = sp.add_noise(sampler.sample(n, rep_seed), nm.eta, rep_seed, state)
            for k, z in enumerate(pts):
                est = es.estimate_point(ds, kspec, z, table=table)
                assert rep.per_rep_losses[j, k] == (est - fs.wigner_eval(rho, z)) ** 2


class TestRiskEnvelopes:
    def test_bias_dominance_at_h_opt(self):
        # fock(0) in A(0.2, 2, L) with L = class_integral / (2pi)^2;
        # exact squared bias (truncated-Fourier closed form at the origin, |J0|<=1
        # elsewhere) <= 1.5x the bias bound at h_opt for n in {1e4, 1e5}
        noise = tg.NoiseModel(0.9)
        beta = 0.2
        cls_probe = tg.SmoothnessClass(beta, 2.0, 1.0)
        res = tg.class_integral(lambda t: -t * t / 4.0, cls_probe)
        L = res.value / (2 * math.pi) ** 2
        cls = tg.SmoothnessClass(beta, 2.0, L)
        for n in (10**4, 10**5):
            h = es.bandwidth(es.BandwidthRule("opt", cls=cls), n, noise)
            bias_sq = (math.exp(-1.0 / (4 * h * h)) / math.pi) ** 2
            bound = (L / (4 * math.pi * beta * 2.0)) * math.exp(-2 * beta / h**2)
            assert bias_sq <= 1.5 * bound

    def test_variance_envelope_empirical(self):
        noise = tg.NoiseModel(0.9)
        g = noise.gamma
        spec = fs.StateSpec.fock(0)
        rho = fs.materialize(spec)
        sampler = sp.QuadratureSampler(rho)
        n, reps = 10**4, 40
        for h in (0.3, 0.25):
            kspec = kn.KernelSpec(h, noise, "sharp")
            table = kn.build_table(kspec, 30.0)
            vals = []
            for j in range(reps):
                seed = sp.derive_seed(99, j)
                ideal = sampler.sample(n, seed)
                ds = sp.add_noise(ideal, 0.9, seed, spec)
                vals.append(es.estimate_point(ds, kspec, (0.0, 0.0), table=table))
            var = float(np.var(vals, ddof=1))
            bound = math.exp(2 * g / h**2) / (8 * g * g * n)
            assert var <= 1.5 * bound

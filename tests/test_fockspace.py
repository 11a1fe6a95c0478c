import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from _oracles import (
    hermite_psi_reference, hs_distance_sq, laguerre_rows_reference, recurrence_rows_reference,
)
from wignerscope import fockspace as fs
from wignerscope.errors import ValidationError


def _hermite_psi_exact(j, x):
    # H_j(x) in exact rational arithmetic (H_{k+1} = 2x H_k - 2k H_{k-1}),
    # scaled by e^{-x^2/2} / sqrt(sqrt(pi) 2^j j!) in floating point
    xr = Fraction(x)
    prev, cur = Fraction(0), Fraction(1)      # H_{-1} = 0, H_0 = 1
    for k in range(j):
        prev, cur = cur, 2 * xr * cur - 2 * k * prev
    return float(cur) * math.exp(-x * x / 2.0) / math.sqrt(
        math.sqrt(math.pi) * 2.0**j * math.factorial(j)
    )


def _laguerre_exact(k, x):
    # brute-force series L_k(x) = sum_i C(k,i) (-x)^i / i! in exact
    # rational arithmetic
    x = Fraction(x)
    total = Fraction(0)
    for i in range(k + 1):
        total += Fraction(math.comb(k, i)) * (-x) ** i / Fraction(math.factorial(i))
    return float(total)


class TestHermitePsi:
    def test_psi0_at_origin(self):
        assert fs.hermite_psi_table(0, 0.0)[0, 0] == pytest.approx(
            math.pi ** -0.25, abs=1e-15
        )

    def test_psi1_odd(self):
        assert fs.hermite_psi_table(1, 0.0)[1, 0] == 0.0

    def test_psi2_at_origin(self):
        # H_2(0) = -2, normalization sqrt(sqrt(pi) 2^2 2!)
        assert fs.hermite_psi_table(2, 0.0)[2, 0] == pytest.approx(
            -(math.pi ** -0.25) / math.sqrt(2.0), abs=1e-15
        )

    def test_orthonormality(self):
        # Gauss-Hermite with >= 200 nodes integrates psi_j psi_k exactly
        xs, ws = hermgauss(300)
        table = fs.hermite_psi_table(30, xs) * np.exp(xs * xs / 2.0)
        gram = (table * ws) @ table.T
        assert np.max(np.abs(gram - np.eye(31))) < 1e-10

    def test_deep_tail_matches_mpmath_reference(self):
        # frozen from mpmath (40 digits): psi_2000(60); the naive recurrence
        # underflows at exp(-1800) and returns garbage without rescaling
        assert fs.hermite_psi_table(2000, 60.0)[2000, 0] == pytest.approx(
            0.07972824223834804, rel=1e-10
        )

    def test_order_budget(self):
        with pytest.raises(ValidationError, match="order 2001 exceeds stability budget 2000"):
            fs.hermite_psi_table(2001, 0.0)

    @given(st.integers(0, 60), st.floats(-30.0, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_uniform_bound(self, j, x):
        assert np.all(np.abs(fs.hermite_psi_table(j, x)) <= 1.0)

    def test_table_matches_exact_oracle(self):
        xs = np.array([-3.2, 0.0, 0.7, 11.4])
        table = fs.hermite_psi_table(25, xs)
        for j in (0, 7, 25):
            for i, x in enumerate(xs):
                assert table[j, i] == pytest.approx(_hermite_psi_exact(j, x), abs=1e-14)


class TestLaguerre:
    # the rows are b_k^0(x) = e^{-x/2} L_k(x); the oracle scales the exact
    # series by math.exp(-x/2)
    @staticmethod
    def _table(k_max, d, x):
        return np.array(list(fs.laguerre_rows(k_max, d, x)))

    def test_l0(self):
        # b_0^0 = 2^{-x/(2 ln 2)}, split into a mantissa and an exponent, may
        # differ from math.exp(-x/2) in the last bit
        assert self._table(0, 0, 5.0)[0, 0] == pytest.approx(math.exp(-2.5), rel=1e-15)

    def test_l1(self):
        assert self._table(1, 0, 2.0)[1, 0] == -math.exp(-1.0)

    def test_series_oracle_rational(self):
        table = self._table(25, 0, [3.0, 7.5])
        assert table[10, 0] == pytest.approx(math.exp(-1.5) * _laguerre_exact(10, 3), rel=1e-13)
        assert table[25, 1] == pytest.approx(math.exp(-3.75) * _laguerre_exact(25, 7.5), rel=1e-11)

    def test_table_matches_exact_oracle(self):
        xs = np.array([0.0, 1.5, 22.6])
        table = self._table(40, 0, xs)
        for k in (0, 3, 40):
            for i, x in enumerate(xs):
                assert table[k, i] == pytest.approx(
                    math.exp(-x / 2.0) * _laguerre_exact(k, x), rel=1e-12
                )

    @pytest.mark.parametrize("k,d,x,ref", [
        # frozen from mpmath (150 digits) of sqrt(k!/(k+d)!) x^{d/2} e^{-x/2}
        # L_k^{(d)}(x); e^{-x/2} underflows past x = 1490, and L_k(x) overflows
        # at high k
        (100, 0, 1800.0, 1.3557971490384291311e-226),
        (900, 0, 1800.0, 0.0012463820242530153092),
        (2000, 0, 1800.0, -0.012199949211476602053),
        (1000, 7, 3000.0, -0.013728622280384977662),
    ])
    def test_large_argument_matches_mpmath(self, k, d, x, ref):
        assert self._table(k, d, [x])[k, 0] == pytest.approx(ref, rel=1e-12)

    def test_zero_argument_with_offset_is_zero(self):
        table = self._table(30, 3, [0.0, 1.0])
        assert np.all(table[:, 0] == 0.0)
        assert np.all(table[:, 1] != 0.0)

    def test_rows_past_the_underflow_bound_are_zero(self):
        # e^{-x/2} (2x)^2000 bounds every order and underflows at x = 5e4
        table = self._table(fs.MAX_ORDER, 0, [5e4, 1e300, math.inf])
        assert np.all(table == 0.0)

    @given(st.integers(0, 60), st.integers(0, 60), st.floats(0.0, 1e9))
    @settings(max_examples=60, deadline=None)
    def test_uniform_bound(self, j, d, x):
        assert np.all(np.abs(self._table(j, d, x)) <= 1.0)

    def test_order_budget(self):
        with pytest.raises(ValidationError, match="order 2001 exceeds stability budget 2000"):
            fs.laguerre_rows(fs.MAX_ORDER - 4, 5, 1.0)

    def test_log_factorial_within_few_ulp(self):
        # the Laguerre family's normalization takes log d! from math.lgamma
        # (exact integers through math.factorial as the oracle)
        for d in range(fs.MAX_ORDER + 1):
            exact = math.log(math.factorial(d))
            assert abs(math.lgamma(d + 1) - exact) <= 4 * math.ulp(exact)


def _same_bits(got, want):
    # equal values with equal signs of zero
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestBlockRecurrence:
    """The block recurrence against the row-at-a-time one it replaced
    (``_oracles.recurrence_rows_reference``): the same rows, bit for bit."""

    # table lengths around the block of 48 rows, and the longest table
    LENGTHS = [1, 2, 47, 48, 49, 50, 97, 2001]
    # x = 0, the underflow of e^{-x/2} (1490) and the overflow of L_k, and
    # x at and past _LAGUERRE_X_ZERO
    X = np.array([0.0, 1e-300, 0.5, 3.0, 77.7, 1490.0, 1800.0, 3000.0,
                  fs._LAGUERRE_X_ZERO, 1e6, math.inf])

    @pytest.mark.parametrize("d", [0, 1, 5, 40])
    @pytest.mark.parametrize("rows", LENGTHS)
    def test_laguerre_rows(self, d, rows):
        j_max = min(rows - 1, fs.MAX_ORDER - d)
        got = np.array(list(fs.laguerre_rows(j_max, d, self.X)))
        _same_bits(got, laguerre_rows_reference(j_max, d, self.X))

    @pytest.mark.parametrize("rows", LENGTHS)
    def test_hermite_psi_table(self, rows):
        # past |x| = 38.6 psi_0 underflows, and the high orders grow back
        x = np.linspace(-45.0, 45.0, 181)
        _same_bits(fs.hermite_psi_table(rows - 1, x), hermite_psi_reference(rows - 1, x))

    @pytest.mark.parametrize("j_max,points", [(31, 2049), (63, 2049), (1023, 2049),
                                              (2000, 1), (2000, 64)])
    def test_hermite_psi_table_on_grids(self, j_max, points):
        # the sampler's 2049-point grids, and one point and 64 at every order
        x = np.linspace(-12.0, 12.0, points) if points > 1 else np.array([37.5])
        _same_bits(fs.hermite_psi_table(j_max, x), hermite_psi_reference(j_max, x))

    def test_blocks_of_48_rows(self):
        sizes = [block.shape for block in fs.laguerre_blocks(200, 0, self.X)]
        assert sizes == [(1, self.X.size)] + [(48, self.X.size)] * 4 + [(8, self.X.size)]

    @pytest.fixture
    def powers(self):
        # y_k = 2^(log2_y0 + step k) with b = 0, and a second recurrence with
        # b != 0 on the same points; either mantissa leaves [2^-500, 2^500]
        # by row 97, and is rescaled inside the block of rows 97-144 (after
        # its first row).  Unscaled, the first would overflow from row 103
        # and the second underflow to 0 from row 108.
        n = 200
        log2_y0 = np.array([-1500.0, 1000.0, 0.0])
        a = np.tile([2.0 ** 10, 2.0 ** -10, 1.5], (n - 1, 1))
        return n, log2_y0, a

    def test_rescale_inside_a_block_is_exact(self, powers):
        n, log2_y0, a = powers
        got = np.concatenate(list(fs._recurrence_blocks(
            n, log2_y0, lambda ks, out: np.copyto(out, a[ks]), np.zeros(n - 1))))
        k = np.arange(n)
        assert np.array_equal(got[:, 0], np.ldexp(1.0, -1500 + 10 * k))
        assert np.array_equal(got[:, 1], np.ldexp(1.0, 1000 - 10 * k))

    def test_rescale_inside_a_block_matches_reference(self, powers):
        n, log2_y0, a = powers
        b = 0.25 + np.arange(n - 1) / n
        got = np.concatenate(list(fs._recurrence_blocks(
            n, log2_y0, lambda ks, out: np.copyto(out, a[ks]), b)))
        want = np.array(list(recurrence_rows_reference(n, log2_y0, lambda k: (a[k], b[k]))))
        assert np.all(np.isfinite(got[150]))
        _same_bits(got, want)


class TestMaterialize:
    def test_fock_indicator(self):
        rho = fs.materialize(fs.StateSpec.fock(1, dim=4))
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0
        assert np.array_equal(rho.entries.real, expect)
        assert rho.tail_mass == 0.0

    def test_cat_invariants(self):
        rho = fs.materialize(fs.StateSpec.cat(3.0))
        assert np.trace(rho.entries).real >= 1.0 - 1e-8
        assert np.min(np.linalg.eigvalsh(rho.entries)) >= -1e-10

    def test_coherent_poisson_diagonal_via_wavefunction_overlap(self):
        # oracle: <psi_k, rho psi_k> = |int psi_k(x) u(x) dx|^2 with the
        # coherent position wavefunction u(x) = pi^{-1/4} exp(-(x-3)^2/2)
        rho = fs.materialize(fs.StateSpec.coherent(3.0, 0.0, dim=32))
        xs, ws = hermgauss(250)
        # integrate f(x) e^{-x^2}: f = psi_k(x) u(x) e^{x^2}
        u = math.pi ** -0.25 * np.exp(-((xs - 3.0) ** 2) / 2.0 + xs * xs)
        table = fs.hermite_psi_table(rho.dim - 1, xs)
        overlaps = (table * (ws * u)).sum(axis=1)
        diag = np.diagonal(rho.entries).real
        assert np.max(np.abs(diag - overlaps**2)) < 1e-10
        # Poisson with mean q0^2/2 = 4.5
        mean_n = float(np.dot(np.arange(rho.dim), diag))
        assert mean_n == pytest.approx(4.5, abs=1e-7)

    def test_too_small_dim_grows_to_the_tail_rule(self):
        rho = fs.materialize(fs.StateSpec.coherent(3.0, 0.0, dim=4))
        assert rho.dim == 32 and rho.tail_mass <= fs.DEFAULT_TAIL_MASS
        assert fs.materialize(fs.StateSpec.fock(5, dim=2)).dim == 6

    @pytest.mark.parametrize("spec", [
        partial(fs.StateSpec.coherent, 1e300, 0.0),
        partial(fs.StateSpec.coherent, 0.0, -1e200),
        partial(fs.StateSpec.squeezed, 1e6),
        partial(fs.StateSpec.squeezed, -800.0),
        partial(fs.StateSpec.cat, math.nan),
    ])
    def test_too_many_photons_refused_without_overflow(self, spec):
        # the parameters overflow the amplitude formulas; the recipe itself
        # is refused in one line, not with an OverflowError
        with pytest.raises(ValidationError, match="mean photon number .* exceeds the dim cap 2001"):
            spec()

    @pytest.mark.parametrize("spec", [
        partial(fs.StateSpec.fock, 10**6),
        partial(fs.StateSpec.fock, fs.MAX_ORDER + 1),
        partial(fs.StateSpec.fock, 0, dim=10**6),
        partial(fs.StateSpec.coherent, 1.0, 0.0, dim=fs.MAX_ORDER + 2),
    ])
    def test_past_the_order_budget_refused_before_allocation(self, spec):
        # a dense (10^6)^2 complex matrix would need 16 TB: the recipe is
        # refused before any matrix exists, not with a MemoryError
        with pytest.raises(ValidationError, match=r"(order|dim) \d+ exceeds .*2000"):
            spec()

    def test_auto_growth_stays_within_the_order_budget(self):
        # mean photon number 882: the tail rule needs more than 1024
        # levels, and the next doubling (2048) passes MAX_ORDER + 1
        with pytest.raises(ValidationError, match="dim 1024"):
            fs.materialize(fs.StateSpec.coherent(42.0, 0.0))

    def test_statespec_roundtrip(self):
        spec = fs.StateSpec.cat(2.5, axis="p")
        assert fs.StateSpec.from_dict(spec.to_dict()) == spec


class TestWignerEval:
    def test_vacuum_origin(self):
        rho = fs.materialize(fs.StateSpec.fock(0))
        assert fs.wigner_eval(rho, (0.0, 0.0)) == pytest.approx(1.0 / math.pi, abs=1e-13)

    def test_fock1_against_characteristic_function_oracle(self):
        # independent oracle: 2-d inverse Fourier transform of
        # Tr(rho exp(iuQ + ivP)), the trace computed in a truncated basis
        # through an eigendecomposition of Q (valid for diagonal rho)
        d = 64
        a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
        Q = (a + a.T.conj()) / math.sqrt(2.0)
        lam, U = np.linalg.eigh(Q)
        weights = np.abs(U[1, :]) ** 2
        L, N = 8.0, 161
        us = np.linspace(-L, L, N)
        UU, VV = np.meshgrid(us, us, indexing="ij")
        T = np.hypot(UU, VV)
        char = (weights[None, None, :] * np.exp(1j * T[:, :, None] * lam)).sum(axis=2)
        rho = fs.materialize(fs.StateSpec.fock(1))
        for z in [(0.0, 0.0), (0.35, -0.6)]:
            phase = np.exp(-1j * (z[0] * UU + z[1] * VV))
            oracle = np.trapezoid(np.trapezoid(char * phase, us, axis=1), us).real
            oracle /= 4.0 * math.pi**2
            assert fs.wigner_eval(rho, z) == pytest.approx(oracle, abs=5e-6)

    @pytest.mark.parametrize("q, p", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_many_refuses_non_finite_points(self, q, p):
        # the same refusal as PhasePoint's, one bad point among good ones
        rho = fs.materialize(fs.StateSpec.fock(1))
        with pytest.raises(ValidationError, match="phase-space coordinates must be finite"):
            fs.wigner_eval_many(rho, [0.5, q], [0.5, p])
        with pytest.raises(ValidationError, match="phase-space coordinates must be finite"):
            fs.PhasePoint(q, p)

    def test_squeezed_closed_form(self):
        s = 0.5
        rho = fs.materialize(fs.StateSpec.squeezed(s, dim=64))
        qs = np.array([0.0, 1.2, -0.7, 0.5])
        ps = np.array([0.0, 0.4, 0.6, -0.8])
        got = fs.wigner_eval_many(rho, qs, ps)
        want = np.exp(-math.exp(2 * s) * qs**2 - math.exp(-2 * s) * ps**2) / math.pi
        assert np.max(np.abs(got - want)) < 1e-6

    def test_cat_closed_form(self):
        q0 = 3.0
        rho = fs.materialize(fs.StateSpec.cat(q0, dim=32))
        n2 = 2.0 * (1.0 + math.exp(-q0 * q0))

        def truth(q, p):
            return (
                math.exp(-((q - q0) ** 2) - p * p)
                + math.exp(-((q + q0) ** 2) - p * p)
                + 2.0 * math.exp(-q * q - p * p) * math.cos(2.0 * q0 * p)
            ) / (n2 * math.pi)

        for z in [(0, 0), (3, 0), (0, 0.5), (1.3, -0.9)]:
            assert fs.wigner_eval(rho, z) == pytest.approx(truth(*z), abs=1e-9)

    def test_fock500_far_from_the_origin(self):
        # x = 2|z|^2 = 1600, where e^{-x/2} underflows: frozen from mpmath
        # (-1)^500 e^{-800} L_500(1600) / pi
        rho = fs.materialize(fs.StateSpec.fock(500))
        assert fs.wigner_eval(rho, (20.0, 20.0)) == pytest.approx(
            0.0078981864686658671675, rel=1e-10
        )

    def test_wigner_bound_all_states(self):
        qs, ps = np.meshgrid(np.linspace(-6, 6, 41), np.linspace(-6, 6, 41))
        for spec in [
            fs.StateSpec.fock(0),
            fs.StateSpec.fock(3),
            fs.StateSpec.coherent(2.0, -1.0),
            fs.StateSpec.squeezed(0.8),
            fs.StateSpec.cat(3.0),
        ]:
            rho = fs.materialize(spec)
            w = fs.wigner_eval_many(rho, qs.ravel(), ps.ravel())
            assert np.max(np.abs(w)) <= 1.0 / math.pi + 1e-9

    def test_vacuum_overlap_positivity(self):
        # Tr(rho X) = 2 pi int W_X W_rho >= 0 for X the vacuum projector
        grid = np.linspace(-8.0, 8.0, 321)
        qq, pp = np.meshgrid(grid, grid, indexing="ij")
        wvac = np.exp(-qq**2 - pp**2) / math.pi
        step = grid[1] - grid[0]
        for spec in [fs.StateSpec.fock(2), fs.StateSpec.cat(3.0), fs.StateSpec.squeezed(0.6)]:
            rho = fs.materialize(spec)
            w = fs.wigner_eval_many(rho, qq.ravel(), pp.ravel()).reshape(qq.shape)
            overlap = 2.0 * math.pi * np.sum(wvac * w) * step * step
            assert overlap >= -1e-8


class TestHsDistance:
    def test_identity(self):
        rho = fs.materialize(fs.StateSpec.fock(2))
        assert hs_distance_sq(rho, rho) == 0.0

    def test_two_fock_states(self):
        r0 = fs.materialize(fs.StateSpec.fock(0))
        r1 = fs.materialize(fs.StateSpec.fock(1))
        assert hs_distance_sq(r0, r1) == pytest.approx(2.0, abs=1e-15)

    def _random_low_rank(self, rng, dim, rank):
        vecs = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
        weights = rng.random(rank)
        weights /= weights.sum()
        entries = sum(
            w * np.outer(v, v.conj()) / np.vdot(v, v).real
            for w, v in zip(weights, vecs)
        )
        return fs.DensityMatrix(dim=dim, entries=entries, tail_mass=0.0)

    def test_isometry_against_wigner_grid_integral(self):
        # || rho - tau ||_2^2 = 2 pi || W_rho - W_tau ||_{L2}^2
        rng = np.random.default_rng(42)
        grid = np.linspace(-8.0, 8.0, 401)
        qq, pp = np.meshgrid(grid, grid, indexing="ij")
        step = grid[1] - grid[0]
        for _ in range(3):
            rho = self._random_low_rank(rng, 12, 3)
            tau = self._random_low_rank(rng, 12, 2)
            w_r = fs.wigner_eval_many(rho, qq.ravel(), pp.ravel())
            w_t = fs.wigner_eval_many(tau, qq.ravel(), pp.ravel())
            l2 = np.sum((w_r - w_t) ** 2) * step * step
            assert hs_distance_sq(rho, tau) == pytest.approx(
                2.0 * math.pi * l2, abs=1e-4
            )


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        entries = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValidationError):
            fs.DensityMatrix(dim=2, entries=entries)

    def test_rejects_negative_eigenvalue(self):
        entries = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            fs.DensityMatrix(dim=2, entries=entries)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                                   complex(0.0, -math.inf)], ids=["nan", "inf", "im-inf"])
    def test_rejects_non_finite_entry(self, z):
        # every other check compares false on NaN
        entries = np.diag([0.5, 0.5]).astype(complex)
        entries[0, 1], entries[1, 0] = z, np.conj(z)
        with pytest.raises(ValidationError, match="non-finite matrix entry"):
            fs.DensityMatrix(dim=2, entries=entries)

    def test_json_roundtrip(self):
        rho = fs.materialize(fs.StateSpec.coherent(1.0, 0.5))
        again = fs.DensityMatrix.from_json_dict(rho.to_json_dict())
        assert np.array_equal(again.entries, rho.entries)
        assert again.tail_mass == rho.tail_mass

    def test_json_dim_past_the_cap_refused_before_the_entries(self):
        # 1x1 entries under a dim-2002 header: the cap is checked first, so
        # the refusal names the cap, not the shape
        data = {"dim": fs._MAX_DIM + 1, "tail_mass": 0.0, "re": [[1.0]], "im": [[0.0]]}
        with pytest.raises(ValidationError, match="dim 2002 exceeds the truncation cap 2001"):
            fs.DensityMatrix.from_json_dict(data)

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import brentq
from scipy.stats import kstest

from _oracles import _solve_cubic_reference, noisy_density
from wignerscope import fockspace as fs
from wignerscope import sampler as sp
from wignerscope import tomography as tg
from wignerscope.errors import NumericGuardError, ValidationError


@pytest.fixture(scope="module")
def vac():
    return fs.materialize(fs.StateSpec.fock(0))


@pytest.fixture(scope="module")
def fock1():
    return fs.materialize(fs.StateSpec.fock(1))


class TestSampleIdeal:
    def test_vacuum_moments(self, vac):
        s = sp.QuadratureSampler(vac).sample(10**5, seed=42)
        # X ~ N(0, 1/2): 4-sigma band on the mean, variance window
        assert abs(s.x.mean()) < 4.0 * math.sqrt(0.5 / 10**5)
        assert 0.47 < s.x.var() < 0.53

    def test_fock1_ks_against_quadrature_cdf(self, fock1):
        s = sp.QuadratureSampler(fock1).sample(10**5, seed=7)
        # |X| has CDF P(3/2, x^2) (regularized lower incomplete gamma)
        from scipy.special import gammainc

        res = kstest(np.abs(s.x), lambda t: gammainc(1.5, t * t))
        assert res.pvalue > 0.01

    def test_record_cap(self, vac):
        # refused before any record is drawn; the cap admits the 10^6-record
        # datasets of the dataset I/O work
        assert sp._MAX_RECORDS >= 10**6
        sampler = sp.QuadratureSampler(vac)
        for n in (0, sp._MAX_RECORDS + 1):
            with pytest.raises(ValidationError, match="records"):
                sampler.sample(n, seed=1)

    def test_determinism(self, fock1):
        a = sp.QuadratureSampler(fock1).sample(2000, seed=99)
        b = sp.QuadratureSampler(fock1).sample(2000, seed=99)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.phi, b.phi)

    def test_phases_uniform(self, vac):
        s = sp.QuadratureSampler(vac).sample(10**5, seed=1)
        res = kstest(s.phi / math.pi, "uniform")
        assert res.pvalue > 0.01

    def test_inverse_cdf_density_accuracy(self):
        # fine histogram of 1e6 draws vs quad_density, 3 MC standard
        # errors per bin (non-diagonal state exercises the phase cache);
        # frozen seed since a 56-bin max-z exceeds 3 sigma ~14% of the time
        rho = fs.materialize(fs.StateSpec.coherent(1.0, 0.8))
        sampler = sp.QuadratureSampler(rho)
        s = sampler.sample(10**6, seed=32)
        edges = np.linspace(-5.0, 6.0, 56)
        counts, _ = np.histogram(s.x, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        # phase-averaged density (phases are uniform)
        phis = (np.arange(512) + 0.5) * math.pi / 512
        dens = np.mean(
            [tg.quad_density(rho, centers, phi) for phi in phis], axis=0
        )
        expect = dens * width * 10**6
        sigma = np.sqrt(np.maximum(expect, 1.0))
        assert np.all(np.abs(counts - expect) <= 3.0 * sigma + 3.0)


@pytest.fixture(scope="module")
def cat_sampler():
    return sp.QuadratureSampler(fs.materialize(fs.StateSpec.cat(3.0)))


def _one_shot_tables(rho, phases, grid):
    """Reference tables from one complex product over all phases at once:
    the pdf and cdf tables, their interpolation error estimate, and the
    density table on the doubled grid."""
    fine = np.linspace(grid[0], grid[-1], 2 * grid.size - 1)
    psi = fs.hermite_psi_table(rho.dim - 1, fine)
    profiles = np.zeros((rho.dim, fine.size), dtype=complex)
    for d in range(rho.dim):
        diag = np.diagonal(rho.entries, offset=d)
        if np.any(diag):
            profiles[d] = diag @ (psi[: rho.dim - d] * psi[d:])
    coeff = np.exp(1j * np.outer(phases, np.arange(rho.dim)))
    coeff[:, 1:] *= 2.0
    p = np.clip((coeff @ profiles).real, 0.0, None)
    h = grid[1] - grid[0]
    cell = (h / 6.0) * (p[:, 0:-2:2] + 4.0 * p[:, 1::2] + p[:, 2::2])
    cdf = np.zeros((phases.size, grid.size))
    np.cumsum(cell, axis=1, out=cdf[:, 1:])
    pdf = p[:, ::2].copy()
    err = h**4 * float(np.max(np.abs(np.diff(pdf, n=3, axis=1)) / h**3)) / 384.0
    return pdf, cdf, err, p


class TestTable:
    @pytest.mark.parametrize("spec", [
        fs.StateSpec.fock(3), fs.StateSpec.coherent(1.0, 0.8),
        fs.StateSpec.squeezed(0.5), fs.StateSpec.cat(3.01),
    ], ids=["fock3", "coherent", "squeezed", "cat"])
    def test_blocked_build_equals_one_shot_product(self, spec):
        # the phase-blocked build reproduces the one-shot product bit for
        # bit, and so do the draws read from the tables
        sampler = sp.QuadratureSampler(fs.materialize(spec))
        pdf, cdf, err, _ = _one_shot_tables(sampler.rho, sampler._phases, sampler.x_grid)
        assert np.array_equal(sampler.pdf, pdf)
        assert np.array_equal(sampler.cdf, cdf)
        assert sampler.table_error == err
        ref = object.__new__(sp.QuadratureSampler)
        ref.__dict__.update(vars(sampler), pdf=pdf, cdf=cdf)
        a, b = sampler.sample(10**4, seed=5), ref.sample(10**4, seed=5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.phi, b.phi)

    def test_quad_density_is_the_one_phase_product(self):
        rho = fs.materialize(fs.StateSpec.cat(3.01))
        grid = np.linspace(-6.0, 6.0, 201)
        *_, p = _one_shot_tables(rho, np.array([0.37]), grid)
        fine = np.linspace(-6.0, 6.0, 401)
        assert np.array_equal(tg.quad_density(rho, fine, 0.37), p[0])

    @pytest.mark.parametrize("block", [2, 7, 1024])
    def test_table_independent_of_phase_block(self, block, monkeypatch):
        rho = fs.materialize(fs.StateSpec.coherent(1.0, 0.8))
        default = sp.QuadratureSampler(rho)
        monkeypatch.setattr(tg, "_PHASE_BLOCK", block)
        blocked = sp.QuadratureSampler(rho)
        assert np.array_equal(blocked.pdf, default.pdf)
        assert np.array_equal(blocked.cdf, default.cdf)
        assert blocked.table_error == default.table_error

    def test_negativity_guard_past_the_first_block(self):
        # rho_01 = 0.6i is not PSD: p(x | phi) < 0 somewhere iff
        # 0.6 |sin phi| > 1/2, i.e. only for phases in (0.98, 2.16), which
        # the first block of the sampler's phase grid does not reach
        broken = SimpleNamespace(dim=2, entries=np.array([[0.5, 0.6j], [-0.6j, 0.5]]))
        phases = (np.arange(sp._N_PHASES) + 0.5) * math.pi / sp._N_PHASES
        x = np.linspace(-6.0, 6.0, 801)
        blocks = tg.quad_density_blocks(broken, x, phases)
        start, first = next(blocks)
        assert start == 0 and first.shape == (tg._PHASE_BLOCK, x.size)
        with pytest.raises(NumericGuardError, match="quadrature density is negative"):
            list(blocks)
        with pytest.raises(NumericGuardError, match="quadrature density is negative"):
            sp.QuadratureSampler(broken)

    @pytest.mark.parametrize("spec", [
        fs.StateSpec.cat(3.0), fs.StateSpec.cat(6.0), fs.StateSpec.squeezed(0.8),
    ], ids=["cat3", "cat6", "squeezed"])
    def test_table_error_is_honest(self, spec):
        # the draw's interpolant (each cell's Hermite cubic on the guarded
        # slopes) against the same Simpson CDF on a 16x finer grid, at rows
        # beside phi = pi/2, where cat fringes are finest, and elsewhere
        sampler = sp.QuadratureSampler(fs.materialize(spec))
        k, grid = sampler.n_phases, sampler.x_grid
        rows = np.array([0, k // 3, k // 2 - 1, k // 2, k - 5])
        ref = object.__new__(sp.QuadratureSampler)
        ref.rho, ref.n_phases, ref._phases = sampler.rho, rows.size, sampler._phases[rows]
        fine = 16
        _, ref_cdf, _ = ref._tabulate(np.linspace(grid[0], grid[-1], (grid.size - 1) * fine + 1))
        h = grid[1] - grid[0]
        s = np.arange(fine) / fine
        worst = 0.0
        for i, r in enumerate(rows):
            c0, dc = sampler.cdf[r, :-1], np.diff(sampler.cdf[r])
            m0, m1 = sp._monotone_slopes(dc, sampler.pdf[r, :-1] * h, sampler.pdf[r, 1:] * h)
            a, b = m0 + m1 - 2.0 * dc, 3.0 * dc - 2.0 * m0 - m1
            interp = c0[:, None] + ((a[:, None] * s + b[:, None]) * s + m0[:, None]) * s
            true = ref_cdf[i, :-1].reshape(grid.size - 1, fine)
            worst = max(worst, float(np.max(np.abs(interp - true))))
        assert worst <= sp._CDF_TOL
        assert worst <= 2.0 * sampler.table_error

    def test_refinement_jumps_by_the_h4_rule(self, monkeypatch):
        # cat:6 misses the target at the start grid by a factor below 16,
        # so one halving of h follows, and no further level
        sizes = []
        tabulate = sp.QuadratureSampler._tabulate

        def spy(self, grid):
            out = tabulate(self, grid)
            sizes.append((grid.size, out[2]))
            return out

        monkeypatch.setattr(sp.QuadratureSampler, "_tabulate", spy)
        sampler = sp.QuadratureSampler(fs.materialize(fs.StateSpec.cat(6.0)))
        (n0, err0), (n1, err1) = sizes
        assert n0 == sp._N_POINTS and sp._CDF_TOL < err0 < 16.0 * sp._CDF_TOL
        assert n1 == 2 * n0 - 1 == sampler.x_grid.size and err1 == sampler.table_error

    def test_pdf_rows_match_amplitude_sum(self, cat_sampler):
        # independent oracle for pure states rho = c c^*: the amplitude sum
        # p(x | phi) = |sum_j c_j e^{-i j phi} psi_j(x)|^2 walks no diagonals
        others = (fs.StateSpec.coherent(1.5, -0.5), fs.StateSpec.squeezed(0.4))
        for sampler in (cat_sampler, *(sp.QuadratureSampler(fs.materialize(s)) for s in others)):
            rho = sampler.rho.entries
            top = int(np.argmax(np.diag(rho).real))
            c = rho[:, top] / math.sqrt(rho[top, top].real)  # c up to a global phase
            psi = fs.hermite_psi_table(rho.shape[0] - 1, sampler.x_grid)
            for k in (0, sampler.n_phases // 3, sampler.n_phases - 1):
                phase = np.exp(-1j * np.arange(c.size) * sampler._phases[k])
                ref = np.abs((c * phase) @ psi) ** 2
                assert np.max(np.abs(sampler.pdf[k] - ref)) <= 1e-12


def _fc_slopes(dc, m0, m1):
    """One cell's end slopes (m = p h) under Fritsch & Carlson's monotone
    region M in its published form (SIAM J. Numer. Anal. 17 (1980), Lemma
    2): kept where the cubic is monotone, else scaled along their ray to
    M's edge, the larger root tau of tau^2 (a^2 + ab + b^2) - 6 tau (a + b)
    + 9 = 0 with a = m0/dc, b = m1/dc."""
    if dc == 0.0:
        return 0.0, 0.0
    a, b = m0 / dc, m1 / dc
    if (a + b <= 2.0 or 2.0 * a + b <= 3.0 or a + 2.0 * b <= 3.0
            or a - (2.0 * a + b - 3.0) ** 2 / (3.0 * (a + b - 2.0)) >= 0.0):
        return m0, m1
    tau = 3.0 * (a + b + math.sqrt(a * b)) / (a * a + a * b + b * b)
    return tau * m0, tau * m1


def _hermite(s, dc, m0, m1):
    """The cell's Hermite cubic in its basis form: H(0) = 0, H(1) = dc,
    H'(0) = m0, H'(1) = m1."""
    return dc * s * s * (3.0 - 2.0 * s) + m0 * s * (1.0 - s) ** 2 - m1 * s * s * (1.0 - s)


def _cell_cubics(grid, pdf, cdf, bucket, u):
    """Per record, as generator wignerscope-sampler/4 defines its cell, one
    record at a time: the row's searchsorted cell (the last one at most),
    its left node, mass dc and target t above the node, and the slopes of
    _fc_slopes."""
    h = grid[1] - grid[0]
    cells = []
    for k, v in zip(bucket, u):
        row = cdf[k]
        target = v * row[-1]
        j = min(int(np.searchsorted(row, target, side="right")) - 1, grid.size - 2)
        dc = row[j + 1] - row[j]
        m0, m1 = _fc_slopes(dc, pdf[k, j] * h, pdf[k, j + 1] * h)
        cells.append((grid[j], dc, target - row[j], m0, m1))
    return cells


def _invert_scalar(grid, pdf, cdf, bucket, u):
    """Generator wignerscope-sampler/4's inversion one record at a time:
    the root of each record's cell cubic from brentq; a cell of no mass
    gives its midpoint."""
    h = grid[1] - grid[0]
    x = np.empty(u.size)
    for i, (x0, dc, t, m0, m1) in enumerate(_cell_cubics(grid, pdf, cdf, bucket, u)):
        s = 0.5 if dc == 0.0 else brentq(
            lambda s: _hermite(s, dc, m0, m1) - t, 0.0, 1.0,
            xtol=1e-16, rtol=4.0 * np.finfo(float).eps)
        x[i] = x0 + s * h
    return x


def _synthetic_sampler(grid, pdf, cdf):
    synthetic = object.__new__(sp.QuadratureSampler)
    synthetic.x_grid, synthetic.pdf, synthetic.cdf = grid, pdf, cdf
    synthetic.row_total = cdf[:, -1].copy()
    return synthetic


class TestInversion:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 100, 4097])
    def test_row_search_equals_searchsorted(self, n):
        rng = np.random.default_rng(n)
        rows = np.cumsum(rng.exponential(size=(6, n)), axis=1)
        rows -= rows[:, :1]
        # zero-mass cells: a leading, an interior and a trailing plateau
        rows[1, : n // 3 + 1] = 0.0
        rows[2, n // 2:] = rows[2, n // 2]
        rows[3, n // 4: n // 2 + 1] = rows[3, n // 4]
        rows[4] = 0.0
        bucket = np.repeat(np.arange(6), 60)
        t = rng.uniform(-0.1, 1.1, bucket.size) * rows[bucket, -1]
        # targets on the nodes themselves, at 0 and at the row total
        t[::3] = rows[bucket[::3], rng.integers(0, n, bucket[::3].size)]
        t[1::10] = 0.0
        t[2::10] = rows[bucket[2::10], -1]
        t = np.maximum(t, 0.0)
        got = sp._search_rows(rows.ravel(), bucket * n, n, t)
        want = np.array(
            [b * n + min(np.searchsorted(rows[b], v, side="right") - 1, n - 2)
             for b, v in zip(bucket, t)]
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", [
        fs.StateSpec.fock(3), fs.StateSpec.coherent(1.0, 0.8),
        fs.StateSpec.squeezed(0.5), fs.StateSpec.cat(3.01),
    ], ids=["fock3", "coherent", "squeezed", "cat3.01"])
    def test_invert_agrees_with_bracketed_loop(self, spec):
        # the fixed-step solve against _solve_cubic's bracketed loop run on
        # the whole batch, against the cubic itself and against brentq
        sampler = sp.QuadratureSampler(fs.materialize(spec))
        grid = sampler.x_grid
        h = grid[1] - grid[0]
        for seed in (1, 2, 3):
            rng = sp._stream(seed, sp._PHI_STREAM)
            phi = rng.uniform(0.0, math.pi, size=10_000)
            u = rng.random(10_000)
            bucket = np.minimum(
                (phi / math.pi * sampler.n_phases).astype(np.int64), sampler.n_phases - 1
            )
            col, dc, m0, m1, t = sampler._cells(bucket, u)
            s = sp.QuadratureSampler._solve(dc, m0, m1, t)
            loop, _ = sp.QuadratureSampler._solve_cubic(dc, m0, m1, t)
            assert np.max(np.abs(s - loop)) <= 2e-15
            pos = dc > 0.0
            residual = _hermite(s, dc, m0, m1) - t
            assert np.all(np.abs(residual[pos]) <= 1e-14 * dc[pos])
            x = sampler._invert(bucket, u)
            assert np.array_equal(x, grid[col] + s * h)
            want = _invert_scalar(grid, sampler.pdf, sampler.cdf, bucket, u)
            assert np.max(np.abs(x - want)) <= 1e-12 * h

    def test_monotone_slopes_follow_the_published_region(self):
        # slope pairs (a, b) dc over [0, 6]^2, with M's corners (3, 0), (0, 3)
        # and (3, 3), its widest point (4, 1), and (3, 3.5) just outside
        rng = np.random.default_rng(11)
        ab = np.concatenate([rng.uniform(0.0, 6.0, (4000, 2)),
                             [[3.0, 0.0], [0.0, 3.0], [3.0, 3.0], [4.0, 1.0], [3.0, 3.5]]])
        dc = rng.exponential(size=ab.shape[0])
        m0, m1 = sp._monotone_slopes(dc, ab[:, 0] * dc, ab[:, 1] * dc)
        want = np.array([_fc_slopes(d, a * d, b * d) for d, (a, b) in zip(dc, ab)])
        assert np.allclose(m0, want[:, 0], rtol=1e-14, atol=0.0)
        assert np.allclose(m1, want[:, 1], rtol=1e-14, atol=0.0)
        # kept inside M, on M's edge a + b - sqrt(ab) = 3 once scaled
        edge = ab[:, 0] + ab[:, 1] - np.sqrt(ab[:, 0] * ab[:, 1])
        inside = edge < 3.0 - 1e-12
        assert np.array_equal(m0[inside], ab[inside, 0] * dc[inside])
        assert np.array_equal(m1[inside], ab[inside, 1] * dc[inside])
        out = edge > 3.0
        assert out.sum() > 1000
        assert np.allclose((m0 + m1 - np.sqrt(m0 * m1))[out], 3.0 * dc[out], rtol=1e-14, atol=0.0)
        # a cell of no mass gets zero slopes
        z0, z1 = sp._monotone_slopes(np.zeros(3), np.array([0.0, 1.0, 2.0]),
                                     np.array([0.0, 0.0, 5.0]))
        assert not z0.any() and not z1.any()

    def test_invert_equals_reference_on_plateaus(self):
        # a synthetic table: trapezoid CDF rows with zero-mass cells (dc = 0);
        # after the CDF is built, row 5's pdf is set to 0 on every other node
        # and to spikes on the rest, so every cell of row 5 lies outside the
        # monotone region and is scaled onto its edge, where H' touches 0
        rng = np.random.default_rng(5)
        n = 33
        grid = np.linspace(-3.0, 3.0, n)
        pdf = rng.exponential(size=(6, n))
        pdf[1, : n // 3 + 1] = 0.0              # leading plateau
        pdf[2, n // 2:] = 0.0                   # trailing plateau
        pdf[3, n // 4: n // 2 + 1] = 0.0        # interior plateau
        pdf[4] = 0.0                            # all-zero row
        cdf = np.zeros_like(pdf)
        np.cumsum(0.5 * (grid[1] - grid[0]) * (pdf[:, 1:] + pdf[:, :-1]), axis=1,
                  out=cdf[:, 1:])
        pdf[5, 0::2] = 0.0
        pdf[5, 1::2] = 1e3
        synthetic = _synthetic_sampler(grid, pdf, cdf)

        bucket = np.repeat(np.arange(6), 400)
        total = cdf[bucket, -1]
        node = cdf[bucket, rng.integers(0, n, bucket.size)]
        u = np.divide(node, total, out=np.zeros_like(node), where=total > 0.0)
        u[1::3] = np.nextafter(u[1::3], 1.0)    # just past a node
        u[2::6] = rng.random(u[2::6].size)
        u[5::12] = 0.0
        u[11::24] = np.nextafter(1.0, 0.0)
        u[23::24] = 1.0
        got = synthetic._invert(bucket, u)
        h = grid[1] - grid[0]
        far = np.abs(got - _invert_scalar(grid, pdf, cdf, bucket, u)) > 1e-12 * h
        # targets just short of a cell end where H' = 0 (a plateau's edge,
        # row 5's spikes): rounding H moves such a root by up to eps^(1/2)
        # or eps^(1/3) of a cell in any solver, so there the draw must solve
        # H(s) = t to 1e-13 dc instead
        cells = _cell_cubics(grid, pdf, cdf, bucket, u)
        for i in np.flatnonzero(far):
            x0, dc, t, m0, m1 = cells[i]
            assert min(m0, m1) == 0.0
            assert abs(_hermite((got[i] - x0) / h, dc, m0, m1) - t) <= 1e-13 * dc

    def test_two_cycles_settle(self, monkeypatch):
        # exponential pdf rows, trapezoid CDF, 33 nodes: at the three records
        # appended, where m1/dc is 0.15, 0.13 and 0.0013, the rounding of
        # H(s) - t flips its sign between two iterates about ulp(t)/H' apart
        # and Newton swings between them: the frozen stopping rule of
        # wignerscope-sampler/2 runs all _MAX_SWEEPS sweeps on each alone
        rng = np.random.default_rng(5)
        grid = np.linspace(-3.0, 3.0, 33)
        pdf = rng.exponential(size=(6, grid.size))
        cdf = np.zeros_like(pdf)
        np.cumsum(0.5 * (grid[1] - grid[0]) * (pdf[:, 1:] + pdf[:, :-1]), axis=1,
                  out=cdf[:, 1:])
        bucket = np.concatenate([rng.integers(0, 6, 2000), [2, 5, 2]])
        u = np.concatenate([rng.random(2000),
                            [0.987236448763953, 0.95254623336114, 0.6459950213120654]])
        calls = []
        solve = sp.QuadratureSampler._solve_cubic

        def spy(*args):
            s, k = solve(*args)
            calls.append((args, k))
            return s, k

        monkeypatch.setattr(sp.QuadratureSampler, "_solve_cubic", staticmethod(spy))
        synthetic = _synthetic_sampler(grid, pdf, cdf)
        x = synthetic._invert(bucket, u)
        (args, sweeps), = calls
        _, *cycling = synthetic._cells(bucket[-3:], u[-3:])
        for i in range(3):
            assert _solve_cubic_reference(*(c[i:i + 1] for c in cycling))[1] == sp._MAX_SWEEPS
        # the fixed steps land the first on H(s) = t exactly; the other two
        # still swing and reach the bracketed loop, which settles them
        assert np.isin(cycling[3][1:], args[3]).all()
        assert _solve_cubic_reference(*args)[1] == sp._MAX_SWEEPS
        assert sweeps < sp._MAX_SWEEPS
        h = grid[1] - grid[0]
        want = _invert_scalar(grid, pdf, cdf, bucket, u)
        assert np.max(np.abs(x - want)) <= 1e-12 * h

    def test_draws_are_roots_of_their_cell_cubic(self, cat_sampler, monkeypatch):
        # brentq oracle on each record's own monotone Hermite cubic; the
        # cell is rebuilt from the same RNG stream the sampler reads
        calls = []
        solve = sp.QuadratureSampler._solve_cubic

        def spy(*args):
            s, k = solve(*args)
            calls.append((args[0].size, k))
            return s, k

        monkeypatch.setattr(sp.QuadratureSampler, "_solve_cubic", staticmethod(spy))
        n_rec, seed = 500, 2024
        x = cat_sampler.sample(n_rec, seed).x
        # few records fall back to the bracketed loop, and those settle
        assert sum(size for size, _ in calls) <= 1e-3 * n_rec
        assert all(k < sp._MAX_SWEEPS for _, k in calls)

        rng = sp._stream(seed, sp._PHI_STREAM)
        phi = rng.uniform(0.0, math.pi, size=n_rec)
        u = rng.random(n_rec)
        npha = cat_sampler.n_phases
        bucket = np.minimum((phi / math.pi * npha).astype(np.int64), npha - 1)
        grid = cat_sampler.x_grid
        want = _invert_scalar(grid, cat_sampler.pdf, cat_sampler.cdf, bucket, u)
        assert np.max(np.abs(x - want)) <= 1e-12 * (grid[1] - grid[0])

    def test_generator_version(self, tmp_path):
        ds = sp.simulate(fs.StateSpec.fock(1), 20, 0.9, seed=3)
        assert ds.meta.generator_version == "wignerscope-sampler/4"
        path = tmp_path / "old.csv"
        sp.write_dataset(ds, path)
        text = path.read_text().replace("wignerscope-sampler/4", "wignerscope-sampler/3")
        path.write_text(text)
        old = sp.read_dataset(path)
        assert old.meta.generator_version == "wignerscope-sampler/3"
        assert np.array_equal(old.y, ds.y)


class TestAddNoise:
    def test_noise_variance(self, fock1):
        ideal = sp.QuadratureSampler(fock1).sample(10**5, seed=5)
        ds = sp.add_noise(ideal, 0.9, seed=5, state=fs.StateSpec.fock(1))
        resid = ds.y - math.sqrt(0.9) * ideal.x
        assert 0.045 < resid.var() < 0.055

    def test_vacuum_noise_invariance_ks(self, vac):
        for eta in (0.7, 0.9, 0.99):
            ideal = sp.QuadratureSampler(vac).sample(10**5, seed=11)
            ds = sp.add_noise(ideal, eta, seed=11, state=fs.StateSpec.fock(0))
            res = kstest(ds.y, "norm", args=(0.0, math.sqrt(0.5)))
            assert res.pvalue > 0.01, f"eta={eta}"

    def test_eta_near_one(self, fock1):
        ideal = sp.QuadratureSampler(fock1).sample(10**5, seed=2)
        ds = sp.add_noise(ideal, 0.999, seed=2, state=fs.StateSpec.fock(1))
        assert np.max(np.abs(ds.y - ideal.x)) < 0.2
        # distributional cross-check against the noisy density
        nm = tg.NoiseModel(0.999)
        grid = np.linspace(-6.0, 6.0, 1201)
        dens = np.array([noisy_density(fock1, nm, float(t), 0.0) for t in grid])
        cdf = cumulative_trapezoid(dens, grid, initial=0.0)
        cdf /= cdf[-1]
        res = kstest(ds.y, lambda t: np.interp(t, grid, cdf))
        assert res.pvalue > 0.01

    def test_marginal_against_noisy_density(self):
        # empirical CDF of Y vs quadrature CDF of noisy_density at 1% KS
        nm = tg.NoiseModel(0.85)
        for n_photon in (0, 1, 2):
            spec = fs.StateSpec.fock(n_photon)
            rho = fs.materialize(spec)
            ds = sp.simulate(spec, 10**5, 0.85, seed=n_photon + 100)
            grid = np.linspace(-8.0, 8.0, 1201)
            dens = np.array([noisy_density(rho, nm, float(y), 0.0) for y in grid])
            cdf = cumulative_trapezoid(dens, grid, initial=0.0)
            cdf /= cdf[-1]
            res = kstest(ds.y, lambda t: np.interp(t, grid, cdf))
            assert res.pvalue > 0.01, f"fock({n_photon})"

    def test_bit_exact_reproducibility_via_simulate(self):
        spec = fs.StateSpec.cat(3.0)
        d1 = sp.simulate(spec, 4096, 0.9, seed=77)
        d2 = sp.simulate(spec, 4096, 0.9, seed=77)
        assert np.array_equal(d1.y, d2.y) and np.array_equal(d1.phi, d2.phi)

    def test_metadata_regenerates_records(self, tmp_path):
        # the persisted metadata alone suffices to rebuild the records
        ds = sp.simulate(fs.StateSpec.squeezed(0.4), 1000, 0.8, seed=55)
        path = tmp_path / "d.csv"
        sp.write_dataset(ds, path)
        meta = sp.read_dataset(path).meta
        again = sp.simulate(meta.state, meta.n, meta.eta, meta.seed)
        assert np.array_equal(again.y, ds.y) and np.array_equal(again.phi, ds.phi)


class TestDrawInputs:
    """simulate checks n, seed and eta before it materializes the state."""

    @pytest.mark.parametrize("n,seed,eta", [
        (sp._MAX_RECORDS + 1, 1, 0.9),
        (0, 1, 0.9),
        (10.0, 1, 0.9),
        (10, 2**64 + 7, 0.9),
        (10, -1, 0.9),
        (10, 1, 1.5),
    ], ids=["n-cap+1", "n-0", "n-float", "seed-2^64+7", "seed--1", "eta-1.5"])
    def test_refused_before_materialize(self, monkeypatch, n, seed, eta):
        def materialize(spec):
            raise AssertionError("materialize reached")

        monkeypatch.setattr(sp, "materialize", materialize)
        with pytest.raises(ValidationError):
            sp.simulate(fs.StateSpec.fock(1), n, eta, seed)

    @pytest.mark.parametrize("seed", [2**64 + 7, -1])
    def test_seed_outside_64_bits_refused(self, fock1, seed):
        # 2^64 + 7 would key the RNG as seed 7, and -1 as 2^64 - 1
        spec = fs.StateSpec.fock(1)
        with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            sp.simulate(spec, 10, 0.9, seed)
        ideal = sp.QuadratureSampler(fock1).sample(10, seed=7)
        with pytest.raises(ValidationError, match="seed"):
            sp.add_noise(ideal, 0.9, seed, spec)
        with pytest.raises(ValidationError, match="seed"):
            sp.QuadratureSampler(fock1).sample(10, seed)

    def test_largest_seed_draws(self, fock1):
        assert sp.QuadratureSampler(fock1).sample(10, 2**64 - 1).x.size == 10


class TestDatasetIO:
    def test_roundtrip_bit_exact(self, tmp_path, fock1):
        ds = sp.simulate(fs.StateSpec.fock(1), 257, 0.9, seed=13)
        path = tmp_path / "d.csv"
        sp.write_dataset(ds, path)
        again = sp.read_dataset(path)
        assert np.array_equal(again.y, ds.y)
        assert np.array_equal(again.phi, ds.phi)
        assert again.meta == ds.meta

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_arbitrary_floats(self, ys):
        import tempfile
        from pathlib import Path

        n = len(ys)
        meta = sp.DatasetMeta(fs.StateSpec.fock(0), 0.5, 3, n)
        ds = sp.Dataset(
            y=np.asarray(ys), phi=np.linspace(0, math.pi, max(n, 2))[:n], meta=meta
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            sp.write_dataset(ds, path)
            again = sp.read_dataset(path)
        assert np.array_equal(again.y, ds.y)

    def test_rejects_phi_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        meta = sp.DatasetMeta(fs.StateSpec.fock(0), 0.5, 3, 1)
        path.write_text(
            "# meta: "
            + __import__("json").dumps(meta.to_dict())
            + "\n1.0,3.5\n"
        )
        with pytest.raises(ValidationError, match=r"^line 2: phi = 3.5 outside \[0, pi\]$"):
            sp.read_dataset(path)

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 3.5])
    def test_dataset_refuses_phase_outside_range(self, bad):
        meta = sp.DatasetMeta(fs.StateSpec.fock(0), 0.9, 3, 2)
        with pytest.raises(ValidationError, match="phi"):
            sp.Dataset(y=[0.0, 1.0], phi=[bad, 0.5], meta=meta)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        meta = sp.DatasetMeta(fs.StateSpec.fock(0), 0.5, 3, 0)
        path.write_text("# meta: " + __import__("json").dumps(meta.to_dict()) + "\n")
        ds = sp.read_dataset(path)
        assert ds.n == 0
        assert ds.meta.eta == 0.5

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad2.csv"
        meta = sp.DatasetMeta(fs.StateSpec.fock(0), 0.5, 3, 2)
        path.write_text(
            "# meta: " + __import__("json").dumps(meta.to_dict()) + "\n"
            "1.0,0.5\nnot,a,row\n"
        )
        with pytest.raises(ValidationError, match="^line 3: expected 'y,phi'$"):
            sp.read_dataset(path)


class TestDeriveSeed:
    def test_deterministic_and_spread(self):
        seeds = {sp.derive_seed(123, j) for j in range(1000)}
        assert len(seeds) == 1000
        assert sp.derive_seed(123, 5) == sp.derive_seed(123, 5)

    def test_streams_independent(self, vac):
        # phases/uniform draws unchanged when only the noise stream is used
        a = sp.QuadratureSampler(vac).sample(100, seed=4)
        ds = sp.add_noise(a, 0.9, seed=4, state=fs.StateSpec.fock(0))
        b = sp.QuadratureSampler(vac).sample(100, seed=4)
        assert np.array_equal(a.x, b.x)
        assert not np.array_equal(ds.y, math.sqrt(0.9) * a.x)

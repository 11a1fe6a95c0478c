"""Generation and persistence of noisy homodyne records.

Draws (X, Phi) pairs from a state's quadrature densities by per-phase
tabulated inverse CDFs, applies detection noise Y = sqrt(eta) X +
sqrt((1-eta)/2) xi from an independent RNG stream, and reads/writes
datasets as CSV with a JSON metadata header.

Tables: tomography.quad_density_blocks yields the densities in blocks of
phases, and each block is written straight into the preallocated pdf and
cdf tables (Simpson cells, running sums and the third differences of the
error estimate), so the build holds one block's temporaries beside the
two tables.  The tables equal those of one product over all phases bit
for bit.  The grid starts at 1025 points.  Where the error estimate
h^4 max|p'''| / 384 misses _CDF_TOL there, the next grid halves h k times
at once, k = ceil(log16(err / _CDF_TOL)), since the error scales as h^4.

Inversion: one branchless binary search over the row's n - 1 cells of the
flattened table, needing no clamp, selects each record's cell.  Its
Hermite cubic keeps the density's own end slopes wherever they lie in
Fritsch & Carlson's monotone region and takes them scaled onto the
region's edge elsewhere, so table_error estimates the error of the very
interpolant the draws invert.  Each cubic is solved at a fixed cost: from
the Hermite interpolant of its inverse, three Newton steps clipped to [0,
1], and a fourth that must move the record by at most 1e-15 of a cell.
The few records that miss it (H' = 0, a cell of no mass, a Newton swing)
are solved again by 50 halvings of [0, 1], which end within 2^-51 of the
root: the cubic is monotone, so bisection cannot cycle or crawl.
Generator wignerscope-sampler/5.

Datasets: read_meta parses a file's header line alone, so a caller can
check what the header's state, eta and n imply before read_dataset parses
a record.  A malformed line is refused with its line number, a file that
is not UTF-8 text without one.

Reproducibility: generation is a pure function of (state, n, seed, eta).
The RNG is counter-based (Philox) with two independent streams keyed by
(seed, stream); per-repetition seeds elsewhere derive via derive_seed.
Inputs: check_records, check_seed and NoiseModel hold n, seed and eta;
simulate applies all three before the state is materialized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple, Tuple

import numpy as np

from .errors import ValidationError
from .fockspace import DensityMatrix, StateSpec, materialize
from .tomography import NoiseModel, quad_density_blocks, x_support_radius

GENERATOR_VERSION = "wignerscope-sampler/5"

_MASK64 = (1 << 64) - 1
_PHI_STREAM = 0
_NOISE_STREAM = 1

# QuadratureSampler._solve: plain Newton steps from the start before the
# step that must be at most _SOLVE_TOL (in units of a cell); records past it
# take _bisect_cubic's _HALVINGS halvings, 2^-(_HALVINGS+1) < _SOLVE_TOL
_NEWTON_STEPS = 3
_SOLVE_TOL = 1e-15
_HALVINGS = 50

# CDF tables: phases cached over [0, pi], the starting grid size, the
# interpolation error target and the grid size at which refinement stops
_N_PHASES = 1024
_N_POINTS = 1025
_CDF_TOL = 1e-6
_MAX_POINTS = 65537
# rows per writelines call of write_csv
_CSV_BLOCK = 2**16
# most records one draw makes: simulate peaks at about 200 B a record (238 MB
# at 10^6), so 2^23 records take about 1.7 GB
_MAX_RECORDS = 2**23


def derive_seed(seed: int, index: int) -> int:
    """SplitMix64 mix of (seed, index): deterministic per-repetition seeds.

    z = seed + (index+1) * 0x9E3779B97F4A7C15 (mod 2^64), then the standard
    SplitMix64 finalizer (xor-shift / multiply rounds).
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def check_records(n: int) -> None:
    """The one rule on a draw's record count: an integer (not a bool) in
    [1, _MAX_RECORDS]."""
    if not (isinstance(n, Integral) and not isinstance(n, bool) and 1 <= n <= _MAX_RECORDS):
        raise ValidationError(f"n must be an integer in [1, {_MAX_RECORDS}] records, got {n!r}")


def check_seed(seed: int) -> None:
    """The one rule on a seed: an integer (not a bool) in [0, 2^64), the
    RNG's 64-bit key."""
    if not (isinstance(seed, Integral) and not isinstance(seed, bool) and 0 <= seed <= _MASK64):
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _stream(seed: int, stream: int) -> np.random.Generator:
    check_seed(seed)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


class IdealSample(NamedTuple):
    x: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class DatasetMeta:
    state: StateSpec
    eta: float
    seed: int
    n: int
    generator_version: str = GENERATOR_VERSION

    def to_dict(self) -> dict:
        return {
            "state": self.state.to_dict(),
            "eta": self.eta,
            "seed": self.seed,
            "n": self.n,
            "generator_version": self.generator_version,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetMeta":
        """Rebuild from to_dict's form.  n and seed are checked as parsed,
        so a fraction (or 5000.0) or a bool is refused, not cut: n by
        check_records, except the 0 of a header-only file, and seed by
        check_seed."""
        if not (type(d["n"]) is int and d["n"] == 0):
            check_records(d["n"])
        check_seed(d["seed"])
        return cls(
            state=StateSpec.from_dict(d["state"]),
            eta=float(d["eta"]),
            seed=d["seed"],
            n=d["n"],
            generator_version=str(d.get("generator_version", "")),
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Noisy homodyne records plus the metadata regenerating them."""

    y: np.ndarray
    phi: np.ndarray
    meta: DatasetMeta

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        phi = np.array(self.phi, dtype=float)
        if y.shape != phi.shape or y.ndim != 1:
            raise ValidationError("y and phi must be matching 1-d arrays")
        if y.size and not np.all(np.isfinite(y)):
            raise ValidationError("non-finite y value")
        if not np.all((phi >= 0.0) & (phi <= math.pi)):
            raise ValidationError("phi outside [0, pi]")
        if self.meta.n != y.size:
            raise ValidationError(f"meta.n = {self.meta.n} but {y.size} records")
        y.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return self.y.size


def _search_rows(flat: np.ndarray, base: np.ndarray, n: int, t: np.ndarray) -> np.ndarray:
    """Per record, the flat index of its row's cell holding t: the last i <
    n - 1 with row[i] <= t (row = flat[base:base + n], non-decreasing, first
    entry <= t), i.e. min(searchsorted(row, t, "right") - 1, n - 2).  One
    branchless binary search over the row's m = n - 1 cells for all records
    at once: a leading probe at m - 2^k (2^k <= m < 2^(k+1)) where m is not a
    power of two, then k halving steps of one gather and one compare each."""
    m = n - 1
    step = 1 << (m.bit_length() - 1)
    idx = base.copy()
    if m > step:
        # the cell lies in [m - 2^k, m) or, past a failed probe, in [0, m - 2^k)
        idx += (m - step) * (flat[idx + (m - step)] <= t)
    step >>= 1
    while step:
        idx += step * (flat[idx + step] <= t)
        step >>= 1
    return idx


def _monotone_slopes(dc: np.ndarray, m0: np.ndarray, m1: np.ndarray):
    """Per cell of mass dc, the end slopes m0, m1 of its Hermite cubic (in
    units of the cell, m = p h >= 0), moved only where the cubic would not be
    monotone.  Works in place and returns (m0, m1).

    With alpha = m0/dc and beta = m1/dc the cubic is monotone iff (alpha,
    beta) lies in Fritsch & Carlson's region M: alpha + beta - sqrt(alpha
    beta) <= 3, that is the box [0, 3]^2 and, past it, the ellipse alpha^2 +
    alpha beta + beta^2 - 6 (alpha + beta) + 9 <= 0.  Slopes in M are the
    density's own, so the cell keeps the h^4 error of exact slopes; slopes
    outside M are scaled along their ray onto M's boundary, the least
    shrinking of the pair that makes the cubic monotone.  Only cells outside
    the box are tested.  A cell of zero mass gets zero slopes.
    """
    out = np.flatnonzero(np.maximum(m0, m1) > 3.0 * dc)
    if out.size:
        a, b, d = m0[out], m1[out], dc[out]
        edge = a + b - np.sqrt(a * b)  # >= max(a, b) / 2 > 0
        scale = np.minimum(3.0 * d / edge, 1.0)
        m0[out] = a * scale
        m1[out] = b * scale
    return m0, m1


def _bisect_cubic(dc, m0, m1, t):
    """Solve H(s) = t on [0, 1] for the monotone Hermite cubic with H(0)=0,
    H(1)=dc, H'(0)=m0, H'(1)=m1 (all arrays) by _HALVINGS halvings of [0,
    1], each keeping H(lo) <= t, and return the last bracket's midpoint:
    within 2^-(_HALVINGS+1) of the root.  A cell of no mass (H = 0 = t)
    ends 2^-(_HALVINGS+1) short of its right node."""
    a = m0 + m1 - 2.0 * dc
    b = 3.0 * dc - 2.0 * m0 - m1
    lo = np.zeros_like(t)
    width = 1.0
    for _ in range(_HALVINGS):
        width *= 0.5
        mid = lo + width
        lo += width * (((a * mid + b) * mid + m0) * mid <= t)
    return lo + 0.5 * width


class QuadratureSampler:
    """Inverse-CDF sampler for the ideal quadrature data of one state.

    Per cached phase (nearest reuse over a uniform grid of _N_PHASES
    phases), the CDF of p_rho(.|phi) is tabulated on a uniform x grid of
    _N_POINTS = 1025 points or, where the interpolation error estimate
    misses _CDF_TOL there, on the grid its h^4 scaling says meets it (up
    to _MAX_POINTS; a grid that still misses jumps again).  table_error is
    that estimate, h^4 max|p'''| / 384, the error of each cell's Hermite
    cubic on the density's own slopes, which the draw keeps wherever the
    cubic is monotone.  On cat:3, cat:6 and squeezed:0.8 the interpolant's
    error against a 16x finer table is 0.87 of it (tested: at most 2x).
    Diagonal states are phase-independent and use a single cached phase.
    """

    def __init__(self, rho: DensityMatrix):
        self.rho = rho
        diag_only = not any(
            np.any(np.diagonal(rho.entries, offset=d)) for d in range(1, rho.dim)
        )
        self.n_phases = 1 if diag_only else _N_PHASES
        self._phases = (np.arange(self.n_phases) + 0.5) * math.pi / self.n_phases
        xm = x_support_radius(rho.dim)
        n = _N_POINTS
        while True:
            grid = np.linspace(-xm, xm, n)
            pdf, cdf, err = self._tabulate(grid)
            if err <= _CDF_TOL or n >= _MAX_POINTS:
                break
            # the error scales as h^4: k halvings of h divide it by 16^k
            k = math.ceil(math.log(err / _CDF_TOL, 16))
            n = min((n - 1) * 2**k + 1, _MAX_POINTS)
        if err > _CDF_TOL:
            raise ValidationError(
                f"CDF table error {err:.2e} > {_CDF_TOL:.1e} at {n} points"
            )
        self.x_grid = grid
        self.pdf = pdf          # (n_phases, n)
        self.cdf = cdf          # (n_phases, n), cdf[:, 0] = 0
        self.row_total = cdf[:, -1].copy()  # contiguous, for the draw's targets
        self.table_error = err

    def _tabulate(self, grid: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
        """pdf and cdf tables on grid, and their interpolation error estimate.

        The densities come in phase blocks on the doubled grid.  Each block
        fills its rows of pdf (the even nodes) and of cdf (the running sums
        of per-cell Simpson integrals) in place, so no temporary grows with
        the phase count.  The Hermite-cubic CDF interpolation error is about
        h^4 max|p'''| / 384, with p''' from third differences of pdf.
        """
        n = grid.size
        h = grid[1] - grid[0]
        fine = np.linspace(grid[0], grid[-1], 2 * n - 1)
        pdf = np.empty((self.n_phases, n))
        cdf = np.zeros((self.n_phases, n))
        d3_max = 0.0
        for start, block in quad_density_blocks(self.rho, fine, self._phases):
            rows = slice(start, start + block.shape[0])
            pdf[rows] = block[:, ::2]
            cell = cdf[rows, 1:]
            np.multiply(block[:, 1::2], 4.0, out=cell)
            cell += block[:, 0:-2:2]
            cell += block[:, 2::2]
            cell *= h / 6.0
            np.cumsum(cell, axis=1, out=cell)
            d3 = np.abs(np.diff(pdf[rows], n=3, axis=1))
            d3_max = max(d3_max, float(np.max(d3, initial=0.0)))
        # max|d3| / h^3 equals the max of |d3| / h^3: dividing by h^3 > 0
        # is monotone in floating point
        return pdf, cdf, h**4 * (d3_max / h**3) / 384.0

    def _cells(self, bucket: np.ndarray, u: np.ndarray):
        """Per record (phase bucket, uniform u), its cell's column in the
        row, the cell's mass dc, its end slopes m0, m1 (in units of the
        cell) and the target t above the cell's left node."""
        h = self.x_grid[1] - self.x_grid[0]
        n = self.x_grid.size
        cdf = self.cdf.ravel()  # views: both tables are C-contiguous
        pdf = self.pdf.ravel()
        base = bucket * n
        target = u * self.row_total[bucket]
        cell = _search_rows(cdf, base, n, target)
        c0 = cdf[cell]
        dc = cdf[cell + 1] - c0
        m0, m1 = _monotone_slopes(dc, pdf[cell] * h, pdf[cell + 1] * h)
        return cell - base, dc, m0, m1, target - c0

    def _invert(self, bucket: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Invert the tabulated CDF: per record, phase bucket and uniform u."""
        grid = self.x_grid
        col, dc, m0, m1, t = self._cells(bucket, u)
        return grid[col] + self._solve(dc, m0, m1, t) * (grid[1] - grid[0])

    @staticmethod
    def _solve(dc, m0, m1, t):
        """Solve H(s) = t on [0, 1] for each record's monotone Hermite cubic
        (H(0)=0, H(1)=dc, H'(0)=m0, H'(1)=m1) in a fixed number of passes.

        The start is the inverse cubic's own Hermite interpolant: in tau =
        t/dc, the cubic from (0, 0) to (1, 1) with end slopes dc/m0 and
        dc/m1, each at most 3 (a zero slope or a NaN counts as 3), clipped
        to [0, 1].  _NEWTON_STEPS plain Newton steps follow, each clipped to
        [0, 1].  A last step whose size is at most _SOLVE_TOL is taken and
        ends the record; every other record (H' = 0, dc = 0, NaN, or not yet
        converged) is solved from scratch by _bisect_cubic.
        """
        a = m0 + m1 - 2.0 * dc
        b = 3.0 * dc - 2.0 * m0 - m1
        a3, b2 = 3.0 * a, 2.0 * b
        with np.errstate(divide="ignore", invalid="ignore"):
            g0 = np.fmin(dc / m0, 3.0)
            g1 = np.fmin(dc / m1, 3.0)
            tau = t / dc
            # s = ((A tau + B) tau + g0) tau: the inverse's Hermite cubic
            s = g0 + g1 - 2.0
            s *= tau
            s += 3.0 - 2.0 * g0 - g1
            s *= tau
            s += g0
            s *= tau
            np.clip(s, 0.0, 1.0, out=s)
            val = np.empty_like(s)
            der = np.empty_like(s)
            for _ in range(_NEWTON_STEPS + 1):
                np.multiply(a, s, out=val)
                val += b
                val *= s
                val += m0
                val *= s
                val -= t
                np.multiply(a3, s, out=der)
                der += b2
                der *= s
                der += m0
                val /= der
                s -= val
                np.clip(s, 0.0, 1.0, out=s)
        # val holds the last step: NaN and inf fail the test too
        rest = np.flatnonzero(~(np.abs(val) <= _SOLVE_TOL))
        if rest.size:
            s[rest] = _bisect_cubic(dc[rest], m0[rest], m1[rest], t[rest])
        return s

    def sample(self, n: int, seed: int) -> IdealSample:
        check_records(n)
        rng = _stream(seed, _PHI_STREAM)
        phi = rng.uniform(0.0, math.pi, size=n)
        u = rng.random(n)
        bucket = np.minimum(
            (phi / math.pi * self.n_phases).astype(np.int64), self.n_phases - 1
        )
        x = self._invert(bucket, u)
        return IdealSample(x=x, phi=phi)


def add_noise(
    ideal: IdealSample,
    eta: float,
    seed: int,
    state: StateSpec,
) -> Dataset:
    """Apply detection noise: y = sqrt(eta) x + sqrt((1-eta)/2) g.

    The Gaussians g come from an RNG stream independent of the one that
    produced the ideal sample, keyed by the same seed.
    """
    NoiseModel(eta)  # refuses eta outside (0, 1)
    x, phi = np.asarray(ideal[0], dtype=float), np.asarray(ideal[1], dtype=float)
    rng = _stream(seed, _NOISE_STREAM)
    g = rng.standard_normal(x.size)
    y = math.sqrt(eta) * x + math.sqrt((1.0 - eta) / 2.0) * g
    meta = DatasetMeta(state=state, eta=eta, seed=seed, n=x.size)
    return Dataset(y=y, phi=phi, meta=meta)


def simulate(spec: StateSpec, n: int, eta: float, seed: int) -> Dataset:
    """Check the inputs, materialize the state, draw and add noise."""
    check_records(n)
    check_seed(seed)
    NoiseModel(eta)
    ideal = QuadratureSampler(materialize(spec)).sample(n, seed)
    return add_noise(ideal, eta, seed, spec)


def write_csv(path, header: str, *columns) -> None:
    """Write a header line, then equal-length columns as CSV rows at 17
    significant digits (bit-exact round trip), _CSV_BLOCK rows per write,
    each row its own %-format (one format over a whole block is faster, but
    its one large string raised kernel-table's peak RSS)."""
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(0, len(rows), _CSV_BLOCK):
            fh.writelines([line % tuple(row) for row in rows[i : i + _CSV_BLOCK].tolist()])


def write_dataset(ds: Dataset, path) -> None:
    """CSV with one `# meta: <JSON>` header line, then `y,phi` rows."""
    write_csv(path, "# meta: " + json.dumps(ds.meta.to_dict(), sort_keys=True), ds.y, ds.phi)


def read_meta(path) -> DatasetMeta:
    """Parse a dataset file's line 1, its `# meta: <JSON>` header, alone."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text ({exc.reason})")
    if not header.startswith("# meta: "):
        raise ValidationError("line 1: missing '# meta:' header")
    try:
        return DatasetMeta.from_dict(json.loads(header[len("# meta: "):]))
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        # ValueError covers malformed JSON and fields that do not parse,
        # OverflowError an integer field past a double's range (int(inf))
        raise ValidationError(f"line 1: bad metadata ({exc})")


def read_dataset(path) -> Dataset:
    """Parse a dataset file (its header by read_meta); malformed content
    raises with the line number."""
    meta = read_meta(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()
            ys, phis = [], []
            for lineno, raw in enumerate(fh, start=2):
                raw = raw.strip()
                if not raw:
                    continue
                parts = raw.split(",")
                if len(parts) != 2:
                    raise ValidationError(f"line {lineno}: expected 'y,phi'")
                try:
                    y = float(parts[0])
                    phi = float(parts[1])
                except ValueError:
                    raise ValidationError(f"line {lineno}: non-numeric field")
                if not (0.0 <= phi <= math.pi):
                    raise ValidationError(f"line {lineno}: phi = {phi} outside [0, pi]")
                if not math.isfinite(y):
                    raise ValidationError(f"line {lineno}: non-finite y")
                ys.append(y)
                phis.append(phi)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text ({exc.reason})")
    if meta.n != len(ys):
        raise ValidationError(f"line 1: metadata n = {meta.n} but {len(ys)} record lines")
    return Dataset(y=np.asarray(ys), phi=np.asarray(phis), meta=meta)

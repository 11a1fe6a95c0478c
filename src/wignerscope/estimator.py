"""Kernel estimator of the Wigner function, bandwidth rules, theoretical
rates, and the Monte Carlo risk harness.

The estimator averages deconvolution-kernel values over records:

    West(z) = (1/n) sum_l K_h([z, Phi_l] - Y_l / sqrt(eta)),

with [z, phi] = q cos phi + p sin phi.  One core evaluates it for every
entry point: it looks the kernel up on blocks of (points x records)
arguments and reduces each point's row with one fixed-order numpy sum
over that point's own records.  All blocks of a call reuse one
workspace, allocated once and small enough to stay in cache.  The row is
the same contiguous reduction whatever the block, so, given the same
kernel table, a grid value equals the pointwise call bit for bit, and a
replay reproduces every value exactly.  Every table the estimator builds
has one range rule, default_table's u_max = max|z| + max|y|/sqrt(eta) + 1:
an estimate takes its own points and records, risk_eval a bound fixed
before the draw, which a record exceeds with probability 1.2e-15 (and then
takes the exact kernel).  Calls that each build their own default table size it from
their own points, and their values can differ in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericGuardError, ValidationError
from .fockspace import StateSpec, _as_phase_point, materialize, wigner_eval_many
from .kernels import KernelSpec, KernelTable, build_table
from .sampler import Dataset, QuadratureSampler, add_noise, check_records, check_seed, derive_seed
from .tomography import NoiseModel, SmoothnessClass, bandwidth_root, x_support_radius

__all__ = [
    "BandwidthRule",
    "bandwidth",
    "estimate_point",
    "estimate_grid",
    "GridSpec",
    "WignerGrid",
    "rate_phi2",
    "RiskReport",
    "risk_eval",
]

# the bandwidth rules a name selects; a "fixed" rule pins h to a number
RULE_NAMES = ("opt", "h1", "h2", "r2", "adaptive")


@dataclass(frozen=True)
class BandwidthRule:
    """A bandwidth selection rule: BandwidthRule(kind, cls=..., h=...).

    opt solves 2 beta / h^r + 2 gamma / h^2 = log n; h1/h2/r2 are the
    closed-form variants; these four need the SmoothnessClass cls.
    adaptive depends only on (n, eta); fixed pins h directly.
    """

    kind: str
    cls: Optional[SmoothnessClass] = None
    h: Optional[float] = None

    def __post_init__(self):
        if self.kind not in RULE_NAMES + ("fixed",):
            raise ValidationError(f"rule must be 'fixed' or one of {RULE_NAMES}")
        if self.kind not in ("adaptive", "fixed") and self.cls is None:
            raise ValidationError(f"rule {self.kind!r} needs a SmoothnessClass")
        if self.kind == "fixed" and not (self.h and 0.0 < self.h <= 1.0):
            raise ValidationError("fixed rule needs h in (0, 1]")


def bandwidth(rule: BandwidthRule, n: int, noise: NoiseModel) -> float:
    """Bandwidth produced by a rule for sample size n and noise level eta.

    The produced value always lies in (0, 1]; rules whose formulas land
    above 1 (n too small for the asymptotics) raise ValidationError.
    """
    if rule.kind == "fixed":
        return rule.h
    if n < 2:
        raise ValidationError("n must be >= 2")
    gamma = noise.gamma
    log_n = math.log(n)
    if rule.kind == "adaptive":
        a = log_n / (2.0 * gamma)        # = 2 eta log n / (1 - eta)
        if a <= math.sqrt(a):
            raise ValidationError("adaptive rule needs 2 eta log n/(1-eta) > 1")
        h = (a - math.sqrt(a)) ** -0.5
    elif rule.kind == "r2":
        h = math.sqrt((2.0 * rule.cls.beta + 2.0 * gamma) / log_n)
    elif rule.kind in ("h1", "h2"):
        # h2 takes h1 in place of a^{-1/2}; as h1^{-r} < a^{r/2}, its inner
        # expression exceeds h1's and is positive
        a = log_n / (2.0 * gamma)
        inner = a - (rule.cls.beta / gamma) * a ** (rule.cls.r / 2.0)
        if inner <= 0.0:
            raise ValidationError(f"{rule.kind} rule: inner expression not positive")
        h = inner ** -0.5
        if rule.kind == "h2":
            if h > 1.0:
                raise ValidationError(f"n too small: rule 'h2' gives h1 = {h} > 1")
            h = (a - (rule.cls.beta / gamma) * h ** -rule.cls.r) ** -0.5
    else:
        h = bandwidth_root(rule.cls, noise, log_n)
    if h > 1.0:
        raise ValidationError(f"n too small: rule {rule.kind!r} gives h = {h} > 1")
    return h


def rate_phi2(cls: SmoothnessClass, n: int, noise: NoiseModel) -> float:
    """Theoretical squared pointwise rate phi_n^2.

    n^{-beta/(beta+gamma)} for r = 2; otherwise the bias value at the
    optimal bandwidth, (L h^{r-2} / (4 pi beta r)) exp(-2 beta / h^r).
    """
    if n < 2:
        raise ValidationError("n must be >= 2")
    if cls.r == 2.0:
        return float(n) ** (-cls.beta / (cls.beta + noise.gamma))
    h = bandwidth(BandwidthRule("opt", cls=cls), n, noise)
    return (cls.L * h ** (cls.r - 2.0) / (4.0 * math.pi * cls.beta * cls.r)) * math.exp(
        -2.0 * cls.beta / h**cls.r
    )


def default_table(spec: KernelSpec, z_max: float, y_max: float) -> KernelTable:
    """Kernel table wide enough for every |[z, phi] - y/sqrt(eta)| with
    |z| <= z_max and |y| <= y_max: u_max = z_max + y_max/sqrt(eta) + 1."""
    return build_table(spec, z_max + y_max / math.sqrt(spec.noise.eta) + 1.0)


# elements of one (points x records) block of kernel arguments: sizes the
# one workspace all blocks of a call reuse, four arrays of 256 KiB that stay
# in a 2 MiB L2 cache (on grid-recon's grid 2^18 took 1.15 to 1.55 times as
# long), and changes no value (each row sums alone)
_BLOCK = 2**15


def _estimate(data: Dataset, spec: KernelSpec, q: np.ndarray, p: np.ndarray,
              table: Optional[KernelTable]) -> np.ndarray:
    """West at the points (q[k], p[k]), one row of records per point."""
    if abs(data.meta.eta - spec.noise.eta) > 1e-12:
        raise ValidationError(
            f"dataset eta = {data.meta.eta} but kernel eta = {spec.noise.eta}"
        )
    y = data.y
    if y.size == 0:
        raise ValidationError("empty dataset")
    if table is None:
        table = default_table(spec, float(np.max(np.hypot(q, p))), float(np.max(np.abs(y))))
    elif table.spec != spec:
        raise ValidationError(f"kernel table built for {table.spec}, not for {spec}")
    cos_phi = np.cos(data.phi)
    sin_phi = np.sin(data.phi)
    shift = y / math.sqrt(spec.noise.eta)
    rows = max(1, min(q.size, _BLOCK // y.size))
    # one workspace for every block: arguments, kernel values, lookup scratch
    u, vals, x = np.empty((3, rows, y.size))
    cell = np.empty((rows, y.size), np.intp)
    out = np.empty(q.size)
    for start in range(0, q.size, rows):
        k = min(rows, q.size - start)
        block = slice(start, start + k)
        np.multiply(q[block, None], cos_phi, out=u[:k])
        u[:k] += np.multiply(p[block, None], sin_phi, out=vals[:k])
        u[:k] -= shift
        table(u[:k], out=vals[:k], work=(x[:k], cell[:k]))
        out[block] = vals[:k].sum(axis=1) / y.size
    return out


def estimate_point(data: Dataset, spec: KernelSpec, z, *,
                   table: Optional[KernelTable] = None) -> float:
    """Pointwise estimate West(z) from the records of a dataset; a given
    ``table`` must be built for ``spec`` (ValidationError otherwise)."""
    zp = _as_phase_point(z)
    return float(_estimate(data, spec, np.array([zp.q]), np.array([zp.p]), table)[0])


# largest grid GridSpec accepts: its point arrays and values take 32 bytes a
# point; the README's grid has 81 x 81 points
_MAX_GRID_POINTS = 2**20


@dataclass(frozen=True)
class GridSpec:
    q_min: float
    q_max: float
    q_steps: int
    p_min: float
    p_max: float
    p_steps: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.q_min, self.q_max, self.p_min, self.p_max))):
            raise ValidationError("grid bounds must be finite")
        steps = (self.q_steps, self.p_steps)
        if not all(isinstance(k, (int, np.integer)) and k >= 1 for k in steps):
            raise ValidationError(f"grid steps must be integers >= 1, got {steps!r}")
        if int(self.q_steps) * int(self.p_steps) > _MAX_GRID_POINTS:  # numpy ints wrap
            raise ValidationError(
                f"grid of {self.q_steps} x {self.p_steps} points exceeds {_MAX_GRID_POINTS} points"
            )

    def axes(self):
        return (
            np.linspace(self.q_min, self.q_max, self.q_steps),
            np.linspace(self.p_min, self.p_max, self.p_steps),
        )


@dataclass(frozen=True, eq=False)
class WignerGrid:
    q: np.ndarray
    p: np.ndarray
    values: np.ndarray  # shape (len(q), len(p))


def estimate_grid(
    data: Dataset,
    spec: KernelSpec,
    grid: GridSpec,
    *,
    table: Optional[KernelTable] = None,
) -> WignerGrid:
    """Dense evaluation of the estimator; values identical to pointwise
    calls given the same ``table``."""
    qs, ps = grid.axes()
    q, p = np.meshgrid(qs, ps, indexing="ij")
    values = _estimate(data, spec, q.ravel(), p.ravel(), table)
    return WignerGrid(q=qs, p=ps, values=values.reshape(qs.size, ps.size))


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Monte Carlo pointwise-risk evaluation over repeated datasets.

    per_point_se is the standard error of per_point_mse,
    std(losses, ddof=1) / sqrt(reps); NaN (null in JSON) for one rep.
    """

    points: tuple
    reps: int
    per_point_mse: np.ndarray
    per_point_se: np.ndarray
    per_rep_losses: np.ndarray     # shape (reps, n_points)
    rate_phi2: Optional[float]
    meta: dict

    def to_json_dict(self) -> dict:
        return {
            "points": [[p.q, p.p] for p in self.points],
            "reps": self.reps,
            "per_point_mse": self.per_point_mse.tolist(),
            "per_point_se": [None if math.isnan(v) else v for v in self.per_point_se.tolist()],
            "per_rep_losses": self.per_rep_losses.tolist(),
            "rate_phi2": self.rate_phi2,
            "meta": self.meta,
        }


def risk_eval(
    state: StateSpec,
    noise: NoiseModel,
    rule: BandwidthRule,
    variant: str,
    points: Sequence,
    n: int,
    reps: int,
    seed: int,
) -> RiskReport:
    """Pointwise MSE of the estimator over `reps` fresh datasets.

    Repetition j uses the derived seed derive_seed(seed, j); the report's
    manifest is sufficient to regenerate the experiment exactly.  n, seed
    and the kernel spec are checked before any work, and the kernel table,
    whose range needs the state's dim, before the truth and the sampler's
    table; an overflowing loss is a numeric guard.
    """
    check_records(n)
    check_seed(seed)
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    pts = tuple(map(_as_phase_point, points))
    if not pts:
        raise ValidationError("need at least one evaluation point")
    h = bandwidth(rule, n, noise)
    kspec = KernelSpec(h=h, noise=noise, variant=variant)
    rho = materialize(state)
    # a record y = sqrt(eta) x + sqrt((1-eta)/2) g has |x| <= x_support_radius,
    # the sampler grid's edge, and |g| > 8 with probability 1.2e-15
    y_max = (math.sqrt(noise.eta) * x_support_radius(rho.dim)
             + 8.0 * math.sqrt((1.0 - noise.eta) / 2.0))
    table = default_table(kspec, max(math.hypot(p.q, p.p) for p in pts), y_max)
    qs = np.array([z.q for z in pts])
    ps = np.array([z.p for z in pts])
    truth = wigner_eval_many(rho, qs, ps)
    sampler = QuadratureSampler(rho)

    def one_rep(j: int) -> np.ndarray:
        rep_seed = derive_seed(seed, j)
        ideal = sampler.sample(n, rep_seed)
        ds = add_noise(ideal, noise.eta, rep_seed, state)
        # all points in one pass; each row still sums alone, so every value
        # equals estimate_point's
        with np.errstate(over="ignore"):
            loss = (_estimate(ds, kspec, qs, ps, table) - truth) ** 2
        if not np.all(np.isfinite(loss)):
            raise NumericGuardError(f"squared loss overflows at h = {h}, repetition {j}")
        return loss

    losses = np.vstack([one_rep(j) for j in range(reps)])
    mse = losses.mean(axis=0)
    if reps > 1:
        se = losses.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        se = np.full(mse.shape, math.nan)
    phi2 = rate_phi2(rule.cls, n, noise) if rule.cls is not None else None
    meta = {
        "state": state.to_dict(),
        "eta": noise.eta,
        "rule": {"kind": rule.kind, "h": rule.h,
                 "cls": None if rule.cls is None else
                 {"beta": rule.cls.beta, "r": rule.cls.r, "L": rule.cls.L}},
        "bandwidth": h,
        "variant": variant,
        "points": [[p.q, p.p] for p in pts],
        "n": n,
        "reps": reps,
        "seed": seed,
        "seed_mixer": "splitmix64(seed + (j+1)*0x9E3779B97F4A7C15)",
        "truth": truth.tolist(),
    }
    return RiskReport(
        points=pts,
        reps=reps,
        per_point_mse=mse,
        per_point_se=se,
        per_rep_losses=losses,
        rate_phi2=phi2,
        meta=meta,
    )

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
replay reproduces every value exactly.  Calls that each build their own
default table size it from their own points, and their values can differ
in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BandwidthError, ConfigurationError, ValidationError
from .fockspace import PhasePoint, StateSpec, _as_phase_point, materialize, wigner_eval
from .kernels import KernelSpec, KernelTable, build_table
from .sampler import Dataset, QuadratureSampler, add_noise, derive_seed
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

_RULES = ("opt", "h1", "h2", "r2_closed", "adaptive", "fixed")


@dataclass(frozen=True)
class BandwidthRule:
    """A bandwidth selection rule: BandwidthRule(kind, cls=..., h=...).

    opt solves 2 beta / h^r + 2 gamma / h^2 = log n; h1/h2/r2_closed are
    the closed-form variants; these four need the SmoothnessClass cls.
    adaptive depends only on (n, eta); fixed pins h directly.
    """

    kind: str
    cls: Optional[SmoothnessClass] = None
    h: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _RULES:
            raise ValidationError(f"rule must be one of {_RULES}")
        if self.kind in ("opt", "h1", "h2", "r2_closed") and self.cls is None:
            raise ValidationError(f"rule {self.kind!r} needs a SmoothnessClass")
        if self.kind == "fixed" and not (self.h and 0.0 < self.h <= 1.0):
            raise ValidationError("fixed rule needs h in (0, 1]")


def bandwidth(rule: BandwidthRule, n: int, noise: NoiseModel) -> float:
    """Bandwidth produced by a rule for sample size n and noise level eta.

    The produced value always lies in (0, 1]; rules whose formulas land
    above 1 (n too small for the asymptotics) raise BandwidthError.
    """
    if n < 2:
        raise ValidationError("n must be >= 2")
    gamma = noise.gamma
    log_n = math.log(n)
    if rule.kind == "fixed":
        return rule.h
    if rule.kind == "adaptive":
        a = log_n / (2.0 * gamma)        # = 2 eta log n / (1 - eta)
        if a <= math.sqrt(a):
            raise BandwidthError("adaptive rule needs 2 eta log n/(1-eta) > 1")
        h = (a - math.sqrt(a)) ** -0.5
    elif rule.kind == "r2_closed":
        h = math.sqrt((2.0 * rule.cls.beta + 2.0 * gamma) / log_n)
    elif rule.kind == "h1":
        a = log_n / (2.0 * gamma)
        inner = a - (rule.cls.beta / gamma) * a ** (rule.cls.r / 2.0)
        if inner <= 0.0:
            raise BandwidthError("h1 rule: inner expression not positive")
        h = inner ** -0.5
    elif rule.kind == "h2":
        h1 = bandwidth(BandwidthRule("h1", cls=rule.cls), n, noise)
        inner = log_n / (2.0 * gamma) - (rule.cls.beta / gamma) * h1 ** -rule.cls.r
        if inner <= 0.0:
            raise BandwidthError("h2 rule: inner expression not positive")
        h = inner ** -0.5
    else:
        h = bandwidth_root(rule.cls, noise, log_n)
    if h > 1.0:
        raise BandwidthError(f"n too small: rule {rule.kind!r} gives h = {h} > 1")
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


def default_table(data: Dataset, spec: KernelSpec, points) -> KernelTable:
    """Kernel table wide enough for every |[z, phi] - y/sqrt(eta)| in data."""
    z_max = max((math.hypot(p.q, p.p) for p in points), default=0.0)
    u_max = z_max + float(np.max(np.abs(data.y))) / math.sqrt(spec.noise.eta) + 1.0
    return build_table(spec, u_max)


# elements of one (points x records) block of kernel arguments: sizes the
# one workspace all blocks of a call reuse, four arrays of 256 KiB that stay
# in a 2 MiB L2 cache (on grid-recon's grid 2^18 took 1.15 to 1.55 times as
# long), and changes no value (each row sums alone)
_BLOCK = 2**15


def _estimate(data: Dataset, spec: KernelSpec, q: np.ndarray, p: np.ndarray,
              table: Optional[KernelTable]) -> np.ndarray:
    """West at the points (q[k], p[k]), one row of records per point."""
    if abs(data.meta.eta - spec.noise.eta) > 1e-12:
        raise ConfigurationError(
            f"dataset eta = {data.meta.eta} but kernel eta = {spec.noise.eta}"
        )
    y = data.y
    if y.size == 0:
        raise ValidationError("empty dataset")
    if table is None:
        far = int(np.argmax(np.hypot(q, p)))
        table = default_table(data, spec, [PhasePoint(q[far], p[far])])
    elif table.spec != spec:
        raise ConfigurationError(f"kernel table built for {table.spec}, not for {spec}")
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
    ``table`` must be built for ``spec`` (ConfigurationError otherwise)."""
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
        if not all(isinstance(k, (int, np.integer)) and k >= 0 for k in steps):
            raise ValidationError(f"grid steps must be integers >= 0, got {steps!r}")
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
    if qs.size == 0 or ps.size == 0:
        return WignerGrid(q=qs, p=ps, values=np.zeros((qs.size, ps.size)))
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

    @classmethod
    def from_json_dict(cls, d: dict) -> "RiskReport":
        return cls(
            points=tuple(PhasePoint(q, p) for q, p in d["points"]),
            reps=int(d["reps"]),
            per_point_mse=np.asarray(d["per_point_mse"], dtype=float),
            per_point_se=np.asarray(d["per_point_se"], dtype=float),
            per_rep_losses=np.asarray(d["per_rep_losses"], dtype=float),
            rate_phi2=d.get("rate_phi2"),
            meta=d.get("meta", {}),
        )


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
    manifest is sufficient to regenerate the experiment exactly.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    pts = tuple(map(_as_phase_point, points))
    if not pts:
        raise ValidationError("need at least one evaluation point")
    rho = materialize(state)
    truth = np.array([wigner_eval(rho, p) for p in pts])
    h = bandwidth(rule, n, noise)
    kspec = KernelSpec(h=h, noise=noise, variant=variant)
    sampler = QuadratureSampler(rho)
    # conservative table range: y support ~ sqrt(eta) x_max + noise tails
    u_max = (
        max(math.hypot(p.q, p.p) for p in pts)
        + x_support_radius(rho.dim)
        + 8.0 / math.sqrt(noise.eta)
    )
    table = build_table(kspec, u_max)
    qs = np.array([z.q for z in pts])
    ps = np.array([z.p for z in pts])

    def one_rep(j: int) -> np.ndarray:
        rep_seed = derive_seed(seed, j)
        ideal = sampler.sample(n, rep_seed)
        ds = add_noise(ideal, noise.eta, rep_seed, state)
        # all points in one pass; each row still sums alone, so every value
        # equals estimate_point's
        return (_estimate(ds, kspec, qs, ps, table) - truth) ** 2

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

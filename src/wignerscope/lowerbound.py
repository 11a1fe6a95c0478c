"""Two-hypothesis lower-bound construction, instantiated numerically.

Base family: diagonal density matrices rho^{alpha,xi} built by integrating
the Mehler kernel against f(z) = alpha (1-z)^alpha (1-xi)^{-alpha} on
[xi, 1].  Perturbation: a rotation-invariant bump V in Fourier space,
supported on an annulus just outside the estimation band, with matrix
tau^{htilde} diagonal via the Laguerre transform.  verify_pair checks the
three lower-bound conditions (class membership, separation at the origin,
small chi^2 between the noisy models) plus positivity of rho +/- tau.

rho^{alpha,xi} is a mixture over z of centred Gaussian states, and Gaussian
detection noise keeps each component Gaussian, so the noisy base density is
one z-integral with kappa = 2 eta - 1:

    p_0^eta(y) = int_xi^1 f(z) / sqrt(pi (1-z)(1+kappa z)) exp(-y^2 (1-z)/(1+kappa z)) dz;

eta = 1 (kappa = 1) is the noiseless density p_alpha_xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy.special import gamma as gamma_fn, gammaincc, gammaln

from ._quad import gl_cos_sum, gl_panels, jacobi_unit
from .errors import BandwidthError, ValidationError
from .fockspace import MAX_ORDER, laguerre_table
from .tomography import (
    ClassIntegralResult, NoiseModel, SmoothnessClass, bandwidth_root, class_integral,
)

_N_MAX = 1e300  # keeps n log n, in htilde_solve, a finite double
_SMALL_X_NODES = 256  # Gauss-Jacobi nodes of the small-|x| mixture branch
_TAIL_TERMS = 6  # terms of p_tail_mass's asymptotic series
# chi_squared's y quadrature: range [0, _CHI2_Y_MAX], panels at most _CHI2_PANEL wide
_CHI2_Y_MAX = 120.0
_CHI2_PANEL = 0.05

# Known-good regression configuration: all four verify_pair verdicts hold.
# n is a formula parameter (nothing is sampled); the construction closes
# only for very large n because the separation and chi^2 conditions carry
# slowly-vanishing finite-n corrections.
FROZEN_FIXTURE = {
    "alpha": 0.2,
    "xi": 0.94,
    "beta": 1.0 / 9.0,
    "r": 2.0,
    "L": 7.6,
    "eta": 0.2,
    "delta": 0.5,
    "big_d": 5.0,
    "n": 10**120,
    "k_max": 2000,
}


@dataclass(frozen=True)
class AlphaXi:
    """Parameters of the base family f(z) = alpha (1-z)^alpha (1-xi)^{-alpha}
    on [xi, 1].  Positivity of the perturbed pair needs alpha < 1/4."""

    alpha: float
    xi: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        if not 0.0 < self.xi < 1.0:
            raise ValidationError("xi must lie in (0, 1)")


# 7th-order smoothstep: S(0)=0, S(1)=1, S', S'', S''' vanish at both ends
_SMOOTHSTEP = (35.0, -84.0, 70.0, -20.0)  # coefficients of x^4..x^7


def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x**4 * (_SMOOTHSTEP[0] + x * (_SMOOTHSTEP[1] + x * (_SMOOTHSTEP[2] + x * _SMOOTHSTEP[3])))


def _smoothstep_prime(x: np.ndarray) -> np.ndarray:
    inside = (x > 0.0) & (x < 1.0)
    x = np.clip(x, 0.0, 1.0)
    d = x**3 * (4 * _SMOOTHSTEP[0] + x * (5 * _SMOOTHSTEP[1] + x * (6 * _SMOOTHSTEP[2] + x * 7 * _SMOOTHSTEP[3])))
    return np.where(inside, d, 0.0)


@dataclass(frozen=True)
class BumpSpec:
    """C^3 window J with I_[2delta, D-2delta] <= J <= I_[delta, D-delta].

    Two-sided 7th-order polynomial smoothstep: rise on [delta, 2*delta],
    plateau 1 on [2*delta, D-2*delta], fall on [D-2*delta, D-delta].
    """

    delta: float
    big_d: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValidationError("delta must be > 0")
        if not 4.0 * self.delta < self.big_d < math.inf:
            raise ValidationError("need finite D > 4*delta")

    def j_value(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        d, D = self.delta, self.big_d
        rise = _smoothstep((u - d) / d)
        fall = _smoothstep((D - d - u) / d)
        out = np.minimum(rise, fall)
        return np.where((u > d) & (u < D - d), out, 0.0)

    def j_derivative(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        d, D = self.delta, self.big_d
        out = np.zeros_like(u)
        on_rise = (u > d) & (u < 2.0 * d)
        on_fall = (u > D - 2.0 * d) & (u < D - d)
        out = np.where(on_rise, _smoothstep_prime((u - d) / d) / d, out)
        out = np.where(on_fall, -_smoothstep_prime((D - d - u) / d) / d, out)
        return out


@dataclass(frozen=True)
class PairReport:
    """Numbers and verdicts of the two-hypothesis construction checks."""

    htilde: float
    positivity_margin: float
    class_lhs: float
    class_rhs: float
    separation: float
    separation_threshold: float
    chi2_times_n: float
    verdict_positivity: bool
    verdict_class: bool
    verdict_separation: bool
    verdict_chi2: bool
    diagnostics: dict

    @property
    def all_true(self) -> bool:
        return (
            self.verdict_positivity
            and self.verdict_class
            and self.verdict_separation
            and self.verdict_chi2
        )

    def to_json_dict(self) -> dict:
        return {
            "htilde": self.htilde,
            "positivity_margin": self.positivity_margin,
            "class_lhs": self.class_lhs,
            "class_rhs": self.class_rhs,
            "separation": self.separation,
            "separation_threshold": self.separation_threshold,
            "chi2_times_n": self.chi2_times_n,
            "verdicts": {
                "positivity": self.verdict_positivity,
                "class": self.verdict_class,
                "separation": self.verdict_separation,
                "chi2": self.verdict_chi2,
            },
            "diagnostics": self.diagnostics,
        }


def rho_alpha_xi_diag(axi: AlphaXi, k_max: int) -> np.ndarray:
    """Diagonal elements rho_kk = int_xi^1 z^k f(z) dz for k = 0..k_max.

    With 1-z = (1-xi)s the integrand is s^alpha times the polynomial
    (1 - (1-xi)s)^k, so the Gauss-Jacobi rule with enough nodes is exact
    up to roundoff.
    """
    if not 0 <= k_max <= MAX_ORDER:
        raise ValidationError(f"k_max must lie in [0, {MAX_ORDER}]")
    a, xi = axi.alpha, axi.xi
    n_nodes = max(64, k_max // 2 + 2)
    s, w = jacobi_unit(n_nodes, a)
    base = 1.0 - (1.0 - xi) * s
    out = np.empty(k_max + 1)
    poly = np.ones_like(s)
    pref = a * (1.0 - xi)  # alpha (1-xi)^{-alpha} * (1-xi)^{1+alpha}
    for k in range(k_max + 1):
        out[k] = pref * float(np.dot(w, poly))
        poly = poly * base
    return out


def rho_tail_mass(axi: AlphaXi, k_max: int) -> float:
    """Exact trace beyond the truncation: sum_{k > k_max} rho_kk
    = alpha (1-xi)^{-alpha} int_xi^1 (1-z)^{alpha-1} z^{k_max+1} dz."""
    a, xi = axi.alpha, axi.xi
    n_nodes = max(64, (k_max + 1) // 2 + 2)
    s, w = jacobi_unit(n_nodes, a - 1.0)
    base = 1.0 - (1.0 - xi) * s
    return a * float(np.dot(w, base ** (k_max + 1)))


def _p_small_x(axi: AlphaXi, x: np.ndarray, eta: float = 1.0) -> np.ndarray:
    # substitution 1-z = (1-xi)s: weight s^{alpha-1/2}, smooth remainder;
    # 1 + kappa z = 1 + kappa - kappa (1-xi) s
    a, xi = axi.alpha, axi.xi
    kappa = 2.0 * eta - 1.0
    s, w = jacobi_unit(_SMALL_X_NODES, a - 0.5)
    om = 1.0 - xi
    var_den = (1.0 + kappa) - kappa * om * s
    g = var_den ** -0.5 * np.exp(-np.multiply.outer(x * x, om * s / var_den))
    return (a * math.sqrt(om) / math.sqrt(math.pi)) * (g @ w)


def _p_large_x(axi: AlphaXi, x: np.ndarray, eta: float = 1.0) -> np.ndarray:
    # tail substitution u = x sqrt((1-z)/(1+kappa z)): the integrand is
    # u^{2 alpha} (x^2 + kappa u^2)^{-(alpha+1)} e^{-u^2}.  Split the u-range
    # into a Gauss-Jacobi piece on [0, min(1, U)] (weight u^{2 alpha}) and a
    # rescaled Gauss-Legendre piece on [min(1, U), min(U, 9)], vectorized
    # over x through per-point range scaling
    a, xi = axi.alpha, axi.xi
    kappa = 2.0 * eta - 1.0
    xa = np.abs(np.asarray(x, dtype=float))
    u_top = xa * math.sqrt((1.0 - xi) / (1.0 + kappa * xi))
    # 2 alpha (2 eta)^alpha, written so that eta = 1 multiplies by 1.0 exactly
    pref = a * 2.0 ** (a + 1.0) * eta**a * xa / ((1.0 - xi) ** a * math.sqrt(math.pi))
    s, w = jacobi_unit(160, 2.0 * a)
    u1 = np.minimum(1.0, u_top)
    uu = np.multiply.outer(u1, s)            # (npts, nodes)
    g1 = (kappa * uu * uu + (xa * xa)[:, None]) ** -(a + 1.0) * np.exp(-uu * uu)
    val = u1 ** (2.0 * a + 1.0) * (g1 @ w)
    hi = np.minimum(u_top, 9.0)
    has_b = hi > 1.0
    if np.any(has_b):
        t0, tw = gl_panels(0.0, 1.0, 1.0 / 40.0)     # unit grid, rescaled per point
        span = (hi[has_b] - 1.0)[:, None]
        tt = 1.0 + span * t0[None, :]
        g2 = tt ** (2.0 * a) * (kappa * tt * tt + (xa[has_b] ** 2)[:, None]) ** -(a + 1.0) * np.exp(-tt * tt)
        val[has_b] += (g2 @ tw) * span[:, 0]
    return pref * val


def _p_mixture(axi: AlphaXi, x, eta: float):
    """int_xi^1 f(z) / sqrt(pi (1-z)(1+kappa z)) exp(-x^2 (1-z)/(1+kappa z)) dz
    with kappa = 2 eta - 1, split at |x| = 3 sqrt(eta) between the two branches."""
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    small = np.abs(xs) <= 3.0 * math.sqrt(eta)
    if np.any(small):
        out[small] = _p_small_x(axi, xs[small], eta)
    if np.any(~small):
        out[~small] = _p_large_x(axi, xs[~small], eta)
    return float(out[0]) if scalar else out


def p_alpha_xi(axi: AlphaXi, x):
    """Quadrature density of rho^{alpha,xi} (phase-independent):

        p(x) = int_xi^1 f(z) / sqrt(pi (1 - z^2)) exp(-x^2 (1-z)/(1+z)) dz.
    """
    return _p_mixture(axi, x, 1.0)


def p_tail_mass(axi: AlphaXi, x_cut: float, eta: float = 1.0) -> float:
    """Analytic tail integral int_{x_cut}^inf p(x) dx via the asymptotic
    series p(x) = pref * x^{-1-2 alpha} sum_k c_k kappa^k x^{-2k}; the
    leading term is the |x|^{-(1+2 alpha)} power law with its exact constant.

    eta < 1 gives the tail of the noisy density p_0^eta (kappa = 2 eta - 1;
    eta = 1 is p_alpha_xi itself).  Valid once the endpoint correction
    exp(-u_top^2) is negligible, i.e. x_cut >= ~8 sqrt((1+kappa xi)/(1-xi)).
    """
    a, xi = axi.alpha, axi.xi
    kappa = 2.0 * eta - 1.0
    pref = a * 2.0 ** (a + 1.0) * eta**a / ((1.0 - xi) ** a * math.sqrt(math.pi))
    total = 0.0
    for k in range(_TAIL_TERMS):
        binom = _binom_neg(a, k) * kappa**k
        moment = 0.5 * math.exp(gammaln(a + k + 0.5))   # int_0^inf u^{2a+2k} e^{-u^2} du
        power = 2.0 * a + 2.0 * k
        total += binom * moment * x_cut ** (-power) / power
    return pref * total


def _binom_neg(a: float, k: int) -> float:
    """binomial(-(a+1), k) by the stable product form."""
    out = 1.0
    for i in range(k):
        out *= (-(a + 1.0) - i) / (i + 1.0)
    return out


def wtilde_alpha_xi(axi: AlphaXi, t):
    """Radial Fourier profile of the base state:

        W~(t) = int_xi^1 f(z)/(1-z) exp(-t^2 (1+z) / (4 (1-z))) dz
              = e^{t^2/4 - c} - c^alpha Gamma(1-alpha, c) e^{t^2/4},

    with c = t^2 / (2 (1-xi)); both exponents are negative, so the closed
    form stays finite for all t.
    """
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0.0):
        raise ValidationError("t must be >= 0")
    a = axi.alpha
    c = ts * ts / (2.0 * (1.0 - axi.xi))
    out = np.empty_like(ts)
    zero = c == 0.0
    out[zero] = 1.0
    cz = c[~zero]
    tz = ts[~zero]
    log_g = _log_upper_gamma(1.0 - a, cz)
    first = np.exp(tz * tz / 4.0 - cz)
    second = np.exp(tz * tz / 4.0 + a * np.log(cz) + log_g)
    out[~zero] = first - second
    return float(out[0]) if scalar else out


def _log_upper_gamma(s: float, x: np.ndarray) -> np.ndarray:
    """log Gamma(s, x) for 0 < s < 1, elementwise; asymptotic series for
    large x where gammaincc underflows."""
    out = np.empty_like(x)
    small = x < 600.0
    if np.any(small):
        g = gammaincc(s, x[small]) * gamma_fn(s)
        out[small] = np.log(g)
    if np.any(~small):
        xb = x[~small]
        # Gamma(s,x) = x^{s-1} e^{-x} [1 + (s-1)/x + (s-1)(s-2)/x^2 + ...]
        series = 1.0
        term = np.ones_like(xb)
        for i in range(1, 8):
            term = term * (s - i) / xb
            series = series + term
        out[~small] = (s - 1.0) * np.log(xb) - xb + np.log(series)
    return out


def _envelope(cls: SmoothnessClass, htilde: float, ts: np.ndarray) -> np.ndarray:
    """2 sqrt(pi beta r L) htilde^{1 - r/2} e^{beta/htilde^r} e^{-2 beta t^r},
    the part of j_htilde outside the window, evaluated in log space."""
    if not 0.0 < htilde < 1.0:
        raise ValidationError("htilde must lie in (0, 1)")
    beta, r, L = cls.beta, cls.r, cls.L
    if beta / htilde**r > 700.0:
        raise BandwidthError("j_htilde amplitude exponent beyond overflow guard")
    log_amp = (
        math.log(2.0 * math.sqrt(math.pi * beta * r * L))
        + (1.0 - r / 2.0) * math.log(htilde)
        + beta / htilde**r
    )
    return np.exp(log_amp - 2.0 * beta * ts**r)


def j_htilde(bump: BumpSpec, cls: SmoothnessClass, htilde: float, t):
    """Fourier profile of the perturbation:

        J(t) = 2 sqrt(pi beta r L) htilde^{1 - r/2} e^{beta/htilde^r}
               e^{-2 beta t^r} Jwindow(t^r - 1/htilde^r),

    evaluated in log space; supported where delta <= t^r - htilde^{-r} <= D - delta.
    """
    scalar = np.ndim(t) == 0
    ts = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    envelope = _envelope(cls, htilde, ts)
    window = bump.j_value(ts**cls.r - htilde**-cls.r)
    out = np.where(window > 0.0, envelope * window, 0.0)
    return float(out[0]) if scalar else out


def j_htilde_derivative(bump: BumpSpec, cls: SmoothnessClass, htilde: float, t):
    """d/dt of j_htilde (chain rule through the window and the envelope)."""
    r = cls.r
    ts = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    envelope = _envelope(cls, htilde, ts)
    u = ts**r - htilde**-r
    dt_tr = r * ts ** (r - 1.0)
    return envelope * (-2.0 * cls.beta * dt_tr * bump.j_value(u) + bump.j_derivative(u) * dt_tr)


def j_support(bump: BumpSpec, cls: SmoothnessClass, htilde: float) -> tuple:
    """(t_lo, t_hi) hull of the support of j_htilde."""
    r = cls.r
    return (
        (htilde**-r + bump.delta) ** (1.0 / r),
        (htilde**-r + bump.big_d - bump.delta) ** (1.0 / r),
    )


def htilde_solve(cls: SmoothnessClass, noise: NoiseModel, n: int) -> float:
    """Perturbation scale: root of

        2 beta / h^r + 2 gamma / h^2 = log n + (log log n)^2   (r < 2),

    or the closed form (log(n log n) / (2 (beta+gamma)))^{-1/2} for r = 2.
    """
    if not 16 <= n <= _N_MAX:
        raise ValidationError(f"n must lie in [16, {_N_MAX:.0e}]")
    beta, r = cls.beta, cls.r
    gamma = noise.gamma
    if r == 2.0:
        return (math.log(n * math.log(n)) / (2.0 * (beta + gamma))) ** -0.5
    return bandwidth_root(cls, noise, math.log(n) + math.log(math.log(n)) ** 2)


def tau_diag(bump: BumpSpec, cls: SmoothnessClass, htilde: float, k_max: int) -> np.ndarray:
    """Diagonal perturbation matrix elements

        tau_kk = 4 pi^2 int_0^inf L_k(t^2/2) e^{-t^2/4} t J(t) dt,

    integrated over the compact support of J with oscillation-aware panels.
    """
    if not 0 <= k_max <= MAX_ORDER:
        raise ValidationError(f"k_max must lie in [0, {MAX_ORDER}]")
    t_lo, t_hi = j_support(bump, cls, htilde)
    osc = math.sqrt(2.0 * k_max + 1.0)
    width = min(math.pi / (4.0 * osc), (t_hi - t_lo) / 8.0)
    t, w = gl_panels(t_lo, t_hi, width)
    jv = j_htilde(bump, cls, htilde, t)
    lag = laguerre_table(k_max, t * t / 2.0)
    weights = w * np.exp(-t * t / 4.0) * t * jv
    return 4.0 * math.pi**2 * (lag @ weights)


def sep_at_origin(bump: BumpSpec, cls: SmoothnessClass, htilde: float) -> float:
    """|W_2(0) - W_1(0)| = (1/pi) int_0^inf t J(t) dt."""
    t_lo, t_hi = j_support(bump, cls, htilde)
    t, w = gl_panels(t_lo, t_hi, (t_hi - t_lo) / 64.0)
    return float(np.dot(w, t * j_htilde(bump, cls, htilde, t))) / math.pi


def perturbation_profile_noisy(
    bump: BumpSpec, cls: SmoothnessClass, noise: NoiseModel, htilde: float, y
) -> np.ndarray:
    """q(y) = (1/pi) int_0^inf cos(t y) J(sqrt(eta) t) e^{-(1-eta) t^2/4} dt,

    the noisy-model density perturbation: p_i^eta = p_0^eta +/- q."""
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    t_lo, t_hi = j_support(bump, cls, htilde)
    se = math.sqrt(noise.eta)
    a, b = t_lo / se, t_hi / se
    y_max = float(np.max(np.abs(ys))) if ys.size else 0.0
    width = min((b - a) / 16.0, math.pi / (4.0 * max(y_max, 1.0)))

    def profile(t):
        return j_htilde(bump, cls, htilde, se * t) * np.exp(-(1.0 - noise.eta) * t * t / 4.0)

    return gl_cos_sum(ys, a, b, width, profile) / math.pi


def base_density_noisy(axi: AlphaXi, noise: NoiseModel, y) -> np.ndarray:
    """p_0^eta(y), the noisy quadrature density of rho^{alpha,xi}.

    Each mixture component of rho^{alpha,xi} is a centred Gaussian in x of
    variance (1+z)/(2(1-z)); Y = sqrt(eta) X + sqrt((1-eta)/2) xi keeps it a
    centred Gaussian, of variance (1+kappa z)/(2(1-z)) with kappa = 2 eta - 1:

        p_0^eta(y) = int_xi^1 f(z) / sqrt(pi (1-z)(1+kappa z))
                     exp(-y^2 (1-z)/(1+kappa z)) dz,

    the p_alpha_xi integral with 1+z replaced by 1+kappa z (eta = 1 is
    p_alpha_xi), evaluated by the same two branches split at |y| = 3 sqrt(eta).
    """
    return _p_mixture(axi, np.atleast_1d(np.asarray(y, dtype=float)), noise.eta)


def perturbation_l2(bump: BumpSpec, cls: SmoothnessClass, noise: NoiseModel, htilde: float) -> float:
    """||p_2^eta - p_1^eta||_2^2 = (4/pi) int_0^inf J(sqrt(eta) t)^2 e^{-(1-eta) t^2/2} dt."""
    t_lo, t_hi = j_support(bump, cls, htilde)
    se = math.sqrt(noise.eta)
    t, w = gl_panels(t_lo / se, t_hi / se, (t_hi - t_lo) / (se * 64.0))
    f = j_htilde(bump, cls, htilde, se * t) ** 2 * np.exp(-(1.0 - noise.eta) * t * t / 2.0)
    return 4.0 / math.pi * float(np.dot(w, f))


def tail_control_term(bump: BumpSpec, cls: SmoothnessClass, noise: NoiseModel, htilde: float) -> float:
    """y^2-weighted counterpart: int y^2 (p_2^eta - p_1^eta)^2 dy
    = (2/pi) int_0^inf |d/dt J(sqrt(eta) t) e^{-(1-eta) t^2/4}|^2 dt."""
    t_lo, t_hi = j_support(bump, cls, htilde)
    se = math.sqrt(noise.eta)
    t, w = gl_panels(t_lo / se, t_hi / se, (t_hi - t_lo) / (se * 256.0))
    env = np.exp(-(1.0 - noise.eta) * t * t / 4.0)
    d = (
        se * j_htilde_derivative(bump, cls, htilde, se * t).ravel() * env
        - (1.0 - noise.eta) * t / 2.0 * j_htilde(bump, cls, htilde, se * t) * env
    )
    return 2.0 / math.pi * float(np.dot(w, d * d))


def chi_squared(
    axi: AlphaXi,
    bump: BumpSpec,
    cls: SmoothnessClass,
    noise: NoiseModel,
    htilde: float,
) -> dict:
    """chi^2 = pi * int (p_2^eta - p_1^eta)^2 / p_1^eta dy, by direct
    quadrature in y (rotation invariance makes the angular integral trivial).

    p_1^eta = p_0^eta + q: the base density p_0^eta(y) is the closed mixture
    integral of base_density_noisy (1+z replaced by 1+kappa z in p_alpha_xi,
    kappa = 2 eta - 1), the perturbation q is perturbation_profile_noisy.

    Returns the value plus the L2 and y^2-weighted tail-control diagnostics.
    """
    t_lo, t_hi = j_support(bump, cls, htilde)
    width = min(_CHI2_PANEL, math.pi / (4.0 * t_hi))
    y, w = gl_panels(0.0, _CHI2_Y_MAX, width)
    q = perturbation_profile_noisy(bump, cls, noise, htilde, y)
    # p_0^eta is smooth and monotone-tailed: evaluate on a coarse grid and
    # interpolate onto the oscillation-resolving grid of q
    from scipy.interpolate import CubicSpline

    y_coarse = np.linspace(0.0, _CHI2_Y_MAX, max(int(_CHI2_Y_MAX * 8), 400))
    p0_spline = CubicSpline(y_coarse, base_density_noisy(axi, noise, y_coarse))
    p0 = p0_spline(y)
    p1 = p0 + q
    if float(np.min(p1)) <= 0.0:
        raise ValidationError("p_1^eta not positive on the quadrature range")
    integrand = 4.0 * q * q / p1
    chi2 = 2.0 * math.pi * float(np.dot(w, integrand))
    # crude tail bound from the measured power-law decay of the integrand
    tail = float(integrand[-1]) * _CHI2_Y_MAX / 4.0
    return {
        "chi2": chi2,
        "tail_estimate": 2.0 * math.pi * tail,
        "l2_term": perturbation_l2(bump, cls, noise, htilde),
        "tail_control_term": tail_control_term(bump, cls, noise, htilde),
    }


def base_class_integral(axi: AlphaXi, cls: SmoothnessClass) -> ClassIntegralResult:
    """Class integral of the base profile W~^{alpha,xi} (finite for xi close
    to 1; used to size L for the frozen fixture)."""
    return class_integral(lambda t: wtilde_alpha_xi(axi, t), cls)


def verify_pair(
    axi: AlphaXi,
    bump: BumpSpec,
    cls: SmoothnessClass,
    noise: NoiseModel,
    n: int,
    *,
    k_max: int = 2000,
    tau_scale: float = 1.0,
) -> PairReport:
    """Build the pair rho_1/2 = rho^{alpha,xi} +/- tau and check the
    lower-bound conditions: positivity, class membership via the triangle
    decomposition, separation >= phi_n-scaled threshold, and
    n (chi^2 + its tail estimate past the y range) <= 1.

    tau_scale multiplies the perturbation (for forced-violation tests).
    """
    from .estimator import rate_phi2

    htilde = htilde_solve(cls, noise, n)
    rho_d = rho_alpha_xi_diag(axi, k_max)
    tau = tau_scale * tau_diag(bump, cls, htilde, k_max)
    margin = float(np.min(rho_d - np.abs(tau)))

    base = base_class_integral(axi, cls)
    pert = 2.0 * math.pi * _j_sq_weighted(bump, cls, htilde)
    class_lhs = (math.sqrt(max(base.value, 0.0)) + math.sqrt(pert) * tau_scale) ** 2

    separation = tau_scale * sep_at_origin(bump, cls, htilde)
    phi_n = math.sqrt(rate_phi2(cls, n, noise))
    sep_threshold = 2.0 * phi_n * 0.5

    try:
        chi = chi_squared(axi, bump, cls, noise, htilde)
        chi2_n = n * chi["chi2"] * tau_scale**2
        # the verdict also counts chi^2 beyond the quadrature range
        chi2_bound = n * (chi["chi2"] + chi["tail_estimate"]) * tau_scale**2
    except ValidationError as exc:
        # degenerate model (p_1 not positive): failing verdict, not an error
        chi = {"chi2": math.inf, "tail_estimate": math.inf,
               "l2_term": math.nan, "tail_control_term": math.nan,
               "error": str(exc)}
        chi2_n = chi2_bound = math.inf

    return PairReport(
        htilde=htilde,
        positivity_margin=margin,
        class_lhs=class_lhs,
        class_rhs=cls.rhs,
        separation=separation,
        separation_threshold=sep_threshold,
        chi2_times_n=chi2_n,
        verdict_positivity=margin >= 0.0,
        verdict_class=(base.converged and class_lhs <= cls.rhs),
        verdict_separation=separation >= sep_threshold,
        verdict_chi2=chi2_bound <= 1.0,
        diagnostics={
            "base_class_integral": base.value,
            "base_class_converged": base.converged,
            "perturbation_class_integral": pert,
            "phi_n": phi_n,
            "chi2": chi["chi2"],
            "chi2_tail_estimate": chi["tail_estimate"],
            "l2_term": chi["l2_term"],
            "tail_control_term": chi["tail_control_term"],
            "k_max": k_max,
            "tau_scale": tau_scale,
        },
    )


def _j_sq_weighted(bump: BumpSpec, cls: SmoothnessClass, htilde: float) -> float:
    """int_0^inf t J(t)^2 e^{2 beta t^r} dt (class weight on the perturbation)."""
    t_lo, t_hi = j_support(bump, cls, htilde)
    t, w = gl_panels(t_lo, t_hi, (t_hi - t_lo) / 64.0)
    f = t * j_htilde(bump, cls, htilde, t) ** 2 * np.exp(2.0 * cls.beta * t**cls.r)
    return float(np.dot(w, f))

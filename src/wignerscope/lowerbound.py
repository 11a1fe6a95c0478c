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

eta = 1 (kappa = 1) is the noiseless quadrature density of rho^{alpha,xi}.
The diagonal rho_kk and its tail are z-moments of f, taken by one stable
recurrence (_z_moments); p_0^eta is one Gauss-Jacobi rule for every y and
eta (_p_mixture).

J is C^3 only at its window's four knots, so every integral over J's support
(tau_diag, sep_at_origin, perturbation_profile_noisy, perturbation_l2,
tail_control_term, _j_sq_weighted) takes one rule: 16-point Gauss-Legendre
on equal panels within each of the three knot segments (j_segments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from ._quad import (
    _GL_X, _panel_rule, cells_eval, gl_cos_sum, gl_panels, hermite_cells, jacobi_unit,
)
from .errors import BandwidthError, ValidationError
from .fockspace import MAX_ORDER, _check_order, laguerre_rows
from .tomography import (
    ClassIntegralResult, NoiseModel, SmoothnessClass, bandwidth_root, class_integral,
)

_N_MAX = 1e300  # keeps n log n, in htilde_solve, a finite double
_P_NODES = 64  # Gauss-Jacobi nodes of _p_mixture's one rule
_P_EXP_CUT = 45.0  # _p_mixture ends its range where x^2 w reaches this
# wtilde_alpha_xi's incomplete-gamma series and fraction: a cap on their
# terms, and the relative change at which a value has converged
_GAMMA_TERMS = 200
_EPS = float(np.finfo(float).eps)
# radians of oscillation, or e-foldings of the envelope, one panel of
# j_segments' rule spans at most
_J_PANEL_RAD = 2.0
# chi_squared's y quadrature: range [0, _CHI2_Y_MAX], panels at most _CHI2_PANEL wide
_CHI2_Y_MAX = 120.0
_CHI2_PANEL = 0.05
_CHI2_COARSE = 960  # nodes of chi_squared's p_0^eta table on [0, _CHI2_Y_MAX]

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


def _z_moments(e: float, xi: float, m_max: int) -> np.ndarray:
    """M_m = int_xi^1 z^m (1-z)^e dz for m = 0..m_max, e > -1.

    Integration by parts gives M_m = (xi^m (1-xi)^{e+1} + m M_{m-1}) / (e+1+m):
    every term is positive and each step scales an inherited error by
    m / (e+1+m) < 1, so the forward recurrence is stable.
    """
    top = (1.0 - xi) ** (e + 1.0)
    out = np.empty(m_max + 1)
    out[0] = prev = top / (e + 1.0)
    for m in range(1, m_max + 1):
        out[m] = prev = (xi**m * top + m * prev) / (e + 1.0 + m)
    return out


def rho_alpha_xi_diag(axi: AlphaXi, k_max: int) -> np.ndarray:
    """Diagonal elements rho_kk = int_xi^1 z^k f(z) dz for k = 0..k_max,
    alpha (1-xi)^{-alpha} times the moments of (1-z)^alpha."""
    if not 0 <= k_max <= MAX_ORDER:
        raise ValidationError(f"k_max must lie in [0, {MAX_ORDER}]")
    a, xi = axi.alpha, axi.xi
    return a * (1.0 - xi) ** -a * _z_moments(a, xi, k_max)


def rho_tail_mass(axi: AlphaXi, k_max: int) -> float:
    """Exact trace beyond the truncation: sum_{k > k_max} rho_kk
    = alpha (1-xi)^{-alpha} int_xi^1 (1-z)^{alpha-1} z^{k_max+1} dz."""
    a, xi = axi.alpha, axi.xi
    return a * (1.0 - xi) ** -a * float(_z_moments(a - 1.0, xi, k_max + 1)[-1])


def _p_mixture(axi: AlphaXi, x, eta: float):
    """int_xi^1 f(z) / sqrt(pi (1-z)(1+kappa z)) exp(-x^2 (1-z)/(1+kappa z)) dz,
    kappa = 2 eta - 1, by one Gauss-Jacobi rule for every x and eta.

    w = (1-z)/(1+kappa z) makes it C int_0^{w_max} w^{alpha-1/2} (1+kappa w)^{-(alpha+1)}
    e^{-x^2 w} dw, C = alpha (2 eta)^alpha (1-xi)^{-alpha} / sqrt(pi), and then
    1 + kappa w = e^{kappa v} (w = v at kappa = 0) moves the pole, which nears
    the range as eta -> 0, off to infinity:

        C int_0^V v^{alpha-1/2} (w/v)^{alpha-1/2} e^{-alpha kappa v - x^2 w} dv,

    V where w reaches min(w_max, _P_EXP_CUT / x^2), w_max = (1-xi)/(1+kappa xi).
    """
    scalar = np.ndim(x) == 0
    x2 = np.square(np.atleast_1d(np.asarray(x, dtype=float)))
    a, xi = axi.alpha, axi.xi
    kappa = 2.0 * eta - 1.0
    w_max = (1.0 - xi) / (1.0 + kappa * xi)
    w_top = w_max / np.maximum(1.0, x2 * (w_max / _P_EXP_CUT))
    s, sw = jacobi_unit(_P_NODES, a - 0.5)
    v_top = np.log1p(kappa * w_top) / kappa if kappa else w_top
    v = np.multiply.outer(v_top, s)
    w = np.expm1(kappa * v) / kappa if kappa else v
    g = (w / v) ** (a - 0.5) * np.exp(-a * kappa * v - x2[:, None] * w)
    pref = a * (2.0 * eta) ** a * (1.0 - xi) ** -a / math.sqrt(math.pi)
    out = pref * v_top ** (a + 0.5) * (g @ sw)
    return float(out[0]) if scalar else out


def wtilde_alpha_xi(axi: AlphaXi, t):
    """Radial Fourier profile of the base state:

        W~(t) = int_xi^1 f(z)/(1-z) exp(-t^2 (1+z) / (4 (1-z))) dz
              = e^{t^2/4} (e^{-c} - c^alpha Gamma(1-alpha, c)),

    with c = t^2 / (2 (1-xi)).  Below c = 2 - alpha, Gamma(1-alpha, c) =
    Gamma(1-alpha) - gamma(1-alpha, c) with gamma(1-alpha, c) = c^{1-alpha}
    e^{-c} S(c) (_lower_gamma_series), so

        W~ = e^{t^2/4} ((1 + c S(c)) e^{-c} - Gamma(1-alpha) c^alpha).

    Above, Gamma(1-alpha, c) = c^{-alpha} e^{-c} - alpha Gamma(-alpha, c)
    cancels the e^{-c} term exactly, and

        W~ = alpha e^{t^2/4 - c} F(-alpha, c),   F(a, x) = Gamma(a, x) / (x^a e^{-x}),

    with F from the Legendre continued fraction (_upper_gamma_fraction).
    t^2/4 - c < 0, so W~ stays finite for all t, and W~(inf) = 0.
    """
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(ts >= 0.0):
        raise ValidationError("t must be >= 0 and not NaN")
    a = axi.alpha
    with np.errstate(over="ignore"):   # c = inf past t ~ 1e154, where W~ is 0
        c = ts * ts / (2.0 * (1.0 - axi.xi))
    out = np.zeros_like(ts)
    low = c < 2.0 - a
    high = ~low & (c < math.inf)
    cl, tl = c[low], ts[low]
    out[low] = np.exp(tl * tl / 4.0) * (
        (1.0 + cl * _lower_gamma_series(1.0 - a, cl)) * np.exp(-cl)
        - math.gamma(1.0 - a) * cl**a
    )
    ch, th = c[high], ts[high]
    out[high] = a * np.exp(th * th / 4.0 - ch) * _upper_gamma_fraction(-a, ch)
    return float(out[0]) if scalar else out


def _lower_gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    """S(a, x) = sum_{n>=0} x^n / (a (a+1) ... (a+n)), a > 0, so that
    gamma(a, x) = x^a e^{-x} S(a, x) (DLMF 8.7.1).  Every term is positive;
    for x < 1 + a the terms fall at once, and fewer than 25 reach eps."""
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    for n in range(1, _GAMMA_TERMS):
        term *= x / (a + n)
        total += term
        if np.all(term <= _EPS * total):
            break
    return total


def _upper_gamma_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """F(a, x) = Gamma(a, x) / (x^a e^{-x}) for a < 1 and x >= 1, by the
    Legendre continued fraction

        F = 1/(x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...)))

    (DLMF 8.9.2) in modified Lentz form (Numerical Recipes, 3rd ed., 6.2).
    Each value stops changing once its own factor is 1 within eps; at
    x >= 1 that takes fewer than 100 terms, and fewer as x grows."""
    b = x + 1.0 - a
    c = np.full_like(x, np.inf)
    d = 1.0 / b
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for i in range(1, _GAMMA_TERMS):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        factor = d * c
        h = np.where(done, h, h * factor)
        done |= np.abs(factor - 1.0) <= _EPS
        if done.all():
            break
    return h


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
    """(t_lo, t_hi) hull of the support of j_htilde: its first and last knot."""
    segments = j_segments(bump, cls, htilde)
    return segments[0][0], segments[-1][1]


def j_segments(
    bump: BumpSpec, cls: SmoothnessClass, htilde: float, omega: float = 0.0, scale: float = 1.0
) -> list:
    """J's support split at the knots of its window, u = t^r - htilde^{-r} in
    {delta, 2 delta, D - 2 delta, D - delta}: three (a, b, max_width) segments
    in s = scale t.

    J is smooth between knots, so 16-point Gauss-Legendre on equal panels
    converges fast within a segment.  A panel spans at most _J_PANEL_RAD
    radians of the caller's frequency omega (in s) or e-foldings of the
    largest log-slope on the support, whichever is larger: J^2's envelope
    gives 4 beta r t^{r-1}, and scale = 1/sqrt(eta) adds the noisy
    integrals' factor e^{-(1-eta) s^2/2}, (scale^2 - 1) t_hi, both per unit s.
    """
    d, D, r = bump.delta, bump.big_d, cls.r
    knots = [(htilde**-r + u) ** (1.0 / r) for u in (d, 2.0 * d, D - 2.0 * d, D - d)]
    t_lo, t_hi = knots[0], knots[-1]
    envelope = 4.0 * cls.beta * r * max(t_lo ** (r - 1.0), t_hi ** (r - 1.0))
    width = _J_PANEL_RAD / max(omega, (envelope + (scale * scale - 1.0) * t_hi) / scale)
    return [(scale * knots[i], scale * knots[i + 1], width) for i in range(3)]


def _j_rule(bump: BumpSpec, cls: SmoothnessClass, htilde: float, omega: float = 0.0,
            scale: float = 1.0):
    """Flat nodes and weights of j_segments' rule, all three segments."""
    parts = [gl_panels(*seg) for seg in j_segments(bump, cls, htilde, omega, scale)]
    return np.concatenate([t for t, _ in parts]), np.concatenate([w for _, w in parts])


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

    by j_segments' rule over J's support.  L_k(t^2/2) e^{-t^2/4} is the
    bounded Laguerre row b_k^0(t^2/2) (``fockspace.laguerre_rows``), so
    neither factor over- or underflows; it oscillates like J_0(t sqrt(2k+1))
    (Hilb's formula), so the rule's panels resolve omega = sqrt(2 k_max + 1).
    """
    _check_order(k_max)
    t, w = _j_rule(bump, cls, htilde, math.sqrt(2.0 * k_max + 1.0))
    weights = w * t * j_htilde(bump, cls, htilde, t)
    lag = np.array(list(laguerre_rows(k_max, 0, t * t / 2.0)))
    return 4.0 * math.pi**2 * (lag @ weights)


def sep_at_origin(bump: BumpSpec, cls: SmoothnessClass, htilde: float) -> float:
    """|W_2(0) - W_1(0)| = (1/pi) int_0^inf t J(t) dt."""
    t, w = _j_rule(bump, cls, htilde)
    return float(np.dot(w, t * j_htilde(bump, cls, htilde, t))) / math.pi


def perturbation_profile_noisy(
    bump: BumpSpec, cls: SmoothnessClass, noise: NoiseModel, htilde: float, y, y_off=None
) -> np.ndarray:
    """q(y) = (1/pi) int_0^inf cos(t y) J(sqrt(eta) t) e^{-(1-eta) t^2/4} dt,

    the noisy-model density perturbation: p_i^eta = p_0^eta +/- q.  With
    y_off, q at every y[q] + y_off[i], as a (len(y), len(y_off)) array
    (``_quad.gl_cos_sum``'s separable grid)."""
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    nodes = ys if y_off is None else np.add.outer(ys, y_off)
    se = math.sqrt(noise.eta)
    y_max = float(np.max(np.abs(nodes), initial=0.0))

    def profile(t):
        return j_htilde(bump, cls, htilde, se * t) * np.exp(-(1.0 - noise.eta) * t * t / 4.0)

    segments = j_segments(bump, cls, htilde, y_max, 1.0 / se)
    return sum(gl_cos_sum(ys, a, b, width, profile, y_off) for a, b, width in segments) / math.pi


def base_density_noisy(axi: AlphaXi, noise: NoiseModel, y) -> np.ndarray:
    """p_0^eta(y), the noisy quadrature density of rho^{alpha,xi}.

    Each mixture component of rho^{alpha,xi} is a centred Gaussian in x of
    variance (1+z)/(2(1-z)); Y = sqrt(eta) X + sqrt((1-eta)/2) xi keeps it a
    centred Gaussian, of variance (1+kappa z)/(2(1-z)) with kappa = 2 eta - 1:

        p_0^eta(y) = int_xi^1 f(z) / sqrt(pi (1-z)(1+kappa z))
                     exp(-y^2 (1-z)/(1+kappa z)) dz,

    the noiseless density's integral with 1+z replaced by 1+kappa z (eta = 1
    is p(x)), evaluated by _p_mixture's one rule.
    """
    return _p_mixture(axi, np.atleast_1d(np.asarray(y, dtype=float)), noise.eta)


def perturbation_l2(bump: BumpSpec, cls: SmoothnessClass, noise: NoiseModel, htilde: float) -> float:
    """||p_2^eta - p_1^eta||_2^2 = (4/pi) int_0^inf J(sqrt(eta) t)^2 e^{-(1-eta) t^2/2} dt."""
    se = math.sqrt(noise.eta)
    t, w = _j_rule(bump, cls, htilde, scale=1.0 / se)
    f = j_htilde(bump, cls, htilde, se * t) ** 2 * np.exp(-(1.0 - noise.eta) * t * t / 2.0)
    return 4.0 / math.pi * float(np.dot(w, f))


def tail_control_term(bump: BumpSpec, cls: SmoothnessClass, noise: NoiseModel, htilde: float) -> float:
    """y^2-weighted counterpart of perturbation_l2, over the full line:

        int y^2 (p_2^eta - p_1^eta)^2 dy
            = (4/pi) int_0^inf |d/dt J(sqrt(eta) t) e^{-(1-eta) t^2/4}|^2 dt,

    by Parseval, since y times a function transforms to the t-derivative
    of its transform."""
    se = math.sqrt(noise.eta)
    t, w = _j_rule(bump, cls, htilde, scale=1.0 / se)
    env = np.exp(-(1.0 - noise.eta) * t * t / 4.0)
    d = (
        se * j_htilde_derivative(bump, cls, htilde, se * t).ravel() * env
        - (1.0 - noise.eta) * t / 2.0 * j_htilde(bump, cls, htilde, se * t) * env
    )
    return 4.0 / math.pi * float(np.dot(w, d * d))


def _chi2_grid(t_hi: float):
    """chi_squared's y rule on [0, _CHI2_Y_MAX]: equal panels no wider than
    _CHI2_PANEL or pi/(4 t_hi), as panel midpoints, the 16 offsets they
    share and the (panels, 16) weights."""
    y_mid, half, _, w = _panel_rule(0.0, _CHI2_Y_MAX, min(_CHI2_PANEL, math.pi / (4.0 * t_hi)))
    return y_mid, half[0] * _GL_X, w


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
    integral of base_density_noisy (1+z replaced by 1+kappa z in the
    noiseless density, kappa = 2 eta - 1), the perturbation q is
    perturbation_profile_noisy.

    The y rule's nodes are panel midpoints plus 16 shared offsets
    (_chi2_grid), and q takes them as that separable grid, with 2 (16 +
    panels) cos and sin per midpoint, not per node (``_quad.gl_cos_sum``).

    Returns the value plus the L2 and y^2-weighted tail-control diagnostics.
    """
    y_mid, y_off, w = _chi2_grid(j_support(bump, cls, htilde)[1])
    y, w = np.add.outer(y_mid, y_off).ravel(), w.ravel()
    q = perturbation_profile_noisy(bump, cls, noise, htilde, y_mid, y_off).ravel()
    # p_0^eta is even, smooth and monotone-tailed: tabulate it on a coarse grid
    # (three nodes past _CHI2_Y_MAX) and interpolate onto q's oscillation-resolving grid
    step = _CHI2_Y_MAX / (_CHI2_COARSE - 1)
    p0_nodes = base_density_noisy(axi, noise, np.arange(_CHI2_COARSE + 3) * step)
    p0 = cells_eval(hermite_cells(p0_nodes, step), step, y)
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
    t, w = _j_rule(bump, cls, htilde)
    f = t * j_htilde(bump, cls, htilde, t) ** 2 * np.exp(2.0 * cls.beta * t**cls.r)
    return float(np.dot(w, f))

"""Fock-basis linear algebra and special functions.

The Hermite oscillator eigenfunctions and the normalized associated-
Laguerre family b_j^d, both from one three-term recurrence carried with a
per-point exponent and run in blocks of 48 rows; standard quantum states
(number, coherent, squeezed vacuum, cat), whose recipes (StateSpec)
refuse an order, a dim or a mean photon number past the stability budget
when they are built; and pointwise Wigner-function evaluation through the
closed Laguerre form of the basis kernels.

All number conventions: the oscillator eigenfunctions are

    psi_j(x) = H_j(x) exp(-x^2/2) / sqrt(sqrt(pi) 2^j j!),

the Wigner function of a state is bounded by 1/pi, and the vacuum Wigner
function is exp(-q^2 - p^2)/pi.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

MAX_ORDER = 2000          # stability budget for hermite_psi_table / laguerre_blocks
DEFAULT_TAIL_MASS = 1e-8  # truncation rule: diagonal tail mass target
_MAX_DIM = MAX_ORDER + 1  # truncation cap: psi_0..psi_MAX_ORDER

# laguerre_blocks evaluates larger x here: |b_j^d(x)| <= e^{-x/2} (2x)^{j+d}
# is below the smallest double past it for every j + d <= MAX_ORDER
_LAGUERRE_X_ZERO = 5.0e4
_SQRT2 = math.sqrt(2.0)
_LOG2 = math.log(2.0)
_BLOCK = 48  # rows of a recurrence block, the rescale period


def _check_order(j: int) -> None:
    if j < 0 or int(j) != j:
        raise ValidationError(f"order must be a nonnegative integer, got {j!r}")
    if j > MAX_ORDER:
        raise ValidationError(f"order {j} exceeds stability budget {MAX_ORDER}")


def _check_dim(dim: int) -> None:
    if dim > _MAX_DIM:
        raise ValidationError(
            f"dim {dim} exceeds the truncation cap {_MAX_DIM} (orders up to {MAX_ORDER})"
        )


def _recurrence_blocks(n: int, log2_y0: np.ndarray, a_rows, b: np.ndarray):
    """Rows y_0..y_{n-1} of the three-term recurrence

        y_{k+1} = a_k y_k - b_k y_{k-1},   y_{-1} = 0,

    from y_0 = 2^log2_y0 (0 where log2_y0 = -inf), in blocks: row 0 alone,
    then rows 1-48, 49-96, ... (at most _BLOCK rows, one array each).
    a_rows(ks, out) writes a_k for the k in the slice ks into the (rows,
    points) array out; b holds b_0..b_{n-2}.  Each point is carried as
    mantissa * 2^exponent, so rows that start below the smallest double can
    grow back into range.  After rows 1, 49, 97, ... a point whose last two
    rows have left [2^-500, 2^500] is rescaled by 2^500 or 2^-500; the
    scaling is exact.  A row costs two ufunc calls into views of one buffer,
    made once: (-b_k, a_k) times (y_{k-1}, y_k), then the sum of the two
    products, which rounds as a_k y_k - b_k y_{k-1} does.
    """
    expo = np.floor(np.nan_to_num(log2_y0, neginf=0.0)).astype(np.int32)
    rows = min(n - 1, _BLOCK)
    buf = np.zeros((rows + 2, log2_y0.size))  # the two rows before a block, then it
    buf[1] = np.exp2(log2_y0 - expo)
    yield np.ldexp(buf[1:2], expo)
    coefs = np.empty((rows, 2, log2_y0.size))
    prods = np.empty((2, log2_y0.size))
    steps = [(coefs[i], buf[i:i + 2], buf[i + 2]) for i in range(rows)]
    mul, add, p0, p1 = np.multiply, np.add, prods[0], prods[1]
    for k0 in range(0, n - 1, _BLOCK):
        ks = slice(k0, min(k0 + _BLOCK, n - 1))
        r = ks.stop - k0
        coefs[:r, 0] = -b[ks, None]
        a_rows(ks, coefs[:r, 1])
        mul(coefs[0], buf[:2], prods)
        add(p0, p1, buf[2])
        m = np.maximum(np.abs(buf[1]), np.abs(buf[2]))
        shift = np.zeros(m.shape, dtype=np.int32)
        shift[m > 2.0 ** 500] = -500
        shift[(m > 0.0) & (m < 2.0 ** -500)] = 500
        if np.any(shift):
            np.ldexp(buf[1:3], shift, out=buf[1:3])
            expo = expo - shift
        for c, pair, row in steps[1:r]:
            mul(c, pair, prods)
            add(p0, p1, row)
        yield np.ldexp(buf[2:r + 2], expo)
        buf[:2] = buf[r:r + 2]


def hermite_psi_table(j_max: int, x) -> np.ndarray:
    """All psi_0..psi_{j_max} on an array of points; shape (j_max+1, len(x)).

    Blocks of at most 48 rows of the normalized recurrence
    (``_recurrence_blocks``)

        psi_{j+1} = x sqrt(2/(j+1)) psi_j - sqrt(j/(j+1)) psi_{j-1},

    so high orders are correct where exp(-x^2/2) underflows.
    """
    _check_order(j_max)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    log2_psi0 = -0.25 * math.log2(math.pi) - x * x / (2.0 * _LOG2)
    j = np.arange(j_max, dtype=float)
    scale = np.sqrt(2.0 / (j + 1.0))

    def a_rows(ks, out):
        np.multiply(scale[ks, None], x, out=out)

    return np.concatenate(list(_recurrence_blocks(j_max + 1, log2_psi0, a_rows,
                                                  np.sqrt(j / (j + 1.0)))))


def laguerre_blocks(j_max: int, d: int, x):
    """Rows b_0^d..b_{j_max}^d on an array of points, in blocks of at most
    48 rows, of the normalized associated-Laguerre family (displacement-
    operator matrix elements, bounded by 1 in absolute value)

        b_j^d(x) = sqrt(j!/(j+d)!) x^{d/2} e^{-x/2} L_j^{(d)}(x),

    from their normalized recurrence (``_recurrence_blocks``), so e^{-x/2}
    may underflow.  At x = 0 with d > 0 every row is 0.  The order is
    checked at the call, before the first block is asked for.
    """
    _check_order(j_max + d)
    x = np.minimum(np.atleast_1d(np.asarray(x, dtype=float)), _LAGUERRE_X_ZERO)
    log2_b0 = -x / (2.0 * _LOG2) - 0.5 * math.lgamma(d + 1) / _LOG2
    if d > 0:
        log2_b0 += 0.5 * d * np.log2(x, out=np.full(x.shape, -np.inf), where=x > 0.0)
    j = np.arange(j_max, dtype=float)
    norm = (j + 1.0) * (j + d + 1.0)
    center, scale = 2.0 * j + (d + 1.0), np.sqrt(norm)

    def a_rows(ks, out):
        np.divide(np.subtract(center[ks, None], x, out=out), scale[ks, None], out=out)

    return _recurrence_blocks(j_max + 1, log2_b0, a_rows, np.sqrt(j * (j + d) / norm))


def laguerre_rows(j_max: int, d: int, x):
    """The rows of ``laguerre_blocks(j_max, d, x)``, one at a time."""
    return itertools.chain.from_iterable(laguerre_blocks(j_max, d, x))


@dataclass(frozen=True)
class PhasePoint:
    """A point z = (q, p) of phase space."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValidationError("phase-space coordinates must be finite")


def _as_phase_point(z) -> PhasePoint:
    if isinstance(z, PhasePoint):
        return z
    q, p = z
    return PhasePoint(float(q), float(p))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Truncated density matrix in the Fock basis.

    entries[j, k] = rho_jk; Hermitian, positive semidefinite, with
    trace(entries) = 1 - tail_mass up to tolerance.  tail_mass is the trace
    declared lost to truncation.
    """

    dim: int
    entries: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.dim, self.dim):
            raise ValidationError(
                f"entries shape {entries.shape} does not match dim {self.dim}"
            )
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if not np.all(np.isfinite(entries)):
            raise ValidationError("non-finite matrix entry")
        if not 0.0 <= self.tail_mass < 1.0:
            raise ValidationError("tail_mass must lie in [0, 1)")
        scale = max(1.0, float(np.max(np.abs(entries))))
        asym = float(np.max(np.abs(entries - entries.conj().T)))
        if asym > 1e-8 * scale:
            raise ValidationError(f"entries not Hermitian (max asymmetry {asym:.3e})")
        entries = 0.5 * (entries + entries.conj().T)   # exact Hermitian symmetry
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        diag = np.diagonal(entries).real
        if np.min(diag) < -1e-12:
            raise ValidationError("negative diagonal entry beyond tolerance")
        eigmin = float(np.linalg.eigvalsh(entries)[0])
        if eigmin < -1e-10:
            raise ValidationError(f"matrix not PSD (lambda_min = {eigmin:.3e})")
        tr = float(np.trace(entries).real)
        if not (1.0 - self.tail_mass - 1e-12 <= tr <= 1.0 + 1e-12):
            raise ValidationError(
                f"trace {tr!r} inconsistent with tail_mass {self.tail_mass!r}"
            )

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "tail_mass": self.tail_mass,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityMatrix":
        """Build from to_json_dict's form; a dim past the truncation cap is
        refused before the entries are converted."""
        dim = int(data["dim"])
        _check_dim(dim)
        entries = np.asarray(data["re"], dtype=float) + 1j * np.asarray(
            data["im"], dtype=float
        )
        return cls(dim=dim, entries=entries, tail_mass=float(data["tail_mass"]))


@dataclass(frozen=True)
class StateSpec:
    """Recipe for a standard state plus the truncation to use.

    kind is one of fock/coherent/squeezed/cat/custom; params holds the
    kind-specific parameters.  dim=None leaves the truncation to the tail
    rule of materialize().  A spec holds the caps that need no matrix: dim
    at most _MAX_DIM, a fock n at most MAX_ORDER, and a mean photon number
    (_mean_photons) at most _MAX_DIM, so a recipe past them is refused
    where it is parsed.
    """

    kind: str
    params: dict
    dim: Optional[int] = None

    def __post_init__(self):
        if self.dim is not None and not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValidationError(f"dim must be a positive integer or null, got {self.dim!r}")
        if self.dim is not None:
            _check_dim(self.dim)
        if self.kind == "fock":
            _check_order(self.params["n"])
        elif self.kind in ("coherent", "squeezed", "cat"):
            mean_n = _mean_photons(self)
            if not mean_n <= _MAX_DIM:
                raise ValidationError(
                    f"{self.kind} state {self.params}: mean photon number {mean_n:.3g} "
                    f"exceeds the dim cap {_MAX_DIM}"
                )

    @classmethod
    def fock(cls, n: int, dim: Optional[int] = None) -> "StateSpec":
        if n < 0 or int(n) != n:
            raise ValidationError("photon number must be a nonnegative integer")
        return cls("fock", {"n": int(n)}, dim)

    @classmethod
    def coherent(cls, q0: float, p0: float, dim: Optional[int] = None) -> "StateSpec":
        return cls("coherent", {"q0": float(q0), "p0": float(p0)}, dim)

    @classmethod
    def squeezed(cls, s: float, dim: Optional[int] = None) -> "StateSpec":
        return cls("squeezed", {"s": float(s)}, dim)

    @classmethod
    def cat(cls, q0: float, axis: str = "q", dim: Optional[int] = None) -> "StateSpec":
        if axis not in ("q", "p"):
            raise ValidationError("cat axis must be 'q' or 'p'")
        return cls("cat", {"q0": float(q0), "axis": axis}, dim)

    @classmethod
    def custom(cls, matrix: DensityMatrix) -> "StateSpec":
        return cls("custom", {"matrix": matrix}, matrix.dim)

    def to_dict(self) -> dict:
        params = dict(self.params)
        if self.kind == "custom":
            params["matrix"] = params["matrix"].to_json_dict()
        return {"kind": self.kind, "params": params, "dim": self.dim}

    @classmethod
    def from_dict(cls, data: dict) -> "StateSpec":
        """Rebuild a spec from to_dict's form through the named constructor
        of its kind, which checks the kind's parameters."""
        kind, params = data["kind"], dict(data["params"])
        if kind == "custom":
            return cls.custom(DensityMatrix.from_json_dict(params["matrix"]))
        if kind not in ("fock", "coherent", "squeezed", "cat"):
            raise ValidationError(f"unknown state kind {kind!r}")
        return getattr(cls, kind)(**params, dim=data.get("dim"))


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Fock coefficients <k|alpha> = e^{-|alpha|^2/2} alpha^k / sqrt(k!)."""
    c = np.empty(dim, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for k in range(1, dim):
        c[k] = c[k - 1] * alpha / math.sqrt(k)
    return c


def _squeezed_amplitudes(s: float, dim: int) -> np.ndarray:
    """Fock coefficients of the squeezed vacuum with Var(Q) = e^{-2s}/2."""
    c = np.zeros(dim, dtype=complex)
    c[0] = 1.0 / math.sqrt(math.cosh(s))
    t = math.tanh(s)
    for m in range(1, (dim + 1) // 2):
        c[2 * m] = c[2 * m - 2] * (-t) * math.sqrt((2 * m - 1) / (2.0 * m))
    return c


def _pure_state_vector(spec: StateSpec, dim: int) -> np.ndarray:
    kind, params = spec.kind, spec.params
    if kind == "coherent":
        alpha = complex(params["q0"], params["p0"]) / _SQRT2
        return _coherent_amplitudes(alpha, dim)
    if kind == "squeezed":
        return _squeezed_amplitudes(params["s"], dim)
    if kind == "cat":
        alpha = params["q0"] / _SQRT2
        if params["axis"] == "p":
            alpha = 1j * alpha
        c = _coherent_amplitudes(complex(alpha), dim)
        c = c + _coherent_amplitudes(complex(-alpha), dim)
        # full-space norm of |alpha> + |-alpha>, independent of truncation
        norm = math.sqrt(2.0 * (1.0 + math.exp(-2.0 * abs(alpha) ** 2)))
        return c / norm
    raise ValidationError(f"unknown pure-state kind {kind!r}")


def _mean_photons(spec: StateSpec) -> float:
    """<N> of a coherent or squeezed recipe, the coherent bound |alpha|^2
    of a cat; inf (not OverflowError) where it exceeds the floats."""
    if spec.kind == "squeezed":
        sinh_s = math.sinh(min(abs(spec.params["s"]), 710.0))
        return sinh_s * sinh_s
    q0, p0 = spec.params["q0"], spec.params.get("p0", 0.0)
    return 0.5 * (q0 * q0 + p0 * p0)


def materialize(spec: StateSpec) -> DensityMatrix:
    """Build the DensityMatrix for a StateSpec.

    The truncation dim starts at spec.dim (16 if unset) and doubles until
    the diagonal tail mass is at most DEFAULT_TAIL_MASS; the realized tail
    is recorded in tail_mass.  A fock state gets at least n + 1 levels.
    No dim past _MAX_DIM is built: StateSpec refuses the caps on the
    recipe, and a tail target the doubling would only reach past _MAX_DIM
    is refused before the matrix is allocated.
    """
    if spec.kind == "custom":
        return spec.params["matrix"]
    if spec.kind == "fock":
        n = spec.params["n"]
        dim = max(spec.dim or 0, n + 1)
        entries = np.zeros((dim, dim), dtype=complex)
        entries[n, n] = 1.0
        return DensityMatrix(dim=dim, entries=entries, tail_mass=0.0)

    dim = spec.dim if spec.dim is not None else 16
    while True:
        c = _pure_state_vector(spec, dim)
        tail = 1.0 - float(np.sum(np.abs(c) ** 2))
        tail = max(tail, 0.0)
        if tail <= DEFAULT_TAIL_MASS:
            break
        if 2 * dim > _MAX_DIM:
            raise ValidationError(
                f"{spec.kind} state {spec.params}: tail target {DEFAULT_TAIL_MASS:.1e} "
                f"not reached at dim {dim}, and dim {2 * dim} exceeds the cap {_MAX_DIM}"
            )
        dim *= 2
    entries = np.outer(c, c.conj())
    return DensityMatrix(dim=dim, entries=entries, tail_mass=tail)


def wigner_eval_many(rho: DensityMatrix, q, p) -> np.ndarray:
    """Wigner function W_rho at arrays of phase-space points.

    Uses the closed Laguerre form of the basis kernels: for k = j + d,

        W_{j,j+d}(z) = ((-1)^j / pi) e^{i d theta} b_j^d(2|z|^2),

    with b_j^d the bounded normalized Laguerre family and theta = arg(q+ip).
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if q.shape != p.shape:
        raise ValidationError("q and p must have matching shapes")
    if not (np.isfinite(q).all() and np.isfinite(p).all()):
        raise ValidationError("phase-space coordinates must be finite")
    r2 = q * q + p * p
    x = 2.0 * r2
    dim = rho.dim
    theta_phase = np.where(r2 > 0.0, (q + 1j * p) / np.sqrt(np.where(r2 > 0, r2, 1.0)), 1.0)
    signs = (-1.0) ** np.arange(dim)
    total = np.zeros(q.shape, dtype=complex)
    phase_d = np.ones(q.shape, dtype=complex)
    for d in range(dim):
        coef = signs[: dim - d] * np.diagonal(rho.entries, offset=d)
        if np.any(coef):
            acc = sum(c * row for c, row in zip(coef, laguerre_rows(dim - 1 - d, d, x)))
            total += acc if d == 0 else 2.0 * (acc * phase_d).real
        phase_d = phase_d * theta_phase
    max_imag = float(np.max(np.abs(total.imag), initial=0.0))   # 0.0 for no points
    if max_imag > 1e-10:
        raise ValidationError(f"non-real Wigner value, max |imag| = {max_imag:.3e}")
    return total.real / math.pi


def wigner_eval(rho: DensityMatrix, z) -> float:
    """Wigner function W_rho(z) at a single phase-space point."""
    z = _as_phase_point(z)
    return float(wigner_eval_many(rho, [z.q], [z.p])[0])


"""The benchmark's four workloads: their ops, inputs and output checks.

A workload runs in rounds.  One round is the workload's fixed job, a
short list of ``wignerscope`` CLI commands (ops) of fixed input size.
Every op's inputs come from the workload seed and the round index.  Each
op also draws a physical parameter that reaches the op's dominant
computation (eta, the cat amplitude, alpha or h), so no op repeats the
inputs of that computation, and caching results across ops cannot pass
for a speed-up.  After each op its outputs are checked; a failed check
raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An op's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    argv: list
    check: Callable[[], None]

    @property
    def command(self) -> str:
        return self.argv[0]


def read_csv(path: Path, header: str, rows: int) -> np.ndarray:
    """Parse a CLI CSV output: exact header, ``rows`` rows, finite values."""
    lines = path.read_text().splitlines()
    require(lines[0] == header, f"{path.name}: header {lines[0]!r} != {header!r}")
    require(len(lines) - 1 == rows, f"{path.name}: {len(lines) - 1} rows, expected {rows}")
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    require(bool(np.all(np.isfinite(values))), f"{path.name}: non-finite value")
    return values


def check_manifest(out: Path) -> dict:
    """The sidecar manifest exists and its digest matches the output."""
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    require(manifest["outputs"].get(str(out)) == digest, f"{out.name}: manifest digest mismatch")
    return manifest


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path, cli_run: Callable):
        self.smoke = smoke
        self.workdir = workdir
        self.cli_run = cli_run
        self.rng = random.Random(f"{self.name}:{seed}")
        self._used = set()

    def fresh(self, draw: Callable):
        """A value from ``draw`` that no earlier op of this process used."""
        while True:
            value = draw()
            if value not in self._used:
                self._used.add(value)
                return value

    def round_dir(self, index: int) -> Path:
        """Directory for one round's files; the previous round's is removed."""
        shutil.rmtree(self.workdir / f"r{index - 1}", ignore_errors=True)
        path = self.workdir / f"r{index}"
        path.mkdir()
        return path

    def round(self, index: int) -> list:
        raise NotImplementedError

    def warmup(self) -> list:
        """Ops of the untimed warm-up round: by default a whole round."""
        return self.round(0)


def wigner_fock1(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Closed form W_1(q, p) = -(1 - 2 r^2) e^{-r^2} / pi of the one-photon state."""
    r2 = q * q + p * p
    return -(1.0 - 2.0 * r2) * np.exp(-r2) / math.pi


class GridRecon(Workload):
    """simulate fock:1 (n = 5000) -> estimate on a 41x41 grid -> cut at p = 0.

    Estimator sums and kernel lookups do nearly all the work; the diagonal
    state gives the sampler a 1-phase table, so sampling costs little.
    Each round draws eta from [0.9, 0.905), so the bandwidth and with it
    the kernel table differ from round to round.
    The grid is 41x41 rather than the README's 81x81 so that a run holds
    about a dozen rounds, which keeps its medians steady on a shared host.
    """

    name = "grid-recon"

    KERNEL = ["--h", "r2", "--beta", "0.2", "--r", "2", "--L", "1"]

    def __init__(self, *args):
        super().__init__(*args)
        self.n, self.steps = (400, 9) if self.smoke else (5000, 41)
        self.cut_steps = 4 * self.steps - 3   # every 4th cut point is a grid point
        self.p0_row = None

    def round(self, index):
        d = self.round_dir(index)
        data, grid, cut = d / "d.csv", d / "grid.csv", d / "cut.csv"
        seed = self.fresh(lambda: self.rng.randrange(1, 2**31))
        eta = self.fresh(lambda: repr(0.9 + 0.005 * self.rng.random()))
        g = self.steps
        cut_argv = ["cut", "--data", str(data), "--p", "0", "--qmin=-4", "--qmax", "4",
                    "--steps", str(self.cut_steps), *self.KERNEL, "--out", str(cut)]
        return [
            Op(["simulate", "--state", "fock:1", "--n", str(self.n), "--eta", eta,
                "--seed", str(seed), "--out", str(data)],
               lambda: self.check_simulate(data)),
            Op(["estimate", "--data", str(data), *self.KERNEL,
                f"--grid=-4:4:{g},-4:4:{g}", "--out", str(grid)],
               lambda: self.check_estimate(grid)),
            Op(cut_argv, lambda: self.check_cut(cut, cut_argv if index == 0 else None)),
        ]

    def check_simulate(self, data):
        lines = data.read_text().splitlines()
        require(lines[0].startswith("# meta: "), "dataset: missing meta header")
        require(len(lines) - 1 == self.n, f"dataset: {len(lines) - 1} records, expected {self.n}")
        records = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        require(bool(np.all(np.isfinite(records))), "dataset: non-finite record")
        require(bool(np.all((records[:, 1] >= 0) & (records[:, 1] <= math.pi))),
                "dataset: phase outside [0, pi]")
        check_manifest(data)

    def check_estimate(self, grid):
        g = self.steps
        values = read_csv(grid, "q,p,west", g * g).reshape(g, g, 3)
        axis = np.linspace(-4.0, 4.0, g)
        require(bool(np.all(values[:, 0, 0] == axis) and np.all(values[0, :, 1] == axis)),
                "estimate: grid axes differ from the requested grid")
        row = values[:, g // 2, :]
        require(bool(np.all(np.abs(row[:, 1]) < 1e-12)), "estimate: middle row is not p = 0")
        self.p0_row = row
        check_manifest(grid)

    def check_cut(self, cut, replay_argv):
        values = read_csv(cut, "q,west,wtrue", self.cut_steps)
        q = values[:, 0]
        require(bool(np.all(q == np.linspace(-4.0, 4.0, self.cut_steps))), "cut: q axis wrong")
        err = float(np.max(np.abs(values[:, 2] - wigner_fock1(q, 0.0 * q))))
        require(err <= 1e-12, f"cut: wtrue off the closed form by {err:.3e}")
        # same records, same bandwidth rule: the cut is the grid's p = 0 row
        # up to the different kernel-table ranges of the two commands
        require(self.p0_row is not None, "cut: no estimate grid to compare with")
        dq = float(np.max(np.abs(q[::4] - self.p0_row[:, 0])))
        dw = float(np.max(np.abs(values[::4, 1] - self.p0_row[:, 2])))
        require(dq <= 1e-12 and dw <= 1e-12, f"cut vs grid row p = 0: |dq| {dq:.3e}, |dW| {dw:.3e}")
        check_manifest(cut)
        if replay_argv is not None:
            self.check_replay(cut, replay_argv)

    def check_replay(self, out, argv):
        """Re-running an op's argv reproduces its outputs and manifest byte for byte."""
        output = out.read_bytes()
        sidecar = Path(str(out) + ".manifest.json").read_bytes()
        require(self.cli_run(argv) == 0, "replay: non-zero exit")
        require(out.read_bytes() == output, "replay: output bytes differ")
        require(Path(str(out) + ".manifest.json").read_bytes() == sidecar,
                "replay: manifest bytes differ")


def wigner_even_cat(q: float, p: float, q0: float) -> float:
    """Closed-form Wigner function of the even cat |alpha> + |-alpha>, alpha = q0/sqrt 2."""
    return (math.exp(-(q - q0) ** 2 - p * p) + math.exp(-(q + q0) ** 2 - p * p)
            + 2.0 * math.exp(-q * q - p * p) * math.cos(2.0 * q0 * p)) / (
        2.0 * math.pi * (1.0 + math.exp(-q0 * q0)))


class RiskMC(Workload):
    """risk for a cat state near cat:3 (n = 1e4, 100 reps) at (0, 0) and (3, 0).

    Sampler inversion and its 1024-phase CDF table dominate; the estimator
    sees only two points per dataset, the opposite shape to grid-recon.
    Each op draws the cat amplitude from [3, 3.03) and eta from
    [0.95, 0.955), so the state, its sampler table, the bandwidth and the
    kernel table all differ from op to op.
    """

    name = "risk-mc"

    POINTS = ((0.0, 0.0), (3.0, 0.0))
    # acceptance criterion 2 at n = 1e4, cat:3, eta = 0.95; the drawn
    # amplitudes and efficiencies gave MSE(0, 0) of 6.9e-3 to 8.3e-3
    MSE_BAND = (1.7e-3, 1.5e-2)

    def __init__(self, *args):
        super().__init__(*args)
        self.reps = 25 if self.smoke else 100

    def round(self, index):
        out = self.round_dir(index) / "report.json"
        seed = self.fresh(lambda: self.rng.randrange(1, 2**31))
        q0 = self.fresh(lambda: 3.0 + 0.03 * self.rng.random())
        eta = repr(0.95 + 0.005 * self.rng.random())
        points = ";".join(f"{q:g},{p:g}" for q, p in self.POINTS)
        argv = ["risk", "--state", f"cat:{q0!r}", "--eta", eta, "--n", "10000",
                "--reps", str(self.reps), "--points", points, "--rule", "r2",
                "--beta", "0.08", "--r", "2", "--L", "1", "--seed", str(seed), "--out", str(out)]
        return [Op(argv, lambda: self.check_report(out, q0))]

    def truth(self, q0: float) -> list:
        from wignerscope.fockspace import StateSpec, materialize, wigner_eval

        rho = materialize(StateSpec.cat(q0))
        return [wigner_eval(rho, z) for z in self.POINTS]

    def check_report(self, out, q0):
        report = json.loads(out.read_text())
        mse = np.asarray(report["per_point_mse"], dtype=float)
        losses = np.asarray(report["per_rep_losses"], dtype=float)
        require(mse.shape == (2,) and losses.shape == (self.reps, 2), "risk: report shapes")
        require(bool(np.all(np.isfinite(losses))), "risk: non-finite loss")
        require(bool(np.allclose(mse, losses.mean(axis=0), rtol=1e-12, atol=0.0)),
                "risk: per_point_mse is not the mean of per_rep_losses")
        lo, hi = self.MSE_BAND
        require(lo <= mse[0] <= hi, f"risk: MSE(0,0) = {mse[0]:.3e} outside [{lo:.1e}, {hi:.1e}]")
        truth, expected = report["meta"]["truth"], self.truth(q0)
        require(truth == expected, f"risk: truth {truth} != wigner_eval {expected}")
        # the 1e-8 truncation tail moves W by at most about 2 sqrt(1e-8) / pi
        err = max(abs(t - wigner_even_cat(q, p, q0)) for t, (q, p) in zip(truth, self.POINTS))
        require(err <= 1e-4, f"risk: truth off the closed-form cat Wigner by {err:.3e}")
        check_manifest(out)


class LbFixture(Workload):
    """lb-verify at the frozen fixture for n in four decades, 1e120 to 1e200.

    Only the lower-bound quadratures and the class integral run; this
    workload also sets the memory high-water mark.  A round is two ops,
    and two rounds in a row cover the four decades: with 3.5 s per op a
    run holds three rounds or more in 20 s.  Each op draws alpha from
    [0.2, 0.21), which reaches ``base_density_noisy``,
    ``rho_alpha_xi_diag`` and the base class integral, besides n, which
    reaches the perturbation.
    """

    name = "lb-fixture"

    # every verdict holds for alpha = 0.19, 0.2 and 0.21 at both ends of
    # the first and last decade
    DECADES = (120, 140, 160, 200)
    OPS_PER_ROUND = 2

    def round(self, index):
        d = self.round_dir(index)
        ops = []
        first = self.OPS_PER_ROUND * index
        decades = [self.DECADES[(first + j) % len(self.DECADES)]
                   for j in range(1 if self.smoke else self.OPS_PER_ROUND)]
        for decade in decades:
            n = f"{1.0 + 8.99 * self.rng.random():.6f}e{decade}"
            alpha = self.fresh(lambda: repr(0.2 + 0.01 * self.rng.random()))
            out = d / f"lb-{decade}.json"
            argv = ["lb-verify", "--alpha", alpha, "--xi", "0.94", "--beta", "0.111111111111",
                    "--r", "2", "--L", "7.6", "--eta", "0.2", "--n", n, "--delta", "0.5",
                    "--bigD", "5", "--out", str(out)]
            ops.append(Op(argv, lambda out=out, n=n: self.check_report(out, n)))
        return ops

    def warmup(self):
        """One op: it fills the quadrature caches; the first call is the slowest."""
        return self.round(0)[:1]

    def check_report(self, out, n):
        report = json.loads(out.read_text())
        failed = [k for k, v in report["verdicts"].items() if v is not True]
        require(not failed, f"lb-verify n={n}: verdicts not true: {failed}")
        manifest = check_manifest(out)
        require(manifest["flags"]["n"] == float(n), f"lb-verify: manifest n != {n}")


def kernel_by_quad(u: float, h: float, eta: float, variant: str) -> float:
    """K(u) = (1/2 pi) int cos(u t) M(t) dt with the documented Fourier
    multiplier M, by QUADPACK's oscillatory rule: an oracle independent of
    the package's Gauss-Legendre panels."""
    from scipy.integrate import quad

    gamma = (1.0 - eta) / (4.0 * eta)

    def plateau(t):
        return t * math.exp(gamma * t * t)

    def taper(t):
        if t >= 2.0 / h:
            return 0.0
        return t * math.exp(gamma * t * t + h * h - 1.0 / (t * (2.0 / h - t)))

    opts = dict(weight="cos", wvar=u, epsabs=0.0, epsrel=1e-9, limit=400)
    total = quad(plateau, 0.0, 1.0 / h, **opts)[0]
    if variant == "modified":
        total += quad(taper, 1.0 / h, 2.0 / h, **opts)[0]
    return total / (2.0 * math.pi)


class KernelTab(Workload):
    """kernel-table for modified h = 0.25 and 0.15 (eta 0.9), sharp h = 0.1 (eta 0.95).

    Kernel tabulation is a few percent of every other workload; this one
    gives a change to the kernel evaluator a place to show.
    """

    name = "kernel-tab"

    SPECS = (("modified", 0.25, 0.9), ("modified", 0.15, 0.9), ("sharp", 0.1, 0.95))
    STEP = 0.03125
    QUAD_ROWS = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.umax = 8.0 if self.smoke else 50.0
        self.rows = int(math.ceil(self.umax / self.STEP)) + 1

    def round(self, index):
        d = self.round_dir(index)
        ops = []
        for k, (variant, h0, eta) in enumerate(self.SPECS):
            # widen h by up to 5%: the table's error check holds for wider kernels
            h = self.fresh(lambda: repr(h0 * (1.0 + 0.05 * self.rng.random())))
            rows = [0] + [self.rng.randrange(1, self.rows) for _ in range(self.QUAD_ROWS)]
            out = d / f"kernel-{k}.csv"
            argv = ["kernel-table", "--h", h, "--eta", str(eta), "--variant", variant,
                    "--umax", repr(self.umax), "--step", repr(self.STEP), "--out", str(out)]
            ops.append(Op(argv, lambda out=out, h=float(h), eta=eta, variant=variant, rows=rows:
                          self.check_table(out, h, eta, variant, rows)))
        return ops

    def check_table(self, out, h, eta, variant, rows):
        table = read_csv(out, "u,value", self.rows)
        require(bool(np.all(table[:, 0] == np.arange(self.rows) * self.STEP)), "kernel: u grid")
        k0 = table[0, 1]
        if variant == "sharp":
            gamma = (1.0 - eta) / (4.0 * eta)
            scale = math.expm1(gamma / h**2) / (4.0 * math.pi * gamma)
            require(abs(k0 - scale) <= 1e-6 * scale, f"kernel: K(0) {k0!r} != scale {scale!r}")
        for i in rows:
            u, value = table[i]
            ref = kernel_by_quad(u, h, eta, variant)
            require(abs(value - ref) <= 1e-6 * abs(k0),
                    f"kernel {variant} h={h}: K({u}) = {value!r}, quad {ref!r}")
        check_manifest(out)


WORKLOADS = {w.name: w for w in (GridRecon, RiskMC, LbFixture, KernelTab)}

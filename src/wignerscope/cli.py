"""Command-line interface: reproducible simulation, estimation, risk
evaluation, kernel tabulation, and lower-bound verification runs.

Every run writes its outputs plus a sidecar manifest
(<out>.manifest.json) holding the resolved flags, seed, tool version and
content digests; re-running the manifest's argv reproduces the outputs
byte for byte.  Exit codes: 0 success, 1 validation error, 2 numeric
guard tripped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .errors import NumericGuardError, ValidationError
from .fockspace import DensityMatrix, PhasePoint, StateSpec, materialize, wigner_eval_many
from .kernels import KernelSpec, build_table
from .sampler import read_dataset, simulate, write_dataset
from .tomography import NoiseModel, SmoothnessClass
from .estimator import (
    BandwidthRule,
    GridSpec,
    bandwidth,
    estimate_grid,
    estimate_point,
    risk_eval,
)
from .lowerbound import AlphaXi, BumpSpec, verify_pair

_RULE_NAMES = ("opt", "h1", "h2", "r2", "adaptive")


def _state_number(text: str, convert=float):
    try:
        return convert(text)
    except ValueError:
        raise ValidationError(f"--state: {text!r} is not a number")


def parse_state(text: str) -> StateSpec:
    """State mini-grammar: fock:<n>, coherent:<q0>,<p0>, squeezed:<s>,
    cat:<q0>[,axis=q|p], file:<path>."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValidationError(f"--state: missing ':' in {text!r}")
    if kind == "fock":
        return StateSpec.fock(_state_number(rest, int))
    if kind == "coherent":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValidationError("--state coherent:<q0>,<p0>")
        return StateSpec.coherent(_state_number(parts[0]), _state_number(parts[1]))
    if kind == "squeezed":
        return StateSpec.squeezed(_state_number(rest))
    if kind == "cat":
        parts = rest.split(",")
        axis = "q"
        for extra in parts[1:]:
            key, _, val = extra.partition("=")
            if key != "axis":
                raise ValidationError(f"--state cat: unknown option {extra!r}")
            axis = val
        return StateSpec.cat(_state_number(parts[0]), axis=axis)
    if kind == "file":
        with open(rest) as fh:
            try:
                return StateSpec.custom(DensityMatrix.from_json_dict(json.load(fh)))
            except (ValueError, KeyError, TypeError) as exc:
                # bad JSON, or JSON without the {dim, tail_mass, re, im} fields
                raise ValidationError(f"--state: {rest!r} is not a density-matrix JSON: {exc}")
    raise ValidationError(f"--state: unknown kind {kind!r}")


def _check_eta(eta: float) -> float:
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"--eta must lie in (0, 1), got {eta}")
    return eta


def _check_seed(seed: int) -> int:
    # the RNG keys on 64 bits; wider seeds would silently alias smaller ones
    if not 0 <= seed < 2**64:
        raise ValidationError(f"--seed must lie in [0, 2**64), got {seed}")
    return seed


def _check_r(r: float) -> float:
    if not 0.0 < r <= 2.0:
        raise ValidationError(f"--r must lie in (0, 2], got {r}")
    return r


def _smoothness(args) -> SmoothnessClass:
    if args.beta is None or args.r is None or args.L is None:
        raise ValidationError("bandwidth rule needs --beta, --r and --L")
    _check_r(args.r)
    return SmoothnessClass(args.beta, args.r, args.L)


def _resolve_rule(args, noise: NoiseModel, n: int) -> tuple:
    """(h, rule-description) from --h (float or rule name)."""
    text = args.h
    try:
        return float(text), {"kind": "fixed", "h": float(text)}
    except ValueError:
        pass
    if text not in _RULE_NAMES:
        raise ValidationError(f"--h must be a number or one of {_RULE_NAMES}")
    if text == "adaptive":
        rule = BandwidthRule.adaptive()
    else:
        kind = {"r2": "r2_closed"}.get(text, text)
        rule = BandwidthRule(kind, cls=_smoothness(args))
    h = bandwidth(rule, n, noise)
    return h, {"kind": text, "h": h}


def _digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            sha.update(chunk)
    return sha.hexdigest()


def _write_manifest(out_path: str, command: str, flags: dict, outputs: list, inputs: list = ()):
    manifest = {
        "command": command,
        "tool_version": __version__,
        "flags": flags,
        "inputs": {p: _digest(p) for p in inputs},
        "outputs": {p: _digest(p) for p in outputs},
    }
    path = out_path + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_simulate(args) -> int:
    _check_eta(args.eta)
    _check_seed(args.seed)
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    spec = parse_state(args.state)
    ds = simulate(spec, args.n, args.eta, args.seed)
    write_dataset(ds, args.out)
    _write_manifest(
        args.out,
        "simulate",
        {"state": args.state, "n": args.n, "eta": args.eta, "seed": args.seed,
         "out": args.out},
        [args.out],
    )
    return 0


def cmd_estimate(args) -> int:
    ds = read_dataset(args.data)
    noise = NoiseModel(ds.meta.eta)
    h, rule_desc = _resolve_rule(args, noise, ds.n)
    kspec = KernelSpec(h=h, noise=noise, variant=args.variant)
    try:
        qpart, ppart = args.grid.split(",")
        qmin, qmax, qsteps = qpart.split(":")
        pmin, pmax, psteps = ppart.split(":")
        grid = GridSpec(float(qmin), float(qmax), int(qsteps),
                        float(pmin), float(pmax), int(psteps))
    except ValueError:
        raise ValidationError("--grid expects qmin:qmax:steps,pmin:pmax:steps")
    if grid.q_steps < 1 or grid.p_steps < 1:
        raise ValidationError(f"--grid: steps must be >= 1, got {args.grid!r}")
    wg = estimate_grid(ds, kspec, grid)
    with open(args.out, "w") as fh:
        fh.write("q,p,west\n")
        for iq, q in enumerate(wg.q):
            for ip, p in enumerate(wg.p):
                fh.write(f"{_fmt(q)},{_fmt(p)},{_fmt(wg.values[iq, ip])}\n")
    _write_manifest(
        args.out,
        "estimate",
        {"data": args.data, "h": args.h, "beta": args.beta, "r": args.r,
         "L": args.L, "variant": args.variant, "grid": args.grid,
         "resolved_rule": rule_desc, "out": args.out},
        [args.out],
        inputs=[args.data],
    )
    return 0


def cmd_cut(args) -> int:
    if args.steps < 1:
        raise ValidationError(f"--steps must be >= 1, got {args.steps}")
    ds = read_dataset(args.data)
    noise = NoiseModel(ds.meta.eta)
    h, rule_desc = _resolve_rule(args, noise, ds.n)
    kspec = KernelSpec(h=h, noise=noise, variant=args.variant)
    rho = materialize(ds.meta.state)
    grid = GridSpec(args.qmin, args.qmax, args.steps, args.p, args.p, 1)
    wg = estimate_grid(ds, kspec, grid)
    wtrue = wigner_eval_many(rho, wg.q, np.full_like(wg.q, args.p))
    with open(args.out, "w") as fh:
        fh.write("q,west,wtrue\n")
        for q, west, wt in zip(wg.q, wg.values[:, 0], wtrue):
            fh.write(f"{_fmt(q)},{_fmt(west)},{_fmt(wt)}\n")
    _write_manifest(
        args.out,
        "cut",
        {"data": args.data, "p": args.p, "qmin": args.qmin, "qmax": args.qmax,
         "steps": args.steps, "h": args.h, "beta": args.beta, "r": args.r,
         "L": args.L, "variant": args.variant, "resolved_rule": rule_desc,
         "out": args.out},
        [args.out],
        inputs=[args.data],
    )
    return 0


def cmd_risk(args) -> int:
    _check_eta(args.eta)
    _check_seed(args.seed)
    spec = parse_state(args.state)
    noise = NoiseModel(args.eta)
    points = []
    for part in args.points.split(";"):
        try:
            q, p = part.split(",")
            points.append(PhasePoint(float(q), float(p)))
        except ValueError:
            raise ValidationError(f"--points expects q1,p1;q2,p2;..., got {args.points!r}")
    if args.rule == "fixed":
        if args.hfixed is None:
            raise ValidationError("--rule fixed needs --hfixed")
        rule = BandwidthRule.fixed(args.hfixed)
    elif args.rule == "adaptive":
        rule = BandwidthRule.adaptive()
    else:
        kind = {"r2": "r2_closed"}.get(args.rule, args.rule)
        rule = BandwidthRule(kind, cls=_smoothness(args))
    report = risk_eval(
        spec, noise, rule, args.variant, points, args.n, args.reps, args.seed,
    )
    with open(args.out, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
    _write_manifest(
        args.out,
        "risk",
        {"state": args.state, "eta": args.eta, "n": args.n, "reps": args.reps,
         "points": args.points, "rule": args.rule, "beta": args.beta,
         "r": args.r, "L": args.L, "variant": args.variant, "seed": args.seed,
         "out": args.out},
        [args.out],
    )
    return 0


def cmd_kernel_table(args) -> int:
    _check_eta(args.eta)
    noise = NoiseModel(args.eta)
    spec = KernelSpec(h=args.h_value, noise=noise, variant=args.variant)
    table = build_table(spec, args.umax, args.step)
    grid = np.arange(table.values.size) * table.step
    with open(args.out, "w") as fh:
        fh.write("u,value\n")
        for u, v in zip(grid, table.values):
            fh.write(f"{_fmt(u)},{_fmt(v)}\n")
    _write_manifest(
        args.out,
        "kernel-table",
        {"h": args.h_value, "eta": args.eta, "variant": args.variant,
         "umax": args.umax, "step": args.step, "out": args.out},
        [args.out],
    )
    return 0


def cmd_lb_verify(args) -> int:
    _check_eta(args.eta)
    _check_r(args.r)
    axi = AlphaXi(args.alpha, args.xi)
    bump = BumpSpec(args.delta, args.bigD)
    cls = SmoothnessClass(args.beta, args.r, args.L)
    noise = NoiseModel(args.eta)
    report = verify_pair(axi, bump, cls, noise, int(args.n), k_max=args.kmax)
    with open(args.out, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
    _write_manifest(
        args.out,
        "lb-verify",
        {"alpha": args.alpha, "xi": args.xi, "beta": args.beta, "r": args.r,
         "L": args.L, "eta": args.eta, "n": args.n, "delta": args.delta,
         "bigD": args.bigD, "kmax": args.kmax, "out": args.out},
        [args.out],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerscope",
        description="Noisy homodyne tomography simulation and Wigner reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a noisy homodyne dataset")
    sim.add_argument("--state", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--eta", type=float, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    def add_kernel_flags(p):
        p.add_argument("--h", required=True,
                       help="bandwidth: number or rule opt|h1|h2|r2|adaptive")
        p.add_argument("--beta", type=float)
        p.add_argument("--r", type=float)
        p.add_argument("--L", type=float)
        p.add_argument("--variant", choices=("sharp", "modified"), default="sharp")

    est = sub.add_parser("estimate", help="evaluate the estimator on a grid")
    est.add_argument("--data", required=True)
    add_kernel_flags(est)
    est.add_argument("--grid", required=True,
                     help="qmin:qmax:steps,pmin:pmax:steps")
    est.add_argument("--out", required=True)
    est.set_defaults(func=cmd_estimate)

    cut = sub.add_parser("cut", help="1-d cut (q, West, Wtrue) at fixed p")
    cut.add_argument("--data", required=True)
    cut.add_argument("--p", type=float, required=True)
    cut.add_argument("--qmin", type=float, required=True)
    cut.add_argument("--qmax", type=float, required=True)
    cut.add_argument("--steps", type=int, required=True)
    add_kernel_flags(cut)
    cut.add_argument("--out", required=True)
    cut.set_defaults(func=cmd_cut)

    risk = sub.add_parser("risk", help="Monte Carlo pointwise risk report")
    risk.add_argument("--state", required=True)
    risk.add_argument("--eta", type=float, required=True)
    risk.add_argument("--n", type=int, required=True)
    risk.add_argument("--reps", type=int, required=True)
    risk.add_argument("--points", required=True, help="q1,p1;q2,p2;...")
    risk.add_argument("--rule", default="r2",
                      choices=("opt", "h1", "h2", "r2", "adaptive", "fixed"))
    risk.add_argument("--hfixed", type=float, default=None)
    risk.add_argument("--beta", type=float)
    risk.add_argument("--r", type=float)
    risk.add_argument("--L", type=float)
    risk.add_argument("--variant", choices=("sharp", "modified"), default="sharp")
    risk.add_argument("--seed", type=int, required=True)
    risk.add_argument("--out", required=True)
    risk.set_defaults(func=cmd_risk)

    kt = sub.add_parser("kernel-table", help="tabulate a deconvolution kernel")
    kt.add_argument("--h", dest="h_value", type=float, required=True)
    kt.add_argument("--eta", type=float, required=True)
    kt.add_argument("--variant", choices=("sharp", "modified"), default="sharp")
    kt.add_argument("--umax", type=float, required=True)
    kt.add_argument("--step", type=float, required=True)
    kt.add_argument("--out", required=True)
    kt.set_defaults(func=cmd_kernel_table)

    lb = sub.add_parser("lb-verify", help="two-hypothesis lower-bound checks")
    lb.add_argument("--alpha", type=float, required=True)
    lb.add_argument("--xi", type=float, required=True)
    lb.add_argument("--beta", type=float, required=True)
    lb.add_argument("--r", type=float, required=True)
    lb.add_argument("--L", type=float, required=True)
    lb.add_argument("--eta", type=float, required=True)
    lb.add_argument("--n", type=float, required=True)
    lb.add_argument("--delta", type=float, default=0.5)
    lb.add_argument("--bigD", type=float, default=5.0)
    lb.add_argument("--kmax", type=int, default=2000)
    lb.add_argument("--out", required=True)
    lb.set_defaults(func=cmd_lb_verify)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericGuardError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))

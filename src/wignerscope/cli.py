"""Command-line interface: reproducible simulation, estimation, risk
evaluation, kernel tabulation, and lower-bound verification runs.

Each cmd_* writes its output and returns what it resolved beyond its
flags; run() then writes the sidecar manifest (<out>.manifest.json): every
parsed flag, the resolved values, the tool version and content digests.
Re-running with the manifest's flags reproduces the outputs byte for
byte.  Exit codes: 0 success, 1 validation error (usage and file-system
errors included), 2 numeric guard tripped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from decimal import Decimal, InvalidOperation

import numpy as np

from . import __version__
from .errors import NumericGuardError, ValidationError
from .fockspace import DensityMatrix, PhasePoint, StateSpec, materialize, wigner_eval_many
from .kernels import VARIANTS, KernelSpec, build_table
from .sampler import read_dataset, simulate, write_csv_rows, write_dataset
from .tomography import NoiseModel, SmoothnessClass
from .estimator import (
    BandwidthRule,
    GridSpec,
    bandwidth,
    estimate_grid,
    risk_eval,
)
from .lowerbound import AlphaXi, BumpSpec, verify_pair

# rule names of --h and risk --rule, and the BandwidthRule kind of each
_RULE_KINDS = {"opt": "opt", "h1": "h1", "h2": "h2", "r2": "r2_closed", "adaptive": "adaptive"}


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


def _check_seed(seed: int) -> int:
    # the RNG keys on 64 bits; wider seeds would silently alias smaller ones
    if not 0 <= seed < 2**64:
        raise ValidationError(f"--seed must lie in [0, 2**64), got {seed}")
    return seed


def _integer(text: str) -> Decimal:
    """argparse type of lb-verify --n: an exact integer, also in scientific
    notation (1e120 is 10**120), no larger than the largest double."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite() or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if abs(value) > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"{text!r} exceeds {sys.float_info.max:.3g}")
    return value


def parse_rule(value, beta, r, L) -> BandwidthRule:
    """The BandwidthRule a rule name or a number (a fixed h) stands for;
    the named rules but adaptive take their class from beta, r and L
    (None where the flag was not given)."""
    kind = _RULE_KINDS.get(value)
    if kind == "adaptive":
        return BandwidthRule(kind)
    if kind is not None:
        if beta is None or r is None or L is None:
            raise ValidationError("bandwidth rule needs --beta, --r and --L")
        return BandwidthRule(kind, cls=SmoothnessClass(beta, r, L))
    try:
        h = float(value)
    except ValueError:
        raise ValidationError(f"bandwidth must be a number or one of {tuple(_RULE_KINDS)}")
    return BandwidthRule("fixed", h=h)


def _data_and_kernel(args) -> tuple:
    """(dataset, KernelSpec, resolved_rule) from --data, --variant and
    --h, a number or a rule name."""
    ds = read_dataset(args.data)
    noise = NoiseModel(ds.meta.eta)
    rule = parse_rule(args.h, args.beta, args.r, args.L)
    if rule.kind == "fixed":  # needs no sample size
        h, kind = rule.h, "fixed"
    else:
        h, kind = bandwidth(rule, ds.n, noise), args.h
    return ds, KernelSpec(h=h, noise=noise, variant=args.variant), {"kind": kind, "h": h}


def _digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            sha.update(chunk)
    return sha.hexdigest()


def _json_number(value: Decimal):
    # an exact integer flag: the double it rounds to where that reads back
    # as the same number, every digit otherwise
    as_float = float(value)
    return as_float if Decimal(repr(as_float)) == value else int(value)


def _write_manifest(args, resolved: dict) -> None:
    """<out>.manifest.json: every parsed flag plus what the command
    resolved, with digests of the --data input and the output."""
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    flags.update(resolved)
    inputs = [args.data] if "data" in flags else []
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "flags": flags,
        "inputs": {p: _digest(p) for p in inputs},
        "outputs": {args.out: _digest(args.out)},
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_number)


def cmd_simulate(args) -> dict:
    NoiseModel(args.eta)  # refuses a bad eta before any sampling
    _check_seed(args.seed)
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    spec = parse_state(args.state)
    ds = simulate(spec, args.n, args.eta, args.seed)
    write_dataset(ds, args.out)
    return {}


def cmd_estimate(args) -> dict:
    ds, kspec, rule_desc = _data_and_kernel(args)
    try:
        qpart, ppart = args.grid.split(",")
        qmin, qmax, qsteps = qpart.split(":")
        pmin, pmax, psteps = ppart.split(":")
        qsteps, psteps = int(qsteps), int(psteps)
        if qsteps < 1 or psteps < 1:
            raise ValidationError(f"--grid: steps must be >= 1, got {args.grid!r}")
        grid = GridSpec(float(qmin), float(qmax), qsteps, float(pmin), float(pmax), psteps)
    except ValueError:
        raise ValidationError("--grid expects qmin:qmax:steps,pmin:pmax:steps")
    wg = estimate_grid(ds, kspec, grid)
    with open(args.out, "w") as fh:
        fh.write("q,p,west\n")
        write_csv_rows(fh, np.repeat(wg.q, wg.p.size), np.tile(wg.p, wg.q.size), wg.values.ravel())
    return {"resolved_rule": rule_desc}


def cmd_cut(args) -> dict:
    if args.steps < 1:
        raise ValidationError(f"--steps must be >= 1, got {args.steps}")
    ds, kspec, rule_desc = _data_and_kernel(args)
    rho = materialize(ds.meta.state)
    grid = GridSpec(args.qmin, args.qmax, args.steps, args.p, args.p, 1)
    wg = estimate_grid(ds, kspec, grid)
    wtrue = wigner_eval_many(rho, wg.q, np.full_like(wg.q, args.p))
    with open(args.out, "w") as fh:
        fh.write("q,west,wtrue\n")
        write_csv_rows(fh, wg.q, wg.values[:, 0], wtrue)
    return {"resolved_rule": rule_desc}


def cmd_risk(args) -> dict:
    noise = NoiseModel(args.eta)
    _check_seed(args.seed)
    spec = parse_state(args.state)
    points = []
    for part in args.points.split(";"):
        try:
            q, p = part.split(",")
            points.append(PhasePoint(float(q), float(p)))
        except ValueError:
            raise ValidationError(f"--points expects q1,p1;q2,p2;..., got {args.points!r}")
    if args.rule == "fixed" and args.hfixed is None:
        raise ValidationError("--rule fixed needs --hfixed")
    rule = parse_rule(args.hfixed if args.rule == "fixed" else args.rule,
                      args.beta, args.r, args.L)
    report = risk_eval(
        spec, noise, rule, args.variant, points, args.n, args.reps, args.seed,
    )
    with open(args.out, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
    return {}


def cmd_kernel_table(args) -> dict:
    spec = KernelSpec(h=args.h, noise=NoiseModel(args.eta), variant=args.variant)
    table = build_table(spec, args.umax, args.step)
    with open(args.out, "w") as fh:
        fh.write("u,value\n")
        write_csv_rows(fh, np.arange(table.values.size) * table.step, table.values)
    return {}


def cmd_lb_verify(args) -> dict:
    axi = AlphaXi(args.alpha, args.xi)
    bump = BumpSpec(args.delta, args.bigD)
    cls = SmoothnessClass(args.beta, args.r, args.L)
    noise = NoiseModel(args.eta)
    report = verify_pair(axi, bump, cls, noise, int(args.n), k_max=args.kmax)
    with open(args.out, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
    return {}


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise one-line ValidationErrors."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                       help="bandwidth: number in (0, 1] or rule " + "|".join(_RULE_KINDS))
        p.add_argument("--beta", type=float)
        p.add_argument("--r", type=float)
        p.add_argument("--L", type=float)
        p.add_argument("--variant", choices=VARIANTS, default="sharp")

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
    risk.add_argument("--rule", default="r2", choices=(*_RULE_KINDS, "fixed"))
    risk.add_argument("--hfixed", type=float, default=None)
    risk.add_argument("--beta", type=float)
    risk.add_argument("--r", type=float)
    risk.add_argument("--L", type=float)
    risk.add_argument("--variant", choices=VARIANTS, default="sharp")
    risk.add_argument("--seed", type=int, required=True)
    risk.add_argument("--out", required=True)
    risk.set_defaults(func=cmd_risk)

    kt = sub.add_parser("kernel-table", help="tabulate a deconvolution kernel")
    kt.add_argument("--h", type=float, required=True)
    kt.add_argument("--eta", type=float, required=True)
    kt.add_argument("--variant", choices=VARIANTS, default="sharp")
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
    lb.add_argument("--n", type=_integer, required=True)
    lb.add_argument("--delta", type=float, default=0.5)
    lb.add_argument("--bigD", type=float, default=5.0)
    lb.add_argument("--kmax", type=int, default=2000)
    lb.add_argument("--out", required=True)
    lb.set_defaults(func=cmd_lb_verify)

    return parser


def run(argv) -> int:
    """Parse argv, run the command and write its manifest; the exit code."""
    try:
        args = build_parser().parse_args(argv)
        _write_manifest(args, args.func(args))
        return 0
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericGuardError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # bad paths
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

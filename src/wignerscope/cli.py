"""Command-line interface: reproducible simulation, estimation, risk
evaluation, kernel tabulation, and lower-bound verification runs.

Each cmd_* writes its output and returns what it resolved beyond its
flags; run() then writes the sidecar manifest (<out>.manifest.json): every
parsed flag, the resolved values, the tool version and content digests.
Re-running with the manifest's flags reproduces the outputs byte for
byte.  A flag is a plain int, float or string; the library checks its
range, once.  Exit codes: 0 success, 1 validation error (usage and
file-system errors included), 2 numeric guard tripped.
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
from .kernels import VARIANTS, KernelSpec, build_table
from .sampler import read_dataset, read_meta, simulate, write_csv, write_dataset
from .tomography import NoiseModel, SmoothnessClass
from .estimator import (
    RULE_NAMES,
    BandwidthRule,
    GridSpec,
    bandwidth,
    estimate_grid,
    risk_eval,
)
from .lowerbound import AlphaXi, BumpSpec, verify_pair


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
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                # bad JSON, JSON without the {dim, tail_mass, re, im} fields,
                # or a dim past every integer (int(inf))
                raise ValidationError(f"--state: {rest!r} is not a density-matrix JSON: {exc}")
    raise ValidationError(f"--state: unknown kind {kind!r}")


def parse_rule(value, beta, r, L) -> BandwidthRule:
    """The BandwidthRule a rule name or a number (a fixed h) stands for;
    the named rules but adaptive take their class from beta, r and L
    (None where the flag was not given), which the other rules refuse."""
    if value in RULE_NAMES and value != "adaptive":
        if beta is None or r is None or L is None:
            raise ValidationError("bandwidth rule needs --beta, --r and --L")
        return BandwidthRule(value, cls=SmoothnessClass(beta, r, L))
    if value == "adaptive":
        rule = BandwidthRule(value)
    else:
        try:
            rule = BandwidthRule("fixed", h=float(value))
        except ValueError:
            raise ValidationError(f"bandwidth must be a number or one of {RULE_NAMES}")
    if any(v is not None for v in (beta, r, L)):
        raise ValidationError(f"bandwidth {value!r} takes no --beta, --r or --L")
    return rule


def _data_and_kernel(args) -> tuple:
    """(dataset, KernelSpec, resolved_rule) from --data, --variant and
    --h, a number or a rule name; the rule is parsed before the data is
    read, and the kernel is built from the header's eta and n before a
    record is."""
    rule = parse_rule(args.h, args.beta, args.r, args.L)
    meta = read_meta(args.data)
    noise = NoiseModel(meta.eta)
    h = bandwidth(rule, meta.n, noise)
    kspec = KernelSpec(h=h, noise=noise, variant=args.variant)
    return read_dataset(args.data), kspec, {"kind": rule.kind, "h": h}


def _digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            sha.update(chunk)
    return sha.hexdigest()


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
        json.dump(manifest, fh, indent=2, sort_keys=True)


def cmd_simulate(args) -> dict:
    spec = parse_state(args.state)
    ds = simulate(spec, args.n, args.eta, args.seed)
    write_dataset(ds, args.out)
    return {}


def cmd_estimate(args) -> dict:
    try:
        qpart, ppart = args.grid.split(",")
        qmin, qmax, qsteps = qpart.split(":")
        pmin, pmax, psteps = ppart.split(":")
        grid = GridSpec(float(qmin), float(qmax), int(qsteps),
                        float(pmin), float(pmax), int(psteps))
    except ValueError:
        raise ValidationError("--grid expects qmin:qmax:steps,pmin:pmax:steps")
    ds, kspec, rule_desc = _data_and_kernel(args)
    wg = estimate_grid(ds, kspec, grid)
    write_csv(args.out, "q,p,west",
              np.repeat(wg.q, wg.p.size), np.tile(wg.p, wg.q.size), wg.values.ravel())
    return {"resolved_rule": rule_desc}


def cmd_cut(args) -> dict:
    grid = GridSpec(args.qmin, args.qmax, args.steps, args.p, args.p, 1)
    ds, kspec, rule_desc = _data_and_kernel(args)
    wg = estimate_grid(ds, kspec, grid)
    rho = materialize(ds.meta.state)
    wtrue = wigner_eval_many(rho, wg.q, np.full_like(wg.q, args.p))
    write_csv(args.out, "q,west,wtrue", wg.q, wg.values[:, 0], wtrue)
    return {"resolved_rule": rule_desc}


def cmd_risk(args) -> dict:
    noise = NoiseModel(args.eta)
    spec = parse_state(args.state)
    points = []
    for part in args.points.split(";"):
        try:
            q, p = part.split(",")
            points.append(PhasePoint(float(q), float(p)))
        except ValueError:
            raise ValidationError(f"--points expects q1,p1;q2,p2;..., got {args.points!r}")
    rule = parse_rule(args.rule, args.beta, args.r, args.L)
    report = risk_eval(
        spec, noise, rule, args.variant, points, args.n, args.reps, args.seed,
    )
    with open(args.out, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
    return {}


def cmd_kernel_table(args) -> dict:
    spec = KernelSpec(h=args.h, noise=NoiseModel(args.eta), variant=args.variant)
    table = build_table(spec, args.umax, args.step)
    write_csv(args.out, "u,value", np.arange(table.values.size) * table.step, table.values)
    return {}


def cmd_lb_verify(args) -> dict:
    axi = AlphaXi(args.alpha, args.xi)
    bump = BumpSpec(args.delta, args.bigD)
    cls = SmoothnessClass(args.beta, args.r, args.L)
    noise = NoiseModel(args.eta)
    report = verify_pair(axi, bump, cls, noise, args.n)
    with open(args.out, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
    return {}


def add_kernel_flags(parser, flag, **kwargs) -> None:
    """The bandwidth flag (a number or a rule name), the class flags its
    rule may take and the kernel variant."""
    parser.add_argument(flag, help="bandwidth: number in (0, 1] or rule " + "|".join(RULE_NAMES),
                        **kwargs)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--r", type=float)
    parser.add_argument("--L", type=float)
    parser.add_argument("--variant", choices=VARIANTS, default="sharp")


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

    est = sub.add_parser("estimate", help="evaluate the estimator on a grid")
    est.add_argument("--data", required=True)
    add_kernel_flags(est, "--h", required=True)
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
    add_kernel_flags(cut, "--h", required=True)
    cut.add_argument("--out", required=True)
    cut.set_defaults(func=cmd_cut)

    risk = sub.add_parser("risk", help="Monte Carlo pointwise risk report")
    risk.add_argument("--state", required=True)
    risk.add_argument("--eta", type=float, required=True)
    risk.add_argument("--n", type=int, required=True)
    risk.add_argument("--reps", type=int, required=True)
    risk.add_argument("--points", required=True, help="q1,p1;q2,p2;...")
    add_kernel_flags(risk, "--rule", default="r2")
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
    lb.add_argument("--n", type=float, required=True)
    lb.add_argument("--delta", type=float, default=0.5)
    lb.add_argument("--bigD", type=float, default=5.0)
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
    except (ValidationError, OSError) as exc:  # OSError: bad paths
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericGuardError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Span tracing of wignerscope from outside the package.

The tracer replaces public functions and methods at every name the
package's modules look them up by (``cli.simulate`` is the same object as
``sampler.simulate``, so both names get the wrapper), records one span per
call in memory, and puts every original back on exit.  Nothing inside
``src/`` knows it is traced.

Targets are bound by name when tracing starts.  A target whose module,
class or attribute no longer exists is reported as absent instead of
failing the run, so the benchmark keeps working when a later change
merges, renames or deletes one of these functions.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

LAYERS = ("cli", "fockspace", "tomography", "sampler", "kernels", "estimator", "lowerbound")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_materialize(c, args, kwargs, result):
    c["fockspace.dim"] = max(c["fockspace.dim"], result.dim)


def _count_wigner(c, args, kwargs, result):
    c["fockspace.wigner_points"] += getattr(result, "size", 1)


def _count_table(c, args, kwargs, result):
    sampler = args[0]
    c["sampler.table_cells"] += sampler.cdf.size
    c["sampler.table_error"] = max(c["sampler.table_error"], sampler.table_error)


def _count_draw(c, args, kwargs, result):
    c["sampler.draws"] += result.x.size


def _count_read(c, args, kwargs, result):
    c["sampler.io_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_write(c, args, kwargs, result):
    c["sampler.io_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_build(c, args, kwargs, result):
    c["kernels.table_nodes"] += result.values.size


def _count_lookup(c, args, kwargs, result):
    import numpy as np

    table, u = args[0], np.asarray(_arg(args, kwargs, 1, "u"))
    c["kernels.lookups"] += u.size
    c["kernels.outside"] += int(np.count_nonzero(np.abs(u) > table.u_max))


def _count_estimate(c, args, kwargs, result):
    import numpy as np

    records = getattr(_arg(args, kwargs, 0, "data"), "n", 0)
    c["estimator.record_points"] += records * np.size(getattr(result, "values", result))


def _count_ynodes(c, args, kwargs, result):
    c["lowerbound.y_nodes"] += result.size


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` is ``name`` or ``Class.method``."""

    module: str
    attr: str
    span: str
    count: Optional[Callable] = None


TARGETS = (
    Target("cli", "run", "cli.run"),
    Target("fockspace", "materialize", "fockspace.materialize", _count_materialize),
    Target("fockspace", "wigner_eval", "fockspace.wigner_eval", _count_wigner),
    Target("fockspace", "wigner_eval_many", "fockspace.wigner_eval", _count_wigner),
    Target("tomography", "class_integral", "tomography.class_integral"),
    Target("sampler", "simulate", "sampler.simulate"),
    Target("sampler", "QuadratureSampler.__init__", "sampler.table_build", _count_table),
    Target("sampler", "QuadratureSampler.sample", "sampler.draw", _count_draw),
    Target("sampler", "add_noise", "sampler.noise"),
    Target("sampler", "read_dataset", "sampler.io", _count_read),
    Target("sampler", "write_dataset", "sampler.io", _count_write),
    Target("kernels", "build_table", "kernels.table_build", _count_build),
    Target("kernels", "KernelTable.__call__", "kernels.lookup", _count_lookup),
    Target("estimator", "estimate_grid", "estimator.estimate", _count_estimate),
    Target("estimator", "estimate_point", "estimator.estimate", _count_estimate),
    Target("estimator", "default_table", "estimator.default_table"),
    Target("estimator", "bandwidth", "estimator.bandwidth"),
    Target("estimator", "rate_phi2", "estimator.rate"),
    Target("estimator", "risk_eval", "estimator.risk"),
    Target("lowerbound", "verify_pair", "lowerbound.verify_pair"),
    Target("lowerbound", "rho_alpha_xi_diag", "lowerbound.diag"),
    Target("lowerbound", "tau_diag", "lowerbound.diag"),
    Target("lowerbound", "htilde_solve", "lowerbound.htilde"),
    Target("lowerbound", "base_class_integral", "lowerbound.base_class"),
    Target("lowerbound", "chi_squared", "lowerbound.chi_squared"),
    Target("lowerbound", "base_density_noisy", "lowerbound.base_density", _count_ynodes),
    Target("lowerbound", "perturbation_profile_noisy", "lowerbound.perturbation_profile"),
)


@dataclass
class Span:
    name: str
    op: int
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    outer: bool = True  # not nested inside a span of the same name

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Context manager: patch the targets on entry, restore them on exit.

    Spans are recorded only while ``active`` is set, so output checks that
    call into the package do not show up as traced work.
    """

    targets: tuple = TARGETS
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(int))
    present: set = field(default_factory=set)
    absent: list = field(default_factory=list)
    active: bool = False
    op: int = -1
    _stack: list = field(default_factory=list)
    _open: dict = field(default_factory=lambda: defaultdict(int))
    _restore: list = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            if self._patch(target):
                self.present.add(target.span)
            else:
                self.absent.append(f"wignerscope.{target.module}.{target.attr}")
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, target: Target) -> bool:
        module = sys.modules.get(f"wignerscope.{target.module}")
        if module is None:
            return False
        owner_name, _, method = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type) or method not in vars(owner):
                return False
            original = vars(owner)[method]
            self._restore.append((owner, method, original))
            setattr(owner, method, self._wrap(target, original))
            return True
        original = getattr(module, method, None)
        if not callable(original):
            return False
        wrapper = self._wrap(target, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "wignerscope" and not mod_name.startswith("wignerscope."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)
        return True

    def _wrap(self, target: Target, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            return self._call(target, original, args, kwargs)

        return wrapper

    def _call(self, target, original, args, kwargs):
        name = target.span
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.op, parent, outer=self._open[name] == 0)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        self._open[name] += 1
        span.start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.duration
        if span.outer and target.count is not None:
            target.count(self.counters, args, kwargs, result)
        return result


# Declared per-layer metrics and their units; BENCHMARK.json lists the same.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "sampler.draw_s": "s", "sampler.draws": "count", "sampler.draw_ns_per_record": "ns",
    "sampler.table_build_s": "s", "sampler.table_cells": "count", "sampler.table_error": "prob",
    "sampler.noise_s": "s", "sampler.io_s": "s", "sampler.io_bytes": "B",
    "kernels.lookup_s": "s", "kernels.lookups": "count", "kernels.lookup_ns_per_value": "ns",
    "kernels.outside_ratio": "ratio", "kernels.table_build_s": "s", "kernels.table_nodes": "count",
    "estimator.sum_self_s": "s", "estimator.record_points": "count",
    "estimator.ns_per_record_point": "ns", "estimator.bandwidth_s": "s",
    "fockspace.materialize_s": "s", "fockspace.dim": "count", "fockspace.wigner_eval_s": "s",
    "fockspace.wigner_points": "count", "tomography.class_integral_s": "s",
    "lowerbound.verify_pair_s": "s", "lowerbound.base_density_s": "s",
    "lowerbound.perturbation_profile_s": "s", "lowerbound.diag_s": "s",
    "lowerbound.y_nodes": "count",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def layer_metrics(tracer: Tracer, traced_ops: set, rounds: int) -> dict:
    """Per-round per-layer metrics ``{name: value}`` from the spans of the
    traced ops, ``trace.overhead_s`` excepted (the caller measures it).

    A metric whose spans have no target left in the package is left out;
    the caller reports it as absent.
    """
    spans = [s for s in tracer.spans if s.op in traced_ops]
    incl = defaultdict(float)   # outermost spans only: recursion counted once
    own = defaultdict(float)    # self time, summed over all spans of a name
    layer_self = defaultdict(float)
    lookups_in_estimates = 0.0
    for s in spans:
        if s.outer:
            incl[s.name] += s.duration
        own[s.name] += s.self_s
        layer_self[s.name.split(".", 1)[0]] += s.self_s
        if (s.name == "kernels.lookup" and s.parent is not None
                and tracer.spans[s.parent].name == "estimator.estimate"):
            lookups_in_estimates += s.duration
    c = tracer.counters

    def per_value(num, den):
        return num * 1e9 / den if den else 0.0

    # metric: (spans it is made from, total over the traced rounds)
    totals = {
        "sampler.draw_s": ("sampler.draw", incl["sampler.draw"]),
        "sampler.draws": ("sampler.draw", c["sampler.draws"]),
        "sampler.table_build_s": ("sampler.table_build", incl["sampler.table_build"]),
        "sampler.table_cells": ("sampler.table_build", c["sampler.table_cells"]),
        "sampler.noise_s": ("sampler.noise", incl["sampler.noise"]),
        "sampler.io_s": ("sampler.io", incl["sampler.io"]),
        "sampler.io_bytes": ("sampler.io", c["sampler.io_bytes"]),
        "kernels.lookup_s": ("kernels.lookup", incl["kernels.lookup"]),
        "kernels.lookups": ("kernels.lookup", c["kernels.lookups"]),
        "kernels.table_build_s": ("kernels.table_build", incl["kernels.table_build"]),
        "kernels.table_nodes": ("kernels.table_build", c["kernels.table_nodes"]),
        "estimator.sum_self_s": ("estimator.estimate", own["estimator.estimate"]),
        "estimator.record_points": ("estimator.estimate", c["estimator.record_points"]),
        "estimator.bandwidth_s": ("estimator.bandwidth", incl["estimator.bandwidth"]),
        "fockspace.materialize_s": ("fockspace.materialize", incl["fockspace.materialize"]),
        "fockspace.wigner_eval_s": ("fockspace.wigner_eval", incl["fockspace.wigner_eval"]),
        "fockspace.wigner_points": ("fockspace.wigner_eval", c["fockspace.wigner_points"]),
        "tomography.class_integral_s": (
            "tomography.class_integral", incl["tomography.class_integral"]),
        "lowerbound.verify_pair_s": ("lowerbound.verify_pair", incl["lowerbound.verify_pair"]),
        "lowerbound.base_density_s": ("lowerbound.base_density", incl["lowerbound.base_density"]),
        "lowerbound.perturbation_profile_s": (
            "lowerbound.perturbation_profile", incl["lowerbound.perturbation_profile"]),
        "lowerbound.diag_s": ("lowerbound.diag", incl["lowerbound.diag"]),
        "lowerbound.y_nodes": ("lowerbound.base_density", c["lowerbound.y_nodes"]),
    }
    # metric: (spans it is made from, value as reported)
    others = {
        "sampler.draw_ns_per_record": (
            ("sampler.draw",), per_value(incl["sampler.draw"], c["sampler.draws"])),
        "sampler.table_error": (("sampler.table_build",), float(c["sampler.table_error"])),
        "kernels.lookup_ns_per_value": (
            ("kernels.lookup",), per_value(incl["kernels.lookup"], c["kernels.lookups"])),
        "kernels.outside_ratio": (
            ("kernels.lookup",),
            c["kernels.outside"] / c["kernels.lookups"] if c["kernels.lookups"] else 0.0),
        "estimator.ns_per_record_point": (
            ("estimator.estimate", "kernels.lookup"),
            per_value(own["estimator.estimate"] + lookups_in_estimates,
                      c["estimator.record_points"])),
        "fockspace.dim": (("fockspace.materialize",), float(c["fockspace.dim"])),
    }
    out = {f"{layer}.self_s": layer_self[layer] / rounds for layer in LAYERS}
    for name, (span, total) in totals.items():
        if span in tracer.present:
            out[name] = total / rounds
    for name, (needed, value) in others.items():
        if all(s in tracer.present for s in needed):
            out[name] = value
    out["trace.spans"] = len(spans) / rounds
    return out

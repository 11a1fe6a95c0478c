"""wignerscope benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload grid-recon --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20   # table of all four
    python3 bench/run.py --workload all --smoke --seconds 0     # tiny sizes, seconds

One process runs one workload.  It imports the package from ``src/`` of
the checkout it sits in, then times ``setup_s``, the start-up of a fresh
interpreter up to an imported ``wignerscope.cli``, in child processes.
It then runs an untimed warm-up round and after it the workload's timed
rounds for ``--seconds`` (the round that is under way at the deadline
finishes; ``--trace 0`` runs at least three timed rounds), calling
``wignerscope.cli.run(argv)`` in-process, so argument parsing, CSV I/O
and manifests are part of each op.  Every op's outputs are checked, the
warm-up's too; an op fails on a non-zero exit code, an exception or a
failed check.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: after the warm-up it alternates traced and untraced
rounds, takes the layer numbers from the traced ones, and reports the
difference of the two round medians as ``trace.overhead_s``.  Smoke mode
skips the warm-up and runs one timed round of each kind.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
give a readable summary and the environment.  Each run also writes its
environment, op times and failures (and, traced, its spans) under
``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
if __name__ == "__main__":
    # One BLAS thread, set before NumPy loads: an idle OpenBLAS worker spins,
    # and on a 2-CPU host the ops run 1.5-2.6x slower whenever it shares the
    # main thread's CPU, so op times flip between two levels from run to run.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5
MIN_TIMED_ROUNDS = 3   # untraced rounds behind wall_s, whatever --seconds is
PROBE = "import sys, wignerscope.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def measure_setup(probes: int) -> float:
    """Median time from starting a fresh interpreter to ``wignerscope.cli``
    being imported, over ``probes`` child processes run one after another."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                              cwd=ROOT, env=env) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": thread_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "git_sha": git_sha(),
        "seed": seed,
    }


def thread_count():
    """Threads of this process (the interpreter plus the BLAS pool)."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs a workload's rounds and keeps every op's time and outcome."""

    def __init__(self, workload, tracer=None):
        from wignerscope import cli

        self.cli = cli
        self.workload = workload
        self.tracer = tracer
        self.ops = []          # (round, command, seconds, error or None)
        self.rounds = []       # (wall seconds, kind): "warmup", "plain" or "traced"

    def run_round(self, ops: list, kind: str) -> None:
        index, wall = len(self.rounds), 0.0
        for op in ops:
            error = None
            if self.tracer is not None:
                self.tracer.op = len(self.ops)
                self.tracer.active = kind == "traced"
            start = time.perf_counter()
            try:
                code = self.cli.run(op.argv)
            except Exception:
                code, error = None, traceback.format_exc()
            seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False
            if code is not None and code != 0:
                error = f"exit code {code}"
            if error is None:
                try:
                    op.check()
                except CheckFailed as exc:
                    error = f"check failed: {exc}"
                except Exception:
                    error = "check raised: " + traceback.format_exc()
            if error is not None:
                print(f"op failed: {' '.join(op.argv)}: {error}", file=sys.stderr)
            self.ops.append((index, op.command, seconds, error))
            wall += seconds
        self.rounds.append((wall, kind))

    def run(self, seconds: float, trace: bool, min_rounds: int, warmup: bool) -> None:
        """An untimed warm-up round, then timed rounds until ``seconds`` have
        passed and ``min_rounds`` untraced ones are done.  Traced runs
        alternate traced and untraced rounds and end with at least one of
        each."""
        if warmup:
            self.run_round(self.workload.warmup(), "warmup")
        deadline = time.perf_counter() + seconds
        timed = 0
        while True:
            kind = "traced" if trace and timed % 2 == 0 else "plain"
            self.run_round(self.workload.round(len(self.rounds)), kind)
            timed += 1
            if (time.perf_counter() >= deadline and len(self.walls("plain")) >= min_rounds
                    and (not trace or self.walls("traced"))):
                return

    def walls(self, kind: str) -> list:
        return [wall for wall, k in self.rounds if k == kind]

    def op_p50(self, kind: str) -> float:
        """Median, over the positions of a round's ops, of each position's
        median wall time.  A round's ops differ in cost, so the median of
        all op times pooled lies in the gap between two ops' times and
        moves with the noise in the tail of either."""
        slots, position = {}, {}
        for index, _, seconds, _ in self.ops:
            if self.rounds[index][1] == kind:
                position[index] = position.get(index, -1) + 1
                slots.setdefault(position[index], []).append(seconds)
        return statistics.median([statistics.median(times) for times in slots.values()])

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op[3] is not None)


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False,
                 results_dir: Path = ROOT / ".bench_results",
                 work_root: Path = ROOT / ".bench_work") -> dict:
    """One benchmark run; returns its record, the result object included."""
    from wignerscope import cli  # before the probes: compiles the bytecode they load

    setup_s = None if trace else measure_setup(1 if smoke else SETUP_PROBES)
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    tracer = Tracer() if trace else None
    try:
        with tracer or contextlib.nullcontext():
            workload = WORKLOADS[name](seed, smoke, workdir, lambda argv: cli.run(argv))
            runner = Runner(workload, tracer)
            runner.run(seconds, trace, 1 if smoke or trace else MIN_TIMED_ROUNDS, not smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        traced_ops = {i for i, op in enumerate(runner.ops) if runner.rounds[op[0]][1] == "traced"}
        values = layer_metrics(tracer, traced_ops, len(runner.walls("traced")))
        values["trace.overhead_s"] = (statistics.median(runner.walls("traced"))
                                      - statistics.median(runner.walls("plain")))
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items() if k in values}
        absent = sorted(set(PER_LAYER) - set(values))
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(runner.walls("plain")),
            "op_s_p50": runner.op_p50("plain"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        absent = []
    result = {
        "correct": runner.failed == 0,
        "attempted": len(runner.ops),
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "env": environment(seed), "result": result, "absent_metrics": absent,
        "absent_targets": tracer.absent if tracer else [],
        "rounds": [{"wall_s": w, "kind": k} for w, k in runner.rounds],
        "ops": [{"round": r, "command": c, "seconds": s, "error": e} for r, c, s, e in runner.ops],
    }
    write_results(results_dir, record, tracer)
    return record


def write_results(results_dir: Path, record: dict, tracer) -> None:
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(results_dir / f"{stem}-spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({"name": s.name, "op": s.op, "parent": s.parent,
                                     "start": s.start, "end": s.end, "self_s": s.self_s}) + "\n")


def print_summary(record: dict) -> None:
    result = record["result"]
    rate = result["failed"] / result["attempted"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"rounds {len(record['rounds'])}  ops {result['attempted']}  "
          f"error_rate {rate:g} ({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    for name in record["absent_metrics"]:
        print(f"  {name:36s} {'absent':>14s}")
    if record["absent_targets"]:
        print("absent trace targets: " + ", ".join(record["absent_targets"]))
    print("env " + json.dumps(record["env"], sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own process, then one table of their metrics."""
    rows, code = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        rows[name] = json.loads(lines[-1])
        code = code or int(not rows[name]["correct"])
    names = list(END_TO_END) if not args.trace else list(PER_LAYER)
    print()
    print(f"{'metric':36s}" + "".join(f"{w:>14s}" for w in rows) + "  unit")
    for metric in names + ["error_rate"]:
        cells, unit = [], "ratio"
        for result in rows.values():
            if metric == "error_rate":
                cells.append(f"{result['failed'] / result['attempted']:14.6g}")
            elif metric in result["metrics"]:
                m = result["metrics"][metric]
                cells.append(f"{m['value']:14.6g}")
                unit = m["unit"]
            else:
                cells.append(f"{'absent':>14s}")
        print(f"{metric:36s}" + "".join(cells) + f"  {unit}")
    print(json.dumps(rows))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs: checks only")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import wignerscope.cli
    except ImportError as exc:
        print(f"error: cannot import wignerscope from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(wignerscope.cli.__file__).resolve().parent.parent != SRC:
        # an installed copy elsewhere is not the code of this checkout
        print(f"error: wignerscope imported from {wignerscope.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          smoke=args.smoke)
    print_summary(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The holoseq benchmark.

Run from the repository root:

    python3 perfbench/holobench.py --workload NAME --seed N --seconds S --trace 0|1

It drives the public CLI in-process through ``holoseq.cli.main(argv)``, with
stdout and stderr captured and checked, as one closed-loop client: one task
at a time, each started when the previous one has returned.  A pass runs the
workload's task list once; passes repeat until ``--seconds`` have gone by.
A task's time is its median over the passes, and a pass's time is the sum of
those medians.  The package is imported from ``src/`` next to this
directory, never from an installed copy.

Workloads (inputs are generated from ``--seed``, see workloads.py):

* ``egf_build``: selfcheck with a long EGF plus ``series`` for several x0.
  Series multiplication, division, exp, inverse sqrt and operator apply do
  nearly all the work.
* ``terms_long``: selfcheck over many terms plus a b-file round trip:
  ``generate --bfile`` (write), ``verify`` (read) and ``verify`` of a copy
  with one corrupted term (exit 1 expected).  Unroll/verify and b-file
  format/parse share the time.
* ``guess_fit``: the (order, degree) ladder a user climbs on ~150-term b-files
  of A214615 (offset 1), Motzkin, Apery and a seeded order-3 recurrence.
  Nullspace computation dominates; many attempts return nothing.
* ``many_small``: hundreds of small random operators through ``ode2rec``,
  ``generate --ode`` and ``series --text``, plus small guesses.  Parsing and
  the per-call CLI cost show here, and it is the workload that must not slow
  down when an asymptotic improvement lands elsewhere.

Timings are in reference seconds.  On a shared host the speed of a core can
drift by half within seconds, so every measured interval is scaled by
REFERENCE_S over the time a fixed reference kernel (exact Fraction and
big-int arithmetic, like holoseq's) took right before or right after it,
whichever was faster.  When both slow down together the ratio stays put.
The raw wall-clock pass time and the reference kernel's median are printed
with the descriptors.

With ``--trace 0`` the result holds the end-to-end metrics, all measured with
tracing off: ``wall_s`` (one pass), ``setup_s`` (``import holoseq.cli`` in a
fresh interpreter, timed inside the child, median of several) and
``peak_rss_mib`` (this process's peak resident memory).  The summed time of
each subcommand the workload runs, and ``failed_ratio``, are printed above
the result line.

With ``--trace 1`` half the time runs untraced passes and half runs traced
ones; the result holds the per-layer metrics of tracing.py, the subcommand
sums of the untraced passes, ``failed_ratio``, the share of guessed
candidates that were the known minimal recurrence, the share of empty
guesses, and the tracing overhead (traced minus untraced pass time).
The spans of the last traced pass are written to
``.perfbench_work/<workload>/spans.tsv``.

``correct`` is false when the program printed something the oracles refute
or exited with the wrong code.  ``failed`` counts every task that did not do
its job, which also includes a guess that found nothing where a recurrence
within its bounds holds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import tracing
import workloads
from workloads import Task, Verdict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 11
# The reference kernel's time on an idle machine of the kind it was tuned on
# (Intel Xeon, 2 vCPUs, Python 3.11), so reference seconds read close to
# wall-clock seconds there.
REFERENCE_S = 0.011
# Task time between two runs of the reference kernel, at most one task over.
CALIBRATE_EVERY_S = 0.25

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
COMMANDS = ("selfcheck", "series", "generate", "verify", "guess", "ode2rec")
PER_LAYER = {
    **tracing.UNITS,
    "failed_ratio": "ratio",
    "guessing.useful_ratio": "ratio",
    "guessing.empty_ratio": "ratio",
    **{f"{command}_s": "s" for command in COMMANDS},
    "trace.overhead_s": "s",
}


def load_cli():
    """holoseq.cli from the sources beside the benchmark; exits if they are absent."""
    if not (SRC / "holoseq" / "cli.py").is_file():
        raise SystemExit(f"holobench: no holoseq sources at {SRC / 'holoseq'}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("holoseq.cli")
    if Path(cli.__file__).resolve().parent != SRC / "holoseq":
        raise SystemExit(f"holobench: imported holoseq from {cli.__file__}, not {SRC}")
    return cli


def reference_seconds() -> float:
    """Time of a fixed mix of the arithmetic holoseq spends its time on."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(1, i) * Fraction(i + 1, i + 2)
    big = 7**6000
    for _ in range(6):
        big = big * big % (3**12000)
    str(big % 10**4000)  # below the interpreter's default int-to-str digit limit
    a, b, c = 3**900, 5**700, 7**600
    for i in range(400):  # the shape of a fraction-free elimination step
        (a * (b + i) - c * (a - i)) // (b + 1)
    return time.perf_counter() - start


_CHILD = """\
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import holoseq.cli
elapsed = time.perf_counter() - start
print(repr(elapsed), holoseq.cli.__file__)
"""


def setup_seconds(runs: int) -> float:
    """Median time of ``import holoseq.cli`` in fresh isolated interpreters.

    The clock runs inside the child around the import statement, so
    interpreter and ``site`` start-up are not counted.
    """
    times = []
    for _ in range(runs):
        before = reference_seconds()
        child = subprocess.run(
            [sys.executable, "-I", "-c", _CHILD.format(src=str(SRC))],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if child.returncode != 0:
            raise SystemExit(f"holobench: importing holoseq.cli failed:\n{child.stderr}")
        elapsed, path = child.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != SRC / "holoseq":
            raise SystemExit(f"holobench: the child imported holoseq from {path.strip()}")
        times.append(float(elapsed) * REFERENCE_S / min(before, reference_seconds()))
    return statistics.median(times)


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)  # per task, reference seconds
    wall_clock: float = 0.0
    reference: list[float] = field(default_factory=list)
    verdicts: list[tuple[Task, Verdict]] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    table: dict[str, dict[str, float]] = field(default_factory=dict)


def run_task(cli, task: Task) -> tuple[float, Verdict]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(task.argv))
        except Exception:  # a crash is a failed task, not the end of the run
            code = -1
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    return elapsed, task.check(code, out.getvalue(), err.getvalue())


def run_pass(cli, tasks: list[Task]) -> Pass:
    """One pass over the tasks.

    The reference kernel runs before the first task and again whenever
    CALIBRATE_EVERY_S of task time has gone by; each task's time is scaled by
    the faster of the two kernel runs around it (a slow one may have been
    interrupted).
    """
    gc.collect()
    result = Pass()
    pending: list[float] = []
    result.reference.append(reference_seconds())
    for i, task in enumerate(tasks):
        elapsed, verdict = run_task(cli, task)
        result.wall_clock += elapsed
        result.verdicts.append((task, verdict))
        pending.append(elapsed)
        if sum(pending) >= CALIBRATE_EVERY_S or i == len(tasks) - 1:
            result.reference.append(reference_seconds())
            scale = REFERENCE_S / min(result.reference[-2:])
            result.times.extend(seconds * scale for seconds in pending)
            pending.clear()
    return result


def typical_times(passes: list[Pass]) -> list[float]:
    """Each task's median time over the passes.  Their sum is a typical pass:
    the median per task drops a task's slow runs wherever in the pass they fell."""
    return [statistics.median(times) for times in zip(*(p.times for p in passes))]


def measure(cli, tasks: list[Task], seconds: float, tracer: Optional[tracing.Tracer] = None) -> list[Pass]:
    """Passes until ``seconds`` have gone by, at least one."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    if tracer is not None:
        tracer.install()
    try:
        while not passes or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.reset()
            result = run_pass(cli, tasks)
            if tracer is not None:
                layers, result.table = tracer.metrics()
                scale = sum(result.times) / result.wall_clock
                result.layers = {k: v * scale if k.endswith("_s") else v for k, v in layers.items()}
            passes.append(result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return passes


def guess_ratios(verdicts: list[tuple[Task, Verdict]]) -> dict[str, float]:
    guesses = [v for _, v in verdicts if v.candidates >= 0]
    candidates = sum(v.candidates for v in guesses)
    return {
        "guessing.useful_ratio": sum(v.useful for v in guesses) / candidates if candidates else 0.0,
        "guessing.empty_ratio": sum(v.candidates == 0 for v in guesses) / len(guesses) if guesses else 0.0,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _median(passes: list[Pass], get) -> float:
    return statistics.median(get(p) for p in passes)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[dict] = None,
    setup_runs: int = SETUP_RUNS,
) -> dict:
    """One benchmark run: prints a readable report and returns the result object."""
    cli = load_cli()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.build(workload, seed, work, sizes)
    tasks = spec.tasks

    if trace:
        plain = measure(cli, tasks, seconds / 2)
        tracer = tracing.Tracer()
        traced = measure(cli, tasks, seconds / 2, tracer)
        passes = plain + traced
    else:
        plain = passes = measure(cli, tasks, seconds)

    verdicts = [v for p in passes for v in p.verdicts]
    failures = [(task, v) for task, v in verdicts if v.problem]
    failed_ratio = len(failures) / len(verdicts)
    typical = typical_times(plain)
    wall = sum(typical)
    commands = {c: sum(t for task, t in zip(tasks, typical) if task.command == c) for c in COMMANDS}

    if trace:
        values = {key: _median(traced, lambda p: p.layers[key]) for key in traced[0].layers}
        values.update(guess_ratios(passes[0].verdicts))
        values["failed_ratio"] = failed_ratio
        values.update({f"{c}_s": t for c, t in commands.items()})
        values["trace.overhead_s"] = sum(typical_times(traced)) - wall
        units = PER_LAYER
    else:
        values = {
            "wall_s": wall,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_seconds(setup_runs),
        }
        units = END_TO_END

    descriptors = {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "tasks_per_pass": len(tasks),
        "wall_clock_s": _median(plain, lambda p: p.wall_clock),
        "reference_ms": 1000 * statistics.median(t for p in plain for t in p.reference),
        **spec.descriptors,
    }
    print(f"holobench {workload} seed={seed} trace={int(trace)} passes={len(plain)}"
          + (f"+{len(traced)} traced" if trace else "")
          + f" failed={len(failures)}/{len(verdicts)}")
    print("descriptors " + json.dumps(descriptors))
    for task, verdict in {v.problem: (t, v) for t, v in failures}.values():
        print(f"  failed: {' '.join(task.argv)[:120]}: {verdict.problem}")
    if trace:
        print_layers(traced)
    else:
        for command in COMMANDS:
            if any(task.command == command for task in tasks):
                _print_metric(f"{command}_s", commands[command], "s")
        _print_metric("failed_ratio", failed_ratio, "ratio")
    for name, unit in units.items():
        _print_metric(name, values[name], unit)
    if trace:
        write_spans(tracer, work / "spans.tsv")

    return {
        "correct": not any(v.wrong for _, v in failures),
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _print_metric(name: str, value: float, unit: str) -> None:
    print(f"  {name:<32} {value:.6g} {unit}")


def print_layers(traced: list[Pass]) -> None:
    """The per-function table of the median traced pass, by self time."""
    middle = sorted(traced, key=lambda p: p.wall_clock)[len(traced) // 2]
    print(f"  median traced pass {middle.wall_clock:.4f} s wall-clock; per function (calls, total s, self s):")
    rows = sorted(middle.table.items(), key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        print(f"    {name:<48} {row['calls']:>9} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")


def write_spans(tracer: tracing.Tracer, path: Path) -> None:
    with open(path, "w") as out:
        out.write("index\tname\tstart_s\tend_s\tparent\n")
        for i, (name, start, end, _, parent) in enumerate(tracer.spans):
            out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the holoseq CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

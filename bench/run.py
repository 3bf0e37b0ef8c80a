#!/usr/bin/env python3
"""Benchmark runner for the ctxupb CLI.

Run from the repository root:

    python3 bench/run.py --workload upb-verify --seed 7 --seconds 40 --trace 0

It imports ``ctxupb`` from ``src/``, generates the workload's inputs from
the seed, and runs the workload's CLI jobs in this process through
``ctxupb.cli.run`` with stdout captured, checking every output. With
``--trace 0`` it repeats passes over the jobs for about ``--seconds`` and
reports the end-to-end metrics named in ``BENCHMARK.json``, timed on the
process CPU clock; with ``--trace 1`` it runs each job once untraced and
once with a span around every public function of each layer, and reports
the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``bench/README.md``.
"""

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

# All load comes from this one process: no BLAS or OpenMP worker threads.
# This must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5


def load_program():
    """Import ctxupb afresh from src/ and return its cli module."""
    for name in [n for n in sys.modules
                 if n == "ctxupb" or n.startswith("ctxupb.")]:
        del sys.modules[name]
    return importlib.import_module("ctxupb.cli")


def build_families(cli, workload: str) -> dict:
    return {tag: cli.build_upb(name, **params)
            for tag, name, params in workloads.FAMILIES[workload]}


def set_up(workload: str) -> tuple:
    """Times, in process CPU time, the program's share of set-up: a fresh
    import of ctxupb and the product sets the workload builds with it. The
    garbage of the previous import is collected first, outside the timed
    region."""
    gc.collect()
    t0 = time.process_time()
    cli = load_program()
    built = build_families(cli, workload)
    return time.process_time() - t0, cli, built


def _call(cli, argv):
    try:
        return cli.run(argv)
    except (Exception, SystemExit) as e:   # a crash fails the job, not the run
        return f"raised {type(e).__name__}: {e}"


def run_job(cli, job, tracer=None, clock=time.perf_counter):
    """Runs one job; returns (seconds on ``clock``, exit code, stdout). A
    traced job is timed by its root span, in wall time."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            t0 = clock()
            rc = _call(cli, job.argv)
            dt = clock() - t0
        else:
            dt, rc = tracer.timed("cli", "cli", _call, cli, job.argv)
    return dt, rc, out.getvalue()


class Outcomes:
    """Checks each job's first output in full; later passes must repeat it
    byte for byte."""

    def __init__(self, jobs):
        self.reference = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0

    def record(self, i: int, job, rc, text: str) -> None:
        self.attempted += 1
        try:
            if self.reference[i] is None:
                lines = text.strip().splitlines()
                job.check(rc, json.loads(lines[-1]) if lines else {})
                self.reference[i] = (rc, text)
            else:
                workloads.expect((rc, text) == self.reference[i],
                                 "output differs from the first pass")
        except Exception as e:  # any malformed output is a failed job
            self.failed += 1
            print(f"FAILED {' '.join(job.argv)}: {type(e).__name__}: {e}",
                  file=sys.stderr)


def end_to_end(jobs, outcomes, seconds: float, workload: str,
               setups: list) -> tuple:
    """Cycles through the jobs until the next one would end after
    ``seconds`` (the first pass always completes). A pass's time is the sum
    over jobs of each job's median time. Jobs are timed on the process CPU
    clock, which leaves out the time the host ran something else on this
    process's CPU; the wall-clock pass is returned alongside, as text.
    Before every job the program is set up afresh and the job runs on that
    import, so that the set-up samples, like the job samples, spread over
    the whole run."""
    samples = [[] for _ in jobs]
    walls = [[] for _ in jobs]
    start = time.perf_counter()
    while True:
        for i, job in enumerate(jobs):
            if walls[-1] and (time.perf_counter() - start
                              + statistics.median(walls[i]) > seconds):
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                return {"cpu_s": sum(map(statistics.median, samples)),
                        "setup_s": statistics.median(setups),
                        "peak_rss_mb": rss_kb / 1024,
                        "wall_s": sum(map(statistics.median, walls))
                        }, len(samples[0])
            dt, cli, _ = set_up(workload)
            setups.append(dt)
            t0 = time.perf_counter()
            dt, rc, text = run_job(cli, job, clock=time.process_time)
            walls[i].append(time.perf_counter() - t0)
            samples[i].append(dt)
            outcomes.record(i, job, rc, text)


def per_layer(cli, jobs, outcomes, build) -> tuple:
    """Builds the workload's product sets once more, traced, then runs each
    job untraced and at once traced, so that both see the same machine
    speed; returns the per-layer metrics."""
    tracer = Tracer()
    with tracer.installed():
        tracer.timed("setup", "setup", build)
    setup_families = tracer.layer_s["families"]
    tracer.reset()
    by_command = defaultdict(float)
    traced_wall = 0.0
    for i, job in enumerate(jobs):
        dt, rc, text = run_job(cli, job)
        by_command[job.command] += dt
        outcomes.record(i, job, rc, text)
        with tracer.installed():
            dt, rc, text = run_job(cli, job, tracer)
        traced_wall += dt
        outcomes.record(i, job, rc, text)
    m = {"cli.self_s": tracer.self_s["cli"],
         "setup.families.s": setup_families,
         "trace.coverage": 1 - tracer.self_s["cli"] / traced_wall,
         "trace.overhead": traced_wall / sum(by_command.values()),
         "trace.spans": tracer.spans}
    for layer in LAYERS:
        m[f"{layer}.s"] = tracer.layer_s[layer]
        m[f"{layer}.self_s"] = tracer.self_s[layer]
    for key, calls in tracer.calls.items():
        m[f"{key}.s"] = tracer.inclusive[key]
        m[f"{key}.calls"] = calls
    m.update(tracer.counts)
    for cmd, seconds in by_command.items():
        m[f"job.{cmd}.s"] = seconds
    return m, 2


def environment(a, passes: int, jobs) -> dict:
    return {"workload": a.workload, "seed": a.seed, "trace": a.trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "passes": passes, "jobs_per_pass": len(jobs)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "ctxupb", "cli.py")):
        print(f"error: no ctxupb sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)["per_layer" if a.trace else "end_to_end"]
    sys.path.insert(0, SRC)

    workdir = os.path.join(ROOT, ".bench_work",
                           f"{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            dt, cli, built = set_up(a.workload)
            setups.append(dt)
        jobs = workloads.WORKLOADS[a.workload](a.seed, workdir, built)
        outcomes = Outcomes(jobs)
        if a.trace:
            build = functools.partial(build_families, cli, a.workload)
            measured, passes = per_layer(cli, jobs, outcomes, build)
        else:
            measured, passes = end_to_end(jobs, outcomes, a.seconds,
                                          a.workload, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    metrics = {}
    for entry in spec:
        value = measured.pop(entry["name"],
                             0.0 if entry["unit"] == "s" else 0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<36} {value:>16.6f} {entry['unit']}")
    if "wall_s" in measured:
        print(f"{'wall_s':<36} {measured['wall_s']:>16.6f} s (wall clock)")
    print(f"{'fail_frac':<36} {outcomes.failed / outcomes.attempted:>16.6f}"
          f" ({outcomes.failed}/{outcomes.attempted} jobs)")
    print("env " + json.dumps(environment(a, passes, jobs)))
    print(json.dumps({"correct": outcomes.failed == 0,
                      "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

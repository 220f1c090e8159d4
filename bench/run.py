"""Time ample's CLI end to end on one workload, or trace its layers.

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the repository root; ample is not installed, so every command
runs as `python -m ample.cli` with PYTHONPATH pointing at src.  Set-up
writes the seeded inputs (see workloads.py); it is timed SETUPS times, the
later ones spread between commands, and the median is reported.  Whole passes
over the workload's command list run, one command at a time, each in a
fresh process, until --seconds have passed.
Every report is checked.  Times are read off a tick clock that shares
the commands' CPU (see TickClock), so that the host's changes of speed
cancel out.  With
--trace 1 the passes run in this process through ample.cli.main instead,
alternately without and with spans around ample's layers (see spans.py),
and the per-layer figures are reported in wall seconds.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric by
name and unit.  Scratch files live under .bench_build/ and are removed at
the end; the spans of the last traced pass stay in .bench_build/trace/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import mmap
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import workloads
from checks import CheckFailed

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
SETUPS = 15
IMPORT_SAMPLES = 5
# Ticks a second on a CPU of the reference speed, near this host's; see TickClock.
TICKS_PER_S = 60_000

ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
ENV.pop("AMPLE_BUDGET", None)


class Tally:
    """Commands attempted and failed, and whether every report was right.

    Every command whose exit code or report is wrong counts as failed.  A
    wrong verdict also makes `correct` false; a crash (a traceback, or an
    exit code that is none of the CLI's 0 to 3) does not, since it gives
    no verdict.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, cmd, code, stdout, stderr):
        self.attempted += 1
        try:
            workloads.check_report(cmd, code, stdout)
        except CheckFailed as exc:
            self.failed += 1
            if code in (0, 1, 2, 3) and "Traceback (most recent call last)" not in stderr:
                self.correct = False
            print("FAILED %s: %s\n%s" % (" ".join(cmd.argv), exc, stderr[-2000:]), file=sys.stderr)


def _tick(i):
    """One tick: a fixed piece of the work ample does, in exact fractions,
    dicts and sets, and a fresh zeroed buffer, as process start-up fills
    fresh memory.  Without the buffer, the tick clock followed the slowdowns
    of the start-up-bound `certify` commands only half as well."""
    acc = Fraction(0)
    for j in range(1, 5):
        acc += Fraction(j, (i + j) % 11 + 1)
    return {str(j): acc for j in range(i % 5 + 2)}, frozenset(range(i % 7)), bytearray(160_000)


class TickClock:
    """Time measured in ticks of a fixed workload that shares one CPU with
    the commands.

    The host is shared, and the speed of a CPU changes by a third and more
    within seconds, so wall times of the same command spread by 10-15%.
    This process pins itself, and so every process it starts, to one CPU.
    A forked ticker repeats `_tick` there and counts the ticks in shared
    memory.  The scheduler splits the CPU evenly between the ticker and a
    running command, so the two slow down together: while a command does
    t seconds of work at the reference speed, the ticker counts
    t * TICKS_PER_S ticks, whatever the CPU's speed.  Time a command spends
    waiting (on the disk, say) counts at the full rate, as a user waits
    for it too.  The ticker stops itself if this process dies.
    """

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._mem = mmap.mmap(-1, 8)
        self._ticks = ctypes.c_int64.from_buffer(self._mem)
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                i = 0
                while os.getppid() == parent:
                    for _ in range(1000):
                        _tick(i)
                        i += 1
                        self._ticks.value = i
            finally:
                os._exit(0)

    def now(self):
        """Seconds on the tick clock since it started."""
        return self._ticks.value / TICKS_PER_S

    def close(self):
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def spawn(argv, cwd, out_path, err_path, clock=None):
    """Run argv to its end: (exit code, seconds, peak RSS in MiB).  The
    seconds are wall seconds, or tick seconds if a TickClock is given."""
    now = clock.now if clock else time.perf_counter
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = now()
        proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024


def _read(path):
    with open(path) as fh:
        return fh.read()


def set_up(workload, seed, work, clock=None):
    """Write the workload's inputs into a new directory under `work`; return
    it and the time taken, in tick seconds if a TickClock is given."""
    d = tempfile.mkdtemp(prefix="inputs-", dir=work)
    log = os.path.join(work, "setup.log")
    argv = [sys.executable, os.path.join(os.path.dirname(__file__), "workloads.py"),
            workload, str(seed), d]
    code, seconds, _ = spawn(argv, ROOT, log, log, clock)
    if code != 0:
        sys.exit("set-up failed:\n" + _read(log))
    return d, seconds


def process_pass(cmds, work, tally, clock, between):
    """One pass, each command in a fresh process, calling between() after
    each: its (tick s, peak MiB) per command."""
    out, err = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    timings = []
    for cmd in cmds:
        code, wall, peak = spawn([sys.executable, "-m", "ample.cli", *cmd.argv], work, out, err,
                                 clock)
        timings.append((wall, peak))
        tally.record(cmd, code, _read(out), _read(err))
        between()
    return timings


def inprocess_pass(cmds, tally, run):
    """One pass through ample.cli.main in this process; returns its seconds."""
    gc.collect()
    total = 0.0
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = run(cmd.argv)
            total += time.perf_counter() - start
        tally.record(cmd, code, out.getvalue(), err.getvalue())
    return total


def import_seconds(work):
    """Median start-up with `import ample.cli` minus median bare start-up."""
    out, err = os.path.join(work, "stdout"), os.path.join(work, "stderr")

    def median_wall(code):
        return statistics.median(
            spawn([sys.executable, "-c", code], work, out, err)[1] for _ in range(IMPORT_SAMPLES))

    return median_wall("import ample.cli") - median_wall("pass")


def repeat(one_pass, seconds):
    """Whole passes while the next one is expected to end within `seconds`;
    at least one.  Returns each pass's result."""
    results = []
    start = time.perf_counter()
    while not results or (time.perf_counter() - start) * (len(results) + 1) / len(results) <= seconds:
        results.append(one_pass())
    return results


def measure(cmds, work, seconds, tally, clock, setup_s, set_up_again):
    """End-to-end figures: the median of SETUPS set-up times, the first
    `setup_s`, and each command's median over the passes.  The further
    set-ups run between commands, evenly over the `seconds`, and the rest
    after the passes: the host's speed drifts over tens of seconds, and a
    burst of set-ups would catch only one moment of it."""
    setups = [setup_s]
    start = time.perf_counter()

    def between():
        due = SETUPS * (time.perf_counter() - start) / seconds
        while len(setups) < min(SETUPS, due):
            setups.append(set_up_again())

    passes = repeat(lambda: process_pass(cmds, work, tally, clock, between), seconds)
    while len(setups) < SETUPS:
        setups.append(set_up_again())
    walls = [statistics.median(p[i][0] for p in passes) for i in range(len(cmds))]
    return {"setup_s": statistics.median(setups), "pass_s": sum(walls), "slowest_cmd_s": max(walls),
            "peak_rss_mib": max(statistics.median(p[i][1] for p in passes) for i in range(len(cmds)))}


def measure_layers(cmds, work, seconds, tally, workload):
    sys.path.insert(0, SRC)
    os.environ.pop("AMPLE_BUDGET", None)
    import spans

    metrics = {"cli.import_s": import_seconds(work)}
    tracer = spans.Tracer()
    plain, traced, layers = [], [], []

    def pair():
        plain.append(inprocess_pass(cmds, tally, spans.run_cli))
        tracer.reset()
        tracer.install()
        try:
            traced.append(inprocess_pass(cmds, tally, lambda argv: tracer.run_command(argv, spans.run_cli)))
        finally:
            tracer.uninstall()
        row = {"%s.self_s" % name: t for name, t in tracer.self_times().items()}
        row.update({name: tracer.counts[name] for name in spans.COUNTERS})
        layers.append(row)

    repeat(pair, seconds)
    for name in layers[0]:
        metrics[name] = statistics.median(row[name] for row in layers)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    tracer.write(os.path.join(BUILD, "trace", "%s.spans" % workload))
    return metrics


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ample", "cli.py")):
        sys.exit("no ample sources under %s; run from the repository root" % SRC)

    os.makedirs(BUILD, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    clock = None if args.trace else TickClock()
    try:
        inputs, setup_s = set_up(args.workload, args.seed, work, clock)
        out = os.path.join(work, "out")
        os.mkdir(out)
        cmds = workloads.commands(args.workload, inputs, out)
        tally = Tally()
        if args.trace:
            metrics = measure_layers(cmds, work, args.seconds, tally, args.workload)
        else:
            metrics = measure(cmds, work, args.seconds, tally, clock, setup_s,
                              lambda: set_up(args.workload, args.seed, work, clock)[1])
    finally:
        if clock:
            clock.close()
        shutil.rmtree(work)
    for name, value in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit(name)))
    print("%-32s %14d of %d commands" % ("failed", tally.failed, tally.attempted))
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

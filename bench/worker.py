"""Runs one workload's CLI commands in-process and records what they took.

Started by run.py in a fresh interpreter with `src` on PYTHONPATH and the
working directory set to the run's scratch directory.  Every command goes
through `qsagen.cli.main` with stdout/stderr captured; garbage is collected
before each timed command.  The outputs are checked by run.py, outside this
process, so that the peak RSS reported here is the commands' own.

    python3 worker.py WORKLOAD SECONDS TRACE SMOKE OUT_JSON
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import qsagen.cli as cli

from speed import INTERVAL_S, NEAREST, Speedometer
from tracing import PeakRecorder, Tracer, layer_totals
from workloads import CORRUPT_ARGV, PEAK_CALLS, SMOKE, WORKLOADS


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.intervals: dict[str, list[tuple[float, float]]] = {}
        self.triples: list[list[tuple[float, float]]] = []
        self.invocations = 0
        self.failures: list[str] = []
        self.digests: dict[str, set] = {}
        self.last_output: dict[str, str] = {}

    def command(self, name: str, hook=None) -> tuple[float, float]:
        argv = self.workload.argv(name)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        if hook is not None:
            hook.command = name
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            end = time.perf_counter()
        self.invocations += 1
        if code != 0 or err.getvalue():
            self.failures.append(f"{' '.join(argv)}: exit {code} {err.getvalue().strip()}")
        self.digests.setdefault(name, set()).add(hashlib.sha1(out.getvalue().encode()).hexdigest())
        self.last_output[name] = out.getvalue()
        self.intervals.setdefault(name, []).append((start, end))
        return start, end

    def run(self, commands, hook=None) -> float:
        """Run commands in order; return their summed wall time.  Each
        generate -> expand -> simulate triple is also kept as a pipeline."""
        spans = [self.command(name, hook=hook) for name in commands]
        for i in range(len(commands) - 2):
            if commands[i:i + 3] == ["generate", "expand", "simulate"]:
                self.triples.append(spans[i:i + 3])
        return sum(end - start for start, end in spans)

    def timings(self, speedometer: Speedometer) -> dict:
        """Wall and reference seconds of every command and pipeline."""
        def convert(intervals):
            pairs = [speedometer.reference_seconds(start, end) for start, end in intervals]
            return [own for own, _ in pairs], [ref for _, ref in pairs]
        out = {}
        for name, intervals in self.intervals.items():
            out[name] = dict(zip(("wall", "reference"), convert(intervals)))
        pipelines = [convert(triple) for triple in self.triples]
        out["pipeline"] = {"wall": [sum(w) for w, _ in pipelines],
                           "reference": [sum(r) for _, r in pipelines]}
        return out


def measure(workload, seconds: float) -> tuple[Runner, int]:
    """Whole rounds until the next round would overrun the window."""
    runner = Runner(workload)
    rounds, begin = 0, time.perf_counter()
    while True:
        start = time.perf_counter()
        runner.run(workload.round())
        rounds += 1
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return runner, rounds


def trace(workload, spans_path: str) -> tuple[Runner, dict]:
    """One untraced pass, one traced pass (spans written to spans_path) and
    one allocation pass."""
    commands = workload.single_round()
    runner, tracer = Runner(workload), Tracer()
    plain = runner.run(commands)
    tracer.install()
    try:
        traced = runner.run(commands, hook=tracer)
    finally:
        tracer.uninstall()
    peaks = PeakRecorder()
    peaks.install()
    try:
        for name in dict.fromkeys(call.split(".")[0] for call in PEAK_CALLS):
            runner.command(name, hook=peaks)
    finally:
        peaks.uninstall()
    totals = {f"{command}|{name}": entry
              for (command, name), entry in layer_totals(tracer.spans).items()}
    with open(spans_path, "w") as handle:
        json.dump({"fields": ["name", "parent", "command", "start_s", "end_s", "counts"],
                   "spans": tracer.spans}, handle)
    return runner, {"plain_s": plain, "traced_s": traced, "totals": totals,
                    "peaks": peaks.peaks}


def main(argv: list[str]) -> int:
    name, seconds, traced, smoke, out_path = argv
    workload = (SMOKE if smoke == "1" else WORKLOADS)[name]
    warm = Runner(SMOKE[name])
    result = {"timings": None, "trace": None, "rounds": 1}
    if traced == "1":
        warm.run(SMOKE[name].single_round())
        runner, result["trace"] = trace(workload, os.path.join(os.path.dirname(out_path),
                                                                "spans.json"))
    else:
        with Speedometer() as speedometer:
            warm.run(SMOKE[name].single_round())
            runner, result["rounds"] = measure(workload, float(seconds))
            time.sleep(NEAREST * INTERVAL_S)     # samples after the last command
        result["timings"] = runner.timings(speedometer)
        result["speed_samples"] = len(speedometer.durations)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        corrupt_code = cli.main(CORRUPT_ARGV)
    result.update({
        "invocations": warm.invocations + runner.invocations + 1,
        "failures": warm.failures + runner.failures,
        "digests": {k: len(v) for k, v in runner.digests.items()},
        "outputs": runner.last_output,
        "corrupt": {"code": corrupt_code, "stdout": out.getvalue()},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "qsagen_file": os.path.abspath(cli.__file__),
    })
    with open(out_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

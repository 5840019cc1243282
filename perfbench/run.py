"""conedyn benchmark: one seeded workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan|closure|algebra --seed N \
        --seconds S --trace 0|1

The workload's configs are generated from the seed into a scratch directory
under ``.perfbench/``; ``conedyn`` (from this checkout's ``src/``) receives
only those files.  Load comes from this process, one child process at a time.

``--trace 0`` reports the end-to-end metrics.  For ``--seconds`` it repeats
cycles of one set-up probe, one cold call of the next invocation in turn
and in-process repetitions.
Times are CPU seconds at a reference machine speed (see ``Gauge``):

* ``setup_s``      a fresh interpreter that imports ``conedyn.cli`` and
                   loads one of the workload's configs
* ``cold_run_s``   the workload's CLI invocations, each in a fresh
                   process, summed
* ``run_s``        the ``cmd_*`` handlers for the whole workload in one
                   process, after one warm-up repetition
* ``peak_rss_mb``  peak RSS of a cold CLI child: the median over each
                   invocation's cold calls, largest over the invocations
* ``ops_ok_frac``  operations that passed their oracle over those attempted

``--trace 1`` reports the per-layer metrics of a traced in-process run (see
``perfbench/README.md`` for the list and what each should move).

Every run checks the outputs: per-operation oracles at the tolerances of
``tests/test_acceptance.py``, and byte-identity of each output file and run
summary across every repeat of the same seed.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is the run record (versions, backend, commit, seed, config
digests).  The exit code is 1 when any check fails and 2 when the benchmark
cannot run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from worker import canonical, gauge_reading, sha256_file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CHILD_TIMEOUT_S = 150.0
IMPORTTIME_PROBES = 3
COLD_SHARE = 0.6          # of each measuring cycle, for the cold CLI call
MIN_REPS = 3
MIN_COLD = 2              # cold calls of each invocation
GAUGE_REF_S = 0.035       # machine speed the timings are reported at (gauge reading)
SLOPE_PRIOR = 0.7         # d log(time) / d log(gauge) assumed when the states barely vary
SLOPE_PRIOR_WEIGHT = 0.02  # per sample, in units of squared log gauge
STEADY_LOG = math.log(1.25)  # largest change of the gauge across a sample kept in a fit


class Gauge:
    """Machine-speed readings taken between the measured operations.

    On shared virtual machines a vCPU runs at about half speed for seconds
    to minutes at a time (a busy neighbour on the same physical core), and
    CPU-time accounting still charges the process in full; how much of a
    run falls in that state drifts with the neighbours' load.  The gauge
    (``worker.gauge_reading``) is a fixed numpy task that does not touch
    conedyn, read before and after every measured operation: each fresh
    child here, each handler call in the worker.  An operation's state is
    the mean of the two readings; if they differ by more than 25%, the
    state changed during the operation, and the sample is left out of the
    fit (as long as two samples of that operation remain).  The process and
    its children are pinned to one CPU, so the readings describe the CPU
    the operations run on.

    ``at_reference`` turns a run's samples into the time each operation
    takes when the gauge reads ``GAUGE_REF_S``.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.last = self.read()

    def read(self) -> float:
        reading = gauge_reading()
        self.readings.append(reading)
        return reading

    def around(self, fn, *args):
        """(fn's result, state): the gauge readings either side of it."""
        before = self.last
        out = fn(*args)
        self.last = self.read()
        return out, (before, self.last)


def at_reference(series: list[tuple[list[float], list[float]]]) -> list[float]:
    """Time of one operation of each series at gauge reading ``GAUGE_REF_S``.

    Each series is one operation's (times, states) over a run.  The fit is
    least squares of log(time) on log(state), with one slope for all series
    of the run and one intercept each, so that the many short handler
    calls, whose states the gauge pins well, lend their slope to the few
    long cold calls.
    The slope is pulled towards ``SLOPE_PRIOR`` so that a run spent in one
    state still gets one (ridge regression).  On the machine the benchmark
    was tuned on, the gauge reads 24-28 ms in the fast state and 47-55 ms in
    the slow one, and the fitted slopes are 0.5-0.8: interpreted code slows
    down less than numpy calls do.
    """
    sxx = sxy = 0.0
    n = 0
    centres = []
    for times, states in series:
        steady = [abs(math.log(a / b)) <= STEADY_LOG for a, b in states]
        if sum(steady) >= 2:
            times = [t for t, keep in zip(times, steady) if keep]
            states = [g for g, keep in zip(states, steady) if keep]
        xs = [math.log(0.5 * (a + b) / GAUGE_REF_S) for a, b in states]
        ys = [math.log(t) for t in times]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        sxx += sum((x - mx) ** 2 for x in xs)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        n += len(xs)
        centres.append((mx, my))
    weight = SLOPE_PRIOR_WEIGHT * n
    slope = (sxy + weight * SLOPE_PRIOR) / (sxx + weight)
    return [math.exp(my - slope * mx) for mx, my in centres]


class BenchError(Exception):
    """The benchmark itself could not run (no result line is printed)."""


def run_child(argv: list[str], cwd: Path, stdout_path: Path) -> tuple[float, float, int, float]:
    """Run one child to completion; return (wall s, CPU s, exit code, peak RSS MiB).

    CPU time is user plus system time from ``wait4``.  It leaves out the
    time a virtual machine's hypervisor takes the CPU away (steal time),
    which wall time counts."""
    stderr_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=_child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, proc.returncode, usage.ru_maxrss / 1024.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


class Worker:
    """A ``worker.py`` child that runs repetitions on request (see its docstring)."""

    def __init__(self, bench: Bench, trace: bool):
        self.bench = bench
        out = bench._path("worker-traced" if trace else "worker")
        plan = {
            "src": str(SRC),
            "invocations": [{"command": inv.command, "config": inv.config,
                             "output": inv.output, "seed": inv.seed}
                            for inv in bench.wl.invocations],
            "trace": trace,
        }
        plan_path = out.with_suffix(".plan.json")
        plan_path.write_text(json.dumps(plan))
        self.stderr_path = out.with_suffix(".err")
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(plan_path)], cwd=bench.work,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=_child_env(),
                text=True)
        self.killer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.killer.start()
        try:
            self.hello = self._read()
        except BaseException:
            self.close()
            raise
        for i, results in enumerate(self.hello["results"]):
            bench.record(i, results, self.hello["digests"][i])
        # per repetition, per invocation: handler CPU and wall seconds, and
        # the gauge state around the handler call
        self.handler_s: list[list[float]] = []
        self.handler_wall_s: list[list[float]] = []
        self.states: list[list[float]] = []

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise BenchError(f"worker exited {self.proc.returncode}:\n{_tail(self.stderr_path)}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def rep(self) -> None:
        answer = self.ask("rep")
        self.states.append(answer["handler_gauge_s"])
        for i, digest in enumerate(answer["digests"]):
            self.bench.record(i, None if answer["stable"][i] else "changed", digest)
        self.handler_s.append(answer["handler_s"])
        self.handler_wall_s.append(answer["handler_wall_s"])

    @property
    def rep_s(self) -> list[float]:
        """Summed handler CPU time of each repetition."""
        return [sum(times) for times in self.handler_s]

    @property
    def rep_states(self) -> list[tuple[float, float]]:
        """Gauge readings either side of each repetition."""
        return [(states[0][0], states[-1][1]) for states in self.states]

    def series(self) -> list[tuple[list[float], list[float]]]:
        """(times, states) of each invocation's handler call."""
        return [([rep[i] for rep in self.handler_s], [rep[i] for rep in self.states])
                for i in range(len(self.bench.wl.invocations))]

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("exit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.killer.cancel()
            for stream in (self.proc.stdin, self.proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Bench:
    def __init__(self, wl: workloads.Workload, seconds: float, work: Path):
        self.wl = wl
        self.seconds = seconds
        self.work = work
        self.n_children = 0
        # per invocation: every distinct output digest and summary seen
        self.digests = [set() for _ in wl.invocations]
        self.summaries = [set() for _ in wl.invocations]
        self.cli_failed = [False] * len(wl.invocations)
        self.gauge = Gauge()

    def _path(self, stem: str) -> Path:
        self.n_children += 1
        return self.work / f"{self.n_children:04d}-{stem}.out"

    # --- fresh-process measurements ---

    def setup_probe(self) -> tuple[float, float]:
        """(wall, CPU) seconds of one fresh interpreter through set-up."""
        config = self.wl.invocations[0].config
        code = f"import conedyn.cli as c; c.load_config({config!r})"
        (wall, cpu, code_, _), state = self.gauge.around(
            run_child, [sys.executable, "-c", code], self.work, self._path("setup"))
        if code_ != 0:
            raise BenchError(f"set-up probe failed with exit code {code_}")
        return wall, cpu, state

    def cold_call(self, i: int) -> tuple[float, float, float, float]:
        """Invocation i as ``python -m conedyn.cli``; (wall, CPU, gauge state,
        peak RSS MiB)."""
        inv = self.wl.invocations[i]
        out = self._path(f"cli-{inv.command}")
        argv = [sys.executable, "-m", "conedyn.cli", inv.command,
                "--config", inv.config, "--seed", str(inv.seed)]
        (wall, cpu, code, peak), state = self.gauge.around(run_child, argv, self.work, out)
        if code != 0:
            print(f"perfbench: conedyn {inv.command} exited {code}:\n"
                  f"{_tail(out.with_suffix('.err'))}", file=sys.stderr)
            self.cli_failed[i] = True
            return wall, cpu, state, peak
        try:
            results = json.loads(out.read_text())["results"]
        except (ValueError, KeyError):
            self.cli_failed[i] = True
            return wall, cpu, state, peak
        self.record(i, results, sha256_file(self.work / inv.output))
        return wall, cpu, state, peak

    def importtime(self) -> tuple[float, float]:
        """(total, scipy) import seconds from ``-X importtime``."""
        out = self._path("importtime")
        _, _, code, _ = run_child([sys.executable, "-X", "importtime", "-c", "import conedyn.cli"],
                                  self.work, out)
        if code != 0:
            raise BenchError("import probe failed")
        total = scipy = 0.0
        for line in out.with_suffix(".err").read_text().splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line.rstrip())
            if not m:
                continue
            self_us = int(m.group(1))
            module = m.group(3).strip()
            total += self_us
            if module == "scipy" or module.startswith("scipy."):
                scipy += self_us
        return total / 1e6, scipy / 1e6

    def worker(self, trace: bool) -> Worker:
        return Worker(self, trace)

    def record(self, i: int, results: dict | None, digest: str) -> None:
        """Note one repeat's run summary and output digest of invocation i."""
        if results is not None:
            self.summaries[i].add(canonical(results))
        self.digests[i].add(digest)

    # --- checks ---

    def check(self, results: list[dict]) -> tuple[int, list[str]]:
        """Failed operations: oracle failures, plus every operation of an
        invocation whose outputs or summaries differ between repeats."""
        notes = []
        failed = self.wl.failed_ops(self.work, results)
        for i, inv in enumerate(self.wl.invocations):
            if self.cli_failed[i]:
                notes.append(f"{inv.config}: CLI run failed")
                failed[i] = inv.ops
            elif len(self.digests[i]) != 1 or len(self.summaries[i]) != 1:
                notes.append(f"{inv.config}: outputs differ between repeats "
                             f"({len(self.digests[i])} digests, "
                             f"{len(self.summaries[i])} summaries)")
                failed[i] = inv.ops
            elif failed[i]:
                notes.append(f"{inv.config}: {failed[i]} of {inv.ops} operations failed "
                             "their oracle")
        return sum(failed), notes


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_end_to_end(bench: Bench) -> tuple[dict, dict]:
    bench.setup_probe()  # untimed: fills the bytecode caches
    n = len(bench.wl.invocations)
    setup, setup_wall, setup_state = [], [], []
    # per invocation: CPU, wall, gauge state and peak RSS of each cold call
    cold, cold_wall, cold_state, rss = ([[] for _ in range(n)] for _ in range(4))
    with bench.worker(trace=False) as worker:
        # Each cycle takes one set-up probe, one cold call of the next
        # invocation in turn and in-process repetitions, so all three
        # metrics sample the whole window of a machine whose speed drifts
        # over seconds to minutes.
        t_measure = time.perf_counter()
        cycle = 0
        while (time.perf_counter() - t_measure < bench.seconds
               or min(map(len, cold)) < MIN_COLD or len(worker.handler_s) < MIN_REPS):
            wall, cpu, state = bench.setup_probe()
            setup.append(cpu)
            setup_wall.append(wall)
            setup_state.append(state)
            i = cycle % n
            cycle += 1
            t_cold = time.perf_counter()
            for series, value in zip((cold_wall, cold, cold_state, rss), bench.cold_call(i)):
                series[i].append(value)
            t_warm = time.perf_counter()
            share = (t_warm - t_cold) * (1.0 - COLD_SHARE) / COLD_SHARE
            while not worker.handler_s or time.perf_counter() - t_warm < share:
                worker.rep()
    gauge = bench.gauge
    times = at_reference([(setup, setup_state)] + list(zip(cold, cold_state))
                         + worker.series())
    metrics = {
        "cold_run_s": _metric(sum(times[1:1 + n]), "s"),
        "setup_s": _metric(times[0], "s"),
        "run_s": _metric(sum(times[1 + n:]), "s"),
        "peak_rss_mb": _metric(max(statistics.median(peaks) for peaks in rss), "MiB"),
    }
    samples = {"setup_s": setup, "cold_s": cold, "handler_s": worker.handler_s,
               "setup_wall_s": setup_wall, "cold_wall_s": cold_wall,
               "handler_wall_s": worker.handler_wall_s,
               "setup_gauge_s": setup_state, "cold_gauge_s": cold_state, "cold_rss_mb": rss,
               "handler_gauge_s": worker.states, "gauge_s": gauge.readings}
    return metrics, {"worker": worker.hello, "samples": samples}


def measure_layers(bench: Bench) -> tuple[dict, dict]:
    t_measure = time.perf_counter()
    imports = [bench.importtime() for _ in range(IMPORTTIME_PROBES)]
    extra = {}
    with bench.worker(trace=False) as plain, bench.worker(trace=True) as traced:
        # Alternate untraced and traced repetitions, so the overhead ratio
        # compares the two under the same machine states.
        while (time.perf_counter() - t_measure < bench.seconds
               or len(traced.handler_s) < MIN_REPS):
            plain.rep()
            traced.rep()
        layers = traced.ask("layers")
        if bench.wl.name == "closure":
            extra["kernel_steps_per_s"] = plain.ask("kernels")

    gauge = bench.gauge

    def layer_time(values: list[float]) -> float:
        # a layer the workload never enters takes 0 s on every repetition
        return at_reference([(values, traced.rep_states)])[0] if min(values) > 0 else 0.0

    metrics = {
        "import.total_s": _metric(statistics.median(t for t, _ in imports), "s"),
        "import.scipy_s": _metric(statistics.median(s for _, s in imports), "s"),
    }
    handler_total = 0.0
    library_self = 0.0
    for name, entry in sorted(layers.items()):
        calls = statistics.median(entry["calls"])
        self_s = layer_time(entry["self_s"])
        if name.startswith("cli.cmd_"):
            handler_total += layer_time(entry["total_s"])
        elif name != "config.load_config":
            library_self += self_s
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(self_s, "s")
    steps = sum(workloads.ORBIT_STEPS for inv in bench.wl.invocations
                if inv.command == "simulate")
    integrate_s = metrics["dynamics.integrate.self_s"]["value"]
    metrics["dynamics.integrate.steps_per_s"] = _metric(
        steps / integrate_s if steps and integrate_s > 0 else 0.0, "1/s")
    metrics["cli.output_bytes"] = _metric(traced.hello["output_bytes"], "bytes")
    for name, ratio in workloads.useful_ratios(bench.wl, bench.work,
                                               traced.hello["results"]).items():
        metrics[name] = _metric(ratio, "ratio")
    metrics["trace.overhead_frac"] = _metric(
        sum(at_reference(traced.series())) / sum(at_reference(plain.series())) - 1.0, "ratio")
    metrics["trace.coverage"] = _metric(
        library_self / handler_total if handler_total > 0 else 0.0, "ratio")
    extra["samples"] = {"importtime_s": imports, "run_s": plain.rep_s,
                        "traced_run_s": traced.rep_s, "run_gauge_s": plain.states,
                        "traced_run_gauge_s": traced.states, "gauge_s": gauge.readings}
    return metrics, {"worker": traced.hello, **extra}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conedyn" / "cli.py").is_file():
        print(f"perfbench: no conedyn sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    # a terminated run still stops its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for this process and every child, so that the gauge readings
    # describe the CPU the measured operations run on (see Gauge)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    start = time.perf_counter()
    wl = workloads.build(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_digests = wl.write_configs(work)
        bench = Bench(wl, args.seconds, work)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, extra = measure(bench)
        worker = extra.pop("worker")
        failed, notes = bench.check(worker["results"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = wl.attempted
    if not args.trace:
        metrics["ops_ok_frac"] = _metric((attempted - failed) / attempted, "ratio")
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "versions": worker["versions"],
        "kernel_backend": worker["kernel_backend"],
        "git_commit": _git_commit(),
        "config_sha256": config_digests,
        "output_sha256": {inv.output: sorted(d) for inv, d in zip(wl.invocations, bench.digests)},
        "wall_s": time.perf_counter() - start,
        **extra,
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

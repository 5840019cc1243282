"""Benchmark child: run a workload's CLI handlers in one process, optionally traced.

Usage: python worker.py <plan.json>

The plan names the conedyn source tree, the invocations (subcommand,
config, seed, output) and whether to trace.  The worker imports
``conedyn.cli`` from that tree only and runs every handler once as a
warm-up.  It then serves one-line commands on stdin, answering each with one
JSON line on stdout:

* ``rep``      run the whole invocation list once; reply with the CPU and
               wall time of each ``cmd_*`` handler call, the gauge state
               around it, and the sha256 of every output file
* ``layers``   per-repetition calls, total and self time of every traced
               function (tracing only)
* ``kernels``  steps per second of each stepper backend on the first
               simulate config's orbit
* ``exit``     stop

The caller decides when each repetition runs, so it can interleave them
with other measurements.

With tracing on, every public function in ``TARGETS`` is wrapped at each
module binding that refers to it (``bertrand.turning_points`` as well as
``dynamics.turning_points``), and each wrapper records calls, total time
and self time (total minus the time of wrapped callees).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

HANDLERS = {
    "simulate": "cmd_simulate",
    "bertrand": "cmd_bertrand",
    "actions": "cmd_actions",
    "verify-algebra": "cmd_verify_algebra",
}

# Public functions timed per layer, as (module, function).
TARGETS = (
    ("config", "load_config"),
    ("dynamics", "turning_points"),
    ("dynamics", "integrate"),
    ("dynamics", "detect_closure"),
    ("bertrand", "circular_orbit"),
    ("bertrand", "bertrand_scan"),
    ("bertrand", "apsidal_angle"),
    ("bertrand", "radial_period"),
    ("bertrand", "width_law_check"),
    ("actions", "radial_action"),
    ("actions", "frequencies"),
    ("symmetry", "global_invariant"),
    ("symmetry", "verify_w_algebra"),
    ("sampling", "draw_bound_point"),
) + tuple(("cli", handler) for handler in HANDLERS.values())


class Tracer:
    """Calls, total and self time per wrapped function, kept in memory."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self._stack: list[list[float]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self, package: str) -> None:
        """Wrap every target and rebind it wherever a module of the package
        holds a reference to the original function object."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, func in TARGETS:
            name = f"{module_name}.{func}"
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, func, None)
            self.stats.setdefault(name, [0, 0.0, 0.0])
            if original is None:
                continue  # the function no longer exists: report zero calls
            wrapped = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def snapshot(self) -> dict[str, tuple]:
        return {name: tuple(v) for name, v in self.stats.items()}


def gauge_reading() -> float:
    """CPU seconds of a fixed numpy task that does not touch conedyn: the
    machine-speed gauge read between measured operations (see run.Gauge)."""
    t0 = time.process_time()
    x = np.linspace(0.1, 0.9, 64)
    for _ in range(10_000):
        x = np.sqrt(x * 1.0000001 + 0.5) - 0.1
    return time.process_time() - t0


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _kernel_throughput(cli, config: str, repeats: int = 3) -> dict[str, float]:
    """Steps per second of each available stepper backend on one simulate
    config's orbit, called directly (median of ``repeats``)."""
    from conedyn import dynamics
    from conedyn.core import PhasePoint

    cfg = cli.load_config(config)
    E, J = cfg.initial_level
    tp = dynamics.turning_points(cfg.params, E, J)
    pt = PhasePoint(r=tp.r_min, phi=0.0, p_r=0.0, J=J)
    it = cfg.integrator
    backends = ["python"] + (["compiled"] if dynamics.HAVE_COMPILED_KERNEL else [])
    out = {}
    for backend in backends:
        times = []
        for _ in range(repeats):
            t0 = time.process_time()
            dynamics.integrate(cfg.params, pt, it.dt, it.n_steps, it.sample_every,
                               backend=backend)
            times.append(time.process_time() - t0)
        out[backend] = it.n_steps / statistics.median(times)
    return out


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as f:
        plan = json.load(f)
    src = os.path.realpath(plan["src"])
    sys.path.insert(0, src)
    # stdout carries the protocol; anything the program prints goes to stderr
    protocol, sys.stdout = sys.stdout, sys.stderr

    def reply(obj) -> None:
        protocol.write(json.dumps(obj) + "\n")
        protocol.flush()

    import conedyn
    from conedyn import cli

    if not os.path.realpath(conedyn.__file__).startswith(src + os.sep):
        print(f"worker: conedyn imported from {conedyn.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if plan["trace"]:
        tracer = Tracer()
        tracer.install("conedyn")

    invocations = plan["invocations"]

    def run_once() -> tuple[list[float], list[float], list[float], list[dict], list[str], int]:
        handler_s, handler_wall_s, states = [], [], []
        results = []
        before = gauge_reading()
        for inv in invocations:
            cfg = cli.load_config(inv["config"])
            args = argparse.Namespace(command=inv["command"], config=inv["config"],
                                      output=None, seed=inv["seed"], format=None)
            handler = getattr(cli, HANDLERS[inv["command"]])
            c0, t0 = time.process_time(), time.perf_counter()
            summary = handler(cfg, args)
            handler_s.append(time.process_time() - c0)
            handler_wall_s.append(time.perf_counter() - t0)
            after = gauge_reading()
            states.append((before, after))
            before = after
            if summary.exit_status != 0:
                raise RuntimeError(f"{inv['command']} {inv['config']}: exit status "
                                   f"{summary.exit_status}: {summary.results}")
            results.append(json.loads(json.dumps(dataclasses.asdict(summary)["results"],
                                                 default=str)))
        digests = [sha256_file(inv["output"]) for inv in invocations]
        size = sum(os.path.getsize(inv["output"]) for inv in invocations)
        return handler_s, handler_wall_s, states, results, digests, size

    warm_s, _, _, first_results, digests, output_bytes = run_once()
    reply({
        "versions": {
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "conedyn": getattr(conedyn, "__version__", None),
        },
        "kernel_backend": conedyn.kernel_backend() if hasattr(conedyn, "kernel_backend") else None,
        "warmup_s": sum(warm_s),
        "results": first_results,
        "digests": digests,
        "output_bytes": output_bytes,
    })

    layers: dict[str, dict[str, list]] = {}
    before = tracer.snapshot() if tracer else {}
    for line in sys.stdin:
        command = line.strip()
        if command == "rep":
            handler_s, handler_wall_s, states, results, digests, _ = run_once()
            if tracer:
                after = tracer.snapshot()
                for name, now in after.items():
                    entry = layers.setdefault(name, {"calls": [], "total_s": [], "self_s": []})
                    for key, new, old in zip(("calls", "total_s", "self_s"), now, before[name]):
                        entry[key].append(new - old)
                before = after
            reply({"handler_s": handler_s, "handler_wall_s": handler_wall_s,
                   "handler_gauge_s": states, "digests": digests,
                   "stable": [canonical(r) == canonical(f)
                              for r, f in zip(results, first_results)]})
        elif command == "layers":
            reply(layers)
        elif command == "kernels":
            simulate = [inv for inv in invocations if inv["command"] == "simulate"]
            reply(_kernel_throughput(cli, simulate[0]["config"]))
        elif command == "exit":
            break
        else:
            print(f"worker: unknown command {command!r}", file=sys.stderr)
            return 2
    return 0


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _version(name: str) -> str | None:
    try:
        return importlib.import_module(name).__version__
    except ImportError:
        return None


if __name__ == "__main__":
    sys.exit(main(sys.argv))

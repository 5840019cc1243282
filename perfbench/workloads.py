"""Seeded workload generation and per-operation oracles for the conedyn benchmark.

Each workload is a short list of ``conedyn`` CLI invocations on configs
generated here from the benchmark seed; the program receives only those
config files.  The same seed always gives byte-identical configs.  The
counts of work (scan cells, integration steps, samples, algebra points)
are fixed per workload so timings compare across seeds; the seed moves only
the physics parameters (and with them how far adaptive quadrature and root
bracketing refine).

Oracles reuse the tolerances pinned in ``tests/test_acceptance.py`` and
count failures per operation: a scan cell (plus the log width-law check),
an action level or orbit, or an algebra point.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("scan", "closure", "algebra")

# --- sizing (fixed per workload; the seed never changes these counts) ---

SCAN_E_FRACTIONS = 10
SCAN_LAMBDAS = 9                  # 1.0 (the width-law J) plus 8 seeded
ORBIT_STEPS = 240_000             # per simulated orbit: >= 52,000 per radial period
ORBIT_SAMPLE_EVERY = 20           # 12,001 samples per orbit
IRRATIONAL_PERIODS = 4
ORBIT_WELL_FRACTION = (0.15, 0.3)  # the gate's conservation orbits sit at 0.3
ACTION_LEVELS = 6
ALGEBRA_POINTS = 250              # per potential

# --- parameter pools ---

# Besides -1 and 2, one exponent is drawn per bin.  The bins stay 0.2 away
# from -1 and 2 and the -2 limit, so every other family fails the flatness
# test by far, and off the shallow wells |alpha| < 0.4.  There the cost
# hangs on rounding noise rather than on the draw: at alpha = 0.25 whether
# a cell refines the quadrature to order 2048 (~1 s and ~60 MB on first
# use in a process) changes with lambda, which is physically irrelevant;
# and alpha = -0.1 takes 7.6 s for 90 cells in turning-point bracketing
# against 0.04-0.08 s for any exponent used here.
SCAN_EXPONENT_BINS = ((-1.8, -1.6), (-1.5, -1.3), (-0.8, -0.6), (-0.55, -0.4),
                      (0.4, 0.8), (0.9, 1.3), (1.4, 1.7), (2.5, 4.0))
# Kepler at s = k/n has frequency ratio n/k and closes after k radial
# periods; the oscillator has n/(2k) and closes after its denominator.
KEPLER_CLOSURE_S = ((1, 2), (2, 3), (3, 4), (2, 5), (3, 5))
OSCILLATOR_CLOSURE_S = ((1, 2), (2, 3), (3, 4), (1, 3))
# Quadratic irrationals in (0.5, 1): bounded continued-fraction quotients,
# so no near-return within a few dozen periods.
IRRATIONAL_S = (1.0 / math.sqrt(2.0), math.sqrt(3.0) / 2.0, (math.sqrt(5.0) - 1.0) / 2.0,
                2.0 / math.sqrt(7.0), math.sqrt(5.0) / 3.0, math.sqrt(2.0) - 0.5)
ALGEBRA_S = ((1, 2), (2, 3), (3, 4))   # n > 1, as pinned by the acceptance gate

# --- acceptance tolerances (tests/test_acceptance.py) ---

APSIDAL_TOL = 1e-8                 # criterion 1
LOG_WIDTH_RESIDUAL_MIN = 1e-2      # criterion 2
ROUNDTRIP_TOL = 1e-8               # criterion 4
RATIO_TOL = 1e-6                   # criterion 4
H_DRIFT_TOL = 1e-7                 # criterion 5
Z_DRIFT_TOL = 1e-6                 # criterion 5
CHECK_BOUNDS = {"{J,Z}": 1e-6, "{J,Zbar}": 1e-6,   # criterion 7
                "{H,Z}": 1e-8, "{H,J}": 1e-8}


@dataclass
class Invocation:
    """One ``conedyn <command> --config <config> --seed <seed>`` call."""

    command: str
    config: str    # file name inside the work directory
    output: str    # result file the config names, relative to the work directory
    seed: int
    ops: int       # operations this call carries


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    configs: dict[str, dict]
    expect: dict = field(default_factory=dict)

    def write_configs(self, workdir: Path) -> dict[str, str]:
        """Write every config; return file name -> sha256 of its bytes."""
        digests = {}
        for name, doc in self.configs.items():
            data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
            (workdir / name).write_bytes(data)
            digests[name] = hashlib.sha256(data).hexdigest()
        return digests

    @property
    def attempted(self) -> int:
        return sum(inv.ops for inv in self.invocations)

    def failed_ops(self, workdir: Path, summaries: list[dict]) -> list[int]:
        """Failed operations per invocation, judged from the result files
        and the ``results`` part of each run summary."""
        return _ORACLES[self.name](self, workdir, summaries)


def _params(geometry: dict, potential: dict) -> dict:
    return {"m": 1.0, "geometry": geometry, "potential": potential}


def _rational(k: int, n: int) -> dict:
    return {"k": k, "n": n}


def _config(params: dict, output: str, fmt: str, **sections) -> dict:
    return {"params": params, **sections, "output": {"path": output, "format": fmt}}


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"conedyn-perfbench:{name}:{seed}")
    return _BUILDERS[name](rng)


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw inside each of ``count`` equal bins of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.uniform(0.1, 0.9)) for i in range(count)]


# --- scan: the closed-orbit exponent selection ---

def _build_scan(rng: random.Random) -> Workload:
    exponents = sorted([-1.0, 2.0] + [round(rng.uniform(lo, hi), 4)
                                      for lo, hi in SCAN_EXPONENT_BINS])
    scan = {
        "exponents": exponents,
        "e_fractions": _stratified(rng, 0.05, 0.85, SCAN_E_FRACTIONS),
        # the log width-law check runs at J = lambdas[0] * s = 1, as in the gate
        "lambdas": [1.0] + _stratified(rng, 0.5, 1.6, SCAN_LAMBDAS - 1),
        "include_log_check": True,
    }
    cfg = _config(_params({"s": 1.0}, {"kind": "kepler", "kappa": 1.0}),
                  "scan.csv", "csv", scan=scan,
                  quadrature={"tolerance": 1e-10, "max_refinements": 6})
    cells = len(exponents) * SCAN_E_FRACTIONS * SCAN_LAMBDAS
    inv = Invocation("bertrand", "scan.json", "scan.csv", 0, cells + 1)
    return Workload("scan", [inv], {"scan.json": cfg})


def _check_scan(wl: Workload, workdir: Path, summaries: list[dict]) -> list[int]:
    results = summaries[0]
    verdicts = results.get("verdicts", {})
    expected_constant = {-1.0: math.pi, 2.0: math.pi / 2.0}
    failed = 0
    with open(workdir / wl.invocations[0].output, newline="") as f:
        rows = list(csv.DictReader(f))
    cells = wl.invocations[0].ops - 1
    failed += abs(cells - len(rows))
    for row in rows:
        alpha = float(row["family_param"])
        value = float(row["s_delta_phi"])
        ok = row["status"] == "ok" and math.isfinite(value)
        if alpha in expected_constant:
            ok = ok and abs(value - expected_constant[alpha]) <= APSIDAL_TOL
            ok = ok and verdicts.get(str(alpha)) == "pass"
        else:
            ok = ok and verdicts.get(str(alpha)) == "fail"
        failed += not ok
    failed += not results.get("width_law_log_residual", 0.0) > LOG_WIDTH_RESIDUAL_MIN
    return [min(failed, wl.invocations[0].ops)]


# --- closure: closure iff s is rational ---

def _kepler_level(rng: random.Random, s: float,
                  fraction: tuple[float, float] = (0.1, 0.6)) -> tuple[float, float]:
    """(E, J) a uniform fraction into the Kepler well (kappa = m = 1)."""
    J = rng.uniform(0.6, 1.4)
    e_circular = -0.5 * (s / J) ** 2
    return e_circular * (1.0 - rng.uniform(*fraction)), J


def _kepler_period(E: float) -> float:
    return 2.0 * math.pi / (-2.0 * E) ** 1.5


def _simulate(params: dict, E: float, J: float, dt: float, output: str) -> dict:
    return _config(params, output, "csv",
                   initial={"level": {"E": E, "J": J}},
                   integrator={"dt": dt, "n_steps": ORBIT_STEPS,
                               "sample_every": ORBIT_SAMPLE_EVERY},
                   closure={"enabled": True, "tol": 1e-6})


def _build_closure(rng: random.Random) -> Workload:
    configs: dict[str, dict] = {}
    invocations: list[Invocation] = []

    k, n = rng.choice(KEPLER_CLOSURE_S)
    kepler = _params(_rational(k, n), {"kind": "kepler", "kappa": 1.0})
    levels = [_kepler_level(rng, k / n, ORBIT_WELL_FRACTION)]
    levels += [_kepler_level(rng, k / n) for _ in range(ACTION_LEVELS - 1)]
    configs["actions.json"] = _config(
        kepler, "actions.jsonl", "jsonl",
        levels=[{"E": E, "J": J} for E, J in levels],
        quadrature={"tolerance": 1e-10, "max_refinements": 6})
    invocations.append(Invocation("actions", "actions.json", "actions.jsonl", 0, ACTION_LEVELS))

    kepler_q = Fraction(n, k).denominator
    E, J = levels[0]
    dt = (kepler_q + 0.6) * _kepler_period(E) / ORBIT_STEPS
    configs["kepler.json"] = _simulate(kepler, E, J, dt, "kepler.csv")
    invocations.append(Invocation("simulate", "kepler.json", "kepler.csv", 0, 1))

    k2, n2 = rng.choice(OSCILLATOR_CLOSURE_S)
    oscillator_q = Fraction(n2, 2 * k2).denominator
    J = rng.uniform(0.6, 1.4)
    E = (J * n2 / k2) * (1.0 + 2.0 * rng.uniform(*ORBIT_WELL_FRACTION))  # omega = m = 1
    dt = (oscillator_q + 0.6) * math.pi / ORBIT_STEPS
    configs["oscillator.json"] = _simulate(
        _params(_rational(k2, n2), {"kind": "oscillator", "omega": 1.0}),
        E, J, dt, "oscillator.csv")
    invocations.append(Invocation("simulate", "oscillator.json", "oscillator.csv", 0, 1))

    s = rng.choice(IRRATIONAL_S)
    E, J = _kepler_level(rng, s, ORBIT_WELL_FRACTION)
    dt = (IRRATIONAL_PERIODS + 0.3) * _kepler_period(E) / ORBIT_STEPS
    configs["irrational.json"] = _simulate(
        _params({"s": s}, {"kind": "kepler", "kappa": 1.0}), E, J, dt, "irrational.csv")
    invocations.append(Invocation("simulate", "irrational.json", "irrational.csv", 0, 1))

    return Workload("closure", invocations, configs,
                    {"kepler_pq": (Fraction(n, k).numerator, kepler_q),
                     "periods": [kepler_q, oscillator_q, None]})


def _check_closure(wl: Workload, workdir: Path, summaries: list[dict]) -> list[int]:
    """A level passes when its ratio is n/k within the gate's 1e-6, H(I)
    round-trips, and any (p, q) the rationality test accepts is exactly
    (n, k).  (The test may reject a level whose quadrature error exceeds its
    1e-9 acceptance; ``rational_ok_ratio`` reports that.)  A rational orbit
    passes when it closes after exactly the predicted q radial periods."""
    p, q = wl.expect["kepler_pq"]
    records = _action_records(wl, workdir)
    failed = abs(len(records) - ACTION_LEVELS)
    for rec in records:
        predicted = (rec.get("rational_p"), rec.get("rational_q"))
        failed += not (rec.get("status") == "ok"
                       and abs(rec.get("ratio", math.inf) - p / q) < RATIO_TOL
                       and rec.get("roundtrip_rel_err", math.inf) < ROUNDTRIP_TOL
                       and predicted in (("", ""), (p, q)))
    out = [min(failed, ACTION_LEVELS)]

    samples = ORBIT_STEPS // ORBIT_SAMPLE_EVERY + 1
    for inv, results, periods in zip(wl.invocations[1:], summaries[1:], wl.expect["periods"]):
        closure = results.get("closure", {})
        if periods is None:
            ok = closure.get("closed") is False
        else:
            ok = closure.get("closed") is True and closure.get("radial_periods") == periods
            ok = ok and results.get("z_drift_rel", math.inf) < Z_DRIFT_TOL
        ok = ok and results.get("h_drift_rel", math.inf) < H_DRIFT_TOL
        ok = ok and results.get("j_drift_abs") == 0.0 and results.get("samples") == samples
        with open(workdir / inv.output, "rb") as f:
            ok = ok and sum(1 for _ in f) == samples + 1
        out.append(int(not ok))
    return out


def _action_records(wl: Workload, workdir: Path) -> list[dict]:
    with open(workdir / wl.invocations[0].output) as f:
        return [json.loads(line) for line in f]


def useful_ratios(wl: Workload, workdir: Path, summaries: list[dict]) -> dict[str, float]:
    """Useful outcomes over attempts for the layers that can waste work:
    scan cells evaluated, and action levels whose ratio was accepted as
    rational.  0 where the workload does not exercise the layer."""
    cells = rational = 0.0
    if wl.name == "scan":
        cells = summaries[0].get("cells_ok", 0) / (wl.invocations[0].ops - 1)
    if wl.name == "closure":
        records = _action_records(wl, workdir)
        rational = sum(rec.get("rational_q") != "" for rec in records) / ACTION_LEVELS
    return {"bertrand.scan.cells_ok_ratio": cells, "actions.rational_ok_ratio": rational}


# --- algebra: the W-algebra of H, J, Z, Zbar ---

def _build_algebra(rng: random.Random) -> Workload:
    configs: dict[str, dict] = {}
    invocations: list[Invocation] = []
    for kind, strength in (("kepler", {"kappa": 1.0}), ("oscillator", {"omega": 1.0})):
        k, n = rng.choice(ALGEBRA_S)
        name = f"algebra_{kind}"
        configs[f"{name}.json"] = _config(
            _params(_rational(k, n), {"kind": kind, **strength}), f"{name}.jsonl", "jsonl",
            algebra={"n_points": ALGEBRA_POINTS, "h": 1e-5})
        invocations.append(Invocation("verify-algebra", f"{name}.json", f"{name}.jsonl",
                                      rng.randrange(2**31), ALGEBRA_POINTS))
    return Workload("algebra", invocations, configs)


def _check_algebra(wl: Workload, workdir: Path, summaries: list[dict]) -> list[int]:
    out = []
    for inv in wl.invocations:
        bad: set[int] = set()
        seen: dict[int, int] = {}
        with open(workdir / inv.output) as f:
            for line in f:
                row = json.loads(line)
                point = row["point_index"]
                if row["role"] != "check":
                    continue
                seen[point] = seen.get(point, 0) + 1
                bound = CHECK_BOUNDS.get(row["bracket"])
                if bound is None or not row["rel_err"] < bound:
                    bad.add(point)
        bad |= {i for i in range(inv.ops) if seen.get(i) != len(CHECK_BOUNDS)}
        out.append(min(len(bad), inv.ops))
    return out


_BUILDERS = {"scan": _build_scan, "closure": _build_closure, "algebra": _build_algebra}
_ORACLES = {"scan": _check_scan, "closure": _check_closure, "algebra": _check_algebra}

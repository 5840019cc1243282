"""Config parsing, serialization round-trips, CLI behavior, and exit codes."""

import csv
import errno
import io
import json
import math
from collections import Counter
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import conedyn as cd
from conedyn import cli, writer
from conedyn.cli import _write_rows, main
from conedyn.config import load_config, parse_config
from conedyn.errors import ConeDynError, ConfigError
from conedyn.sampling import UniformSource, draw_bound_points
from conedyn.symmetry import W_ALGEBRA_ROWS
from helpers import kepler_params, steps_to_collision

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _base_doc(**extra):
    doc = {
        "params": {
            "m": 1.0,
            "geometry": {"k": 2, "n": 3},
            "potential": {"kind": "kepler", "kappa": 1.0},
        }
    }
    doc.update(extra)
    return doc


class TestParsing:
    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="config.bogus"):
            parse_config(_base_doc(bogus=1))
        with pytest.raises(ConfigError, match="params.potential.extra"):
            doc = _base_doc()
            doc["params"]["potential"]["extra"] = 2
            parse_config(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="params.m"):
            parse_config({"params": {"geometry": {"s": 1.0},
                                     "potential": {"kind": "kepler", "kappa": 1.0}}})

    def test_invalid_domain_value_rejected(self):
        doc = _base_doc()
        doc["params"]["potential"]["kappa"] = -1.0
        with pytest.raises(ConfigError, match="params"):
            parse_config(doc)

    def test_rational_geometry_reduces(self):
        doc = _base_doc()
        doc["params"]["geometry"] = {"k": 4, "n": 6}
        cfg = parse_config(doc)
        assert cfg.params.geometry.rational == (2, 3)

    def test_initial_point_and_level_exclusive(self):
        doc = _base_doc(initial={"point": {"r": 1.0, "phi": 0.0, "p_r": 0.0, "J": 1.0},
                                 "level": {"E": -0.1, "J": 1.0}})
        with pytest.raises(ConfigError, match="initial"):
            parse_config(doc)

    def test_integrator_alignment_checked(self):
        doc = _base_doc(integrator={"dt": 1e-3, "n_steps": 1001, "sample_every": 10})
        with pytest.raises(ConfigError, match="integrator.n_steps"):
            parse_config(doc)

    def test_scan_fraction_range_checked(self):
        doc = _base_doc(scan={"exponents": [-1.0], "e_fractions": [1.5], "lambdas": [1.0]})
        with pytest.raises(ConfigError, match=r"scan.e_fractions\[0\]"):
            parse_config(doc)

    def test_scan_exponents_checked(self):
        # at or below -2 there is no power law to scan; a repeat would share
        # its summary keys (str(alpha)) with the first and lose a verdict
        for exponents, bad in (([-1.0, -2.5], 1), ([-2.0], 0), ([2.0, -1.0, 2.0], 2),
                               ([0.0, -0.0], 1)):
            doc = _base_doc(scan={"exponents": exponents, "e_fractions": [0.5],
                                  "lambdas": [1.0]})
            with pytest.raises(ConfigError, match=rf"scan.exponents\[{bad}\]"):
                parse_config(doc)

    def test_algebra_step_positive(self):
        # h = 0 made every bracket NaN; h < 0 swaps the difference signs
        for h in (0.0, -1e-5):
            with pytest.raises(ConfigError, match="algebra.h"):
                parse_config(_base_doc(algebra={"n_points": 3, "h": h}))
        assert parse_config(_base_doc(algebra={"h": 1e-4})).algebra.h == 1e-4


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _simulate_doc(out, n_steps=2000, closure=False):
    return _base_doc(
        initial={"level": {"E": -0.15, "J": 1.0}},
        integrator={"dt": 2e-3, "n_steps": n_steps, "sample_every": 50},
        closure={"enabled": closure, "tol": 1e-6},
        output={"path": out, "format": "csv"},
    )


def _write_table(path, fmt, header, rows):
    """_write_rows over plain rows: one block whose columns are tuples."""
    _write_rows(str(path), fmt, header, [range(len(header))], [list(zip(*rows))])


def _reference_bytes(fmt, header, rows):
    """The rows rendered one by one: json.dumps per JSONL line, or csv.writer
    with floats to 17 significant digits and lines ended by "\\n"."""
    if fmt == "jsonl":
        return "".join(json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n"
                       for row in rows).encode("utf-8")
    out = []
    for row in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf).writerow(
            [format(v, ".17g") if isinstance(v, float) else v for v in row])
        out.append(buf.getvalue()[:-2] + "\n")  # excel dialect ends a row with \r\n
    return "".join(out).encode("utf-8")


def _draw_with_overflow_at_4(rng, params, n):
    # Kepler s = 1/3 at r = 1, p_r = 1e80, J = 1: the {Z,Zbar} power base
    # overflows and the point's rows are NaN
    coords = draw_bound_points(rng, params, n)
    coords[:, 4] = 1.0, 0.3, 1e80, 1.0
    return coords


def _simulate_rows(cfg, seed):
    tp = cd.turning_points(cfg.params, *cfg.initial_level)
    it = cfg.integrator
    traj = cd.integrate(cfg.params, cd.PhasePoint(r=tp.r_min, phi=0.0, p_r=0.0,
                                                  J=cfg.initial_level[1]),
                        it.dt, it.n_steps, it.sample_every)
    inv = cd.phase_invariants(cfg.params, traj.r, traj.phi, traj.p_r, traj.series_J)
    columns = [traj.times, traj.r, traj.phi, traj.p_r, traj.series_J, traj.series_H,
               inv.z_re, inv.z_im]
    return (["t", "r", "phi", "p_r", "J", "H", "Z_re", "Z_im"],
            list(zip(*(c.tolist() for c in columns))))


def _bertrand_rows(cfg, seed):
    scan, quad = cfg.scan, cfg.quadrature
    report = cd.bertrand_scan(cfg.params, scan.exponents, scan.e_fractions, scan.lambdas,
                              tolerance=quad.tolerance, max_refinements=quad.max_refinements)
    return (["family_param", "E", "lambda", "s_delta_phi", "status"],
            [[c.family_param, c.E, c.lam,
              math.nan if c.s_delta_phi is None else c.s_delta_phi, c.status]
             for c in report.cells])


def _actions_rows(cfg, seed):
    rows = []
    for E, J in cfg.levels:
        try:
            d = cd.frequencies(cfg.params, E, J, tolerance=cfg.quadrature.tolerance,
                               max_refinements=cfg.quadrature.max_refinements)
        except ConeDynError as exc:
            rows.append([E, J] + [math.nan] * 10 + [f"error: {exc}"])
            continue
        h = cd.hamiltonian_from_actions(cfg.params, d.i1, d.i2)
        ra = d.rational_approx
        rows.append([E, J, d.i1, d.i2, d.omega1, d.omega2, d.ratio,
                     ra.p if ra else "", ra.q if ra else "", ra.error if ra else math.nan,
                     h, abs(h - E) / max(abs(E), 1e-300), "ok"])
    return (["E", "J", "i1", "i2", "omega1", "omega2", "ratio", "rational_p",
             "rational_q", "rational_error", "h_of_i", "roundtrip_rel_err", "status"], rows)


def _algebra_rows(cfg, seed):
    coords = _draw_with_overflow_at_4(UniformSource(seed), cfg.params,
                                      cfg.algebra.n_points)
    h = cfg.algebra.h
    table = cd.w_algebra_table(cfg.params, *coords, h)
    return (["point_index", "bracket", "value_re", "value_im", "expected_re",
             "expected_im", "abs_err", "rel_err", "h", "role", "note"],
            [[i, name, *(field[k, i].item() for field in table[:6]), h, role, note]
             for i in range(coords.shape[1])
             for k, (name, role, note) in enumerate(W_ALGEBRA_ROWS)])


# per subcommand: a config (output added by the test) and its rows built
# from the library, one by one
_PER_ROW = {
    "simulate": (_simulate_doc(None, n_steps=2000), _simulate_rows),
    "bertrand": (_base_doc(scan={"exponents": [-1.0, 0.0, 1.0], "e_fractions": [0.2, 0.5, 0.8],
                                 "lambdas": [1.0, 1.5]}), _bertrand_rows),
    "actions": (_base_doc(levels=[{"E": -0.15, "J": 1.0}, {"E": -0.1, "J": 1.2},
                                  {"E": 5.0, "J": 1.0}]), _actions_rows),
    "verify-algebra": ({**_base_doc(algebra={"n_points": 7, "h": 1e-5}),
                        "params": {"m": 1.0, "geometry": {"k": 1, "n": 3},
                                   "potential": {"kind": "kepler", "kappa": 1.0}}},
                       _algebra_rows),
}


# the records of the package: NamedTuples, with these fields (and defaults)
_RECORDS = {
    "actions.RationalApprox": ("p", "q", "error"),
    "actions.ActionData": ("i1", "i2", "omega1", "omega2", "ratio", "rational_approx"),
    "bertrand.ApsidalResult": ("delta_phi", "lam", "E", "quadrature_error_estimate"),
    "bertrand.SmallOscillation": ("omega_sq", "apsidal_limit"),
    "bertrand.WidthLawResult": ("a_fit", "max_residual"),
    "bertrand.ScanCell": ("family_param", "E", "lam", "s_delta_phi", "status"),
    "bertrand.FamilyVerdict": ("family_param", "flatness", "constant", "expected_constant",
                               "verdict"),
    "bertrand.ScanReport": ("family", "cells", "verdicts"),
    "config.IntegratorConfig": ("dt", "n_steps", "sample_every"),
    "config.ClosureConfig": ("enabled", "tol"),
    "config.QuadratureConfig": ("tolerance", "max_refinements"),
    "config.ScanConfig": ("exponents", "e_fractions", "lambdas", "include_log_check"),
    "config.AlgebraConfig": ("n_points", "h"),
    "config.OutputConfig": ("path", "format"),
    "config.RunConfig": ("params", "initial_point", "initial_level", "integrator", "closure",
                         "quadrature", "scan", "levels", "algebra", "output"),
    "dynamics.TurningPoints": ("r_min", "r_max"),
    "dynamics.ApsisEvent": ("time", "kind", "r", "phi_unwrapped"),
    "dynamics.ClosureInfo": ("closure_time", "radial_periods"),
    "symmetry.InvariantValue": ("re", "im", "kind", "power", "k", "multivalued"),
    "symmetry.BracketRow": ("name", "value", "expected", "abs_err", "rel_err", "role", "note"),
    "symmetry.BracketReport": ("rows", "h", "point", "kind", "k", "n", "zzbar_match"),
}
_RECORD_DEFAULTS = {"symmetry.BracketRow": {"note": ""}}
# the dataclasses that stay: validated values, a frozen-array trajectory,
# and the run summary that perfbench reads with dataclasses.asdict
_DATACLASSES = {"core.ConeGeometry", "core.Kepler", "core.Oscillator", "core.PowerLaw",
                "core.LogPotential", "core.PhasePoint", "core.Params",
                "dynamics.Trajectory", "cli.RunSummary"}


def _fresh_import(code: str) -> str:
    """stdout of ``code`` run in a new interpreter after ``import conedyn.cli``."""
    src = str(CONFIG_DIR.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", "import conedyn.cli\n" + code],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    return out.stdout


class TestCli:
    def test_import_loads_no_scipy(self):
        code = "import sys; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        assert _fresh_import(code).strip() == "[]"

    def test_bertrand_run_loads_no_numpy_polynomial(self, tmp_path):
        # the Gauss-Legendre rule is computed in conedyn, not by leggauss
        code = f"""
import sys
cli.main(["bertrand", "--config", {str(CONFIG_DIR / "bertrand_scan.json")!r},
          "--output", {str(tmp_path / "scan.csv")!r}])
print("numpy.polynomial" in sys.modules)
"""
        assert _fresh_import("from conedyn import cli\n" + code).splitlines()[-1] == "False"

    def test_import_footprint(self):
        # start-up cost of every subcommand: no fractions module, and a
        # dataclass only where a plain record will not do
        code = """
import dataclasses, inspect, json, sys
classes = {f"{name.removeprefix('conedyn.')}.{c.__name__}": c
           for name, module in list(sys.modules.items()) if name.startswith("conedyn.")
           for c in vars(module).values()
           if inspect.isclass(c) and c.__module__ == name}
print(json.dumps({
    "fractions": "fractions" in sys.modules,
    "dataclasses": sorted(n for n, c in classes.items() if dataclasses.is_dataclass(c)),
    "records": {n: [issubclass(c, tuple), c._fields, c._field_defaults]
                for n, c in classes.items() if hasattr(c, "_fields")},
}))
"""
        found = json.loads(_fresh_import(code))
        assert found["fractions"] is False
        assert found["dataclasses"] == sorted(_DATACLASSES)
        for name, fields in _RECORDS.items():
            assert found["records"][name] == [True, list(fields),
                                              _RECORD_DEFAULTS.get(name, {})], name

    def test_writer_imported_by_a_run_only(self, tmp_path):
        # import conedyn.cli and load_config leave the writer uncompiled; a
        # verify-algebra run imports it, and with it no dataclass record, no
        # fractions module and no numpy.random
        doc = {**_base_doc(algebra={"n_points": 3, "h": 1e-5}),
               "output": {"path": str(tmp_path / "a.jsonl"), "format": "jsonl"}}
        config = _write(tmp_path, "c.json", doc)
        code = f"""
import dataclasses, inspect, json, sys
from conedyn import cli
cli.load_config({config!r})
loaded = ["conedyn.writer" in sys.modules]
cli.main(["verify-algebra", "--config", {config!r}])
loaded.append("conedyn.writer" in sys.modules)
writer = sys.modules["conedyn.writer"]
print(json.dumps({{
    "loaded": loaded,
    "fractions": "fractions" in sys.modules,
    "numpy.random": "numpy.random" in sys.modules,
    "dataclasses": [n for n, c in vars(writer).items()
                    if inspect.isclass(c) and dataclasses.is_dataclass(c)],
}}))
"""
        found = json.loads(_fresh_import(code).splitlines()[-1])
        assert found == {"loaded": [False, True], "fractions": False, "numpy.random": False,
                         "dataclasses": []}

    def test_verify_algebra_draws_python_random_stream(self, tmp_path, capsys, monkeypatch):
        # the CLI's (n, 5) block is low + (high - low) * u, with u the first
        # 5n values of random.Random(seed).random(), per point J, f, u, sign, phi
        low = np.array([0.5, 0.1, 0.05, -1.0, 0.0])
        high = np.array([1.5, 0.7, 0.95, 1.0, 2.0 * math.pi])
        blocks = []

        def recording(rng, params, n):
            uniform = rng.uniform

            def record(*args, **kwargs):
                blocks.append(uniform(*args, **kwargs))
                return blocks[-1]

            rng.uniform = record
            return draw_bound_points(rng, params, n)

        monkeypatch.setattr(cli, "draw_bound_points", recording)
        sizes = (250, 7, 1)
        for seed in (0, 1, 42, 2**32 + 5, 2**64 - 1):
            for n in sizes:
                doc = {**_base_doc(algebra={"n_points": n, "h": 1e-5}),
                       "output": {"path": str(tmp_path / "a.jsonl"), "format": "jsonl"}}
                assert main(["verify-algebra", "--config", _write(tmp_path, "c.json", doc),
                             "--seed", str(seed)]) == 0
            capsys.readouterr()
            rnd = random.Random(seed).random
            u = np.array([rnd() for _ in range(5 * sizes[0])]).reshape(-1, 5)
            full = low + (high - low) * u
            for n, block in zip(sizes, blocks[-len(sizes):]):
                assert block.shape == (n, 5)
                assert block.tobytes() == full[:n].tobytes()
            if seed == 42:  # random() keeps its sequence across Python versions
                assert full[0].tolist() == [1.1394267984578836, 0.11500645313360017,
                                            0.2975263865322073, -0.5535785237023545,
                                            4.627385111996033]

    def test_simulate_writes_trajectory_csv(self, tmp_path, capsys):
        out = str(tmp_path / "traj.csv")
        code = main(["simulate", "--config",
                     _write(tmp_path, "c.json", _simulate_doc(out))])
        assert code == 0
        lines = pathlib.Path(out).read_text().splitlines()
        assert lines[0] == "t,r,phi,p_r,J,H,Z_re,Z_im"
        assert len(lines) == 2000 // 50 + 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["exit_status"] == 0
        assert summary["results"]["j_drift_abs"] == 0.0

    @pytest.mark.parametrize("potential,geometry,E", [
        ({"kind": "kepler", "kappa": 1.0}, {"k": 2, "n": 3}, -0.15),
        ({"kind": "oscillator", "omega": 1.0}, {"k": 3, "n": 4}, 2.0),
    ])
    def test_simulate_z_column_equals_global_invariant(self, tmp_path, capsys,
                                                       potential, geometry, E):
        out = tmp_path / "traj.csv"
        doc = _simulate_doc(str(out))
        doc["params"].update(potential=potential, geometry=geometry)
        doc["initial"] = {"level": {"E": E, "J": 1.0}}
        cfg = load_config(_write(tmp_path, "c.json", doc))
        assert main(["simulate", "--config", str(tmp_path / "c.json")]) == 0
        capsys.readouterr()
        tp = cd.turning_points(cfg.params, E, 1.0)
        it = cfg.integrator
        traj = cd.integrate(cfg.params, cd.PhasePoint(r=tp.r_min, phi=0.0, p_r=0.0, J=1.0),
                            it.dt, it.n_steps, it.sample_every)
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == len(traj)
        for i, line in enumerate(lines):
            z = cd.global_invariant(cfg.params, traj.point(i))
            assert [float(v) for v in line.split(",")[6:]] == [z.re, z.im]

    def test_simulate_without_global_invariant_columns(self, tmp_path, capsys):
        doc = _simulate_doc(str(tmp_path / "t.csv"))
        doc["params"]["geometry"] = {"s": 0.66}  # no rational form
        code = main(["simulate", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 0
        header = pathlib.Path(tmp_path / "t.csv").read_text().splitlines()[0]
        assert header == "t,r,phi,p_r,J,H"

    def test_simulate_closure_summary(self, tmp_path, capsys):
        out = str(tmp_path / "traj.csv")
        doc = _simulate_doc(out, n_steps=50000, closure=True)
        code = main(["simulate", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        closure = summary["results"]["closure"]
        assert closure["closed"] is True
        assert closure["radial_periods"] == 2

    def test_simulate_jsonl_format(self, tmp_path, capsys):
        out = str(tmp_path / "traj.jsonl")
        code = main(["simulate", "--config",
                     _write(tmp_path, "c.json", _simulate_doc(out)), "--format", "jsonl"])
        assert code == 0
        first = json.loads(pathlib.Path(out).read_text().splitlines()[0])
        assert set(first) == {"t", "r", "phi", "p_r", "J", "H", "Z_re", "Z_im"}

    def test_deterministic_outputs(self, tmp_path, capsys):
        doc = _simulate_doc(str(tmp_path / "a.csv"))
        cfg = _write(tmp_path, "c.json", doc)
        assert main(["simulate", "--config", cfg, "--seed", "5"]) == 0
        first = pathlib.Path(tmp_path / "a.csv").read_bytes()
        assert main(["simulate", "--config", cfg, "--seed", "5",
                     "--output", str(tmp_path / "b.csv")]) == 0
        assert pathlib.Path(tmp_path / "b.csv").read_bytes() == first
        capsys.readouterr()

    def test_csv_floats_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "traj.csv")
        code = main(["simulate", "--config",
                     _write(tmp_path, "c.json", _simulate_doc(out, n_steps=100))])
        assert code == 0
        capsys.readouterr()
        lines = pathlib.Path(out).read_text().splitlines()
        r0 = float(lines[1].split(",")[1])
        # 17 significant digits reproduce the double exactly
        assert float(format(r0, ".17g")) == r0

    @pytest.mark.parametrize("command", sorted(_PER_ROW))
    @pytest.mark.parametrize("target,reason", [("missing/out.csv", errno.ENOENT),
                                               (".", errno.EISDIR)],
                             ids=["missing_dir", "directory"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, monkeypatch,
                                         command, target, reason):
        monkeypatch.setenv("CONE_LOG", "error")  # the actions doc logs a failed level
        doc, _ = _PER_ROW[command]
        config = _write(tmp_path, "c.json", {**doc, "output": {"path": str(tmp_path / "a")}})
        out = tmp_path / target
        with np.errstate(all="ignore"):
            code = main([command, "--config", config, "--output", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: output.path: cannot write {out}: "
                                f"{os.strerror(reason)}\n")

    @pytest.mark.parametrize("seed", ["-1", "abc", "1.5", ""])
    def test_seed_must_be_nonnegative_integer(self, tmp_path, capsys, seed):
        config = _write(tmp_path, "c.json", _simulate_doc(str(tmp_path / "t.csv")))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", config, "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --seed: seed must be a nonnegative integer\n")
        assert not (tmp_path / "t.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--config",
                     _write(tmp_path, "c.json", _base_doc(bogus=1))])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_initial_point_validation_exit_code(self, tmp_path, capsys):
        doc = _simulate_doc(str(tmp_path / "t.csv"))
        doc["initial"] = {"point": {"r": -1.0, "phi": 0.0, "p_r": 0.0, "J": 1.0}}
        code = main(["simulate", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 2
        assert "initial.point" in capsys.readouterr().err

    def test_dynamics_error_exit_code(self, tmp_path, capsys):
        doc = _simulate_doc(str(tmp_path / "t.csv"))
        doc["initial"] = {"point": {"r": 0.4, "phi": 0.0, "p_r": -1.0, "J": 0.0}}
        doc["integrator"] = {"dt": 1e-2, "n_steps": 1000, "sample_every": 10}
        code = main(["simulate", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 3
        summary = json.loads(capsys.readouterr().out)
        # the plunge fails inside a block of 10 sampled steps
        expected = steps_to_collision(
            kepler_params(2, 3), cd.PhasePoint(r=0.4, phi=0.0, p_r=-1.0, J=0.0), 1e-2)
        assert expected % 10 not in (0, 9)
        assert summary["results"]["step_index"] == expected

    def test_force_overflow_is_domain_error(self, tmp_path, capsys):
        # the first drift carries r to 1e148, where r ** 3 overflows
        doc = _simulate_doc(str(tmp_path / "t.csv"))
        doc["params"]["potential"] = {"kind": "power_law", "amplitude": 1.0, "exponent": 4.0}
        doc["initial"] = {"point": {"r": 1.0, "phi": 0.0, "p_r": 1e150, "J": 1.0}}
        doc["integrator"] = {"dt": 1e-2, "n_steps": 1000, "sample_every": 10}
        code = main(["simulate", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 3
        assert "radial force at step 0 is outside the float range" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_non_finite_start_energy_rejected(self, tmp_path, capsys):
        doc = _simulate_doc(str(tmp_path / "t.csv"))
        doc["initial"] = {"point": {"r": 1.0, "phi": 0.0, "p_r": 1e300, "J": 1.0}}
        code = main(["simulate", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 3
        assert "non-finite energy H=inf" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_csv_rows_render_like_per_cell_format(self, tmp_path):
        # actions-style rows: an error row, a rational row with int p/q, a
        # non-rational row with "", plus edge floats and numpy scalars; string
        # cells are quoted as csv.writer quotes them
        nan, inf = math.nan, math.inf
        rows = [
            [5.0, 1.0] + [nan] * 10 + ["error: E=5.0 at or above the escape energy 0.0"],
            [-0.15, 1.0, 0.1, 1.0, 0.4, 0.6, 1.5, 3, 2, 1e-12, -0.15, 2e-16, "ok"],
            [-0.2, -1.0, 0.1, -1.0, 0.4, 0.5773, 1.4142, "", "", nan, nan, nan, "ok"],
            [-0.0, inf, -inf, 5e-324, 1e308, np.float64(0.1), np.float64(-2.5e-310),
             np.int64(7), np.int64(-3), True, 0.1 + 0.2, -1 / 3, "a,b %s %.17g"],
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 'say "hi"', "cr\ronly", 8.0, 9.0, 10.0,
             "infeasible: root not bracketed in [0.5, 2.0]"],
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1, 2, 8.0, 9.0, 10.0, "two\nlines"],
        ]
        header = ["E", "J", "i1", "i2", "omega1", "omega2", "ratio",
                  "rational_p", "rational_q", "rational_error",
                  "h_of_i", "roundtrip_rel_err", "status"]
        out = tmp_path / "rows.csv"
        _write_table(out, "csv", header, rows)
        assert out.read_bytes() == _reference_bytes("csv", header, rows)
        with open(out, newline="") as f:
            assert [r[-1] for r in csv.reader(f)][-2:] == [rows[-2][-1], rows[-1][-1]]
        # NUL and non-ASCII strings keep their bytes; columns of floats alone
        # also go in as float64 arrays, through the vectorized formatter
        rows.append([0.5, -0.25, 1e-05, 123456.789, 9.999999999999998e15, 2.0**53, 1e-10,
                     "\x00", "é", 3.5, -1e-300, 0.25, "nul\x00 π ≈ 3.14 😀 \x00"])
        columns = [np.array(c) if all(isinstance(v, float) for v in c) else c
                   for c in zip(*rows)]
        assert sum(isinstance(c, np.ndarray) for c in columns) == 9
        for blocks in ([list(zip(*rows))], [columns]):
            _write_rows(str(out), "csv", header, [range(len(header))], blocks)
            assert out.read_bytes() == _reference_bytes("csv", header, rows)

    def test_g17_matches_percent_format(self):
        # the CSV float formatter against '%.17g', byte for byte, on 10**6
        # values: bit patterns, magnitudes log-uniform over the float range
        # and over the formatter's own, powers of ten and their neighbours,
        # round-ups to a power of ten, exact ties, integers, and the edges
        rng = np.random.default_rng(14)
        p10 = 10.0 ** np.arange(-32, 18)
        tiny = np.nextafter(0.0, 1.0)
        special = [0.0, math.inf, math.nan, tiny, 2 * tiny, 2.2250738585072014e-308,
                   np.nextafter(2.2250738585072014e-308, 0), 1.7976931348623157e308,
                   1e-14, 1e-305, 1e-243, 1e23, 2.0**51, 2.0**53, 1e-10, 1e16, 1e-30]
        parts = [
            rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64),
            10.0 ** rng.uniform(-330, 308.25, 50_000),
            10.0 ** rng.uniform(-30.5, 16.5, 760_000),
            np.concatenate([p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf)]),
            np.nextafter(np.array([1e-4, 0.1, 1e-5, 1e-9, 1e15, 1e-11, 1e-12, 1e-30]), 0),
            np.arange(40_000) / 4,  # exact quarters, and ties at digit 18 near 2**51
            (2**53 - 4 * np.arange(20_000)) / 4,
            np.arange(60_000) * 2.0**-20,
            rng.integers(0, 2**53, 20_000).astype(np.float64),
            np.array(special),
        ]
        values = np.concatenate(parts)
        values.view(np.uint64)[rng.random(len(values)) < 0.5] ^= np.uint64(1 << 63)
        assert len(values) >= 10**6
        with np.errstate(over="ignore"):
            for start in range(0, len(values), 2**17):
                x = values[start:start + 2**17]
                got = writer._join_rows([writer._g17(x), b"\n"], len(x))
                assert got == b"".join(map(b"%.17g\n".__mod__, x.tolist()))

    def test_shortest_matches_repr(self):
        # the JSONL float formatter against json's float text (repr, and
        # NaN, Infinity, -Infinity), byte for byte, on 10**6 values: bit
        # patterns, magnitudes log-uniform over the fast range and past
        # its ends, decimals rounded to every length, powers of two (whose
        # interval is asymmetric), where repr switches notation, integers,
        # and the edges
        rng = np.random.default_rng(17)
        p10 = 10.0 ** np.arange(-32, 18)
        edges = np.array([1e16, 1e-4, 1e-5, 1e-30, 1e-25])
        special = [0.0, math.nan, math.inf, 5e-324, 1.7976931348623157e308,
                   2.2250738585072014e-308, 0.1 + 0.2, 1 / 3, 2.0**53, 9007199254740993.0]
        mixed = 10.0 ** rng.uniform(-5, 12, 20_000)
        parts = [
            rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64),
            10.0 ** rng.uniform(-25, 16, 500_000),
            10.0 ** rng.uniform(-31, -24, 20_000),
            np.concatenate([np.round(mixed, d) for d in range(16)]),
            np.round(10.0 ** rng.uniform(-25, -5, 20_000), 30),
            2.0 ** np.arange(-110, 60),
            np.concatenate([p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf)]),
            np.concatenate([edges + 0.0] + [np.nextafter(edges, d) for d in (0, np.inf)]),
            np.concatenate([np.nextafter(np.nextafter(edges, d), d) for d in (0, np.inf)]),
            np.arange(-50_000, 50_000) * 1.0,
            rng.integers(0, 2**53, 30_000).astype(np.float64),
            np.arange(60_000) * 2.0**-20,
            np.array(special),
        ]
        values = np.concatenate(parts)
        values.view(np.uint64)[rng.random(len(values)) < 0.5] ^= np.uint64(1 << 63)
        assert len(values) >= 10**6
        names = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
        lengths = set()
        for start in range(0, len(values), 2**17):
            x = values[start:start + 2**17]
            texts = [names.get(t, t) for t in map(repr, x.tolist())]
            assert writer._join_rows([writer._shortest(x), b"\n"], len(x)) == \
                "".join(t + "\n" for t in texts).encode()
            lengths.update(len(t.split("e")[0].replace(".", "").strip("-0")) for t in texts)
        assert set(range(1, 18)) <= lengths

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_float_kernels_correct_a_wrong_exponent_guess(self, monkeypatch, shift):
        # np.log10's guess of the decimal exponent, one off on every lane,
        # is corrected on both sides of the two-limb and three-limb cores
        rng = np.random.default_rng(18)
        x = 10.0 ** rng.uniform(-30, 16, 50_000)
        x[::2] *= -1
        x = np.concatenate([x, 2.0 ** np.arange(-99, 53)])
        log10 = np.log10

        def guess(a, out=None):
            out = log10(a, out=out)
            out += shift
            return out

        monkeypatch.setattr(np, "log10", guess)
        # every lane from 1e-30 to 2**51 (where x 10**(16 - X) is not a
        # whole number) comes out exact: none is left to Python
        fast = (np.abs(x) >= 1e-30) & (np.abs(x) < 2.0**51)
        assert writer._decimal(x, True)[2][2][fast].all()
        assert writer._join_rows([writer._g17(x), b"\n"], len(x)) == \
            b"".join(map(b"%.17g\n".__mod__, x.tolist()))
        assert writer._join_rows([writer._shortest(x), b"\n"], len(x)) == \
            "".join(f"{v!r}\n" for v in x.tolist()).encode()

    def test_jsonl_rows_render_like_json_dumps(self, tmp_path):
        nan, inf = math.nan, math.inf
        header = ["a", "b%s", "c", "d", "e", "f"]
        rows = [
            [-0.0, 5e-324, 1e308, -1e-320, 0.1 + 0.2, -1 / 3],
            [np.float64(0.1), np.float64(-2.5e-310), np.float64(-0.0), np.float64(1e308),
             np.float64(1e22), 1e16],
            [-0.0, inf, -inf, nan, 5e-324, 1e308],
            [np.float64(nan), np.float64(-inf), np.float64(inf), 1.5, "infeasible", "nan"],
            [True, False, 0, -7, 2**70, None],
            ['quote " and backslash \\', "tab\tnewline\n\x00\x1f", "π ≈ 3.14 😀",
             "%s %d %%", "", "ok"],
            [1, "x", 2.5, True, np.float64(1e-300), "é"],
        ]
        out = tmp_path / "rows.jsonl"
        _write_table(out, "jsonl", header, rows)
        assert out.read_bytes() == _reference_bytes("jsonl", header, rows)

    def test_jsonl_strings_rendered_once_per_call(self, tmp_path, monkeypatch):
        # verify-algebra repeats eight (bracket, role, note) triples on every
        # row: each distinct string is rendered once per call, and every
        # line still equals json.dumps
        rendered = Counter()

        def counting(text):
            rendered[text] += 1
            return json.encoder.encode_basestring_ascii(text)

        monkeypatch.setattr(writer, "encode_basestring_ascii", counting)
        header = ["i", "bracket", "x", "note"]
        rows = [[i, "{H,Z}" if i % 2 else "{J,Z}", i / 7, "é ok"] for i in range(50)]
        rows += [[50, "é ok", 1.5, "{H,Z}"], [51, "a", 2.5, "nan cell"]]
        for call in range(2):
            out = tmp_path / f"rows{call}.jsonl"
            _write_table(out, "jsonl", header, rows)
            assert out.read_bytes() == _reference_bytes("jsonl", header, rows)
        # the keys and the five distinct strings, once per call
        assert rendered == Counter(
            {text: 2 for text in header + ["{H,Z}", "{J,Z}", "é ok", "a", "nan cell"]})

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_equal_and_constant_columns_keep_their_bytes(self, tmp_path, monkeypatch, fmt):
        # float columns constant over a block, or equal to another column,
        # are rendered once; a zero's sign or a NaN must not merge columns
        # that differ, across blocks and chunks of two records
        monkeypatch.setattr(writer, "_MATRIX_LINES", 4)
        n = 5
        x = np.linspace(-1.0, 1.0, n)
        zero, signed = np.zeros(n), np.zeros(n)
        signed[3] = -0.0
        nan = x.copy()
        nan[2] = math.nan
        blocks = [
            [np.arange(n), x, x.copy(), zero, signed, np.full(n, 1e300), nan, nan.copy(),
             np.full(n, math.inf)],
            [np.arange(n, 2 * n), x, -x, signed, zero, np.full(n, -0.0), nan, x,
             np.full(n, math.nan)],
        ]
        lines = [[0, 1, 2, 3, 4, 5, 6, 7, 8, 1, cli._Fixed("%s")],
                 [0, 4, 3, 2, 1, 8, 7, 6, 5, cli._Fixed(-0.0), 2]]
        header = list("abcdefghijk")
        out = tmp_path / f"rows.{fmt}"
        _write_rows(str(out), fmt, header, lines, blocks)
        rows = [[c.value if isinstance(c, cli._Fixed) else block[c].tolist()[i] for c in line]
                for block in blocks for i in range(n) for line in lines]
        assert out.read_bytes() == _reference_bytes(fmt, header, rows)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("command", sorted(_PER_ROW))
    def test_output_equals_per_row_reference(self, tmp_path, capsys, monkeypatch,
                                             command, fmt):
        # small blocks and chunks put their boundaries inside the file; the
        # verify-algebra run has a NaN point inside a block and a chunk
        monkeypatch.setattr(writer, "_MATRIX_LINES", 16)
        monkeypatch.setattr(cli, "_ALGEBRA_BLOCK", 3)
        monkeypatch.setattr(cli, "draw_bound_points", _draw_with_overflow_at_4)
        doc, reference_rows = _PER_ROW[command]
        out = tmp_path / f"out.{fmt}"
        config = _write(tmp_path, "c.json", {**doc, "output": {"path": str(out), "format": fmt}})
        with np.errstate(all="ignore"):
            assert main([command, "--config", config, "--seed", "3"]) == 0
            header, rows = reference_rows(load_config(config), 3)
        capsys.readouterr()
        assert out.read_bytes() == _reference_bytes(fmt, header, rows)

    def test_bertrand_scan_cli(self, tmp_path, capsys):
        out = str(tmp_path / "scan.csv")
        doc = _base_doc(
            scan={"exponents": [-1.0, 1.0], "e_fractions": [0.2, 0.5],
                  "lambdas": [1.0], "include_log_check": True},
            output={"path": out, "format": "csv"},
        )
        code = main(["bertrand", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["results"]["passing"] == [-1.0]
        assert summary["results"]["width_law_log_residual"] > 1e-2
        header = pathlib.Path(out).read_text().splitlines()[0]
        assert header == "family_param,E,lambda,s_delta_phi,status"

    def test_bertrand_all_infeasible_exit_code(self, tmp_path, capsys):
        doc = _base_doc(
            scan={"exponents": [0.0], "e_fractions": [0.5], "lambdas": [1.0]},
            output={"path": str(tmp_path / "scan.csv"), "format": "csv"},
        )
        code = main(["bertrand", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 4
        capsys.readouterr()

    def test_bertrand_exponent_at_minus_two_exit_code(self, tmp_path, capsys):
        doc = _base_doc(
            scan={"exponents": [-1.0, -2.0], "e_fractions": [0.5], "lambdas": [1.0]},
            output={"path": str(tmp_path / "scan.csv"), "format": "csv"},
        )
        code = main(["bertrand", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 2
        assert "scan.exponents[1]" in capsys.readouterr().err
        assert not (tmp_path / "scan.csv").exists()

    def test_actions_cli(self, tmp_path, capsys):
        out = str(tmp_path / "actions.jsonl")
        doc = _base_doc(
            levels=[{"E": -0.15, "J": 1.0}, {"E": 5.0, "J": 1.0}],
            output={"path": out, "format": "jsonl"},
        )
        code = main(["actions", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["results"]["records_ok"] == 1
        assert summary["results"]["records_failed"] == 1
        records = [json.loads(line) for line in pathlib.Path(out).read_text().splitlines()]
        ok = [r for r in records if r["status"] == "ok"][0]
        assert (ok["rational_p"], ok["rational_q"]) == (3, 2)
        assert abs(ok["roundtrip_rel_err"]) < 1e-8

    def test_actions_csv_floats_go_through_the_kernel(self, tmp_path, capsys, monkeypatch):
        # the ten float columns reach the writer as float64 arrays, so the
        # CSV kernel formats them as whole columns, not cell by cell
        seen = []

        def spy(x):
            seen.append(x.copy())
            return kernel(x)

        kernel = writer._g17
        monkeypatch.setattr(writer, "_g17", spy)
        monkeypatch.setenv("CONE_LOG", "error")
        doc = {**_PER_ROW["actions"][0], "output": {"path": str(tmp_path / "a.csv")}}
        assert main(["actions", "--config", _write(tmp_path, "c.json", doc)]) == 0
        capsys.readouterr()
        assert len(seen) == 1 and len(seen[0]) % 3 == 0
        assert seen[0][:3].tolist() == [-0.15, -0.1, 5.0]  # E, the first column

    def test_verify_algebra_cli(self, tmp_path, capsys):
        out = str(tmp_path / "algebra.jsonl")
        doc = {
            "params": {"m": 1.0, "geometry": {"k": 1, "n": 2},
                       "potential": {"kind": "kepler", "kappa": 1.0}},
            "algebra": {"n_points": 5, "h": 1e-5},
            "output": {"path": out, "format": "jsonl"},
        }
        code = main(["verify-algebra", "--config", _write(tmp_path, "c.json", doc),
                     "--seed", "3"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 3
        assert all(v < 1e-6 for v in summary["results"]["worst_rel_err"].values())
        assert summary["results"]["zzbar_match"] == {"energy_in_base": 5}
        row = json.loads(pathlib.Path(out).read_text().splitlines()[0])
        assert {"bracket", "value_re", "value_im", "expected_re",
                "expected_im", "abs_err", "rel_err", "h"} <= set(row)

    def test_verify_algebra_worst_error_propagates_nan(self, tmp_path, capsys, monkeypatch):
        # point 1's H overflows, so its brackets are NaN: the worst error must
        # say so instead of keeping the finite errors of points 0 and 2
        from conedyn import cli

        draw = cli.draw_bound_points

        def draw_with_overflow(rng, params, n):
            coords = draw(rng, params, n)
            coords[2, 1] = 1e200
            return coords

        monkeypatch.setattr(cli, "draw_bound_points", draw_with_overflow)
        doc = _base_doc(algebra={"n_points": 3, "h": 1e-5},
                        output={"path": str(tmp_path / "a.jsonl"), "format": "jsonl"})
        with np.errstate(all="ignore"):
            assert main(["verify-algebra", "--config", _write(tmp_path, "c.json", doc)]) == 0
        worst = json.loads(capsys.readouterr().out)["results"]["worst_rel_err"]
        assert list(worst) == ["{J,Z}", "{J,Zbar}", "{H,Z}", "{H,J}"]
        assert all(math.isnan(v) for v in worst.values())

    def test_verify_algebra_overflowing_power_base(self, tmp_path, capsys, monkeypatch):
        # Kepler s = 1/3 at r = 1, p_r = 1e80, J = 1: the {Z,Zbar} power base
        # overflows; the point's rows are NaN and the run ends with exit 0
        from conedyn import cli

        draw = cli.draw_bound_points

        def draw_with_overflow(rng, params, n):
            coords = draw(rng, params, n)
            coords[:, 1] = 1.0, 0.3, 1e80, 1.0
            return coords

        monkeypatch.setattr(cli, "draw_bound_points", draw_with_overflow)
        out = tmp_path / "a.jsonl"
        doc = _base_doc(algebra={"n_points": 3, "h": 1e-5},
                        output={"path": str(out), "format": "jsonl"})
        doc["params"]["geometry"] = {"k": 1, "n": 3}
        with np.errstate(all="ignore"):
            assert main(["verify-algebra", "--config", _write(tmp_path, "c.json", doc)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert all(math.isnan(v) for v in results["worst_rel_err"].values())
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 24
        assert all(math.isnan(row["rel_err"]) == (row["point_index"] == 1) for row in rows)

    def test_verify_algebra_tip_crossing_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "a.jsonl"
        doc = _base_doc(algebra={"n_points": 3, "h": 1.0},
                        output={"path": str(out), "format": "jsonl"})
        assert main(["verify-algebra", "--config", _write(tmp_path, "c.json", doc)]) == 3
        assert "cross r = 0 at point 0" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_circular_orbit_drift(self, tmp_path, capsys):
        # the circular radius is a fixed point of the radial dynamics, so the
        # drift summary sits far below 1e-10
        doc = _base_doc(
            initial={"point": {"r": 1.0, "phi": 0.0, "p_r": 0.0, "J": 1.0}},
            integrator={"dt": 1e-3, "n_steps": 2000, "sample_every": 50},
            output={"path": str(tmp_path / "circ.csv"), "format": "csv"},
        )
        doc["params"]["geometry"] = {"k": 1, "n": 1}
        code = main(["simulate", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["results"]["h_drift_rel"] < 1e-10

    def test_bertrand_reports_constant_for_kepler_exponent(self, tmp_path, capsys):
        # the scanned quantity depends only on (E, lam), so a half-cone base
        # geometry still reports the constant pi for exponent -1
        doc = _base_doc(
            scan={"exponents": [-1.0], "e_fractions": [0.2, 0.5], "lambdas": [1.0]},
            output={"path": str(tmp_path / "scan.csv"), "format": "csv"},
        )
        doc["params"]["geometry"] = {"k": 1, "n": 2}
        code = main(["bertrand", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["results"]["constants"]["-1.0"] == pytest.approx(math.pi, abs=1e-6)

    def test_cone_log_controls_stderr(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONE_LOG", "info")
        doc = _simulate_doc(str(tmp_path / "t.csv"), n_steps=50000, closure=True)
        code = main(["simulate", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 0
        captured = capsys.readouterr()
        assert "closed after 2 radial periods" in captured.err
        monkeypatch.setenv("CONE_LOG", "error")
        assert main(["simulate", "--config", _write(tmp_path, "c.json", doc)]) == 0
        assert "closed after" not in capsys.readouterr().err

    def test_verify_algebra_irrational_exit_code(self, tmp_path, capsys):
        doc = {
            "params": {"m": 1.0, "geometry": {"s": 0.70710678},
                       "potential": {"kind": "kepler", "kappa": 1.0}},
            "output": {"path": str(tmp_path / "x.jsonl"), "format": "jsonl"},
        }
        code = main(["verify-algebra", "--config", _write(tmp_path, "c.json", doc)])
        assert code == 5
        err = capsys.readouterr().err
        assert "rational" in err

"""Config parsing, serialization round-trips, CLI behavior, and exit codes."""

import json
import math
from collections import Counter
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import conedyn as cd
from conedyn import cli
from conedyn.cli import _write_rows, main
from conedyn.config import load_config, parse_config
from conedyn.errors import ConfigError
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


class TestCli:
    def test_import_loads_no_scipy(self):
        src = str(CONFIG_DIR.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = ("import sys, conedyn.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, check=True)
        assert out.stdout.strip() == "[]"

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

    def test_csv_rows_render_like_per_cell_format(self, tmp_path):
        # actions-style rows: an error row, a rational row with int p/q, a
        # non-rational row with "", plus edge floats and numpy scalars
        nan, inf = math.nan, math.inf
        rows = [
            [5.0, 1.0] + [nan] * 10 + ["error: E=5.0 at or above the escape energy 0.0"],
            [-0.15, 1.0, 0.1, 1.0, 0.4, 0.6, 1.5, 3, 2, 1e-12, -0.15, 2e-16, "ok"],
            [-0.2, -1.0, 0.1, -1.0, 0.4, 0.5773, 1.4142, "", "", nan, nan, nan, "ok"],
            [-0.0, inf, -inf, 5e-324, 1e308, np.float64(0.1), np.float64(-2.5e-310),
             np.int64(7), np.int64(-3), True, 0.1 + 0.2, -1 / 3, "a,b %s %.17g"],
        ]
        header = ["E", "J", "i1", "i2", "omega1", "omega2", "ratio",
                  "rational_p", "rational_q", "rational_error",
                  "h_of_i", "roundtrip_rel_err", "status"]
        out = tmp_path / "rows.csv"
        _write_rows(str(out), "csv", header, rows)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(format(float(v), ".17g") if isinstance(v, float) else str(v)
                     for v in row) + "\n"
            for row in rows
        )
        assert out.read_bytes() == expected.encode("utf-8")

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
        _write_rows(str(out), "jsonl", header, rows)
        expected = "".join(json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n"
                           for row in rows)
        assert out.read_bytes() == expected.encode("utf-8")

    def test_jsonl_strings_rendered_once_per_call(self, tmp_path, monkeypatch):
        # verify-algebra repeats eight (bracket, role, note) triples on every
        # row: each distinct string is rendered once per call, and every
        # line still equals json.dumps
        rendered = Counter()

        def counting(text):
            rendered[text] += 1
            return json.encoder.encode_basestring_ascii(text)

        monkeypatch.setattr(cli, "encode_basestring_ascii", counting)
        header = ["i", "bracket", "x", "note"]
        rows = [[i, "{H,Z}" if i % 2 else "{J,Z}", i / 7, "é ok"] for i in range(50)]
        rows += [[50, "é ok", 1.5, "{H,Z}"], [51, "a", 2.5, "nan cell"]]
        for call in range(2):
            out = tmp_path / f"rows{call}.jsonl"
            _write_rows(str(out), "jsonl", header, rows)
            expected = "".join(json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n"
                               for row in rows)
            assert out.read_bytes() == expected.encode("utf-8")
        # the keys and the five distinct strings, once per call ("nan cell"
        # also puts its line through json.dumps, which renders it again there)
        assert rendered == Counter(
            {text: 2 for text in header + ["{H,Z}", "{J,Z}", "é ok", "a", "nan cell"]})

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

"""Golden hashes: each shipped config reproduces its result file byte for byte.

The hashes cover the result files only.  The stdout summary carries
``wall_time_s`` and so is never hashed.  They were taken on x86-64 Linux
(glibc libm, numpy 2.x); a different libm may round cos, sin or pow
differently in the last bit and so give other bytes.  They do not depend on
the OpenBLAS kernel (CI checks them under ``OPENBLAS_CORETYPE=Prescott``)
nor on numpy's CPU dispatch: every ``r ** alpha`` is ``np.float_power``,
the C library's pow, which has no dispatched loop.
"""

import hashlib
from pathlib import Path

import pytest

from conedyn.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    ("simulate", "simulate_kepler_s23.json", "csv"):
        "0fec22f12ce311ca0eb7a6504d56f6a2bde887bd6bb89b1aff95808319beacbf",
    ("actions", "actions_kepler_s23.json", "jsonl"):
        "ebd4bad6a34d86beef88ba35ade05af0ccc818f34e4a615bac5fd2c8c2785016",
    ("bertrand", "bertrand_scan.json", "csv"):
        "65ec087379e8b40e20b2733dd03e3bbd44dd48a4fa344e5167b69b2f307e3a33",
    ("verify-algebra", "verify_algebra_s12.json", "jsonl"):
        "5b415c26ecf70020c61bfa408aab95a0b3cdf0ec60b0523b0a1856282c74f277",
}


@pytest.mark.parametrize("command,config,ext", sorted(GOLDEN))
def test_shipped_config_result_hash(command, config, ext, tmp_path, capsys):
    out = tmp_path / f"result.{ext}"
    assert main([command, "--config", str(CONFIGS / config), "--output", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[(command, config, ext)]

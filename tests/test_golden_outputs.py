"""Golden hashes: each shipped config reproduces its result file byte for byte.

The hashes cover the result files only.  The stdout summary carries
``wall_time_s`` and so is never hashed.  They were taken on x86-64 Linux
(glibc libm, numpy 2.x); a different libm may round cos, sin or pow
differently in the last bit and so give other bytes.  They do not depend on
the OpenBLAS kernel (CI checks them under ``OPENBLAS_CORETYPE=Prescott``),
but the bertrand hash does depend on numpy's CPU dispatch: without AVX-512,
numpy's ``power`` rounds some ``r ** alpha`` differently.
"""

import hashlib
from pathlib import Path

import pytest

from conedyn.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    ("simulate", "simulate_kepler_s23.json", "csv"):
        "e06ca407585faa4b029eaf26c67996ea369a04f6afe97f67987a14d7ed7d7159",
    ("actions", "actions_kepler_s23.json", "jsonl"):
        "1dabbda5f064d1c438796a877a1e6180634dcee30050614fdedcc6788bb7c8ae",
    ("bertrand", "bertrand_scan.json", "csv"):
        "3ce5247ee656f48ac41fce4f1f699994c37f08e4305222e93dad319d174ee4be",
    ("verify-algebra", "verify_algebra_s12.json", "jsonl"):
        "5b415c26ecf70020c61bfa408aab95a0b3cdf0ec60b0523b0a1856282c74f277",
}


@pytest.mark.parametrize("command,config,ext", sorted(GOLDEN))
def test_shipped_config_result_hash(command, config, ext, tmp_path, capsys):
    out = tmp_path / f"result.{ext}"
    assert main([command, "--config", str(CONFIGS / config), "--output", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[(command, config, ext)]

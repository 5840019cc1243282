"""Golden hashes: each shipped config reproduces its result file byte for byte.

The hashes cover the result files only.  The stdout summary carries
``wall_time_s`` and so is never hashed.  They were taken on x86-64 Linux
(glibc libm, numpy 2.x); a different libm may round cos, sin or pow
differently in the last bit and so give other bytes.
"""

import hashlib
from pathlib import Path

import pytest

from conedyn.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    ("simulate", "simulate_kepler_s23.json", "csv"):
        "a1b093e11e3590d6026cbc61ef9db31fafa66104daa39ce3be2905488aed2450",
    ("actions", "actions_kepler_s23.json", "jsonl"):
        "571f64c1704535e6dbc22df97337628049a79b7e95ffae64a06c1b7bbf6ca1ef",
    ("bertrand", "bertrand_scan.json", "csv"):
        "5cb36763ebbc1aab7e602aaac5d847fb3c947bfc148a2c020518756cdb68cbb3",
    ("verify-algebra", "verify_algebra_s12.json", "jsonl"):
        "b019317e72cc90952e77be7a0351e4ddc381304c904d6287e4fc9c5b90119a29",
}


@pytest.mark.parametrize("command,config,ext", sorted(GOLDEN))
def test_shipped_config_result_hash(command, config, ext, tmp_path, capsys):
    out = tmp_path / f"result.{ext}"
    assert main([command, "--config", str(CONFIGS / config), "--output", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[(command, config, ext)]

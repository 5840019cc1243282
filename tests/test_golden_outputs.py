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
        "e06ca407585faa4b029eaf26c67996ea369a04f6afe97f67987a14d7ed7d7159",
    ("actions", "actions_kepler_s23.json", "jsonl"):
        "8f412bd29d259d10d10eddc805723990edc9e8ac1ca0e8a1d6724d13d90de351",
    ("bertrand", "bertrand_scan.json", "csv"):
        "5cb36763ebbc1aab7e602aaac5d847fb3c947bfc148a2c020518756cdb68cbb3",
    ("verify-algebra", "verify_algebra_s12.json", "jsonl"):
        "35f689baca6b7ad0c4f3a9e4eb6088f1ea85a85b39d568ac6850b05f759246ad",
}


@pytest.mark.parametrize("command,config,ext", sorted(GOLDEN))
def test_shipped_config_result_hash(command, config, ext, tmp_path, capsys):
    out = tmp_path / f"result.{ext}"
    assert main([command, "--config", str(CONFIGS / config), "--output", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[(command, config, ext)]

"""Smoke test of ``tools/output_digests.py``, the bit-for-bit output check."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_output_digests_prints_hex_digests_only():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"), "--toy", "--seed", "7"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)
    assert list(digests) == sorted(digests)
    assert all(re.fullmatch(r"[0-9a-f]{64}", v) for v in digests.values())
    # every kind of output is there, one digest per toy CLI command and one per
    # in-process command (acceptance runs at full size only)
    kinds = {key.split("/")[0] for key in digests}
    assert kinds == {"assemble", "chiral", "compare", "index", "projector", "cli", "main"}
    assert sum(key.startswith("cli/") for key in digests) == 7
    assert sum(key.startswith("main/") for key in digests) == 25

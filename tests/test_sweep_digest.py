"""The budget sweep on ten tiny instances, pinned by ``scripts/sweep_digest.py``.

The script solves tiny_instance(2000..2009) with the criterion-2 settings
under each of the three restrictions and hashes each sweep's front, bounds,
budgets and multiplier trace, every float by ``float.hex``. The overall
digest was recorded before the tabu driver took each neighbourhood's ranking
from its caller, so a change of search path, bound or front fails here.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sweep_digest.py"
OVERALL = "6a178c516a87a40bdea1d18ffe35345404120cd494ec21101a0c044607b79b38"


def test_ten_seed_sweep_digest_unchanged():
    argv = [sys.executable, str(SCRIPT), "--first", "2000", "--count", "10"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == f"overall {OVERALL}"

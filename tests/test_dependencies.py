"""The package needs numpy only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_networkx():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ergopt; print('networkx' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"

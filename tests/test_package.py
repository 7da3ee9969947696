"""Package-level properties: the runtime dependency set."""

import os
import subprocess
import sys
from pathlib import Path

import qthermal


def test_import_does_not_load_scipy():
    # a fresh interpreter: this process may already hold scipy
    src = str(Path(qthermal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qthermal; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"

"""What a bare ``import exclust`` loads."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.signal and scipy.optimize each take about half a second to load
    # and pull in scipy.stats; only scipy.special belongs on the import path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    code = "import json, sys, exclust; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    heavy = {"scipy.signal", "scipy.stats", "scipy.optimize"}
    assert [m for m in loaded if ".".join(m.split(".")[:2]) in heavy] == []
    assert "scipy.special" in loaded

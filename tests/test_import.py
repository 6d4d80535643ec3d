"""What a bare ``import exclust`` loads, that every public name resolves, and
that the package runs without scipy."""
import importlib
import json
import os
import subprocess
import pkgutil
import sys
from pathlib import Path

import pytest

import exclust

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"


def _run(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it took most of the start-up
    loaded = json.loads(_run("import json, sys, exclust; print(json.dumps(sorted(sys.modules)))"))
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_import_loads_no_multiprocessing():
    # only a run with more than one worker starts a pool; the import took
    # 7-11 ms of every start-up
    loaded = json.loads(_run("import json, sys, exclust; print(json.dumps(sorted(sys.modules)))"))
    assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []


def test_runs_with_scipy_unimportable():
    # sys.modules["scipy"] = None makes every scipy import raise ImportError
    out = _run(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from exclust.asymptotics import robert_crossover\n"
        "from exclust.cli import main\n"
        "assert main(['variance', '--model', 'iid', '--kind', 'sb', '--m', '3']) == 0\n"
        "print(repr(robert_crossover(20 / 27)))\n"
    )
    # the variance table as printed when the quadrature rule came from scipy
    table, crossover = out.rsplit("\n", 2)[:2]
    assert table + "\n" == (DATA / "variance_iid_sb_m3.txt").read_text()
    assert abs(float(crossover) - 0.7573) <= 1e-3


_PUBLIC = ["exclust"] + [
    name for name in (f"exclust.{info.name}" for info in pkgutil.iter_modules(exclust.__path__))
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("module", _PUBLIC)
def test_every_public_name_resolves(module):
    # a name left in __all__ after its definition is gone breaks
    # "from module import *" only, which nothing else runs
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert [name for name in importlib.import_module(module).__all__ if name not in namespace] == []

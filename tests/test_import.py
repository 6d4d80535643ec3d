"""What a bare ``import exclust`` loads, that every public name resolves and
every public function and method has a caller outside its module, that the
package runs without scipy, and that the README's examples run."""
import ast
import functools
import importlib
import inspect
import json
import os
import re
import subprocess
import pkgutil
import sys
from pathlib import Path

import pytest

import exclust

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"


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


def _names_read(path):
    """The names ``path`` imports with ``from ... import`` or reads as attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _read_outside():
    """(module name, module, the names read outside it) for each submodule with
    an ``__all__``: read by another module of the package (not the re-exports
    of __init__), by perfbench or by an acceptance criterion."""
    callers = {path: _names_read(path) for path in [
        *(SRC / "exclust").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py"] if path.name != "__init__.py"}
    for module in _PUBLIC[1:]:
        mod = importlib.import_module(module)
        own = Path(mod.__file__).resolve()
        yield module, mod, set().union(*(names for path, names in callers.items() if path.resolve() != own))


def test_every_public_function_has_a_caller_outside_its_module():
    # a function stays public only if another module of the package (not the
    # re-exports of __init__), perfbench or an acceptance criterion calls it;
    # one that only its own tests call is private, or an oracle in tests/
    uncalled = []
    for module, mod, read in _read_outside():
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj) and not inspect.isclass(obj) and name not in read:
                uncalled.append(f"{module}.{name}")
    assert uncalled == []


def test_every_public_method_has_a_caller_outside_its_module():
    # the same rule for the methods, properties and cached properties defined
    # in the body of each public class: one that only its own module or its
    # tests read is private
    uncalled = []
    for module, mod, read in _read_outside():
        for name in mod.__all__:
            cls = getattr(mod, name)
            if not inspect.isclass(cls) or cls.__module__ != module:
                continue
            for attr, member in vars(cls).items():
                if (not attr.startswith("_") and attr not in read and (
                        inspect.isfunction(member) or isinstance(member, (property, functools.cached_property)))):
                    uncalled.append(f"{module}.{name}.{attr}")
    assert uncalled == []


def test_readme_python_examples_run(capsys):
    # the quick start drifts from the API unless something runs it
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out

"""Report the size of the exclust source as a markdown table.

Two counts per tree: the lines of src/exclust/*.py (as ``cat | wc -l``
counts them) and the public parameters: over each module's ``__all__``,
the fields of a dataclass, the parameters of ``__init__`` (other classes)
and of public methods, ``self`` excluded, and the parameters of functions,
those wrapped by ``functools.lru_cache`` included.  A re-export is counted
where it is defined.  A third column gives the traced memory peak of one
sliding ``pbar_hat`` call on an armax array at n = 1e5 over the bytes of
its tops table, on the z and y scales.  Counting and measuring import the
package, so numpy must be installed.

    python .github/source_size.py [BASE]

reports the working tree, preceded by commit BASE when BASE is given and is
not all zeros (the ``before`` of a push that made a branch).
"""
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path


def _count(fn):
    return sum(name != "self" for name in inspect.signature(fn).parameters)


def public_parameters():
    """The public-parameter count of the ``exclust`` on ``sys.path``."""
    import exclust

    total = 0
    for info in pkgutil.iter_modules(exclust.__path__):
        module = importlib.import_module(f"exclust.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    total += len(dataclasses.fields(obj))
                elif "__init__" in vars(obj):
                    total += _count(obj.__init__)
                total += sum(_count(f) for n, f in vars(obj).items()
                             if inspect.isfunction(f) and not n.startswith("_"))
            elif callable(obj):
                total += _count(obj)
    return total


def peak_ratios():
    """The tracemalloc peak of ``pbar_hat(x, 20, "sliding", scale, 5)`` on an
    armax array x of n = 1e5 values, over the (n - 19) * 6 * 8 bytes of its
    tops table, for the z and y scales, with the ``exclust`` on ``sys.path``."""
    import tracemalloc

    from exclust.estimators import pbar_hat
    from exclust.simulate import ModelSpec, gen

    x = gen(ModelSpec("armax", 100_000, 0.5, seed=4))
    table = (x.size - 19) * 6 * 8
    pbar_hat(x[:100], 10, mode="sliding", scale="y")  # warm-up
    ratios = []
    for scale in ("z", "y"):
        tracemalloc.start()
        try:
            pbar_hat(x, 20, "sliding", scale, 5)
            ratios.append(tracemalloc.get_traced_memory()[1] / table)
        finally:
            tracemalloc.stop()
    return ratios


def _row(label, root):
    src = Path(root, "src")
    lines = sum(p.read_bytes().count(b"\n") for p in sorted(src.glob("exclust/*.py")))
    # a fresh interpreter per tree, so the two trees' packages never mix
    env = dict(os.environ, PYTHONPATH=str(src))
    params, z, y = subprocess.run([sys.executable, __file__, "--count"], env=env, check=True,
                                  capture_output=True, text=True).stdout.split()
    return f"| {label} | {lines:,} | {int(params):,} | {z} / {y} |"


def main(argv):
    if argv == ["--count"]:
        print(public_parameters(), *(f"{r:.2f}" for r in peak_ratios()))
        return 0
    base = argv[0] if argv else ""
    print("| tree | lines of src/exclust/*.py | public parameters | sliding pbar_hat peak / tops table (z / y) |")
    print("| --- | ---: | ---: | ---: |")
    if base.strip("0"):
        present = subprocess.run(["git", "cat-file", "-e", f"{base}^{{commit}}"],
                                 capture_output=True).returncode == 0
        if not present:
            print(f"| base {base[:12]} | not in this checkout | | |")
        else:
            with tempfile.TemporaryDirectory() as tmp:
                archive = subprocess.run(["git", "archive", base, "src"], check=True,
                                         capture_output=True).stdout
                subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
                print(_row(f"base {base[:12]}", tmp))
    print(_row("head", "."))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Report the size of the exclust source as a markdown table.

Two counts per tree: the lines of src/exclust/*.py (as ``cat | wc -l``
counts them) and the public parameters: over each module's ``__all__``,
the fields of a dataclass, the parameters of ``__init__`` (other classes)
and of public methods, ``self`` excluded, and the parameters of functions,
those wrapped by ``functools.lru_cache`` included.  A re-export is counted
where it is defined.  A third column gives the traced memory peak of one
sliding ``pbar_hat`` call on an armax array at n = 1e5 over the bytes of
its tops table, on the z and y scales, and a fourth the traced peak of a
fresh sliding ``Sample.tops`` build on that array at b = 20 and b = 2,000
(cap 6) over the bytes of a float table of its shape (the table itself
holds ranks in the smallest unsigned dtype that holds n, so base and head
are divided by the same bytes), and a fifth the traced
peak of one replication's four estimators on disjoint tops tables at n =
2e5 over the bytes of its largest table.  Counting and measuring
import the package, so numpy must be installed.  Under the table, when a
base is given, come the public names that only one of the two trees has:
``module.name`` over the same ``__all__`` entries, ``module.Class.method``
over their public methods, and ``exclust.name`` over the top-level
``__all__``.

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
    """The public-parameter count and the sorted public names of the
    ``exclust`` on ``sys.path``."""
    import exclust

    total, names = 0, [f"exclust.{name}" for name in exclust.__all__]
    for info in pkgutil.iter_modules(exclust.__path__):
        module = importlib.import_module(f"exclust.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            names.append(f"{info.name}.{name}")
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    total += len(dataclasses.fields(obj))
                elif "__init__" in vars(obj):
                    total += _count(obj.__init__)
                methods = {n: f for n, f in vars(obj).items()
                           if inspect.isfunction(f) and not n.startswith("_")}
                total += sum(map(_count, methods.values()))
                names += [f"{info.name}.{name}.{n}" for n in methods]
            elif callable(obj):
                total += _count(obj)
    return total, sorted(names)


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


def build_ratios():
    """The tracemalloc peak of a fresh ``Sample(x).tops(b, "sliding", 6)`` on
    the armax array of :func:`peak_ratios`, over the (n - b + 1) * 6 * 8
    bytes of a float table of its shape, as :func:`peak_ratios` divides, at
    b = 20 and b = 2,000, with the ``exclust`` on ``sys.path``."""
    import tracemalloc

    from exclust.blocks import Sample
    from exclust.simulate import ModelSpec, gen

    x = gen(ModelSpec("armax", 100_000, 0.5, seed=4))
    Sample(x[:100]).tops(10, "sliding", 6)  # warm-up
    ratios = []
    for b in (20, 2000):
        s = Sample(x)
        tracemalloc.start()
        try:
            s.tops(b, "sliding", 6)
            ratios.append(tracemalloc.get_traced_memory()[1] / ((x.size - b + 1) * 6 * 8))
        finally:
            tracemalloc.stop()
    return ratios


def pass_ratio():
    """The tracemalloc peak of one replication's four estimators on disjoint
    tops tables (db-z, db-y, hsing and robert over the default block grid,
    ``experiments._run_rep`` handed an armax array of n = 2e5) over the
    bytes of its largest table (b = 6, cap 6), with the ``exclust`` on
    ``sys.path``."""
    import tracemalloc

    from exclust import experiments
    from exclust.simulate import ModelSpec, gen

    x = gen(ModelSpec("armax", 200_000, 0.5, seed=4))
    estimators = ("db-z", "db-y", "hsing", "robert")
    small = experiments.ExperimentConfig("armax", 0.5, n=200, reps=2, block_grid=(6, 8), estimators=estimators)
    experiments._run_rep((small, 0))  # warm-up
    config = experiments.ExperimentConfig("armax", 0.5, n=x.size, reps=2, estimators=estimators)
    experiments.gen = lambda spec: x  # this interpreter's own copy of the package
    tracemalloc.start()
    try:
        experiments._run_rep((config, 0))
        return tracemalloc.get_traced_memory()[1] / (x.size // 6 * 6 * 8)
    finally:
        tracemalloc.stop()


def _row(label, root):
    """The table row of the tree at ``root`` and its set of public names."""
    src = Path(root, "src")
    lines = sum(p.read_bytes().count(b"\n") for p in sorted(src.glob("exclust/*.py")))
    # a fresh interpreter per tree, so the two trees' packages never mix
    env = dict(os.environ, PYTHONPATH=str(src))
    params, z, y, b20, b2000, grid, *names = subprocess.run([sys.executable, __file__, "--count"], env=env,
                                                            check=True, capture_output=True,
                                                            text=True).stdout.split()
    return f"| {label} | {lines:,} | {int(params):,} | {z} / {y} | {b20} / {b2000} | {grid} |", set(names)


def main(argv):
    if argv == ["--count"]:
        params, names = public_parameters()
        print(params, *(f"{r:.2f}" for r in peak_ratios() + build_ratios() + [pass_ratio()]), *names)
        return 0
    base = argv[0] if argv else ""
    base_names = None
    print("| tree | lines of src/exclust/*.py | public parameters | sliding pbar_hat peak / tops table (z / y) "
          "| fresh sliding tops build peak / float table (b = 20 / 2,000) "
          "| disjoint estimators of one replication peak / b = 6 table |")
    print("| --- | ---: | ---: | ---: | ---: | ---: |")
    if base.strip("0"):
        present = subprocess.run(["git", "cat-file", "-e", f"{base}^{{commit}}"],
                                 capture_output=True).returncode == 0
        if not present:
            print(f"| base {base[:12]} | not in this checkout | | | | |")
        else:
            with tempfile.TemporaryDirectory() as tmp:
                archive = subprocess.run(["git", "archive", base, "src"], check=True,
                                         capture_output=True).stdout
                subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
                row, base_names = _row(f"base {base[:12]}", tmp)
                print(row)
    row, head_names = _row("head", ".")
    print(row)
    if base_names is not None:
        print()
        for label, only in (("base", base_names - head_names), ("head", head_names - base_names)):
            print(f"Public names only in {label}: {', '.join(f'`{n}`' for n in sorted(only)) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

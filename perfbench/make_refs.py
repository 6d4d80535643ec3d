"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/make_refs.py

Run it at the commit whose outputs are the reference (the package's outputs
must not change from then on).  Writes ``perfbench/refs.json``: for
``mc-table1`` and ``long-series`` the summarized outputs of one round per
input seed of the pool, for ``variance`` one seed-independent entry.
"""

import json
import shutil
import sys

import run


def record(wl, seeds):
    """``{str(seed): summary}`` of one round per seed; refuses failed rounds."""
    import workloads

    refs = {}
    for seed in seeds:
        inputs = wl.setup(seed)
        summary = wl.summarize(inputs, wl.round(inputs, run.untraced))
        failed = {op: v for op, v in summary.items() if isinstance(v, workloads.Failure)}
        if failed:
            raise RuntimeError(f"{wl.name} seed {seed}: {failed}")
        refs[str(seed)] = summary
        print(f"{wl.name} seed {seed}", file=sys.stderr)
    return refs


def main():
    run.load_exclust()
    import workloads

    workdir = str(run.OUT / "make-refs")
    refs = {}
    try:
        for name in run.WORKLOADS:
            wl = workloads.make(name, workdir)
            refs[name] = record(wl, range(workloads.POOL) if wl.seeded else [0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.ROOT / "perfbench" / "refs.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

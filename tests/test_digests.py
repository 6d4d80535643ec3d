"""Every estimator output, bit for bit, against digests recorded in tests/data."""
import json

import numpy as np

from digests import PATH, digests


def test_estimator_outputs_match_their_recorded_digests():
    with open(PATH) as fh:
        recorded = json.load(fh)
    want, got = recorded["digests"], digests()
    moved = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not moved, (
        f"{len(moved)} output groups moved (first: {moved[:5]}). The digests were written "
        f"with numpy {recorded['numpy']}, the version CI pins (numpy==2.4.6 in "
        f".github/workflows/tests.yml), and this run has numpy {np.__version__}: another numpy "
        "or BLAS may sum the Robert inversion's dots, or other floats, in another order. "
        "If the change is meant, rewrite the file with `python tests/digests.py`."
    )

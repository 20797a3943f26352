"""The benchmark's hooked names and the object attributes it reads resolve in the package.

bench/hooks.py wraps the functions listed in its TIMED table by module and
attribute name; a renamed or deleted one would fail every traced benchmark
round. The table is read from the file itself, so it stays the one list.
bench/hooks.py and bench/checks.py also read attributes of what those
functions take and return; a refactor that drops one would fail the
benchmark's rounds or checks, so it should fail here first.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_unit_family
from tangencylab import experiments
from tangencylab.families import gen_maximal_separated
from tangencylab.incidence import bin_dyadic, count_ct_delta_hashed
from tangencylab.planks import enumerate_incomparable, mu_buckets, pair_planks

HOOKS = Path(__file__).resolve().parents[1] / "bench" / "hooks.py"


def _timed():
    spec = importlib.util.spec_from_file_location("bench_hooks", HOOKS)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    return hooks.TIMED


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _timed()])
def test_timed_name_resolves(module, attr):
    target = importlib.import_module(f"tangencylab.{module}")
    for part in attr.split("."):  # a dotted attribute is a method
        target = getattr(target, part)
    assert callable(target)


def test_read_attributes_resolve():
    coll = enumerate_incomparable(16)
    assert all(math.isfinite(float(v)) for v in (coll.A, coll.B, coll.K))
    assert len(coll.box) == 3 and all(len(side) == 2 for side in coll.box)
    sizes = []
    for j, spec in enumerate(coll.slices):
        assert math.isfinite(float(spec.theta))
        centers = coll.slice_cells(j)[2]
        assert centers.ndim == 2 and centers.shape[1] == 3
        sizes.append(centers.shape[0])
    assert len(coll) == sum(sizes) > 0
    assert mu_buckets(coll, gen_maximal_separated(16, 4)).n_rich > 0
    # the planks run_lemma28_check passes to richness are rows of a pair_planks batch
    P = pair_planks(np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 1.0]]), [[0, 1]], 0.01, 2.0).plank(0)
    row = [float(P.frame.theta), *map(float, P.v), float(P.A), float(P.B)]
    assert len(row) == 6 and np.all(np.isfinite(row))


def test_lemma28_calls_richness_once_per_kept_plank(monkeypatch):
    """hooks.py captures lemma28's kept planks by wrapping richness, and
    checks.check_lemma28 judges them: one call per kept plank, row order."""
    fam, delta, A = random_unit_family(28, 300), 0.05, 2.0
    calls = []
    richness = experiments.richness

    def capture(P, family, K=1.0):
        calls.append(P)
        return richness(P, family, K=K)

    monkeypatch.setattr(experiments, "richness", capture)
    rep = experiments.run_lemma28_check(fam, delta, A=A)
    want = []
    binned = bin_dyadic(count_ct_delta_hashed(fam, delta), fam)
    for D in sorted(binned.by_distance):
        bucket = binned.by_distance[D]
        if D >= delta and bucket.shape[0]:
            batch, kept = experiments._lemma28_extract(fam, bucket, delta, D, A)[:2]
            want += [(batch.thetas[t], *batch.centers[t], delta, 2.0 * D) for t in kept]
    got = [(P.frame.theta, *P.v, P.A, P.B) for P in calls]
    assert len(got) == sum(int(r["mu_hat"]) for r in rep.rows) == len(want) > 20
    assert got == want
    assert np.all(np.isfinite(got))

"""The benchmark's output checks accept the program's outputs and reject tampered ones.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402
from tangencylab import cli, experiments  # noqa: E402
from tangencylab.families import (  # noqa: E402
    CircleFamily, gen_integer_lattice, gen_random_wellspaced, unit_box,
)
from tangencylab.incidence import count_ct0_exact  # noqa: E402
from tangencylab.planks import enumerate_incomparable  # noqa: E402


def _family_file(tmp_path, n, seed):
    path = str(tmp_path / "fam.txt")
    CircleFamily(workloads.uniform_points(n, seed), 1.0, 0.0, unit_box(), {}).save(path)
    return path


def test_pair_file_rejects_dropped_pair(tmp_path, capsys):
    fam = _family_file(tmp_path, 300, 3)
    pairs = str(tmp_path / "pairs.txt")
    assert cli.main(["count", "--family", fam, "--delta", "0.01", "-o", pairs]) == 0
    stdout = capsys.readouterr().out
    pts = checks.load_points(fam)
    ref = checks.near_pairs(pts, 0.01)
    assert ref[0].size > 10
    assert checks.check_pair_file(pairs, pts, 0.01, ref, stdout) == ([], 0)

    with open(pairs) as fh:
        lines = fh.readlines()
    dropped = lines[:5] + lines[6:]
    with open(pairs, "w") as fh:
        fh.writelines(dropped)
    assert checks.check_pair_file(pairs, pts, 0.01, ref)[0]
    # the header made to agree with the shorter list still misses the pair
    n_rows = len(dropped) - 1
    dropped[0] = dropped[0].replace(f"n_pairs={n_rows + 1}", f"n_pairs={n_rows}")
    with open(pairs, "w") as fh:
        fh.writelines(dropped)
    problems, _ = checks.check_pair_file(pairs, pts, 0.01, ref)
    assert any("missing" in p for p in problems)


def test_pair_file_rejects_pair_above_delta(tmp_path):
    fam = _family_file(tmp_path, 200, 4)
    pairs = str(tmp_path / "pairs.txt")
    assert cli.main(["count", "--family", fam, "--delta", "0.01", "-o", pairs]) == 0
    pts = checks.load_points(fam)
    ref = checks.near_pairs(pts, 0.01)
    with open(pairs) as fh:
        lines = fh.readlines()
    far = next((i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
               if checks.gaps(pts, np.array([i]), np.array([j]))[0] > 0.1)
    lines[1] = f"{far[0]} {far[1]} 1.0 0.5\n"
    with open(pairs, "w") as fh:
        fh.writelines(lines)
    assert any("gap" in p for p in checks.check_pair_file(pairs, pts, 0.01, ref)[0])


def test_stencil_sum_matches_the_program():
    assert [checks.stencil_counts(n)[0] for n in (16, 24, 32)] == [127_304, 659_840, 2_140_320]
    for n in (4, 8):
        pairs = count_ct0_exact(gen_integer_lattice(n), with_bins=True)
        total, buckets = checks.stencil_counts(n)
        assert total == len(pairs)
        assert buckets == {repr(D): int(p.shape[0]) for D, p in pairs.by_distance.items()}


def test_exact_rejects_count_off_by_one(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[exact_ct]\nn = 6\n")
    out = str(tmp_path / "exact_ct")
    assert cli.main(["experiment", "--config", str(cfg), "--out", out]) == 0
    rows, summary = checks.read_report(out, "exact_ct")
    assert checks.check_exact(rows, summary, 6) == []
    rows[0]["lhs"] = str(int(rows[0]["lhs"]) + 1)
    assert checks.check_exact(rows, summary, 6)
    rows, summary = checks.read_report(out, "exact_ct")
    bucket = next(iter(summary["bucket_decomposition"]["6"]))
    summary["bucket_decomposition"]["6"][bucket] -= 1
    assert checks.check_exact(rows, summary, 6)


def test_rectangle_row_rejects_wrong_bucket_maximum(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[rectangle_bound]\nR = 64,128\nK = 2\n")
    out = str(tmp_path / "rect")
    assert cli.main(["experiment", "--config", str(cfg), "--out", out]) == 0
    rows, summary = checks.read_report(out, "rectangle_bound")
    counts = [len(enumerate_incomparable(R, S=R, K=2.0)) for R in (64, 128)]
    axis = 8.0 * np.arange(9)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    ref = checks.membership_buckets(enumerate_incomparable(64, S=64, K=2.0), grid)
    assert checks.check_rectangle(rows, summary, counts, [64, 128], ref) == []
    rows[0]["lhs"] = repr(float(rows[0]["lhs"]) * (1 + 1e-9))
    assert checks.check_rectangle(rows, summary, counts, [64, 128], ref)
    assert checks.check_rectangle(rows, summary, [counts[0], 10], [64, 128], ref)


def test_lemma28_rejects_witness_moved_outside_its_plank(tmp_path, monkeypatch):
    fam_path = _family_file(tmp_path, 150, 5)
    kept = []
    richness = experiments.richness

    def capture(P, family, K=1.0):
        kept.append([P.frame.theta, *P.v, P.A, P.B])
        return richness(P, family, K=K)

    monkeypatch.setattr(experiments, "richness", capture)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[lemma28]\nfamily = {fam_path}\ndelta = 0.05\nA = 2\n")
    out = str(tmp_path / "lemma28")
    assert cli.main(["experiment", "--config", str(cfg), "--out", out]) == 0
    rows, summary = checks.read_report(out, "lemma28")
    pts = checks.load_points(fam_path)
    ref = checks.near_pairs(pts, 0.05)
    rng = np.random.default_rng(0)
    assert checks.check_lemma28(rows, summary, kept, pts, 0.05, 2.0, ref, None, rng) == []

    # move every kept plank that covers one pair away along its long axis
    n = pts.shape[0]
    key = ref[0][ref[1] < 0.05][0]
    ends = pts[[key // n, key % n]]
    moved = [list(P) for P in kept]
    for P in moved:
        if checks.in_plank(ends, P[0], P[1:4], P[4], P[5], 2.0 * (1 + 1e-6)).all():
            P[1:4] = list(np.asarray(P[1:4]) + 4.0 * P[5] * checks.frame(P[0])[2])
    problems = checks.check_lemma28(rows, summary, moved, pts, 0.05, 2.0, ref, None, rng)
    assert any("outside" in p for p in problems)


def test_sharpness_rejects_judged_count_outside_window(tmp_path):
    # the smallest tiled scale where a plank is judged: cheap, unlike 2^11
    params = {"R": 1024.0, "rho": 2.5, "eps": 0.13, "seeds": [1, 2]}
    rep = experiments.run_sharpness(params["R"], params["rho"], params["eps"], params["seeds"])
    summary = rep.summary
    drawn = []
    for s in params["seeds"]:
        pts = gen_random_wellspaced(params["R"], params["rho"], params["eps"], s).points
        drawn.append((pts.shape[0], checks.occupancy_max(pts, params["R"], params["rho"])))
    judged = summary["n_planks_judged"]
    assert judged >= 1
    assert checks.check_sharpness(summary, params, drawn, min_judged=judged) == []
    assert checks.check_sharpness(summary, params, drawn, min_judged=judged + 1)

    summary["per_seed"][0]["n_judged_outside"] = 1
    problems = checks.check_sharpness(summary, params, drawn, min_judged=judged)
    assert any("held on 1 of 2" in p for p in problems)
    summary["per_seed"][0]["n_judged_outside"] = 0
    drawn[1] = (drawn[1][0], drawn[1][1] + 1)
    assert checks.check_sharpness(summary, params, drawn, min_judged=judged)


def test_occupancy_counts_anchored_cubes():
    pts = np.array([[0.0, 0.0, 0.0], [1.9, 1.9, 1.9], [2.0, 0.0, 0.0], [4.0, 4.0, 4.0]])
    # [4, 4, 4] sits on the top face and folds into the last cube
    assert checks.occupancy_max(pts, 4.0, 2.0) == 2
    assert checks.occupancy_max(pts[:1], 4.0, 2.0) == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_plans_are_pure_functions_of_the_seed(name):
    a = workloads.plan(name, 7, "in", "out")
    b = workloads.plan(name, 7, "in", "out")
    assert a == b
    assert all(op.circles is None or op.circles > 0 for op in a.ops)
    assert math.isclose(workloads.grid_size(256, 16), 17 ** 3)
